"""Clocks for the benchmark: per-pull stamps and a machine-speed reference.

The host this benchmark was built on changes speed by up to 2x in phases
lasting from about 10 ms to minutes, per CPU, and much alike for the
program and for a fixed 30x31 mat-vec loop. Raw wall times of two
30-second runs can therefore differ by 2x with nothing changed. To make runs comparable,
the timed stream interleaves a short fixed probe (PROBE_MATVECS mat-vecs)
every PROBE_EVERY_NS of loop time and every measured interval is rescaled
by REF_PROBE_NS / (the local probe time, interpolated between probes):
times are reported as they would read on a machine where the probe takes
REF_PROBE_NS. Probe time itself is cut out of every step. Raw wall times
are printed next to them.

Set-up (stream build, CSV parsing, network init) is mostly interpreter
work on Python objects and slows less than the mat-vec loop in the slow
phase, so it has its own probe: parsing a fixed small CSV text into numpy
rows, SETUP_PROBES times just before the build and just after the first
pull, rescaled to REF_SETUP_PROBE_NS.
"""

from __future__ import annotations

import csv
import io
import time
from array import array

import numpy as np

PROBE_EVERY_NS = 5_000_000      # slow bursts can be as short as ~10 ms
PROBE_MATVECS = 25
REF_PROBE_NS = 37_500            # about the probe in this host's fast phase
PROBE_WINDOW = 1                 # probes on each side in the local median
SETUP_PROBES = 5                 # set-up probes on each side of a set-up
SETUP_PROBE_ROWS = 200
REF_SETUP_PROBE_NS = 2_400_000   # set-up times then read about as the mat-vec
                                 # rescaling gave them

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((30, 31))
_X = _rng.standard_normal(31)
_CSV_TEXT = "".join(",".join(repr(float(v)) for v in row) + f",{i % 2}\n"
                    for i, row in enumerate(_rng.uniform(-1, 1, (SETUP_PROBE_ROWS, 20))))


def probe_ns() -> int:
    """Duration of one fixed Python + numpy slice."""
    a, x = _A, _X
    t0 = time.perf_counter_ns()
    acc = 0.0
    for _ in range(PROBE_MATVECS):
        acc += float((a @ x)[0])
    return time.perf_counter_ns() - t0


def setup_probe_ns() -> int:
    """Duration of parsing a fixed CSV text into numpy rows."""
    t0 = time.perf_counter_ns()
    rows = []
    for row in csv.reader(io.StringIO(_CSV_TEXT)):
        feats = np.empty(len(row) - 1)
        for j in range(len(row) - 1):
            feats[j] = float(row[j])
        rows.append(feats)
    return time.perf_counter_ns() - t0


def calibrate() -> float:
    """Seconds for 20,000 mat-vecs in probes, best of three: context only."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(20_000 // PROBE_MATVECS):
            probe_ns()
        best = min(best, time.perf_counter() - t0)
    return best


def make_timed_source(source):
    """A StreamSource over the same instances that stamps every pull.

    ``first_pull`` is read when prequential_run first asks for an instance,
    which ends its set-up; the set-up probes follow (``setup_probes``).
    ``pulls[i]`` is read when instance i is requested, which ends step i-1;
    ``resumes[i]`` is read when it is handed over, which starts step i. They
    differ only where a probe ran in between. Step i lasts from resumes[i]
    to pulls[i+1]; the last step ends when prequential_run returns.
    """
    from bodl.streams import StreamSource   # importable after workloads.import_bodl()

    class TimedSource(StreamSource):
        def __iter__(self):
            pulls, resumes, probes = self.pulls, self.resumes, self.probes
            clock = time.perf_counter_ns
            self.first_pull = clock()
            self.setup_probes = [setup_probe_ns() for _ in range(SETUP_PROBES)]
            last = 0
            for inst in self.instances:
                t = clock()
                pulls.append(t)
                if t - last >= PROBE_EVERY_NS:
                    probes.append(len(resumes))
                    probes.append(probe_ns())
                    t = last = clock()
                resumes.append(t)
                yield inst

    timed = TimedSource(source.instances, source.input_dim, source.classes,
                        source.provenance, source.label_names)
    timed.pulls, timed.resumes, timed.probes = array("q"), array("q"), array("q")
    return timed


def speed(probes, ref_ns: float = REF_PROBE_NS) -> float:
    """Rescale factor for an interval from the probes taken around it."""
    return ref_ns / float(np.median(probes))


def step_factors(n_steps: int, probe_at: np.ndarray, probe_times: np.ndarray) -> np.ndarray:
    """Per-step rescale factor. Each probe is smoothed with the median of
    its PROBE_WINDOW neighbours on each side, then interpolated over the
    step index between the probes around it."""
    k = PROBE_WINDOW
    smooth = np.array([np.median(probe_times[max(0, j - k):j + k + 1])
                       for j in range(len(probe_times))])
    return REF_PROBE_NS / np.interp(np.arange(n_steps), probe_at, smooth)
