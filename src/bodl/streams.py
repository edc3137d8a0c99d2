"""Data streams: CSV loading, synthetic drift generators, online standardization.

A stream is a fully materialized list of instances so that runs are repeatable
and cheap to re-iterate. Stream descriptions use a compact one-line grammar,
e.g. ``csv:data/pima.csv``, ``sea:seg=2000,2000;noise=0.1;seed=7`` or
``hyperplane:seg=2000,2000;d=8;mode=flip;noise=0.1;seed=7``.

The generators draw a segment at a time: one ``rng.random((rows, d + 1))``
call per segment, one row per instance holding its d feature draws and then,
when ``noise > 0``, its label-flip draw. That is the order in which one
``uniform(size=d)`` and one ``random()`` call per instance would consume the
generator, so the stream's bits do not depend on the batching. Each
instance's features are a row view of its segment's draw buffer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, StreamFormatError

# thresholds on x0 + x1 for the piecewise SEA-style concept, cycled per segment
SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

# The largest Euclidean norm `load_csv` accepts for a row's features. Every
# feature is then at most 1e100 in magnitude, and so is the Standardizer's
# running mean, so each term delta * (x - mean) of its running variance is at
# most 4e200 and their sum stays finite for any stream under 4e107 rows.
MAX_ROW_NORM = 1e100

# The most random draws a generated stream may take, rows x (d + 1): 1 GiB of
# float64. A larger spec is refused before anything is drawn or allocated.
MAX_GENERATED_DRAWS = 2**27

# the options each generator's stream spec takes; a csv spec takes none
SPEC_OPTIONS = {"sea": ("seg", "noise", "seed", "d"),
                "hyperplane": ("seg", "noise", "seed", "d", "mode")}


@dataclass(slots=True)
class StreamInstance:
    """One labelled observation plus its position in the stream."""

    features: np.ndarray
    label: int
    position: int


@dataclass
class StreamSource:
    """Materialized instance sequence plus the schema a learner needs."""

    instances: list[StreamInstance]
    input_dim: int
    classes: int
    provenance: str = ""
    label_names: list[str] = field(default_factory=list)

    def __iter__(self):
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)


def _csv_rows(path: Path):
    """Yield (line number, cells) per record; a byte that is not UTF-8 or a
    cell over the csv field limit raises a StreamFormatError naming its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise StreamFormatError(f"{path} line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # the text layer decodes ahead in chunks, so the reader's count is
            # not the bad byte's line: find the byte in the file itself
            raw = path.read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line_no = raw.count(b"\n", 0, exc.start) + 1
                raise StreamFormatError(
                    f"{path} line {line_no}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
            raise   # the file changed between the two reads


def load_csv(path: str | Path) -> StreamSource:
    """Read a headerless comma-separated UTF-8 file into a stream, in file order.

    Each non-blank row is ``features..., label``. Labels are encoded by first
    appearance. A ragged row, a non-numeric cell (a header row among them),
    a non-finite feature (``nan``, ``inf``), features whose Euclidean norm
    exceeds MAX_ROW_NORM and a blank label are rejected with their line
    number, as are the read errors of `_csv_rows`.
    """
    path = Path(path)
    if not path.is_file():
        raise StreamFormatError(f"no such file: {path}")
    label_map: dict[str, int] = {}
    instances: list[StreamInstance] = []
    width = None
    for line_no, row in _csv_rows(path):
        if not any(cell.strip() for cell in row):
            continue
        if width is None:
            width = len(row)
            if width < 2:
                raise StreamFormatError(f"{path}: no feature columns")
        if len(row) != width:
            raise StreamFormatError(f"{path} line {line_no}: {len(row)} cells, expected {width}")
        feats = []
        for cell in row[:-1]:
            try:
                feats.append(float(cell))
            except ValueError:
                raise StreamFormatError(f"{path} line {line_no}: non-numeric value {cell!r}")
        if not math.hypot(*feats) <= MAX_ROW_NORM:     # also false for nan and inf
            if not all(map(math.isfinite, feats)):
                raise StreamFormatError(f"{path} line {line_no}: non-finite feature value")
            raise StreamFormatError(f"{path} line {line_no}: features of norm above "
                                    f"{MAX_ROW_NORM:g}")
        name = row[-1].strip()
        if not name:
            raise StreamFormatError(f"{path} line {line_no}: blank label")
        label = label_map.setdefault(name, len(label_map))
        instances.append(StreamInstance(np.array(feats), label, len(instances)))
    if not instances:
        raise StreamFormatError(f"{path}: no data rows")
    if len(label_map) < 2:
        raise StreamFormatError(f"{path}: found {len(label_map)} distinct label(s), need at least 2")
    return StreamSource(instances, width - 1, len(label_map), f"csv:{path}", list(label_map))


class Standardizer:
    """Running per-feature z-scoring without lookahead.

    Each row is transformed with statistics of the rows seen *before* it,
    then folded in (Welford). The first row maps to the zero vector; a
    feature with zero variance so far is passed through centered but
    unscaled. `standardize` takes a block of consecutive rows: only the
    mean's recurrence runs row by row, and the second moments and z-scores
    of the whole block follow in one vectorized pass, with the same
    operations on the same operands as one row at a time.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    @property
    def variance(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros(self.dim)
        return self._m2 / self.count

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        """The z-scores of a (k, dim) block of consecutive rows, each row
        scored against every row before it, in this call and in earlier
        ones; the rows then join the statistics. Any other shape raises
        InputError and moves no statistic: it would broadcast against the
        running mean instead."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise InputError(f"feature block of shape {rows.shape}, expected (rows, {self.dim})")
        k, first = len(rows), self.count
        # the mean before each row and after the last, each row's delta
        means = np.empty((k + 1, self.dim))
        means[0] = self.mean
        delta = np.empty((k, self.dim))
        subtract, divide, add = np.subtract, np.divide, np.add
        for xi, d, m, m_next, t in zip(rows, delta, means, means[1:],
                                       map(float, range(first + 1, first + k + 1))):
            subtract(xi, m, d)
            divide(d, t, m_next)
            add(m, m_next, m_next)               # mean + delta / t
        # the second moment before each row and after the last, summed in order
        m2 = np.empty((k + 1, self.dim))
        m2[0] = self._m2
        terms = m2[1:]
        np.subtract(rows, means[1:], terms)
        np.multiply(delta, terms, terms)         # delta * (x - new mean)
        np.add.accumulate(m2, axis=0, out=m2)
        count = np.arange(first, first + k, dtype=np.float64)[:, None]
        if first == 0:
            count[:1] = 1.0                      # row 0 has no statistics: z set below
        z = np.divide(m2[:k], count)             # the variance, then the divisor, then z
        unscaled = ~(z > 0.0)
        np.sqrt(z, z)
        np.maximum(z, 1e-8, out=z)
        np.copyto(z, 1.0, where=unscaled)
        np.divide(delta, z, z)
        if first == 0:
            z[:1] = 0.0
        self.count += k
        self.mean[:] = means[k]
        self._m2[:] = m2[k]
        return z


def gen_drift_stream(
    kind: str,
    segments: list[int],
    noise: float = 0.0,
    dim: int | None = None,
    seed: int = 0,
    mode: str = "redraw",
) -> StreamSource:
    """Synthesize a binary stream whose concept changes at segment boundaries.

    ``sea``: features uniform on [0, 10], label from x0 + x1 <= threshold,
    thresholds cycling through SEA_THRESHOLDS. ``hyperplane``: features
    uniform on [-1, 1], label from the sign of w.x with w redrawn per segment
    (``mode=redraw``) or negated (``mode=flip``, the hardest switch).
    ``noise`` flips each label independently with that probability.
    A spec whose rows x (dim + 1) exceeds MAX_GENERATED_DRAWS is refused.
    """
    if kind not in ("sea", "hyperplane"):
        raise ConfigError(f"unknown stream kind {kind!r}")
    segments = [int(s) for s in segments]
    if not segments or min(segments) < 1:
        raise ConfigError("segments must be a non-empty list of positive lengths")
    if not 0.0 <= noise < 1.0:
        raise ConfigError("noise must lie in [0, 1)")
    if mode not in ("redraw", "flip"):
        raise ConfigError(f"unknown drift mode {mode!r}")
    if dim is None:
        dim = 3 if kind == "sea" else 8
    if kind == "sea" and dim < 2:
        raise ConfigError("sea needs dim >= 2")
    if dim < 1:
        raise ConfigError("dim must be >= 1")

    rows = sum(segments)
    if rows * (dim + 1) > MAX_GENERATED_DRAWS:
        raise ConfigError(f"{rows} rows of {dim} features exceed the generator's limit of "
                          f"{MAX_GENERATED_DRAWS} random draws (rows x (d + 1))")

    rng = np.random.default_rng(seed)
    low, high = (0.0, 10.0) if kind == "sea" else (-1.0, 1.0)
    noisy = noise > 0.0
    instances: list[StreamInstance] = []
    w = None
    for seg_idx, seg_len in enumerate(segments):
        if kind == "hyperplane":
            w = rng.standard_normal(dim) if w is None or mode == "redraw" else -w
        draws = rng.random((seg_len, dim + noisy))
        x = draws[:, :dim]
        x *= high - low
        x += low
        if kind == "sea":
            labels = x[:, 0] + x[:, 1] <= SEA_THRESHOLDS[seg_idx % len(SEA_THRESHOLDS)]
        else:
            # one ddot per row, as `w @ x` on a lone row; `x @ w` is a gemv
            labels = np.matmul(x[:, None, :], w[:, None])[:, 0, 0] >= 0.0
        if noisy:
            labels ^= draws[:, dim] < noise
        start = len(instances)
        instances.extend(map(StreamInstance, x, labels.astype(int).tolist(),
                             range(start, start + len(x))))
    desc = f"{kind}:seg={','.join(map(str, segments))};noise={noise};seed={seed}"
    if kind == "hyperplane":
        desc += f";d={dim};mode={mode}"
    return StreamSource(instances, dim, 2, desc, ["0", "1"])


def _parse_kv(body: str, spec: str, allowed: tuple[str, ...]) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad option {part!r} in stream spec {spec!r}")
        key, val = (t.strip() for t in part.split("=", 1))
        if key not in allowed:
            expected = f"expected one of {', '.join(allowed)}" if allowed else "csv takes only a path"
            raise ConfigError(f"unknown option {key}={val!r} in stream spec {spec!r}; {expected}")
        out[key] = val
    return out


def _number(opts: dict[str, str], key: str, kind: type, spec: str, default=None,
            minimum=None):
    """Option `key` converted by `kind` (int or float), or `default` if absent;
    a given value below `minimum` is refused."""
    if key not in opts:
        return default
    try:
        value = kind(opts[key])
    except ValueError:
        raise ConfigError(f"option {key}={opts[key]!r} in stream spec {spec!r} "
                          f"is not {'an integer' if kind is int else 'a number'}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"option {key}={opts[key]!r} in stream spec {spec!r} "
                          f"is below {minimum}")
    return value


def parse_stream_spec(spec: str, default_seed: int = 0) -> StreamSource:
    """Build a stream from its one-line description.

    ``csv:<path>`` (see ``load_csv``) or ``sea:``/``hyperplane:``
    with ``seg=<n,n,...>`` and optional ``noise=``, ``seed=``, ``d=`` and, for
    ``hyperplane`` only, ``mode=redraw|flip``. Any other option is refused. A
    generator without an explicit seed uses ``default_seed``.
    """
    if default_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {default_seed}")
    if ":" not in spec:
        raise ConfigError(f"stream spec {spec!r} needs the form kind:options")
    kind, body = spec.split(":", 1)
    kind = kind.strip().lower()
    if kind == "csv":
        token, _, options = body.partition(";")
        if not token.strip():
            raise ConfigError(f"csv spec {spec!r} is missing a path")
        _parse_kv(options, spec, ())
        return load_csv(token.strip())
    if kind in SPEC_OPTIONS:
        opts = _parse_kv(body, spec, SPEC_OPTIONS[kind])
        if "seg" not in opts:
            raise ConfigError(f"stream spec {spec!r} needs seg=<len,len,...>")
        try:
            segments = [int(s) for s in opts["seg"].split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"bad segment list {opts['seg']!r}")
        return gen_drift_stream(
            kind,
            segments,
            noise=_number(opts, "noise", float, spec, 0.0),
            dim=_number(opts, "d", int, spec),
            seed=_number(opts, "seed", int, spec, default_seed, minimum=0),
            mode=opts.get("mode", "redraw"),
        )
    raise ConfigError(f"unknown stream kind {kind!r} in {spec!r}")


def write_stream_csv(source: StreamSource, path: str | Path) -> None:
    """Save a stream as headerless rows of features followed by the label:
    its name when the source has label names, else its index."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = source.label_names or range(source.classes)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for inst in source:
            writer.writerow([repr(float(v)) for v in inst.features] + [names[inst.label]])
