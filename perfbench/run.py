"""Prequential benchmark of bodl: one workload, one seed, one process.

    python3 perfbench/run.py --workload deep-flip --seed 1 --seconds 30 --trace 0

The benchmark is a single closed-loop caller of the public
``bodl.harness.prequential_run(RunConfig)``: it builds the stream, runs the
whole stream through the learner, checks the report against the recorded
one, and repeats until ``--seconds`` are used up. Per-instance step times
come from the stream itself, which stamps the clock on every pull.

With ``--trace 0`` the last line is the end-to-end result; with ``--trace 1``
passes alternate between untraced and traced (module attributes wrapped by
``tracer.Tracer``) and the last line is the per-layer result. Either way the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from timing import REF_SETUP_PROBE_NS, SETUP_PROBES, calibrate, make_timed_source, \
    setup_probe_ns, speed, step_factors
from tracer import Tracer
from workloads import REPO, WORK, WORKLOADS, check_report, import_bodl, load_golden, \
    prepare_inputs, report_summary

WARMUP_INSTANCES = 300
STALL_MIN_ADAPTATIONS = 20      # fewer per pass: no drift_stall_ms_p50 (reported as 0)


@dataclass
class Setup:
    """Stream build and pre-loop work: build wall time, total wall time and
    total at reference machine speed (timing.py), in ns."""

    build_ns: int
    wall_ns: int
    ref_ns: float


@dataclass
class Pass:
    """One prequential_run over the whole stream. ``steps_ns`` are raw wall
    times per instance; ``steps_ref`` the same at reference machine speed."""

    traced: bool
    setup: Setup | None = None
    steps_ns: np.ndarray | None = None
    steps_ref: np.ndarray | None = None
    probe_speed: float = 0.0
    summary: dict | None = None
    adapt_positions: tuple = ()
    drift_positions: tuple = ()
    error: str | None = None


@dataclass
class Run:
    passes: list = field(default_factory=list)
    tracer: Tracer | None = None
    peak_rss_mb: float = 0.0    # after the first pass, before results pile up


def run_pass(wl, seed: int, tracer: Tracer | None = None) -> Pass:
    """Build the stream, run it once, and time set-up and every step."""
    from bodl.harness import RunConfig, prequential_run
    from bodl.streams import parse_stream_spec

    out = Pass(traced=tracer is not None)
    clock = time.perf_counter_ns
    root = None
    gc.collect()    # every set-up starts from the same heap, as in a fresh process
    before = [setup_probe_ns() for _ in range(SETUP_PROBES)]
    try:
        t0 = clock()
        source = parse_stream_spec(wl.stream_spec(seed), default_seed=seed)
        t1 = clock()
        timed = make_timed_source(source)
        cfg = RunConfig(stream=timed, learner=wl.learner, seed=seed, **wl.knobs)
        root = tracer.begin_pass(timed.resumes) if tracer else None
        try:
            t2 = clock()
            report = prequential_run(cfg)
            t3 = clock()
        finally:
            if tracer:
                tracer.end_pass(root)
    except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
        out.error = traceback.format_exc()
        if root is not None:    # keep one scale per span; the run is failed anyway
            tracer.scale.extend([1.0] * (len(tracer.name) - len(tracer.scale)))
        return out

    pulls = np.array(timed.pulls, dtype=np.int64)
    resumes = np.array(timed.resumes, dtype=np.int64)
    probes = np.array(timed.probes, dtype=np.int64).reshape(-1, 2)
    factor = step_factors(len(resumes), probes[:, 0], probes[:, 1])
    init_ns = timed.first_pull - t2
    wall = (t1 - t0) + init_ns
    setup_speed = speed(before + timed.setup_probes, REF_SETUP_PROBE_NS)

    out.setup = Setup(t1 - t0, wall, wall * setup_speed)
    out.steps_ns = np.append(pulls[1:], t3) - resumes
    out.steps_ref = out.steps_ns * factor
    out.probe_speed = speed(probes[:, 1])
    out.summary = report_summary(report)
    out.adapt_positions = tuple(a["position"] for a in report.adaptations)
    out.drift_positions = tuple(e["position"] for e in report.drift_events)
    if tracer:
        tracer.scale_pass(root, factor, setup_speed,
                          out.steps_ref.sum() + init_ns * setup_speed)
    return out


def warm_up(wl, seed: int) -> None:
    """Run the first instances once so lazy imports and caches are settled."""
    from bodl.harness import RunConfig, prequential_run
    from bodl.streams import StreamSource, parse_stream_spec

    src = parse_stream_spec(wl.stream_spec(seed), default_seed=seed)
    head = StreamSource(src.instances[:WARMUP_INSTANCES], src.input_dim,
                        src.classes, src.provenance, src.label_names)
    prequential_run(RunConfig(stream=head, learner=wl.learner, seed=seed, **wl.knobs))


def measure(wl, seed: int, seconds: float, trace: bool) -> Run:
    """Whole passes, each with its own set-up, until the next would overrun
    ``seconds``. Traced runs alternate untraced and traced passes."""
    run = Run(tracer=Tracer() if trace else None)
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        traced = trace and len(run.passes) % 2 == 1
        if traced:
            run.tracer.install()
        t = time.perf_counter()
        try:
            run.passes.append(run_pass(wl, seed, run.tracer if traced else None))
        finally:
            if traced:
                run.tracer.uninstall()
        durations.append(time.perf_counter() - t)
        if len(run.passes) == 1:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        both_kinds = not trace or len(run.passes) >= 2
        if both_kinds and time.perf_counter() + statistics.median(durations) > deadline:
            return run


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Gated metrics at reference speed, and the same in raw wall time.

    Throughput is over every step of every pass. The percentiles are over
    stream positions of each position's median across passes: every pass
    does the same work at each position, so a host slowdown shorter than
    the probe spacing, which survives the rescaling, counts only where it
    hits the same instance in most passes. A slow step that recurs at the
    same instance in every pass, such as a drift adaptation, still counts.
    """
    passes = [p for p in run.passes if not p.error and not p.traced]
    setups = [p.setup for p in passes]

    def summarize(steps: np.ndarray, setup_ns: list) -> dict:
        typical = np.median(steps, axis=0)
        return {
            "throughput_ips": (steps.size / (steps.sum() / 1e9), "1/s"),
            "step_ms_p50": (float(np.percentile(typical, 50)) / 1e6, "ms"),
            "step_ms_p99": (float(np.percentile(typical, 99)) / 1e6, "ms"),
            "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        }
    ref = summarize(np.stack([p.steps_ref for p in passes]), [s.ref_ns for s in setups])
    raw = summarize(np.stack([p.steps_ns for p in passes]), [s.wall_ns for s in setups])
    ref["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return ref, raw


def true_alarm_ratio(positions, segment: int) -> float:
    """Share of drift events within half a segment after a concept change."""
    if not positions:
        return 0.0
    hits = sum(1 for p in positions if p >= segment and p % segment < segment // 2)
    return hits / len(positions)


def per_layer(wl, run: Run) -> dict:
    """Layer metrics from the traced passes, at reference machine speed;
    the drift stall and the tracing overhead come from the untraced ones."""
    tracer = run.tracer
    plain = [p for p in run.passes if not p.error and not p.traced]
    traced = [p for p in run.passes if not p.error and p.traced]
    setups = [p.setup for p in plain + traced]
    tot = tracer.totals()
    n = sum(len(p.steps_ns) for p in traced)
    adaptations = sum(len(p.adapt_positions) for p in traced)

    def us(name, self_time=False):          # µs per instance
        return tot[name][2 if self_time else 1] / 1e3 / n

    def ms_per_call(name, self_time=False):
        calls = tot[name][0]
        return tot[name][2 if self_time else 1] / 1e6 / calls if calls else 0.0

    stalls = [ms for p in plain if len(p.adapt_positions) >= STALL_MIN_ADAPTATIONS
              for ms in p.steps_ref[list(p.adapt_positions)] / 1e6]
    overhead = (statistics.median(p.steps_ref.sum() for p in traced)
                / statistics.median(p.steps_ref.sum() for p in plain) - 1.0) * 100.0
    events = [pos for p in traced for pos in p.drift_positions]
    root_ns = tot["harness.prequential_run"][1]
    return {
        "hedge_net.forward_us": (us("harness.forward"), "us"),
        "hedge_net.backward_us": (us("harness.backward"), "us"),
        "hedge_net.apply_update_self_us": (us("harness.apply_update", True), "us"),
        "hedge_net.total_loss_us": (us("harness.total_loss"), "us"),
        "hedge_net.predict_ensemble_us": (us("harness.predict_ensemble"), "us"),
        "hedge_net.hedge_update_us": (us("harness.hedge_update"), "us"),
        "numerics.adam_step_us": (us("hedge_net.adam_step"), "us"),
        "numerics.adam_step_calls": (tot["hedge_net.adam_step"][0] / n, "calls/inst"),
        "bilevel.adaptations": (adaptations / len(traced), "count"),
        "bilevel.adapt_ms": (ms_per_call("harness.adapt_on_drift"), "ms"),
        "bilevel.adapt_self_ms": (ms_per_call("harness.adapt_on_drift", True), "ms"),
        "bilevel.inner_adapt_ms": (ms_per_call("bilevel.inner_adapt"), "ms"),
        "bilevel.lookahead_ms": (ms_per_call("bilevel.lookahead"), "ms"),
        "bilevel.outer_interpolate_ms": (ms_per_call("bilevel.outer_interpolate"), "ms"),
        "bilevel.params_distance_ms": (ms_per_call("bilevel.params_distance"), "ms"),
        "bilevel.forward_calls": (tot["bilevel.forward"][0] / adaptations if adaptations else 0.0,
                                  "calls/adapt"),
        "bilevel.loop_share_pct": (100.0 * tot["harness.adapt_on_drift"][1] / root_ns, "%"),
        "drift_stall_ms_p50": (statistics.median(stalls) if stalls else 0.0, "ms"),
        "streams.build_s": (statistics.median(s.build_ns * s.ref_ns / s.wall_ns
                                              for s in setups) / 1e9, "s"),
        "streams.standardize_us": (us("streams.standardize"), "us"),
        "baselines.step_us": (us("baselines.step"), "us"),
        "harness.update_metrics_us": (us("harness.update_metrics"), "us"),
        "harness.self_us": (us("harness.prequential_run", True), "us"),
        "drift.observe_us": (us("drift.observe"), "us"),
        "drift.events": (len(events) / len(traced), "count"),
        "drift.true_alarm_ratio": (true_alarm_ratio(events, wl.segment), "ratio"),
        "memory.maybe_insert_us": (us("memory.maybe_insert"), "us"),
        "memory.kept_ratio": (tracer.kept / tracer.offered if tracer.offered else 0.0, "ratio"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.network_spans": (tracer.network_spans() / len(traced), "count"),
        "trace.missing_hooks": (len(tracer.missing), "count"),
    }


def stress_check(wl, seed: int, metrics: dict, traced: bool) -> bool:
    """Print the workload's stress check; False if it fails in a traced run
    on a seed that is not exempt. Untraced runs check it where the metric is
    known without tracing (adaptation counts) and only warn."""
    metric, op, limit = wl.stress
    if metric not in metrics:
        return True
    value = metrics[metric][0]
    held = {"<": value < limit, ">=": value >= limit, "==": value == limit}[op]
    exempt = seed in wl.stress_exempt
    verdict = ("holds" if held else
               f"does not hold; seed {seed} is a documented exception" if exempt else
               "DOES NOT HOLD" if traced else "does not hold (counts in a traced run)")
    line = f"stress check: {metric} = {value:g}, expected {op} {limit:g}: {verdict}"
    print("# " + line)
    if not held:
        print("perfbench: " + line, file=sys.stderr)
    return held or exempt or not traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(REPO)
    import_bodl()
    wl = WORKLOADS[args.workload]
    expected = load_golden().get(args.workload, {}).get(str(args.seed))

    cal_before = calibrate()
    prepare_inputs(wl, args.seed)
    warm_up(wl, args.seed)
    run = measure(wl, args.seed, args.seconds, bool(args.trace))
    passes, tracer = run.passes, run.tracer
    cal_after = calibrate()

    failed, digests = 0, set()
    for i, p in enumerate(passes):
        problem = p.error or check_report(p.summary, expected)
        if problem:
            failed += 1
            print(f"pass {i} ({'traced' if p.traced else 'untraced'}): {problem}",
                  file=sys.stderr)
        else:
            digests.add(p.summary["sha256"])
    ok = [p for p in passes if not p.error]
    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        print(f"passes disagree: {len(digests)} distinct report hashes", file=sys.stderr)

    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), golden "
          f"{'checked' if expected else 'not recorded for this seed'}")
    if ok:
        s = ok[0].summary
        print(f"# report sha256 {s['sha256']} accuracy {s['accuracy']:.6f} "
              f"drift_events {s['drift_events']} adaptations {s['adaptations']}")
        print(f"# calibration loop {cal_before:.4f} s before, {cal_after:.4f} s after; "
              f"median speed factor {statistics.median(p.probe_speed for p in ok):.3f} "
              f"(reference / wall)")
    if tracer is not None:
        same = len({p.summary["sha256"] for p in ok}) == 1
        print(f"# trace fidelity: traced report hash {'equals' if same else 'DIFFERS FROM'} "
              f"the untraced one; hooks missing: {', '.join(tracer.missing) or 'none'}")

    plain = [p for p in ok if not p.traced]
    if not plain or (tracer is not None and len(ok) == len(plain)):
        print("perfbench: no successful pass to measure", file=sys.stderr)
        return 1
    if tracer is not None:
        WORK.mkdir(exist_ok=True)
        tracer.save(WORK / f"spans-{args.workload}.npz")
        metrics = per_layer(wl, run)
        for name, (value, unit) in metrics.items():
            print(f"# {name:32s} {value:14.6f} {unit}")
        correct &= stress_check(wl, args.seed, metrics, traced=True)
    else:
        metrics, raw = end_to_end(run)
        print(f"# {'metric':32s} {'reference':>14s} {'wall':>14s}")
        for name, (value, unit) in metrics.items():
            wall = f"{raw[name][0]:14.6f}" if name in raw else f"{'':14s}"
            print(f"# {name:32s} {value:14.6f} {wall} {unit}")
        print("# wall " + json.dumps({k: v for k, (v, _) in raw.items()}))
        counts = {"bilevel.adaptations": (len(plain[0].adapt_positions), "count")}
        stress_check(wl, args.seed, counts, traced=False)
    print(json.dumps({
        "correct": correct,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
