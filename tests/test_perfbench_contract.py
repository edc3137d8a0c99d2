"""What perfbench/ needs from the program: its tracer hooks resolve, tracing
leaves the report unchanged, and its timed source replays the stream.

perfbench/ is read as it is; nothing there is written. A rename in src/ that
leaves a hook dangling, or a change that makes the traced run differ from
the untraced one, fails here rather than in a benchmark run.
"""

import math
import sys
from pathlib import Path

import pytest

from bodl.harness import STANDARDIZE_BLOCK, RunConfig, prequential_run
from bodl.streams import parse_stream_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import timing  # noqa: E402
import tracer  # noqa: E402

STREAM = "hyperplane:seg=300,300;noise=0.05;mode=flip;d=8"


def small_run(source):
    return prequential_run(RunConfig(stream=source, learner="bodl-2", seed=3, hidden_layers=1,
                                     width=8, optimizer="sgd", lr=0.05))


@pytest.mark.parametrize("name, module, path", tracer.HOOKS, ids=[h[0] for h in tracer.HOOKS])
def test_every_tracer_hook_resolves(name, module, path):
    assert tracer._resolve(module, path) is not None, f"{name}: {module}.{path} is gone"


def test_traced_run_writes_the_untraced_report():
    source = parse_stream_spec(STREAM, default_seed=3)
    plain = small_run(source)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = small_run(source)
    finally:
        tr.uninstall()
    assert traced.as_dict() == plain.as_dict()
    assert tr.missing == []
    assert tr.offered == 600
    assert 0 < tr.kept <= tr.offered
    assert plain.adaptations
    adapt_spans = list(tr.name).count(tr.names.index("harness.adapt_on_drift"))
    assert adapt_spans == len(plain.adaptations)


@pytest.mark.parametrize("rows", [511, 512, 513, 1100])
def test_traced_standardizer_spans_one_call_per_block(rows):
    # the hook times every block's standardization: ceil(rows / 512) calls
    source = parse_stream_spec(f"hyperplane:seg={rows};noise=0.05;d=8", default_seed=3)
    cfg = RunConfig(stream=source, learner="arow")
    plain = prequential_run(cfg)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = prequential_run(cfg)
    finally:
        tr.uninstall()
    assert traced.as_dict() == plain.as_dict()
    spans = list(tr.name).count(tr.names.index("streams.standardize"))
    assert spans == math.ceil(rows / STANDARDIZE_BLOCK) == math.ceil(rows / 512)


def test_timed_source_yields_the_instances_in_order():
    source = parse_stream_spec(STREAM, default_seed=3)
    timed = timing.make_timed_source(source)
    pulled = list(timed)
    assert len(pulled) == len(source)
    assert all(got is inst for got, inst in zip(pulled, source.instances))
    assert len(timed.resumes) == len(source)
