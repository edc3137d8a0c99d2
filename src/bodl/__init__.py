"""Streaming classification with a hedged multi-depth network.

A single deep ReLU network carries one softmax head per depth; the ensemble
prediction is the importance-weighted vote of all heads, with importances
maintained multiplicatively from per-head losses. An error-rate drift
detector triggers a memory-anchored parameter adaptation: a short refinement
on recent instances, a look-ahead step on a replayed batch from a reservoir
memory, and an interpolation of the main parameters toward the result.
Classic linear online learners and a test-then-train harness round out the
benchmark tooling.
"""

from .baselines import BASELINES, make_baseline
from .bilevel import (
    AdaptationRecord,
    BilevelConfig,
    RecentBuffer,
    adapt_on_drift,
    inner_adapt,
    lookahead,
    outer_interpolate,
)
from .drift import DRIFT, STABLE, DriftState, observe, reset
from .errors import ConfigError, DivergenceError, InputError, StateError, StreamFormatError
from .harness import (
    MetricsReport,
    NetworkLearner,
    RunConfig,
    RunResult,
    prequential_run,
    run_suite,
    update_metrics,
)
from .hedge_net import (
    NetworkConfig,
    NetworkParams,
    backward,
    forward,
    hedge_update,
    init_network,
    predict_ensemble,
    total_loss,
)
from .memory import EpisodicMemory, StreamInstance
from .streams import (
    Standardizer,
    StreamSource,
    gen_drift_stream,
    load_csv,
    parse_stream_spec,
    write_stream_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationRecord",
    "BASELINES",
    "BilevelConfig",
    "ConfigError",
    "DRIFT",
    "DivergenceError",
    "DriftState",
    "EpisodicMemory",
    "InputError",
    "MetricsReport",
    "NetworkConfig",
    "NetworkLearner",
    "NetworkParams",
    "RecentBuffer",
    "RunConfig",
    "RunResult",
    "STABLE",
    "Standardizer",
    "StateError",
    "StreamFormatError",
    "StreamInstance",
    "StreamSource",
    "adapt_on_drift",
    "backward",
    "forward",
    "gen_drift_stream",
    "hedge_update",
    "init_network",
    "inner_adapt",
    "load_csv",
    "lookahead",
    "make_baseline",
    "observe",
    "outer_interpolate",
    "parse_stream_spec",
    "predict_ensemble",
    "prequential_run",
    "reset",
    "run_suite",
    "total_loss",
    "update_metrics",
    "write_stream_csv",
]
