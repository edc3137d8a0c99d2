"""Test-then-train evaluation loop tying together network, detector and memory.

Every instance is standardized, predicted on with the current ensemble,
scored, and only then used for learning: hedge reweighting, drift check,
and either the per-instance optimizer step or (on drift, when enabled) the
memory-anchored adaptation. Reports are plain-data and deterministic for a
fixed config.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import drift as drift_mod
from .baselines import BASELINES
from .bilevel import adapt_on_drift
from .errors import ConfigError, DivergenceError, InputError
from .hedge_net import (
    HEDGE_LOSS_CAP,
    MAX_HEDGE_EXPONENT,
    Workspace,
    apply_update,
    backward,
    forward,
    hedge_update,
    init_network,
    init_opt_state,
    predict_ensemble,
    total_loss,
)
from .memory import EpisodicMemory
from .streams import Standardizer, StreamSource, parse_stream_spec

NETWORK_LEARNERS = ("bodl-2", "bodl-1", "bodl-base")
# instances gathered, and standardized, per block: the block's statistics run
# ahead of the loop, but each instance's z-scores read only the rows before it
STANDARDIZE_BLOCK = 512
DEFAULT_SIMILARITY_WEIGHT = 0.1


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# RunConfig annotation -> (what it accepts, the test); other annotations are not checked
_FIELD_TYPES = {
    "int": ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _is_number),
    "float | None": ("a finite number or None", lambda v: v is None or _is_number(v)),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


@dataclass
class RunConfig:
    """One run: a stream, a learner, and every knob the learner exposes, with
    its one default. ``stream`` is a spec string (see streams.parse_stream_spec)
    or an already-built StreamSource. ``lam=None`` means the per-learner
    default: 0 for bodl-base, DEFAULT_SIMILARITY_WEIGHT otherwise.
    """

    stream: object
    learner: str = "bodl-2"
    seed: int = 0
    hidden_layers: int = 15
    width: int = 30
    eta: float = 0.01
    lam: float | None = None
    lr: float = 0.01
    optimizer: str = "adam"
    memory_capacity: int = 256
    inner_rate: float = 0.01
    outer_rate: float = 0.5
    inner_steps: int = 5
    memory_batch: int = 32
    recent_window: int = 16
    detector_min_instances: int = 30
    detector_sensitivity: float = 3.0
    standardize: bool = True

    def resolve_learner(self) -> tuple[float, bool]:
        """Returns (similarity weight, bilevel enabled); rejects contradictions
        like an explicit positive lam on the plain ablation."""
        if self.learner in BASELINES:
            return 0.0, False
        if self.learner not in NETWORK_LEARNERS:
            known = list(NETWORK_LEARNERS) + sorted(BASELINES)
            raise ConfigError(f"learner must be one of {known}, got {self.learner!r}")
        if self.learner == "bodl-base":
            if self.lam not in (None, 0, 0.0):
                raise ConfigError("lam must be unset or 0: bodl-base trains without "
                                  "the similarity term")
            return 0.0, False
        lam = DEFAULT_SIMILARITY_WEIGHT if self.lam is None else float(self.lam)
        if lam <= 0.0:
            raise ConfigError(f"lam must be positive: {self.learner} requires a "
                              "similarity weight")
        return lam, self.learner == "bodl-2"

    def validate(self) -> None:
        """Types (from the annotations), then ranges; a ConfigError names the
        first bad field."""
        for f in fields(self):
            if f.type in _FIELD_TYPES:
                accepts, ok = _FIELD_TYPES[f.type]
                value = getattr(self, f.name)
                if not ok(value):
                    raise ConfigError(f"{f.name} must be {accepts}, got {value!r}")
        self.resolve_learner()
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.eta * HEDGE_LOSS_CAP > MAX_HEDGE_EXPONENT:
            raise ConfigError(f"eta must be at most {MAX_HEDGE_EXPONENT / HEDGE_LOSS_CAP:g}, "
                              f"got {self.eta!r}: exp(-eta * loss) could underflow to 0 "
                              "for every head")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.inner_rate < 0:
            raise ConfigError("inner_rate must be >= 0")
        if not 0.0 <= self.outer_rate <= 1.0:
            raise ConfigError("outer_rate must be in [0, 1]")
        for name in ("hidden_layers", "width", "inner_steps", "memory_capacity",
                     "memory_batch", "recent_window", "detector_min_instances"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.detector_sensitivity <= 0:
            raise ConfigError("detector_sensitivity must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def echo(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(d["stream"], StreamSource):
            d["stream"] = d["stream"].provenance
        return d


@dataclass
class MetricsReport:
    """Running confusion counts plus the event logs of one run."""

    classes: int
    confusion: np.ndarray = None   # (classes, classes) int64, [actual, predicted]
    drift_events: list = field(default_factory=list)
    adaptations: list = field(default_factory=list)
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)
    stream_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.confusion is None:
            self.confusion = np.zeros((self.classes, self.classes), dtype=np.int64)

    @property
    def accuracy(self) -> float:
        return self.metrics()["accuracy"]

    def metrics(self) -> dict:
        """The report's ``metrics`` section, read from the confusion matrix:
        the counts, accuracy, and precision, recall and F1 per class averaged
        over the classes, each ratio 0 where its denominator is 0."""
        def ratio(num, den):
            return np.divide(num, den, out=np.zeros(self.classes), where=den != 0)

        tp = np.diag(self.confusion)
        actual, predicted = self.confusion.sum(axis=1), self.confusion.sum(axis=0)
        prec, rec = ratio(tp, predicted), ratio(tp, actual)
        f1 = ratio(2 * prec * rec, prec + rec)
        total, correct = int(actual.sum()), int(tp.sum())
        return {
            "total": total,
            "correct": correct,
            "accuracy": correct / total if total else 0.0,
            "macro_precision": float(prec.mean()),
            "macro_recall": float(rec.mean()),
            "macro_f1": float(f1.mean()),
        }

    def as_dict(self) -> dict:
        """Plain-type report. It holds no wall time, so identical configs
        serialize identically byte for byte."""
        tp = np.diag(self.confusion)
        return {
            "config": self.config,
            "stream": self.stream_info,
            "metrics": self.metrics(),
            "per_class": {"true_pos": tp.tolist(),
                          "false_pos": (self.confusion.sum(axis=0) - tp).tolist(),
                          "false_neg": (self.confusion.sum(axis=1) - tp).tolist()},
            "drift_events": self.drift_events,
            "adaptations": self.adaptations,
        }


def update_metrics(report: MetricsReport, predicted: int, actual: int) -> MetricsReport:
    if not (0 <= predicted < report.classes and 0 <= actual < report.classes):
        raise InputError(f"class index out of range: predicted={predicted}, actual={actual}")
    report.confusion[actual, predicted] += 1
    return report


class NetworkLearner:
    """Hedged multi-depth network with drift detector, reservoir memory and, for
    bodl-2, drift adaptation; drift events and adaptations go to `report`.

    The learner steps over `source`'s instances: row t of the history `X`, `y`
    is step t's features and label, and the memory keeps row numbers. Every
    step's forward record and gradient go into one `Workspace`, built with
    the learner, and each online step updates the parameter vector in
    place; only a drift response replaces the vector.
    """

    def __init__(self, cfg: RunConfig, source: StreamSource, report: MetricsReport):
        self.lam, self.use_bilevel = cfg.resolve_learner()
        self.cfg, self.report = cfg, report
        dims = (source.input_dim, cfg.width, source.classes, cfg.hidden_layers)
        root = np.random.SeedSequence(cfg.seed)
        init_seq, aux_seq = root.spawn(2)
        self.params, self.weights = init_network(dims, int(init_seq.generate_state(1)[0]))
        self.opt_state = init_opt_state(self.params, cfg.optimizer)
        self.workspace = Workspace(dims)
        self.detector = drift_mod.DriftState(min_instances=cfg.detector_min_instances,
                                             sensitivity=cfg.detector_sensitivity)
        self.memory = EpisodicMemory(cfg.memory_capacity)
        self.X = np.empty((len(source), dims[0]))
        self.y = np.empty(len(source), dtype=np.int64)
        self.t = 0
        self.rng = np.random.default_rng(aux_seq)

    def step(self, x: np.ndarray, y: int, position: int) -> int:
        """Predict, then learn; returns the prediction. Raises DivergenceError
        before the importances or parameters change if the loss is not finite,
        and before a drift response is kept if its record is not finite."""
        acts = forward(self.params, x, out=self.workspace)
        pred = int(predict_ensemble(acts, self.weights).argmax())

        t = self.t
        self.t += 1
        self.X[t], self.y[t] = x, y
        loss, per_head = total_loss(acts, self.weights, y, self.lam)
        if not math.isfinite(loss):
            raise DivergenceError(position)
        self.weights = hedge_update(self.weights, per_head, self.cfg.eta)
        self.detector, drifted = drift_mod.observe(self.detector, int(pred != y))
        if drifted:
            self.report.drift_events.append({
                "position": int(position),
                "error_rate": float(self.detector.error_rate),
                "threshold": float(self.detector.threshold),
            })
            self.detector = drift_mod.reset(self.detector)
        if drifted and self.use_bilevel:
            lo = max(0, t + 1 - self.cfg.recent_window)
            rows = self.memory.sample_batch(self.cfg.memory_batch, self.rng)
            params, record = adapt_on_drift(
                self.params, (self.X[lo:t + 1], self.y[lo:t + 1]),
                (self.X[rows], self.y[rows]), self.weights, self.lam, position,
                inner_rate=self.cfg.inner_rate, outer_rate=self.cfg.outer_rate,
                inner_steps=self.cfg.inner_steps)
            if not all(map(math.isfinite, record.values())):
                raise DivergenceError(position)
            self.params = params
            self.report.adaptations.append(record)
        else:
            grad = backward(self.params, acts, self.weights, y, self.lam, out=self.workspace)
            apply_update(self.params, grad, self.opt_state, self.cfg.lr)
        self.memory.maybe_insert(t, self.rng)
        return pred


def _gather_block(instances: list, dim: int, std: Standardizer | None) -> np.ndarray:
    """The features of consecutive instances as one (k, dim) array, z-scored
    by `std` unless it is None. A row not of shape (dim,), or one with a
    non-finite feature, raises InputError naming its stream position before
    any statistic moves."""
    try:
        rows = np.array([inst.features for inst in instances])
    except ValueError:      # ragged rows
        rows = None
    if rows is None or rows.shape[1:] != (dim,):
        bad = next(inst for inst in instances if np.shape(inst.features) != (dim,))
        raise InputError(f"feature shape {np.shape(bad.features)}, expected ({dim},) "
                         f"at stream position {bad.position}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise InputError("non-finite feature at stream position "
                         f"{instances[int(finite.argmin())].position}")
    return rows if std is None else std.standardize(rows)


def prequential_run(cfg: RunConfig) -> MetricsReport:
    """Run one learner over one stream, scoring every prediction before the
    corresponding update. Features are gathered, and standardized unless
    cfg.standardize is off, STANDARDIZE_BLOCK instances at a time, when a
    block's first instance is pulled, so a mis-shaped or non-finite row
    stops the run there. Returns the finalized report."""
    cfg.validate()
    source = (cfg.stream if isinstance(cfg.stream, StreamSource)
              else parse_stream_spec(str(cfg.stream), default_seed=cfg.seed))

    report = MetricsReport(classes=source.classes)
    report.config = cfg.echo()
    report.stream_info = {
        "provenance": source.provenance,
        "instances": len(source),
        "input_dim": int(source.input_dim),
        "classes": int(source.classes),
    }
    started = time.perf_counter()
    std = Standardizer(source.input_dim) if cfg.standardize and len(source) else None

    if cfg.learner in BASELINES:
        hyper = {"lr": cfg.lr} if cfg.learner == "ogd" else {}
        learner = BASELINES[cfg.learner](source.input_dim, source.classes, **hyper)
    else:
        learner = NetworkLearner(cfg, source, report)
    for i, inst in enumerate(source):
        if i % STANDARDIZE_BLOCK == 0:
            block = iter(_gather_block(source.instances[i:i + STANDARDIZE_BLOCK],
                                       source.input_dim, std))
        pred = learner.step(next(block), inst.label, inst.position)
        update_metrics(report, pred, inst.label)

    report.wall_time = time.perf_counter() - started
    return report
