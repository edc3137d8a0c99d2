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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import drift as drift_mod
from .baselines import BASELINES, make_baseline
from .bilevel import BilevelConfig, RecentBuffer, adapt_on_drift
from .errors import ConfigError, DivergenceError, InputError
from .hedge_net import (
    NetworkConfig,
    apply_update,
    backward,
    forward,
    hedge_update,
    init_network,
    init_opt_state,
    predict_ensemble,
    total_loss,
)
from .memory import EpisodicMemory, StreamInstance
from .streams import Standardizer, StreamSource, parse_stream_spec

NETWORK_LEARNERS = ("bodl-2", "bodl-1", "bodl-base")
DEFAULT_SIMILARITY_WEIGHT = 0.1


@dataclass
class RunConfig:
    """One run: a stream, a learner, and every knob the learner exposes.

    ``stream`` is a spec string (see streams.parse_stream_spec) or an
    already-built StreamSource. ``lam=None`` means the per-learner default:
    0 for bodl-base, DEFAULT_SIMILARITY_WEIGHT otherwise.
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
    out: str | None = None

    def resolve_learner(self) -> tuple[str, float, bool]:
        """Returns (kind, similarity weight, bilevel enabled); rejects
        contradictions like an explicit positive lam on the plain ablation."""
        if self.learner in BASELINES:
            return "baseline", 0.0, False
        if self.learner not in NETWORK_LEARNERS:
            raise ConfigError(
                f"unknown learner {self.learner!r}; choose from "
                f"{list(NETWORK_LEARNERS) + sorted(BASELINES)}")
        if self.learner == "bodl-base":
            if self.lam not in (None, 0, 0.0):
                raise ConfigError("bodl-base trains without the similarity term; "
                                  "leave lam unset or 0")
            return "network", 0.0, False
        lam = DEFAULT_SIMILARITY_WEIGHT if self.lam is None else float(self.lam)
        if lam <= 0.0:
            raise ConfigError(f"{self.learner} requires a positive similarity weight")
        return "network", lam, self.learner == "bodl-2"

    def validate(self) -> None:
        self.resolve_learner()
        if self.detector_min_instances < 1:
            raise ConfigError("detector_min_instances must be >= 1")
        if self.detector_sensitivity <= 0:
            raise ConfigError("detector_sensitivity must be positive")
        # constructing these surfaces any remaining bad values
        BilevelConfig(self.inner_rate, self.outer_rate, self.inner_steps,
                      self.memory_batch, self.recent_window)
        NetworkConfig(input_dim=1, classes=2, hidden_layers=self.hidden_layers,
                      width=self.width, eta=self.eta, lam=0.0, lr=self.lr,
                      optimizer=self.optimizer)
        if self.memory_capacity < 1:
            raise ConfigError("memory_capacity must be >= 1")

    def echo(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(d["stream"], StreamSource):
            d["stream"] = d["stream"].provenance
        d.pop("out")   # where the report lands is not part of the run
        return d


@dataclass
class MetricsReport:
    """Running confusion counts plus the event logs of one run."""

    classes: int
    true_pos: np.ndarray = None
    false_pos: np.ndarray = None
    false_neg: np.ndarray = None
    total: int = 0
    correct: int = 0
    drift_events: list = field(default_factory=list)
    adaptations: list = field(default_factory=list)
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)
    stream_info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.true_pos is None:
            self.true_pos = np.zeros(self.classes, dtype=np.int64)
            self.false_pos = np.zeros(self.classes, dtype=np.int64)
            self.false_neg = np.zeros(self.classes, dtype=np.int64)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def _per_class(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        prec = np.zeros(self.classes)
        rec = np.zeros(self.classes)
        f1 = np.zeros(self.classes)
        for c in range(self.classes):
            tp, fp, fn = self.true_pos[c], self.false_pos[c], self.false_neg[c]
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            prec[c], rec[c] = p, r
            f1[c] = 2 * p * r / (p + r) if p + r else 0.0
        return prec, rec, f1

    @property
    def macro_precision(self) -> float:
        return float(self._per_class()[0].mean()) if self.classes else 0.0

    @property
    def macro_recall(self) -> float:
        return float(self._per_class()[1].mean()) if self.classes else 0.0

    @property
    def macro_f1(self) -> float:
        return float(self._per_class()[2].mean()) if self.classes else 0.0

    def as_dict(self, include_timing: bool = False) -> dict:
        """Plain-type report. Timing is opt-in so that identical configs
        serialize identically byte for byte."""
        out = {
            "config": self.config,
            "stream": self.stream_info,
            "metrics": {
                "total": int(self.total),
                "correct": int(self.correct),
                "accuracy": float(self.accuracy),
                "macro_precision": float(self.macro_precision),
                "macro_recall": float(self.macro_recall),
                "macro_f1": float(self.macro_f1),
            },
            "per_class": {
                "true_pos": [int(v) for v in self.true_pos],
                "false_pos": [int(v) for v in self.false_pos],
                "false_neg": [int(v) for v in self.false_neg],
            },
            "drift_events": self.drift_events,
            "adaptations": self.adaptations,
        }
        if include_timing:
            out["wall_time_s"] = float(self.wall_time)
        return out


def update_metrics(report: MetricsReport, predicted: int, actual: int) -> MetricsReport:
    if not (0 <= predicted < report.classes and 0 <= actual < report.classes):
        raise InputError(f"class index out of range: predicted={predicted}, actual={actual}")
    report.total += 1
    if predicted == actual:
        report.correct += 1
        report.true_pos[actual] += 1
    else:
        report.false_pos[predicted] += 1
        report.false_neg[actual] += 1
    return report


def _resolve_stream(cfg: RunConfig) -> StreamSource:
    if isinstance(cfg.stream, StreamSource):
        return cfg.stream
    return parse_stream_spec(str(cfg.stream), default_seed=cfg.seed)


class NetworkLearner:
    """Hedged multi-depth network with drift detector, reservoir memory and, for
    bodl-2, drift adaptation; drift events and adaptations go to `report`."""

    def __init__(self, cfg: RunConfig, source: StreamSource, report: MetricsReport):
        _, self.lam, self.use_bilevel = cfg.resolve_learner()
        self.report = report
        self.ncfg = NetworkConfig(input_dim=source.input_dim or 1, classes=source.classes or 2,
                                  hidden_layers=cfg.hidden_layers, width=cfg.width,
                                  eta=cfg.eta, lam=self.lam, lr=cfg.lr, optimizer=cfg.optimizer)
        self.bcfg = BilevelConfig(cfg.inner_rate, cfg.outer_rate, cfg.inner_steps,
                                  cfg.memory_batch, cfg.recent_window)
        root = np.random.SeedSequence(cfg.seed)
        init_seq, aux_seq = root.spawn(2)
        self.params, self.weights = init_network(self.ncfg, int(init_seq.generate_state(1)[0]))
        self.opt_state = init_opt_state(self.params, self.ncfg)
        self.detector = drift_mod.DriftState(min_instances=cfg.detector_min_instances,
                                             sensitivity=cfg.detector_sensitivity)
        self.memory = EpisodicMemory(cfg.memory_capacity)
        self.recent = RecentBuffer(cfg.recent_window)
        self.rng = np.random.default_rng(aux_seq)

    def step(self, x: np.ndarray, y: int, position: int) -> int:
        """Predict, then learn; returns the prediction. Raises DivergenceError
        before the importances or parameters change if the loss is not finite."""
        acts = forward(self.params, x)
        pred = int(np.argmax(predict_ensemble(acts, self.weights)))

        seen = StreamInstance(x, y, position)
        self.recent.append(seen)
        loss, per_head = total_loss(acts, self.weights, y, self.lam)
        if not math.isfinite(loss):
            raise DivergenceError(position)
        self.weights = hedge_update(self.weights, per_head, self.ncfg.eta, self.ncfg.weight_floor)
        self.detector, status = drift_mod.observe(self.detector, int(pred != y))
        adapted = False
        if status == drift_mod.DRIFT:
            self.report.drift_events.append({
                "position": int(position),
                "error_rate": float(self.detector.error_rate),
                "threshold": float(self.detector.threshold),
            })
            if self.use_bilevel:
                self.params, rec = adapt_on_drift(self.params, self.recent, self.memory,
                                                  self.weights, self.bcfg, self.lam, self.rng,
                                                  position)
                self.report.adaptations.append({
                    "position": int(rec.position),
                    "loss_before": float(rec.loss_before),
                    "loss_after": float(rec.loss_after),
                    "shift_norm": float(rec.shift_norm),
                    "memory_batch": int(rec.memory_batch),
                })
                adapted = True
            self.detector = drift_mod.reset(self.detector)
        if not adapted:
            grads = backward(self.params, acts, self.weights, y, self.lam)
            self.params, self.opt_state = apply_update(self.params, grads, self.opt_state,
                                                       self.ncfg)
        self.memory.maybe_insert(seen, self.rng)
        return pred


def prequential_run(cfg: RunConfig) -> MetricsReport:
    """Run one learner over one stream, scoring every prediction before the
    corresponding update. Returns the finalized report."""
    cfg.validate()
    source = _resolve_stream(cfg)

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
        learner = make_baseline(cfg.learner, source.input_dim, source.classes, **hyper)
    else:
        learner = NetworkLearner(cfg, source, report)
    for inst in source:
        x = std.standardize(inst.features) if std else np.asarray(inst.features, dtype=np.float64)
        pred = learner.step(x, inst.label, inst.position)
        update_metrics(report, pred, inst.label)

    report.wall_time = time.perf_counter() - started
    return report


@dataclass
class RunResult:
    """Suite entry outcome: a report, or the error that stopped the run."""

    config: dict
    report: MetricsReport | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute(cfg: RunConfig) -> RunResult:
    try:
        return RunResult(cfg.echo(), report=prequential_run(cfg))
    except Exception as exc:  # noqa: BLE001 - suite must not abort on one run
        return RunResult(cfg.echo(), error=f"{type(exc).__name__}: {exc}")


def run_suite(configs: list[RunConfig], workers: int = 1) -> list[RunResult]:
    """Execute runs independently, preserving input order. Failures are
    captured per entry; parallel and sequential execution agree."""
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if workers == 1 or len(configs) <= 1:
        return [_execute(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute, configs))
