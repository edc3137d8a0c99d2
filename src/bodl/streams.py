"""Data streams: CSV loading, synthetic drift generators, online standardization.

A stream is a fully materialized list of instances so that runs are repeatable
and cheap to re-iterate. Stream descriptions use a compact one-line grammar,
e.g. ``csv:data/pima.csv``, ``sea:seg=2000,2000;noise=0.1;seed=7`` or
``hyperplane:seg=2000,2000;d=8;mode=flip;noise=0.1;seed=7``.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, StreamFormatError

# thresholds on x0 + x1 for the piecewise SEA-style concept, cycled per segment
SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

# short names for bundled benchmark CSVs resolved under the data directory;
# files are headerless with the label in the last column
NAMED_DATASETS = {"pima": "pima.csv", "magic": "magic.csv"}


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


def data_dir() -> Path:
    return Path(os.environ.get("BODL_DATA_DIR", "data"))


def _looks_like_header(cells: list[str], label_idx: int) -> bool:
    for i, cell in enumerate(cells):
        if i == label_idx:
            continue  # labels may legitimately be non-numeric ("g"/"h")
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_csv(
    path: str | Path,
    label_column: int | str = -1,
    delimiter: str = ",",
    has_header: bool | None = None,
    shuffle_seed: int | None = None,
) -> StreamSource:
    """Read a delimited file into a stream.

    ``label_column`` is a position (negative allowed) or, with a header, a
    column name. ``has_header=None`` sniffs: the first row is a header when
    any non-label cell fails to parse as a number. Labels are encoded by
    first appearance. ``shuffle_seed`` applies a seeded permutation, meant
    for stationary sets only. A non-finite feature (``nan``, ``inf``) is
    rejected with its line number.
    """
    path = Path(path)
    if not path.exists():
        raise StreamFormatError(f"no such file: {path}")
    with open(path, newline="") as fh:
        rows = ((i, row) for i, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1)
                if row and any(cell.strip() for cell in row))
        first_line, first = next(rows, (0, None))
        if first is None:
            raise StreamFormatError(f"{path}: no data rows")

        width = len(first)
        if width < 2:
            raise StreamFormatError(f"{path}: no feature columns")
        if isinstance(label_column, str):
            if has_header is False:
                raise StreamFormatError("label column given by name but has_header=False")
            has_header = True
            try:
                label_idx = first.index(label_column)
            except ValueError:
                raise StreamFormatError(f"{path}: no column named {label_column!r} in header")
        else:
            label_idx = label_column if label_column >= 0 else width + label_column
            if not 0 <= label_idx < width:
                raise StreamFormatError(f"{path}: label column {label_column} out of range for width {width}")
            if has_header is None:
                has_header = _looks_like_header(first, label_idx)
        if not has_header:
            rows = itertools.chain([(first_line, first)], rows)

        label_map: dict[str, int] = {}
        label_names: list[str] = []
        instances: list[StreamInstance] = []
        for line_no, row in rows:
            if len(row) != width:
                raise StreamFormatError(f"{path} line {line_no}: {len(row)} cells, expected {width}")
            raw_label = row[label_idx].strip()
            if raw_label not in label_map:
                label_map[raw_label] = len(label_map)
                label_names.append(raw_label)
            feats = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise StreamFormatError(f"{path} line {line_no}: non-numeric value {cell!r}")
            if not all(map(math.isfinite, feats)):
                raise StreamFormatError(f"{path} line {line_no}: non-finite feature value")
            instances.append(StreamInstance(np.array(feats), label_map[raw_label], len(instances)))
    if not instances:
        raise StreamFormatError(f"{path}: header only, no data rows")

    if len(label_map) < 2:
        raise StreamFormatError(f"{path}: found {len(label_map)} distinct label(s), need at least 2")
    if shuffle_seed is not None:
        perm = np.random.default_rng(shuffle_seed).permutation(len(instances))
        instances = [StreamInstance(instances[k].features, instances[k].label, i)
                     for i, k in enumerate(perm)]
    return StreamSource(instances, width - 1, len(label_map), f"csv:{path}", label_names)


class Standardizer:
    """Running per-feature z-scoring without lookahead.

    Each instance is transformed with statistics of the instances seen
    *before* it, then folded in (Welford). The first instance maps to the
    zero vector; a feature with zero variance so far is passed through
    centered but unscaled.
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

    def standardize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        delta = x - self.mean
        if self.count == 0:
            z = np.zeros(self.dim)
        else:
            denom = self._m2 / self.count          # the variance, then the divisor
            unscaled = ~(denom > 0.0)
            np.sqrt(denom, out=denom)
            np.maximum(denom, 1e-8, out=denom)
            np.copyto(denom, 1.0, where=unscaled)
            z = delta / denom
        self.count += 1
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
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
    """
    if kind not in ("sea", "hyperplane"):
        raise ConfigError(f"unknown stream kind {kind!r}")
    if not segments or any(int(s) < 1 for s in segments):
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

    rng = np.random.default_rng(seed)
    instances: list[StreamInstance] = []
    w = None
    pos = 0
    for seg_idx, seg_len in enumerate(segments):
        if kind == "sea":
            threshold = SEA_THRESHOLDS[seg_idx % len(SEA_THRESHOLDS)]
        else:
            if w is None or mode == "redraw":
                w = rng.standard_normal(dim)
                while not np.any(w):
                    w = rng.standard_normal(dim)
            else:
                w = -w
        for _ in range(int(seg_len)):
            if kind == "sea":
                x = rng.uniform(0.0, 10.0, size=dim)
                label = 1 if x[0] + x[1] <= threshold else 0
            else:
                x = rng.uniform(-1.0, 1.0, size=dim)
                label = 1 if float(w @ x) >= 0.0 else 0
            if noise > 0.0 and rng.random() < noise:
                label = 1 - label
            instances.append(StreamInstance(x, label, pos))
            pos += 1
    desc = f"{kind}:seg={','.join(str(int(s)) for s in segments)};noise={noise};seed={seed}"
    if kind == "hyperplane":
        desc += f";d={dim};mode={mode}"
    return StreamSource(instances, dim, 2, desc, ["0", "1"])


def _parse_kv(body: str, spec: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad option {part!r} in stream spec {spec!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
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


def resolve_csv_path(token: str) -> Path:
    """Map a csv token to a file: a literal path, or a known dataset name."""
    p = Path(token)
    if p.exists():
        return p
    name = token.lower()
    if name in NAMED_DATASETS:
        candidate = data_dir() / NAMED_DATASETS[name]
        if candidate.exists():
            return candidate
        raise StreamFormatError(
            f"dataset {name!r} not found at {candidate}; "
            "run scripts/fetch_data.py or set BODL_DATA_DIR")
    raise StreamFormatError(f"no such file or known dataset: {token!r}")


def parse_stream_spec(spec: str, default_seed: int = 0) -> StreamSource:
    """Build a stream from its one-line description.

    ``csv:<path-or-name>[;label=<idx-or-name>;delim=<char>;header=0|1;shuffle=<seed>]``
    or ``sea:``/``hyperplane:`` with ``seg=<n,n,...>`` and optional
    ``noise=``, ``seed=``, ``d=``, ``mode=redraw|flip``. A generator without
    an explicit seed uses ``default_seed``.
    """
    if ":" not in spec:
        raise ConfigError(f"stream spec {spec!r} needs the form kind:options")
    kind, body = spec.split(":", 1)
    kind = kind.strip().lower()
    if kind == "csv":
        parts = body.split(";")
        token = parts[0].strip()
        if not token:
            raise ConfigError(f"csv spec {spec!r} is missing a path")
        opts = _parse_kv(";".join(parts[1:]), spec)
        label: int | str = opts.get("label", "-1")
        try:
            label = int(label)
        except ValueError:
            pass  # header column name
        header = _number(opts, "header", int, spec)
        if header is not None:
            header = bool(header)
        shuffle = _number(opts, "shuffle", int, spec, minimum=0)
        delim = opts.get("delim", ",")
        if len(delim) != 1:
            raise ConfigError(f"option delim={delim!r} in stream spec {spec!r} "
                              "is not a single character")
        return load_csv(resolve_csv_path(token), label_column=label,
                        delimiter=delim, has_header=header,
                        shuffle_seed=shuffle)
    if kind in ("sea", "hyperplane"):
        opts = _parse_kv(body, spec)
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
    """Save a stream as headerless rows of features followed by the label."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for inst in source:
            writer.writerow([repr(float(v)) for v in inst.features] + [inst.label])
