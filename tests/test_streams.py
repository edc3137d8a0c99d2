"""CSV ingestion, online standardization, synthetic generators, spec grammar."""

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodl import streams
from bodl.errors import ConfigError, InputError, StreamFormatError
from bodl.streams import (
    MAX_GENERATED_DRAWS,
    MAX_ROW_NORM,
    SEA_THRESHOLDS,
    Standardizer,
    StreamSource,
    gen_drift_stream,
    load_csv,
    parse_stream_spec,
    write_stream_csv,
)

from oracles import ReferenceStandardizer, loop_drift_stream


def write_lines(path, text):
    path.write_text(text)
    return path


# ---------------------------------------------------------------- load_csv

def test_load_csv_parses_rows_exactly(tmp_path):
    p = write_lines(tmp_path / "toy.csv", "1.5,2.0,a\n3.0,4.5,b\n5.0,6.0,a\n")
    src = load_csv(p)
    assert len(src) == 3
    assert src.input_dim == 2
    assert src.classes == 2
    assert src.label_names == ["a", "b"]
    assert src.provenance == f"csv:{p}"
    assert np.array_equal(src.instances[0].features, np.array([1.5, 2.0]))
    assert np.array_equal(src.instances[1].features, np.array([3.0, 4.5]))
    assert [inst.label for inst in src] == [0, 1, 0]
    assert [inst.position for inst in src] == [0, 1, 2]


def test_load_csv_labels_encoded_by_first_appearance(tmp_path):
    p = write_lines(tmp_path / "order.csv", "1,b\n2,a\n3,b\n4,c\n")
    src = load_csv(p)
    assert src.label_names == ["b", "a", "c"]
    assert [inst.label for inst in src] == [0, 1, 0, 2]


def test_load_csv_header_row_fails_at_line_1(tmp_path):
    # the format is headerless: a header is a row with non-numeric features
    p = write_lines(tmp_path / "h.csv", "f1,f2,target\n1,2,a\n3,4,b\n")
    with pytest.raises(StreamFormatError, match="h.csv line 1: non-numeric value 'f1'"):
        load_csv(p)


def test_load_csv_numeric_first_row_is_data(tmp_path):
    p = write_lines(tmp_path / "nohdr.csv", "1,2,a\n3,4,b\n")
    assert len(load_csv(p)) == 2


def test_load_csv_text_labels_do_not_trigger_header(tmp_path):
    # only feature cells must parse as numbers: "g"/"h" in the label slot
    # must not make the first row look like a header
    p = write_lines(tmp_path / "gh.csv", "1,2,g\n3,4,h\n")
    src = load_csv(p)
    assert len(src) == 2
    assert src.label_names == ["g", "h"]


def test_load_csv_ragged_row_reports_line(tmp_path):
    p = write_lines(tmp_path / "ragged.csv", "1,2,a\n3,4,b\n5,6,7,a\n")
    with pytest.raises(StreamFormatError, match="line 3"):
        load_csv(p)


def test_load_csv_non_numeric_feature_reports_line(tmp_path):
    p = write_lines(tmp_path / "bad.csv", "1,2,a\n3,oops,b\n")
    with pytest.raises(StreamFormatError, match="line 2.*oops"):
        load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_load_csv_non_finite_feature_reports_line(tmp_path, cell):
    p = write_lines(tmp_path / "bad.csv", f"1,2,a\n3,{cell},b\n")
    with pytest.raises(StreamFormatError, match="line 2: non-finite"):
        load_csv(p)


def test_load_csv_huge_magnitude_reports_line(tmp_path):
    # a finite feature of 1e200 would overflow the Standardizer's running
    # variance and stop a network run mid-stream as if training diverged
    rows = "".join(f"0.5,{(-1) ** i * 1e200},{'ab'[i % 2]}\n" for i in range(50))
    with pytest.raises(StreamFormatError, match="line 1: features of norm above 1e\\+100"):
        load_csv(write_lines(tmp_path / "huge.csv", rows))
    rows = "".join(f"0.5,{1e308 if i == 19 else i},{'ab'[i % 2]}\n" for i in range(50))
    with pytest.raises(StreamFormatError, match="line 20: features of norm above"):
        load_csv(write_lines(tmp_path / "one.csv", rows))


def test_rows_at_the_norm_limit_keep_the_standardizer_finite(tmp_path):
    rows = "".join(f"{(-1) ** i * 1e100},0,{'ab'[i % 2]}\n" for i in range(50))
    std = Standardizer(2)
    for inst in load_csv(write_lines(tmp_path / "edge.csv", rows)):
        assert np.isfinite(std.standardize(inst.features[None])).all()
    assert np.isfinite(std.variance).all()


def test_load_csv_single_label_rejected(tmp_path):
    p = write_lines(tmp_path / "one.csv", "1,2,a\n3,4,a\n")
    with pytest.raises(StreamFormatError, match="at least 2"):
        load_csv(p)


def test_load_csv_missing_file():
    with pytest.raises(StreamFormatError, match="no such file"):
        load_csv("/nonexistent/nowhere.csv")


def test_parse_spec_csv_directory_is_no_such_file(tmp_path):
    with pytest.raises(StreamFormatError, match=f"^no such file: {re.escape(str(tmp_path))}$"):
        parse_stream_spec(f"csv:{tmp_path}")


def test_load_csv_blank_lines_skipped(tmp_path):
    p = write_lines(tmp_path / "blank.csv", "1,2,a\n\n3,4,b\n\n")
    assert len(load_csv(p)) == 2


def test_load_csv_bad_first_data_row_after_blank_line_reports_line(tmp_path):
    p = write_lines(tmp_path / "lead.csv", "\n1,oops,a\n3,4,b\n")
    with pytest.raises(StreamFormatError, match="line 2: non-numeric value 'oops'"):
        load_csv(p)


def test_load_csv_non_finite_first_data_row_reports_line(tmp_path):
    p = write_lines(tmp_path / "lead.csv", "\n1,inf,a\n3,4,b\n")
    with pytest.raises(StreamFormatError, match="line 2: non-finite"):
        load_csv(p)


def test_load_csv_all_blank_file_rejected(tmp_path):
    p = write_lines(tmp_path / "blank.csv", "\n , \n\n")
    with pytest.raises(StreamFormatError, match=": no data rows"):
        load_csv(p)


def test_load_csv_ragged_row_after_blank_line_reports_physical_line(tmp_path):
    p = write_lines(tmp_path / "ragged.csv", "1,2,a\n3,4,b\n\n5,6,7,a\n")
    with pytest.raises(StreamFormatError, match="line 4: 4 cells, expected 3"):
        load_csv(p)


def test_load_csv_label_only_file_rejected(tmp_path):
    # without the check the file loads with input_dim 0 and the run fails
    # later, far from the file
    p = write_lines(tmp_path / "labels.csv", "a\nb\na\n")
    with pytest.raises(StreamFormatError, match="labels.csv: no feature columns"):
        load_csv(p)


def test_load_csv_header_only_rejected(tmp_path):
    p = write_lines(tmp_path / "hdr.csv", "f1,f2,y\n")
    with pytest.raises(StreamFormatError, match="line 1: non-numeric value 'f1'"):
        load_csv(p)


def test_load_csv_blank_label_rejected(tmp_path):
    # without the check the blank cell loads as a class of its own
    p = write_lines(tmp_path / "nolabel.csv", "1,2,a\n3,4,\n5,6,b\n")
    with pytest.raises(StreamFormatError, match="nolabel.csv line 2: blank label"):
        load_csv(p)


def test_load_csv_non_utf8_byte_reports_its_own_line(tmp_path):
    # the text layer decodes ahead in chunks: with the bad byte on line 1500
    # of 2000 the decode error fires while the reader is hundreds of lines
    # earlier, so the line must come from the bytes
    lines = [f"{i},{i % 7},{'ab'[i % 2]}".encode() for i in range(2000)]
    lines[1499] = b"1,2,\xff"
    p = tmp_path / "latin.csv"
    p.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(StreamFormatError, match=r"latin.csv line 1500: byte 0xff is not UTF-8"):
        load_csv(p)


def test_load_csv_oversized_cell_reports_line(tmp_path):
    # a cell over the csv module's 131,072-character field limit
    p = write_lines(tmp_path / "wide.csv", "1,2,a\n3," + "4" * 140_000 + ",b\n5,6,a\n")
    with pytest.raises(StreamFormatError, match="wide.csv line 2: field larger than field limit"):
        load_csv(p)


# ---------------------------------------------------------------- standardizer

def test_standardizer_first_instance_maps_to_zero():
    st = Standardizer(3)
    assert np.array_equal(st.standardize(np.array([[4.0, -2.0, 9.0]])), np.zeros((1, 3)))


def test_standardizer_hand_sequence():
    st = Standardizer(2)
    assert np.array_equal(st.standardize(np.array([[5.0, 1.0]])), np.zeros((1, 2)))
    # stats so far: mean [5,1], var 0 -> centered, unscaled
    assert np.allclose(st.standardize(np.array([[5.0, 3.0]])), [[0.0, 2.0]], atol=1e-15)
    # second feature now has mean 2, population var 1
    assert np.allclose(st.standardize(np.array([[5.0, 1.0]])), [[0.0, -1.0]], atol=1e-15)


def test_standardizer_constant_stream_stays_zero():
    st = Standardizer(2)
    for _ in range(10):
        z = st.standardize(np.array([[3.0, -7.0]]))
        assert np.array_equal(z, np.zeros((1, 2)))


def test_standardizer_matches_two_pass_prefix_stats():
    rng = np.random.default_rng(3)
    xs = rng.normal(2.0, 3.0, size=(40, 4))
    st = Standardizer(4)
    for t in range(40):
        z = st.standardize(xs[t:t + 1])[0]
        if t == 0:
            assert np.array_equal(z, np.zeros(4))
            continue
        mean = xs[:t].mean(axis=0)
        var = xs[:t].var(axis=0)
        denom = np.where(var > 0.0, np.maximum(np.sqrt(var), 1e-8), 1.0)
        assert np.allclose(z, (xs[t] - mean) / denom, atol=1e-10)


def test_standardizer_never_peeks_at_current_instance():
    st = Standardizer(1)
    st.standardize(np.array([[1.0]]))
    st.standardize(np.array([[2.0]]))
    # an extreme outlier must be scored against the old stats only
    z = st.standardize(np.array([[1e6]]))
    assert z[0, 0] == pytest.approx((1e6 - 1.5) / 0.5, rel=1e-12)


def test_standardizer_block_never_peeks_past_each_row():
    # in one block, z_0..z_t must not move when the rows after t change
    rng = np.random.default_rng(5)
    head, xs = rng.normal(size=(3, 2)), rng.normal(size=(12, 2))
    first = Standardizer(2)
    first.standardize(head)
    z = first.standardize(xs)
    for t in range(len(xs)):
        changed = xs.copy()
        changed[t + 1:] = rng.normal(1e6, 1e3, size=changed[t + 1:].shape)
        again = Standardizer(2)
        again.standardize(head)
        assert again.standardize(changed)[:t + 1].tobytes() == z[:t + 1].tobytes()


@pytest.mark.parametrize("row", [np.ones(1), np.ones(4), np.ones((1, 4)), np.ones((2, 1, 3)),
                                 np.float64(2.0), np.ones(3)])
def test_standardizer_rejects_mis_shaped_row_before_moving(row):
    st = Standardizer(3)
    st.standardize(np.array([[1.0, 2.0, 3.0]]))
    st.standardize(np.array([[2.0, 0.0, 3.0]]))
    count, mean, m2 = st.count, st.mean.copy(), st._m2.copy()
    with pytest.raises(InputError, match=r"expected \(rows, 3\)"):
        st.standardize(row)
    assert st.count == count
    assert st.mean.tobytes() == mean.tobytes() and st._m2.tobytes() == m2.tobytes()


# A stream of k instances with d features in [-1e6, 1e6], some features held
# constant at their first value.
standardizer_streams = st.tuples(st.integers(1, 60), st.integers(1, 4)).flatmap(
    lambda kd: st.tuples(
        st.lists(st.lists(st.floats(-1e6, 1e6), min_size=kd[1], max_size=kd[1]),
                 min_size=kd[0], max_size=kd[0]).map(np.array),
        st.lists(st.booleans(), min_size=kd[1], max_size=kd[1]).map(np.array)))


@settings(max_examples=100)
@given(standardizer_streams)
def test_standardizer_running_stats_match_two_pass(stream):
    xs, constant = stream
    xs[:, constant] = xs[0, constant]
    stz = Standardizer(xs.shape[1])
    for x in xs:
        assert np.all(np.isfinite(stz.standardize(x[None])))
    # errors of Welford's update scale with the data, so the bound is relative
    # to its largest magnitude (squared for the variance)
    scale = float(np.max(np.abs(xs)))
    assert stz.count == len(xs)
    assert np.allclose(stz.mean, xs.mean(axis=0), rtol=1e-9, atol=1e-9 * scale)
    assert np.allclose(stz.variance, xs.var(axis=0), rtol=1e-9, atol=1e-9 * scale * scale)


@settings(max_examples=100)
@given(standardizer_streams)
def test_standardizer_matches_out_of_place_reference_bit_for_bit(stream):
    xs, constant = stream
    xs[:, constant] = xs[0, constant]
    stz, ref = Standardizer(xs.shape[1]), ReferenceStandardizer(xs.shape[1])
    last = kept = None
    for x in xs:            # the first instance included
        z = stz.standardize(x[None])[0]
        if last is not None:
            assert np.array_equal(last, kept)   # the next call left it alone
        assert np.array_equal(z, ref.standardize(x))
        assert np.array_equal(stz.mean, ref.mean)
        assert np.array_equal(stz._m2, ref._m2)
        last, kept = z, z.copy()


# Rows of up to 4 features, each on its own scale from MAX_ROW_NORM / 2 down
# to 1e-165, where the variance _m2 / count can underflow; a row's norm is at
# most MAX_ROW_NORM. Each feature holds its first value for its first rows.
@st.composite
def scaled_streams(draw):
    k, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    xs = np.array(draw(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d),
                                min_size=k, max_size=k)))
    xs *= MAX_ROW_NORM / 10.0 ** np.array(
        draw(st.lists(st.integers(0, 265), min_size=d, max_size=d)), dtype=np.float64)
    for j, held in enumerate(draw(st.lists(st.integers(0, k), min_size=d, max_size=d))):
        xs[:held, j] = xs[0, j]
    return xs


# _m2 is 3 * 2**-1074 from row 1 on, as the later rows' terms underflow to 0,
# so the variance is positive at counts 2 to 5 and rounds to 0 from count 6:
# a feature's variance can return to 0 after it was positive.
UNDERFLOWING_VARIANCE = np.array([[0.0], [5e-162]] + [[2.5e-162 + k * 1e-175] for k in range(1, 10)])


@settings(max_examples=200)
@given(scaled_streams())
@example(UNDERFLOWING_VARIANCE)
def test_standardizer_matches_reference_byte_for_byte_at_any_scale(xs):
    stz, ref = Standardizer(xs.shape[1]), ReferenceStandardizer(xs.shape[1])
    for x in xs:
        m2 = stz._m2.copy()
        assert stz.standardize(x[None]).tobytes() == ref.standardize(x).tobytes()
        assert stz.mean.tobytes() == ref.mean.tobytes()
        assert stz._m2.tobytes() == ref._m2.tobytes()
        assert np.all(stz._m2 >= m2)          # _m2 never decreases


# Block sizes, cycled over a stream: 1 to 9 rows, or one size over
# harness.STANDARDIZE_BLOCK, which takes the rest of any stream drawn here.
block_splits = st.lists(st.one_of(st.integers(1, 9), st.just(513)), min_size=1, max_size=12)


def held_constant(stream):
    xs, constant = stream
    xs[:, constant] = xs[0, constant]
    return xs


@settings(max_examples=200)
@given(st.one_of(standardizer_streams.map(held_constant), scaled_streams()), block_splits)
@example(UNDERFLOWING_VARIANCE, [1])
@example(UNDERFLOWING_VARIANCE, [4, 513])
def test_standardizer_blocks_match_reference_row_by_row(xs, sizes):
    stz, ref = Standardizer(xs.shape[1]), ReferenceStandardizer(xs.shape[1])
    start = 0
    for size in itertools.cycle(sizes):
        block = xs[start:start + size]
        z = stz.standardize(block)
        assert z.shape == block.shape
        assert z.tobytes() == np.array([ref.standardize(x) for x in block]).tobytes()
        assert stz.mean.tobytes() == ref.mean.tobytes()
        assert stz._m2.tobytes() == ref._m2.tobytes()
        start += size
        if start >= len(xs):
            break
    assert stz.count == len(xs)


def test_standardizer_validation():
    with pytest.raises(ConfigError):
        Standardizer(0)
    st = Standardizer(2)
    assert np.array_equal(st.variance, np.zeros(2))
    assert st.standardize(np.empty((0, 2))).shape == (0, 2) and st.count == 0


# ---------------------------------------------------------------- generators

def test_sea_labels_follow_cycled_thresholds():
    src = gen_drift_stream("sea", [50, 50, 50], noise=0.0, seed=4)
    assert src.input_dim == 3
    assert src.classes == 2
    for inst in src:
        th = SEA_THRESHOLDS[inst.position // 50]
        assert inst.label == (1 if inst.features[0] + inst.features[1] <= th else 0)
        assert np.all(inst.features >= 0.0) and np.all(inst.features <= 10.0)


def test_hyperplane_single_dim_is_threshold_rule():
    src = gen_drift_stream("hyperplane", [200], noise=0.0, dim=1, seed=6)
    xs = np.array([inst.features[0] for inst in src])
    ys = np.array([inst.label for inst in src])
    assert (np.array_equal(ys, (xs >= 0).astype(int))
            or np.array_equal(ys, (xs <= 0).astype(int)))


def test_hyperplane_flip_negates_the_rule():
    src = gen_drift_stream("hyperplane", [100, 100], noise=0.0, dim=1,
                           seed=8, mode="flip")
    first = [i for i in src if i.position < 100]
    second = [i for i in src if i.position >= 100]
    probe = next(i for i in first if abs(i.features[0]) > 1e-9)
    sign = 1.0 if (probe.label == 1) == (probe.features[0] > 0) else -1.0
    for inst in first:
        assert inst.label == (1 if sign * inst.features[0] >= 0.0 else 0)
    for inst in second:
        assert inst.label == (1 if -sign * inst.features[0] >= 0.0 else 0)


def test_generator_same_seed_reproduces():
    a = gen_drift_stream("hyperplane", [60, 60], noise=0.1, seed=12, mode="flip")
    b = gen_drift_stream("hyperplane", [60, 60], noise=0.1, seed=12, mode="flip")
    c = gen_drift_stream("hyperplane", [60, 60], noise=0.1, seed=13, mode="flip")
    assert all(np.array_equal(x.features, y.features) and x.label == y.label
               for x, y in zip(a, b))
    assert any(not np.array_equal(x.features, y.features) for x, y in zip(a, c))


def test_noise_flips_about_the_requested_fraction():
    src = gen_drift_stream("sea", [4000], noise=0.2, seed=5)
    clean = np.array([1 if i.features[0] + i.features[1] <= 8.0 else 0 for i in src])
    got = np.array([i.label for i in src])
    rate = float(np.mean(clean != got))
    assert 0.17 < rate < 0.23


def test_generator_validation():
    with pytest.raises(ConfigError):
        gen_drift_stream("stagger", [100])
    with pytest.raises(ConfigError):
        gen_drift_stream("sea", [])
    with pytest.raises(ConfigError):
        gen_drift_stream("sea", [100, 0])
    with pytest.raises(ConfigError):
        gen_drift_stream("sea", [100], noise=1.0)
    with pytest.raises(ConfigError):
        gen_drift_stream("sea", [100], noise=-0.1)
    with pytest.raises(ConfigError):
        gen_drift_stream("sea", [100], dim=1)
    with pytest.raises(ConfigError):
        gen_drift_stream("hyperplane", [100], dim=0)
    with pytest.raises(ConfigError):
        gen_drift_stream("hyperplane", [100], mode="rotate")


def test_generator_provenance_round_trips():
    src = gen_drift_stream("hyperplane", [30, 30], noise=0.05, dim=4,
                           seed=21, mode="flip")
    again = parse_stream_spec(src.provenance)
    assert all(np.array_equal(x.features, y.features) and x.label == y.label
               for x, y in zip(src, again))


_default_rng = np.random.default_rng


class CoarseGenerator:
    """numpy's Generator with every double rounded to a multiple of 1/20, so
    SEA sums land exactly on their thresholds and hyperplane dot products on
    or next to 0, where their sign depends on the order of the sum. It hands
    out the same doubles in the same order whether asked for one, d or a
    block of them, and its `uniform` is numpy's `low + (high - low) * u`."""

    def __init__(self, seed):
        self._rng = _default_rng(seed)

    def random(self, size=None):
        return np.round(self._rng.random(size) * 20.0) / 20.0

    def uniform(self, low, high, size=None):
        return low + (high - low) * self.random(size)

    def standard_normal(self, size=None):
        return np.round(self._rng.standard_normal(size) * 20.0) / 20.0


@st.composite
def generator_args(draw):
    kind = draw(st.sampled_from(["sea", "hyperplane"]))
    return dict(
        kind=kind,
        segments=draw(st.lists(st.integers(1, 300), min_size=1, max_size=5)),
        noise=draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        dim=draw(st.integers(2 if kind == "sea" else 1, 24)),
        seed=draw(st.integers(0, 2**64 - 1)),
        mode=draw(st.sampled_from(["redraw", "flip"])),
    )


@settings(max_examples=150)
@given(args=generator_args(), coarse=st.booleans())
@example(args=dict(kind="sea", segments=[300] * 5, noise=0.0, dim=2, seed=0, mode="redraw"),
         coarse=True)
@example(args=dict(kind="hyperplane", segments=[40, 300, 1], noise=0.25, dim=24, seed=3,
                   mode="flip"), coarse=False)
@example(args=dict(kind="hyperplane", segments=[9, 9], noise=0.0, dim=1, seed=5,
                   mode="redraw"), coarse=True)
def test_generator_matches_per_instance_reference(args, coarse):
    # one draw per segment gives the per-instance loop's streams byte for byte;
    # the coarse doubles make ties at the label rules common
    with mock.patch.object(np.random, "default_rng", CoarseGenerator if coarse else _default_rng):
        got = gen_drift_stream(**args)
        want = loop_drift_stream(**args)
    assert (got.input_dim, got.classes, got.provenance, got.label_names) == \
        (want.input_dim, want.classes, want.provenance, want.label_names)
    assert len(got) == len(want) == sum(args["segments"])
    assert all(i.features.dtype == np.float64 and i.features.shape == (args["dim"],)
               for i in got)
    assert b"".join(i.features.tobytes() for i in got) == \
        b"".join(i.features.tobytes() for i in want)
    assert [(i.label, i.position) for i in got] == [(i.label, i.position) for i in want]
    assert {type(v) for i in got for v in (i.label, i.position)} == {int}


def test_generator_refuses_more_draws_than_the_cap(monkeypatch):
    # rows x (d + 1) draws: 20 x 3 = 60 is at the cap, 21 x 3 and 20 x 4 are over
    monkeypatch.setattr(streams, "MAX_GENERATED_DRAWS", 60)
    assert len(gen_drift_stream("sea", [10, 10], dim=2)) == 20
    assert len(gen_drift_stream("hyperplane", [10, 10], noise=0.1, dim=2)) == 20
    with pytest.raises(ConfigError, match="^21 rows of 2 features exceed .* of 60 random draws"):
        gen_drift_stream("sea", [10, 11], dim=2)
    with pytest.raises(ConfigError, match="^20 rows of 3 features exceed"):
        gen_drift_stream("hyperplane", [20], dim=3)


@pytest.mark.parametrize("seg", ["10000000000", "10000000000000000000", "1,134217727"])
def test_oversized_spec_is_refused_before_drawing(seg):
    # refused by the real cap before any RNG call or allocation
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ConfigError, match=f"^{sum(map(int, seg.split(',')))} rows of 8 "
                                              f"features exceed .* {MAX_GENERATED_DRAWS} random"):
            parse_stream_spec(f"hyperplane:seg={seg}")


def test_generation_peaks_near_what_the_stream_holds():
    # the deep-flip benchmark stream: features are transformed in the draw
    # buffer, not copied, so building it takes little beyond what it keeps
    gen_drift_stream("sea", [5])         # one-time allocations happen outside the trace
    tracemalloc.start()
    try:
        src = parse_stream_spec("hyperplane:seg=2000,2000;noise=0.1;mode=flip;d=20",
                                default_seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(src) == 4000
    assert peak <= 1.05 * held, (peak, held)


# ---------------------------------------------------------------- spec grammar

def test_parse_spec_generator_defaults():
    src = parse_stream_spec("sea:seg=50;noise=0")
    assert len(src) == 50
    assert src.provenance.startswith("sea:")


def test_parse_spec_default_seed_applies_only_without_explicit_seed():
    implicit = parse_stream_spec("sea:seg=30", default_seed=9)
    explicit = parse_stream_spec("sea:seg=30;seed=2", default_seed=9)
    want_implicit = gen_drift_stream("sea", [30], seed=9)
    want_explicit = gen_drift_stream("sea", [30], seed=2)
    assert np.array_equal(implicit.instances[0].features,
                          want_implicit.instances[0].features)
    assert np.array_equal(explicit.instances[0].features,
                          want_explicit.instances[0].features)


def test_parse_spec_hyperplane_options():
    src = parse_stream_spec("hyperplane:seg=20,20;mode=flip;d=4;seed=3")
    assert src.input_dim == 4
    assert len(src) == 40


def test_parse_spec_csv_with_options(tmp_path):
    # csv takes only a path: any option after it fails loudly
    p = write_lines(tmp_path / "pipes.csv", "a|1.0\nb|2.0\na|3.0\n")
    with pytest.raises(ConfigError, match=r"unknown option delim='\|'.*takes only a path"):
        parse_stream_spec(f"csv:{p};delim=|;label=0")


def test_parse_spec_csv_forced_header(tmp_path):
    p = write_lines(tmp_path / "forced.csv", "9,9,a\n1,2,a\n3,4,b\n")
    assert len(parse_stream_spec(f"csv:{p}")) == 3          # every row is data
    with pytest.raises(ConfigError, match="unknown option header='1'"):
        parse_stream_spec(f"csv:{p};header=1")


def test_parse_spec_csv_shuffle(tmp_path):
    # rows stream in file order; there is no shuffle
    body = "".join(f"{i},{'a' if i % 2 else 'b'}\n" for i in range(20))
    p = write_lines(tmp_path / "s.csv", body)
    src = parse_stream_spec(f"csv:{p}")
    assert [float(inst.features[0]) for inst in src] == list(range(20))
    with pytest.raises(ConfigError, match="unknown option shuffle='7'"):
        parse_stream_spec(f"csv:{p};shuffle=7")


def test_parse_spec_errors(tmp_path):
    for bad in ["justaname", "sea:noise=0.1", "sea:seg=a,b", "sea:seg=50;oops",
                "arff:whatever", "csv:"]:
        with pytest.raises(ConfigError):
            parse_stream_spec(bad)


@pytest.mark.parametrize("bad", [
    "hyperplane:seg=100;noise=abc", "sea:seg=100;d=2.5", "sea:seg=100;seed=x",
    "csv:{p};header=yes", "csv:{p};shuffle=1e3", "csv:{p};delim=",
    "sea:seg=100;seed=-1", "csv:{p};shuffle=-1", "sea:seg=50;nosie=0.3",
    "hyperplane:seg=50;dim=30", "sea:seg=50;mode=flip"])
def test_parse_spec_malformed_option_names_it(tmp_path, bad):
    p = write_lines(tmp_path / "ok.csv", "1,a\n2,b\n")
    spec = bad.format(p=p)
    key, val = spec.rsplit(";", 1)[1].split("=", 1)
    with pytest.raises(ConfigError) as err:
        parse_stream_spec(spec)
    assert f"{key}={val!r}" in str(err.value)
    assert spec in str(err.value)


def test_parse_spec_unknown_option_lists_the_allowed_ones():
    with pytest.raises(ConfigError, match="expected one of seg, noise, seed, d$"):
        parse_stream_spec("sea:seg=50;nosie=0.3")
    with pytest.raises(ConfigError, match="expected one of seg, noise, seed, d, mode$"):
        parse_stream_spec("hyperplane:seg=50;dim=30")


# ---------------------------------------------------------------- paths

def test_resolve_named_dataset_missing(monkeypatch, tmp_path):
    # a csv spec is a path: a dataset name is not looked up anywhere, not even
    # in BODL_DATA_DIR when that holds a file of the name
    monkeypatch.setenv("BODL_DATA_DIR", str(tmp_path))
    write_lines(tmp_path / "pima.csv", "1,2,0\n3,4,1\n")
    with pytest.raises(StreamFormatError, match="^no such file: pima$"):
        parse_stream_spec("csv:pima")


# ---------------------------------------------------------------- round trip

def test_write_then_load_round_trip(tmp_path):
    src = gen_drift_stream("sea", [40], noise=0.3, seed=3)
    out = tmp_path / "dump.csv"
    write_stream_csv(src, out)
    back = load_csv(out)
    assert back.input_dim == src.input_dim
    assert back.classes == 2
    for orig, loaded in zip(src, back):
        assert np.array_equal(loaded.features, orig.features)
        # loaded labels are re-encoded by first appearance; map back by name
        assert int(back.label_names[loaded.label]) == orig.label


def test_write_keeps_label_names(tmp_path):
    src = load_csv(write_lines(tmp_path / "named.csv", "1,2,yes\n3,4,no\n5,6,yes\n"))
    out = tmp_path / "dump.csv"
    write_stream_csv(src, out)
    assert out.read_text().splitlines() == ["1.0,2.0,yes", "3.0,4.0,no", "5.0,6.0,yes"]
    back = load_csv(out)
    assert back.label_names == ["yes", "no"]
    assert [i.label for i in back] == [0, 1, 0]


def test_stream_source_iterates_and_sizes():
    insts = gen_drift_stream("sea", [10], seed=0).instances
    src = StreamSource(insts, 3, 2, "x")
    assert len(src) == 10
    assert [i.position for i in src] == list(range(10))
