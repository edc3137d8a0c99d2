"""CSV ingestion, online standardization, synthetic generators, spec grammar."""

import numpy as np
import pytest

from bodl.errors import ConfigError, StreamFormatError
from bodl.streams import (
    SEA_THRESHOLDS,
    Standardizer,
    StreamSource,
    data_dir,
    gen_drift_stream,
    load_csv,
    parse_stream_spec,
    resolve_csv_path,
    write_stream_csv,
)


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


def test_load_csv_sniffs_named_header(tmp_path):
    p = write_lines(tmp_path / "h.csv", "f1,f2,target\n1,2,a\n3,4,b\n")
    src = load_csv(p)
    assert len(src) == 2
    assert src.label_names == ["a", "b"]


def test_load_csv_numeric_first_row_is_data(tmp_path):
    p = write_lines(tmp_path / "nohdr.csv", "1,2,a\n3,4,b\n")
    assert len(load_csv(p)) == 2


def test_load_csv_text_labels_do_not_trigger_header(tmp_path):
    # only non-label cells count for sniffing: "g"/"h" in the label slot
    # must not make the first row look like a header
    p = write_lines(tmp_path / "gh.csv", "1,2,g\n3,4,h\n")
    src = load_csv(p)
    assert len(src) == 2
    assert src.label_names == ["g", "h"]


def test_load_csv_label_column_by_name(tmp_path):
    p = write_lines(tmp_path / "named.csv", "y,f1\na,1\nb,2\n")
    src = load_csv(p, label_column="y")
    assert src.label_names == ["a", "b"]
    assert np.array_equal(src.instances[0].features, np.array([1.0]))


def test_load_csv_name_requires_header(tmp_path):
    p = write_lines(tmp_path / "named.csv", "y,f1\na,1\nb,2\n")
    with pytest.raises(StreamFormatError):
        load_csv(p, label_column="y", has_header=False)
    with pytest.raises(StreamFormatError):
        load_csv(p, label_column="nope")


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


def test_load_csv_single_label_rejected(tmp_path):
    p = write_lines(tmp_path / "one.csv", "1,2,a\n3,4,a\n")
    with pytest.raises(StreamFormatError, match="at least 2"):
        load_csv(p)


def test_load_csv_label_column_out_of_range(tmp_path):
    p = write_lines(tmp_path / "t.csv", "1,2,a\n3,4,b\n")
    with pytest.raises(StreamFormatError):
        load_csv(p, label_column=3)
    with pytest.raises(StreamFormatError):
        load_csv(p, label_column=-4)


def test_load_csv_missing_file():
    with pytest.raises(StreamFormatError, match="no such file"):
        load_csv("/nonexistent/nowhere.csv")


def test_load_csv_blank_lines_skipped(tmp_path):
    p = write_lines(tmp_path / "blank.csv", "1,2,a\n\n3,4,b\n\n")
    assert len(load_csv(p)) == 2


def test_load_csv_header_only_rejected(tmp_path):
    p = write_lines(tmp_path / "hdr.csv", "f1,f2,y\n")
    with pytest.raises(StreamFormatError, match="header only"):
        load_csv(p)


def test_load_csv_shuffle_is_seeded_permutation(tmp_path):
    body = "".join(f"{i},{i + 0.5},{'a' if i % 2 else 'b'}\n" for i in range(30))
    p = write_lines(tmp_path / "s.csv", body)
    plain = load_csv(p)
    shuf1 = load_csv(p, shuffle_seed=7)
    shuf2 = load_csv(p, shuffle_seed=7)
    other = load_csv(p, shuffle_seed=8)

    key = lambda inst: (tuple(inst.features), inst.label)
    assert sorted(map(key, shuf1)) == sorted(map(key, plain))
    assert [key(i) for i in shuf1] == [key(i) for i in shuf2]
    assert [key(i) for i in shuf1] != [key(i) for i in other]
    assert [inst.position for inst in shuf1] == list(range(30))
    assert [key(i) for i in shuf1] != [key(i) for i in plain]


# ---------------------------------------------------------------- standardizer

def test_standardizer_first_instance_maps_to_zero():
    st = Standardizer(3)
    assert np.array_equal(st.standardize(np.array([4.0, -2.0, 9.0])), np.zeros(3))


def test_standardizer_hand_sequence():
    st = Standardizer(2)
    assert np.array_equal(st.standardize(np.array([5.0, 1.0])), np.zeros(2))
    # stats so far: mean [5,1], var 0 -> centered, unscaled
    assert np.allclose(st.standardize(np.array([5.0, 3.0])), [0.0, 2.0], atol=1e-15)
    # second feature now has mean 2, population var 1
    assert np.allclose(st.standardize(np.array([5.0, 1.0])), [0.0, -1.0], atol=1e-15)


def test_standardizer_constant_stream_stays_zero():
    st = Standardizer(2)
    for _ in range(10):
        z = st.standardize(np.array([3.0, -7.0]))
        assert np.array_equal(z, np.zeros(2))


def test_standardizer_matches_two_pass_prefix_stats():
    rng = np.random.default_rng(3)
    xs = rng.normal(2.0, 3.0, size=(40, 4))
    st = Standardizer(4)
    for t in range(40):
        z = st.standardize(xs[t])
        if t == 0:
            assert np.array_equal(z, np.zeros(4))
            continue
        mean = xs[:t].mean(axis=0)
        var = xs[:t].var(axis=0)
        denom = np.where(var > 0.0, np.maximum(np.sqrt(var), 1e-8), 1.0)
        assert np.allclose(z, (xs[t] - mean) / denom, atol=1e-10)


def test_standardizer_never_peeks_at_current_instance():
    st = Standardizer(1)
    st.standardize(np.array([1.0]))
    st.standardize(np.array([2.0]))
    # an extreme outlier must be scored against the old stats only
    z = st.standardize(np.array([1e6]))
    assert z[0] == pytest.approx((1e6 - 1.5) / 0.5, rel=1e-12)


def test_standardizer_validation():
    with pytest.raises(ConfigError):
        Standardizer(0)
    st = Standardizer(2)
    assert np.array_equal(st.variance, np.zeros(2))


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
    p = write_lines(tmp_path / "pipes.csv", "a|1.0\nb|2.0\na|3.0\n")
    src = parse_stream_spec(f"csv:{p};delim=|;label=0")
    assert src.label_names == ["a", "b"]
    assert np.array_equal(src.instances[2].features, np.array([3.0]))


def test_parse_spec_csv_forced_header(tmp_path):
    p = write_lines(tmp_path / "forced.csv", "9,9,a\n1,2,a\n3,4,b\n")
    assert len(parse_stream_spec(f"csv:{p}")) == 3          # sniffed as data
    assert len(parse_stream_spec(f"csv:{p};header=1")) == 2  # forced header


def test_parse_spec_csv_shuffle(tmp_path):
    body = "".join(f"{i},{'a' if i % 2 else 'b'}\n" for i in range(20))
    p = write_lines(tmp_path / "s.csv", body)
    via_spec = parse_stream_spec(f"csv:{p};shuffle=7")
    direct = load_csv(p, shuffle_seed=7)
    assert all(np.array_equal(x.features, y.features) and x.label == y.label
               for x, y in zip(via_spec, direct))


def test_parse_spec_errors(tmp_path):
    for bad in ["justaname", "sea:noise=0.1", "sea:seg=a,b", "sea:seg=50;oops",
                "arff:whatever", "csv:"]:
        with pytest.raises(ConfigError):
            parse_stream_spec(bad)


# ---------------------------------------------------------------- paths

def test_data_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("BODL_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    monkeypatch.delenv("BODL_DATA_DIR")
    assert str(data_dir()) == "data"


def test_resolve_literal_path(tmp_path):
    p = write_lines(tmp_path / "x.csv", "1,a\n2,b\n")
    assert resolve_csv_path(str(p)) == p


def test_resolve_named_dataset(monkeypatch, tmp_path):
    monkeypatch.setenv("BODL_DATA_DIR", str(tmp_path))
    write_lines(tmp_path / "pima.csv", "1,2,0\n3,4,1\n")
    assert resolve_csv_path("pima") == tmp_path / "pima.csv"


def test_resolve_named_dataset_missing(monkeypatch, tmp_path):
    monkeypatch.setenv("BODL_DATA_DIR", str(tmp_path / "empty"))
    with pytest.raises(StreamFormatError, match="fetch_data"):
        resolve_csv_path("pima")


def test_resolve_unknown_token():
    with pytest.raises(StreamFormatError, match="known dataset"):
        resolve_csv_path("not-a-file-or-name")


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


def test_stream_source_iterates_and_sizes():
    insts = gen_drift_stream("sea", [10], seed=0).instances
    src = StreamSource(insts, 3, 2, "x")
    assert len(src) == 10
    assert [i.position for i in src] == list(range(10))
