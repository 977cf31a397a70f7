import copy
import os
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripletlab.data import (
    LabeledDataset,
    generate_synthetic,
    group_by_label,
    load_dataset,
    save_dataset,
)


class TestLabeledDataset:
    def test_properties(self):
        ds = LabeledDataset(np.zeros((6, 3)), np.array([0, 0, 1, 1, 2, 2]))
        assert ds.n == 6 and ds.input_dim == 3 and ds.n_classes == 3
        order, starts, sizes = group_by_label(ds.labels)
        assert order.tolist() == [0, 1, 2, 3, 4, 5]
        assert starts.tolist() == [0, 2, 4] and sizes.tolist() == [2, 2, 2]

    def test_rejects_gapped_labels(self):
        with pytest.raises(ValueError, match="contiguous"):
            LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 2, 2]))

    def test_rejects_singleton_class(self):
        with pytest.raises(ValueError, match="offending classes: \\[1\\]"):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 1]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(N, d\)"):
            LabeledDataset(np.zeros(4), np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="one integer per row"):
            LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 1]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_features(self, value):
        features = np.zeros((4, 2))
        features[2, 1] = value
        with pytest.raises(ValueError, match=rf"features must be finite; row 2, column 1 is {value}"):
            LabeledDataset(features, np.array([0, 0, 1, 1]))

    def test_float32_features_are_kept(self):
        features = np.arange(8, dtype=np.float32).reshape(4, 2)
        ds = LabeledDataset(features, np.array([0, 0, 1, 1]))
        assert ds.features.dtype == np.float32
        assert np.shares_memory(ds.features, features)

    @pytest.mark.parametrize(
        "features",
        [
            np.arange(8, dtype=np.float64).reshape(4, 2),
            np.arange(8, dtype=np.int64).reshape(4, 2),
            np.arange(8, dtype=np.float16).reshape(4, 2),
            [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]],
            [[0, 1], [2, 3], [4, 5], [6, 7]],
        ],
        ids=["float64", "int64", "float16", "float-list", "int-list"],
    )
    def test_other_features_become_float64(self, features):
        ds = LabeledDataset(features, np.array([0, 0, 1, 1]))
        assert ds.features.dtype == np.float64
        assert np.array_equal(ds.features, np.arange(8).reshape(4, 2))

    def test_arrays_are_read_only_views(self):
        features = np.arange(8, dtype=np.float32).reshape(4, 2)
        ds = LabeledDataset(features, np.array([0, 0, 1, 1]))
        assert ds.features is not features and np.shares_memory(ds.features, features)
        assert features.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[:] = 0

    def test_deep_copy_is_the_dataset_itself(self):
        ds = generate_synthetic(2, 3, 4, seed=0)
        assert copy.deepcopy(ds) is ds

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pickled_copy_is_equal_and_read_only(self, dtype):
        ds = generate_synthetic(2, 3, 4, seed=0)
        ds = LabeledDataset(ds.features.astype(dtype), ds.labels)
        clone = pickle.loads(pickle.dumps(ds))
        for name in ("features", "labels"):
            value, copied = getattr(ds, name), getattr(clone, name)
            assert copied.dtype == value.dtype and np.array_equal(copied, value)
            assert not copied.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            clone.features[0, 0] = 1.0

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_float32_features(self, value):
        features = np.zeros((4, 2), dtype=np.float32)
        features[3, 0] = value
        with pytest.raises(ValueError, match=rf"features must be finite; row 3, column 0 is {value}"):
            LabeledDataset(features, np.array([0, 0, 1, 1]))


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(4, 10, 5, seed=3)
        b = generate_synthetic(4, 10, 5, seed=3)
        c = generate_synthetic(4, 10, 5, seed=4)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_shapes_and_label_blocks(self):
        ds = generate_synthetic(3, 7, 4, seed=0)
        assert ds.features.shape == (21, 4)
        assert np.array_equal(ds.labels, np.repeat([0, 1, 2], 7))

    def test_zero_noise_collapses_classes(self):
        ds = generate_synthetic(3, 5, 4, within_std=0.0, seed=1)
        order, starts, _ = group_by_label(ds.labels)
        for idx in np.split(order, starts[1:]):
            block = ds.features[idx]
            assert np.array_equal(block, np.tile(block[0], (5, 1)))

    def test_spread_bounds_centers(self):
        ds = generate_synthetic(5, 4, 3, center_spread=0.5, within_std=0.0, seed=2)
        assert np.max(np.abs(ds.features)) <= 0.5

    def test_argument_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            generate_synthetic(0, 5, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_synthetic(2, 5, 3, within_std=-1.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e308])
    def test_refuses_a_spread_without_a_finite_range(self, value):
        got = re.escape(str(value))
        with pytest.raises(ValueError, match=rf"center_spread must be finite .*, got {got}$"):
            generate_synthetic(2, 5, 3, center_spread=value)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_refuses_a_non_finite_std(self, value):
        with pytest.raises(ValueError, match=rf"within_std must be finite, got {value}"):
            generate_synthetic(2, 5, 3, within_std=value)


class TestRoundTrip:
    def test_save_load_is_exact_at_float32(self, tmp_path, rng):
        ds = generate_synthetic(3, 6, 5, seed=9)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features.astype(np.float32))
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.features.dtype == np.float32

    def test_header_written(self, tmp_path):
        ds = generate_synthetic(2, 2, 3, seed=0)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        assert path.read_text().splitlines()[0] == "f0,f1,f2,label"

    @pytest.mark.parametrize("value", [1e39, -3.5e38, 1e300])
    def test_refuses_a_feature_float32_cannot_hold_before_writing(self, tmp_path, value):
        features = np.zeros((4, 3))
        features[2, 1] = value
        features[3, 2] = value  # only the first is named
        path = tmp_path / "ds.csv"
        named = rf"^feature row 2, column 1 is {re.escape(str(value))}, not finite at float32"
        with pytest.raises(ValueError, match=named):
            save_dataset(LabeledDataset(features, np.array([0, 0, 1, 1])), path)
        assert not path.exists()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f0,label\n1.0,0\n\n2.0,0\n1.5,1\n2.5,1\n")
        assert load_dataset(path).n == 4


class TestLoadErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,target\n1,2,0\n")
        with pytest.raises(ValueError, match="last header column must be 'label'"):
            load_dataset(path)
        path.write_text("x0,x1,label\n1,2,0\n")
        with pytest.raises(ValueError, match="feature columns must be f0..f1"):
            load_dataset(path)

    def test_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: expected 3 fields, got 2"):
            load_dataset(path)

    def test_parse_failure_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\noops,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3:"):
            load_dataset(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(path)

    def test_noncontiguous_labels_remapped_with_warning(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("f0,label\n1.0,5\n2.0,5\n3.0,9\n4.0,9\n")
        with pytest.warns(UserWarning, match="remapping non-contiguous labels to 0..1"):
            ds = load_dataset(path)
        assert np.array_equal(ds.labels, [0, 0, 1, 1])


@settings(max_examples=40, deadline=None)
@given(
    n_classes=st.integers(1, 6),
    per_class=st.integers(2, 8),
    input_dim=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
)
def test_generated_datasets_satisfy_invariants(n_classes, per_class, input_dim, seed):
    ds = generate_synthetic(n_classes, per_class, input_dim, seed=seed)
    assert ds.n == n_classes * per_class
    assert ds.n_classes == n_classes
    assert np.all(np.isfinite(ds.features))
    counts = np.bincount(ds.labels, minlength=n_classes)
    assert np.all(counts == per_class)


def reference_class_groups(labels: np.ndarray) -> dict:
    """label -> ascending positions, one np.where per label (the grouping group_by_label replaced)."""
    return {int(c): np.where(labels == c)[0] for c in np.unique(labels)}


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.integers(-3, 40), min_size=1, max_size=60))
@example(labels=[5, 5, 5])  # a single class
@example(labels=[7, 0, 3, 7, 0, 3, 3])  # unsorted and not contiguous, as a by-class split leaves them
def test_group_by_label_matches_per_label_where(labels):
    labels = np.array(labels)
    order, starts, sizes = group_by_label(labels)
    groups = [order[start : start + size].tolist() for start, size in zip(starts, sizes)]
    assert groups == [idx.tolist() for idx in reference_class_groups(labels).values()]
    assert np.array_equal(starts, np.cumsum(sizes) - sizes)


@settings(max_examples=20, deadline=None)
@given(n_classes=st.integers(1, 4), per_class=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_round_trip_preserves_everything(n_classes, per_class, seed, tmp_path_factory):
    ds = generate_synthetic(n_classes, per_class, 3, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.allclose(loaded.features, ds.features, atol=1e-6)


FLOAT32_EDGE = float(np.finfo(np.float32).max)
#: just below where a float64 rounds to float32 inf instead of to the largest float32
FLOAT32_ROUNDS_TO_INF = FLOAT32_EDGE * (1 + 2.0**-25)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-1.01 * FLOAT32_EDGE, 1.01 * FLOAT32_EDGE),
            st.sampled_from([FLOAT32_EDGE, np.nextafter(FLOAT32_ROUNDS_TO_INF, 0.0), FLOAT32_ROUNDS_TO_INF,
                             -0.0, 1e-46, 7e-46, 1.4e-45]),
        ),
        min_size=8,
        max_size=8,
    ),
)
@example(values=[FLOAT32_ROUNDS_TO_INF] + [0.0] * 7)
@example(values=[np.nextafter(FLOAT32_ROUNDS_TO_INF, 0.0)] + [0.0] * 7)
def test_what_save_writes_load_reads_back(values, tmp_path_factory):
    ds = LabeledDataset(np.array(values).reshape(4, 2), np.array([0, 1, 0, 1]))
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    with np.errstate(over="ignore"):
        writable = bool(np.isfinite(ds.features.astype(np.float32)).all())
    if not writable:
        with pytest.raises(ValueError, match="not finite at float32 precision"):
            save_dataset(ds, path)
        assert not path.exists()
        return
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.features.tobytes() == ds.features.astype(np.float32).tobytes()
    assert np.array_equal(loaded.labels, ds.labels)


def reference_load_dataset(path) -> LabeledDataset:
    """The line-by-line parser load_dataset replaced, kept as the differential reference."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[-1] != "label":
        raise ValueError(f"{path}: last header column must be 'label', got {header[-1]!r}")
    d = len(header) - 1
    expected = [f"f{i}" for i in range(d)]
    if header[:-1] != expected:
        raise ValueError(f"{path}: feature columns must be f0..f{d-1}")
    features, raw_labels, linenos = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            features.append([float(x) for x in parts[:-1]])
            raw_labels.append(int(parts[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if not features:
        raise ValueError(f"{path}: no data rows")
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.asarray(features, dtype=np.float32)).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite feature")
    labels = np.asarray(raw_labels, dtype=np.int64)
    uniq = np.unique(labels)
    if not np.array_equal(uniq, np.arange(uniq.size)):
        warnings.warn(f"{path}: remapping non-contiguous labels to 0..{uniq.size - 1}", stacklevel=2)
        labels = np.searchsorted(uniq, labels)
    feats = np.asarray(features, dtype=np.float32)
    return LabeledDataset(feats, labels)


def _load_with_warnings(loader, path):
    """The dataset plus the UserWarnings (the label remap) that loading raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = loader(path)
    return ds, [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


_F32_MAX = float(np.finfo(np.float32).max)
# finite at float32 precision: the loader's result is compared byte for byte
_FEATURE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda x: f"{x:.9g}"),
    st.floats(-_F32_MAX, _F32_MAX).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:e}"),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3E}"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["-0", "1e-320", "3.4028235e38", "-3.4028235e+38", ".5", "-7."]),
)
# not finite at float32 precision: inf/nan as written, or beyond float32 range once cast
_NON_FINITE_TEXT = st.one_of(
    st.sampled_from(["inf", "-inf", "+inf", "Infinity", "-Infinity", "nan", "NaN", "1e39"]),
    st.sampled_from(["3.4e39", "3.4028235677973366e+38", "-3.4028235677973366e+38"]),
    st.floats(min_value=3.4028235677973366e38, allow_infinity=False).map(repr),
)
_BLANK_LINE = st.sampled_from(["", " ", "\t", "  \t  "])


@st.composite
def csv_bodies(draw, non_finite=False):
    """(header + body text, d): 1-5 feature columns, >= 2 rows per label, blank lines mixed in.

    With non_finite, at least one drawn row holds a non-finite field, and
    the result also carries the first such row's line number and field.
    """
    d = draw(st.integers(1, 5))
    label_values = draw(
        st.one_of(
            st.integers(1, 4).map(lambda k: list(range(k))),
            st.lists(st.integers(-50, 10**6), min_size=1, max_size=4, unique=True),
        )
    )
    labels = [v for v in label_values for _ in range(draw(st.integers(2, 4)))]
    labels = draw(st.permutations(labels))
    bad_rows = set()
    if non_finite:
        bad_rows = set(draw(st.lists(st.integers(0, len(labels) - 1), min_size=1, unique=True)))
    pad = draw(st.sampled_from(["", " "]))
    lines = [",".join([f"f{i}" for i in range(d)] + ["label"])]
    first_bad = None
    for row, label in enumerate(labels):
        lines += draw(st.lists(_BLANK_LINE, max_size=2))
        feats = draw(st.lists(_FEATURE_TEXT, min_size=d, max_size=d))
        if row in bad_rows:
            cols = draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True))
            for col in cols:
                feats[col] = draw(_NON_FINITE_TEXT)
            if first_bad is None:
                first_bad = (len(lines) + 1, feats[min(cols)])
        lines.append(",".join(f"{pad}{x}{pad}" for x in feats) + f",{pad}{label}")
    lines += draw(st.lists(_BLANK_LINE, max_size=2))
    trailing = draw(st.sampled_from(["\n", ""]))
    text = "\n".join(lines) + trailing
    return (text, d, *first_bad) if non_finite else (text, d)


@settings(max_examples=150, deadline=None)
@given(body=csv_bodies())
def test_load_matches_line_by_line_reference(body, tmp_path_factory):
    text, d = body
    path = tmp_path_factory.mktemp("diff") / "ds.csv"
    path.write_text(text)
    want, want_warnings = _load_with_warnings(reference_load_dataset, path)
    got, got_warnings = _load_with_warnings(load_dataset, path)
    assert got.features.dtype == np.float32 and got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    assert got_warnings == want_warnings


@settings(max_examples=100, deadline=None)
@given(body=csv_bodies(non_finite=True))
def test_non_finite_feature_names_its_first_line(body, tmp_path_factory):
    text, d, lineno, field = body
    path = tmp_path_factory.mktemp("nonfinite") / "ds.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{lineno}: non-finite feature')}$"):
        reference_load_dataset(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning escapes either
        with pytest.raises(ValueError) as err:
            load_dataset(path)
    assert str(err.value) == f"{path}:{lineno}: feature {field!r} is not finite at float32 precision"


class TestLoadEdgeCases:
    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f0,label\n1.0,0\n \t \n2.0,0\n1.5,1\n   \n2.5,1\n")
        ds = load_dataset(path)
        assert ds.n == 4
        assert np.array_equal(ds.labels, [0, 0, 1, 1])

    @pytest.mark.parametrize("label", ["3.0", "3e0", "3.5", "nan"])
    def test_non_integer_label_reports_line_number(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n1.0,3\n2.0,{label}\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:3: invalid literal for int\(\).*{label}"):
            load_dataset(path)

    def test_short_row_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n\n1.0,2.0,0\n3.0,1\n4.0,5.0,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:5: expected 3 fields, got 2"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["inf", "-Infinity", "nan", "1e39", "3.4028235677973366e+38"])
    def test_non_finite_feature_reports_line_number(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n\n1.0,2.0,0\n3.0,{value},1\n4.0,5.0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning escapes either
            with pytest.raises(
                ValueError,
                match=rf"bad\.csv:5: feature '{re.escape(value)}' is not finite at float32 precision",
            ):
                load_dataset(path)

    def test_non_finite_feature_before_a_short_row_wins(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1e39,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: feature '1e39'"):
            load_dataset(path)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,x,0\n1.0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: could not convert string to float: 'x'"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2.0,0 # note", r"3: invalid literal for int\(\) with base 10: '0 # note'"),
            ("# 2.0,0", r"3: could not convert string to float: '# 2.0'"),
            ("# note", r"3: expected 2 fields, got 1"),
        ],
    )
    def test_hash_is_not_a_comment(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n1.0,0\n{row}\n3.0,1\n4.0,1\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:{message}"):
            load_dataset(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n"])
    def test_header_only_has_no_stray_warning(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                load_dataset(path)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("row", ["1_0,0", "1.0,1_0"])
    def test_value_only_python_accepts_gets_path_prefixed_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,label\n1.0,0\n{row}\n2.0,1\n3.0,1\n")
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: ")
        assert "1_0" in message
        assert not re.match(rf"{re.escape(str(path))}:\d", message)

    def test_label_parsed_via_float_rejected_on_numpy_1x(self, tmp_path, monkeypatch):
        # numpy 1.23-1.26 parse "3.0" into an integer field with only a DeprecationWarning
        real_loadtxt = np.loadtxt

        def numpy_1x_loadtxt(lines, **kwargs):
            rows = []
            for line in lines:
                feats, label = line.rstrip("\n").rsplit(",", 1)
                if not label.strip().lstrip("+-").isdigit():
                    warnings.warn(
                        "loadtxt(): Parsing an integer via a float is deprecated.",
                        DeprecationWarning,
                    )
                rows.append(f"{feats},{int(float(label))}\n")
            return real_loadtxt(rows, **kwargs)

        monkeypatch.setattr(np, "loadtxt", numpy_1x_loadtxt)
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,1.0\n4.0,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: invalid literal for int\(\)"):
            load_dataset(path)
        path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,1\n4.0,1\n")
        assert np.array_equal(load_dataset(path).labels, [0, 0, 1, 1])


# (text, expected float32 result): the rounding corners of the float64 -> float32 cast
_CAST_CORNERS = [
    "3.4028234663852886e+38",  # float32 max, exactly
    "3.4028235677973362e+38",  # just below the midpoint to the next power: rounds down to max
    "3.4028235677973366e+38",  # the midpoint: rounds up, overflows
    "1.401298464324817e-45",  # smallest subnormal
    "7.006492321624085e-46",  # half of it: ties to even, zero
    "7.006492321624087e-46",  # just above half: the smallest subnormal
    "1.1754942e-38",  # the largest subnormal's neighbourhood
    "-0",
]


def test_float32_parse_rounds_as_float64_then_cast(tmp_path):
    """Features are read straight to float32; that rounds exactly as a float64 parse followed by
    astype(np.float32), from below the smallest subnormal to past the float32 range."""
    rng = np.random.default_rng(2003)
    n = 20_000
    magnitudes = 10.0 ** rng.uniform(-46, 39, size=n) * rng.choice([-1.0, 1.0], size=n)
    digits = rng.integers(0, 18, size=n)
    texts = [f"{x:.{p}e}" for x, p in zip(magnitudes, digits)] + _CAST_CORNERS
    with np.errstate(over="ignore"):
        want = np.array([float(t) for t in texts]).astype(np.float32)
    finite = np.isfinite(want)
    assert 0 < finite.sum() < len(texts) and (want[finite] == 0).any()

    def write(name, values):
        path = tmp_path / name
        rows = "".join(f"{t},{i % 2}\n" for i, t in enumerate(values))
        path.write_text("f0,label\n" + rows)
        return path

    kept = [t for t, ok in zip(texts, finite) if ok]
    got = load_dataset(write("finite.csv", kept)).features[:, 0]
    assert got.view(np.uint32).tobytes() == want[finite].view(np.uint32).tobytes()
    first_bad = int(np.argmin(finite))
    with pytest.raises(ValueError, match=rf"all\.csv:{first_bad + 2}: feature '{re.escape(texts[first_bad])}'"):
        load_dataset(write("all.csv", texts))


class TestLoadMemo:
    """A process parses a CSV file again only when its bytes change."""

    BODY = "f0,f1,label\n1.0,2.0,0\n3.0,4.0,0\n5.0,6.0,1\n7.0,8.0,1\n"

    @pytest.fixture
    def parses(self, monkeypatch):
        """Every np.loadtxt call the loader makes, appended as it happens."""
        calls, real = [], np.loadtxt

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        return calls

    def test_unchanged_file_is_parsed_once(self, tmp_path, parses):
        path = tmp_path / "ds.csv"
        path.write_text(self.BODY)
        first = load_dataset(path)
        assert load_dataset(path) is first
        assert load_dataset(str(path)) is first
        assert len(parses) == 1

    def test_same_size_rewrite_with_the_old_mtime_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "ds.csv"
        path.write_text(self.BODY)
        first = load_dataset(path)
        before = path.stat()
        path.write_text(self.BODY.replace("7.0", "9.0"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        second = load_dataset(path)
        assert second is not first and len(parses) == 2
        assert second.features[3, 0] == 9.0 and first.features[3, 0] == 7.0
        assert load_dataset(path) is second and len(parses) == 2

    def test_a_failed_parse_keeps_the_last_entry(self, tmp_path, parses):
        path = tmp_path / "ds.csv"
        path.write_text(self.BODY)
        first = load_dataset(path)
        path.write_text(self.BODY.replace("5.0", "x"))
        with pytest.raises(ValueError, match=r"ds\.csv:4: could not convert string to float: 'x'"):
            load_dataset(path)
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "missing.csv")
        path.write_text(self.BODY)
        assert load_dataset(path) is first and len(parses) == 2
        path.write_text(self.BODY.replace("5.0", "5.5"))
        fixed = load_dataset(path)
        assert fixed.features[2, 0] == 5.5 and len(parses) == 3

    def test_remap_warning_is_issued_on_a_hit_as_on_a_miss(self, tmp_path, parses):
        path = tmp_path / "gap.csv"
        path.write_text(self.BODY.replace(",0\n", ",5\n").replace(",1\n", ",9\n"))
        loaded = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded.append(load_dataset(path))
            assert [(w.category, str(w.message)) for w in caught] == [
                (UserWarning, f"{path}: remapping non-contiguous labels to 0..1")
            ]
        assert loaded[1] is loaded[0] and len(parses) == 1
        assert np.array_equal(loaded[0].labels, [0, 0, 1, 1])

    def test_a_loaded_dataset_cannot_be_written(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text(self.BODY)
        ds = load_dataset(path)
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1
        assert load_dataset(path).features[0, 0] == 1.0
