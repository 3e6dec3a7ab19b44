import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ternhash import CodeMatrix, LabelSets, RetrievalIndex, mean_ap
from ternhash.harness import (
    Dataset,
    ExperimentConfig,
    gen_synthetic,
    load_features,
    load_labels,
    load_splits,
    save_features,
    save_labels,
    save_config,
    save_splits,
    single_labels,
)
from ternhash.harness.cli import main
from ternhash.harness.data import _parse_canonical


TINY_LABELS = [frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1}), frozenset({0, 1}), frozenset({1})]


def tiny_dataset():
    return Dataset(
        features=np.arange(12, dtype=np.float32).reshape(6, 2),
        labels=[set(ls) for ls in TINY_LABELS],
        train_ids=[0, 2],
        retrieval_ids=[0, 1, 2, 3],
        query_ids=[4, 5],
    )


def test_dataset_accessors():
    ds = tiny_dataset()
    assert ds.input_dim == 2
    assert ds.num_classes == 2
    assert ds.features.dtype == np.float32
    assert all(isinstance(ls, frozenset) for ls in ds.labels)
    feats, labels = ds.subset(ds.query_ids)
    assert np.array_equal(feats, ds.features[4:])
    assert list(labels) == [frozenset({0, 1}), frozenset({1})]


def test_dataset_validation():
    feats = np.zeros((4, 2), dtype=np.float32)
    ok = dict(labels=[{0}] * 4, train_ids=[0], retrieval_ids=[0, 1], query_ids=[2, 3])
    Dataset(features=feats, **ok)
    Dataset(features=feats, **{**ok, "labels": LabelSets.of([{0}] * 4)})
    label_rule = "labels must be non-negative"
    for over, message in (
        # an empty label set is LabelSets' error
        ({"labels": [{0}, set(), {0}, {0}]}, "every item needs at least one label"),
        ({"features": np.zeros((0, 2))}, "features must be a non-empty [n x dim] matrix, got shape (0, 2)"),
        ({"features": np.zeros(4)}, "features must be a non-empty [n x dim] matrix, got shape (4,)"),
        ({"labels": [{0}] * 3}, "4 feature rows vs 3 label sets"),
        ({"labels": [{0}, {-1}, {0}, {0}]}, label_rule),
        # a non-integer label is LabelSets.of's error
        ({"labels": [{0}, {1.5}, {0}, {0}]}, "labels must be integers"),
        ({"labels": [{0}, {"a"}, {0}, {0}]}, "labels must be integers"),
        ({"labels": [{0}, {2**63}, {0}, {0}]}, "labels must fit in a signed 64-bit integer"),
        ({"query_ids": [1, 2]}, "query and retrieval ids must not overlap"),
        ({"train_ids": [3]}, "train ids must be a subset of retrieval ids"),
        ({"retrieval_ids": [0, 0]}, "retrieval_ids must be a list of distinct ids"),
        ({"train_ids": [[0]]}, "train_ids must be a 1-d integer array, got dtype int64 and shape (1, 1)"),
        # ids are integers: a float is not cut to one, and a bool is not read as 0 or 1
        ({"train_ids": [0.9]}, "train_ids must be a 1-d integer array, got dtype float64 and shape (1,)"),
        ({"retrieval_ids": [0.2, 1.7]}, "retrieval_ids must be a 1-d integer array, got dtype float64 and shape (2,)"),
        ({"query_ids": [2.5, 3]}, "query_ids must be a 1-d integer array, got dtype float64 and shape (2,)"),
        ({"train_ids": [True]}, "train_ids must be a 1-d integer array, got dtype bool and shape (1,)"),
        ({"labels": [{0}, {True}, {0}, {0}]}, "labels must be integers"),
        ({"query_ids": [2, 7]}, "query_ids out of range [0, 4)"),
        ({"retrieval_ids": [-1, 0]}, "retrieval_ids out of range [0, 4)"),
        ({"train_ids": []}, "train, retrieval, and query splits must all be non-empty"),
    ):
        with pytest.raises(ValueError) as exc:
            Dataset(**{"features": feats, **ok, **over})
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "ids",
    [np.array([4, 0, 5]), [4, 0, 5], np.arange(6)[::2], np.arange(6)[::-3], np.array([-1, 1]), [], np.arange(0)],
)
def test_dataset_subset_takes_index_arrays_and_lists(ids):
    ds = tiny_dataset()
    feats, labels = ds.subset(ids)
    assert isinstance(labels, LabelSets)
    assert list(labels) == [TINY_LABELS[i] for i in ids]
    assert feats.tobytes() == ds.features[ids].tobytes()


def test_dataset_subset_of_a_spread_of_ids():
    # every n-th retrieval id, a strided view, as the benchmark's isolated calls take them
    ds = gen_synthetic(4, 50, 6, 0.3, 3)
    old = list(ds.labels)
    for n in (7, 45, 1000):
        ids = ds.retrieval_ids[:: max(1, len(ds.retrieval_ids) // n)][:n]
        feats, labels = ds.subset(ids)
        assert list(labels) == [old[i] for i in ids]
        assert feats.tobytes() == ds.features[ids].tobytes()


def test_out_of_range_label_rows_raise_index_error():
    ds = tiny_dataset()
    for ids in (np.array([0, 6]), np.array([-7]), [2, 9]):
        with pytest.raises(IndexError):
            ds.labels[ids]
        with pytest.raises(IndexError):
            ds.subset(ids)


def test_single_labels():
    assert single_labels([{3}, {0}, {7}]).tolist() == [3, 0, 7]
    assert single_labels(LabelSets.of([{3}, {0}, {7}])).tolist() == [3, 0, 7]
    for labels, message in (
        ([{3}, {0, 1}], "item 1 has 2 labels; training requires exactly one"),
        ([{3}, {0}, set()], "every item needs at least one label"),
    ):
        with pytest.raises(ValueError) as exc:
            single_labels(labels)
        assert str(exc.value) == message


EMPTY_ROW = [{0}, set(), {1}]
CODES = CodeMatrix(planes=np.zeros((3, 2, 1), dtype=np.uint64), d=4)
EMPTY_ROW_CALLS = {
    "LabelSets": lambda path: LabelSets(indptr=[0, 1, 1, 2], ids=[0, 1]),
    "LabelSets.of": lambda path: LabelSets.of(EMPTY_ROW),
    "Dataset": lambda path: Dataset(features=np.zeros((3, 2)), labels=EMPTY_ROW,
                                    train_ids=[0], retrieval_ids=[0, 1], query_ids=[2]),
    "RetrievalIndex": lambda path: RetrievalIndex(codes=CODES, labels=EMPTY_ROW),
    "mean_ap": lambda path: mean_ap(RetrievalIndex(codes=CODES, labels=[{0}] * 3), CODES, EMPTY_ROW, "all"),
    "save_labels": lambda path: save_labels(path, EMPTY_ROW),
    "single_labels": lambda path: single_labels(EMPTY_ROW),
}


@pytest.mark.parametrize("call", EMPTY_ROW_CALLS)
def test_an_empty_label_set_is_refused_by_label_sets_wherever_it_enters(tmp_path, call):
    with pytest.raises(ValueError) as exc:
        EMPTY_ROW_CALLS[call](tmp_path / "x.labels")
    assert str(exc.value) == "every item needs at least one label"
    assert not (tmp_path / "x.labels").exists()


def test_single_labels_does_not_share_the_dataset_labels():
    ds = gen_synthetic(3, 10, 4, 0.2, 1)
    _, labels = ds.subset(ds.train_ids)
    out = single_labels(labels)
    out[:] = -1
    assert list(labels) == [frozenset({c}) for c in (np.asarray(ds.train_ids) // 10).tolist()]


def test_gen_synthetic_determinism():
    a = gen_synthetic(4, 30, 16, 0.2, 9)
    b = gen_synthetic(4, 30, 16, 0.2, 9)
    assert a.features.tobytes() == b.features.tobytes()
    assert list(a.labels) == list(b.labels)
    assert np.array_equal(a.train_ids, b.train_ids)
    assert np.array_equal(a.retrieval_ids, b.retrieval_ids)
    assert np.array_equal(a.query_ids, b.query_ids)
    c = gen_synthetic(4, 30, 16, 0.2, 10)
    assert a.features.tobytes() != c.features.tobytes()


def old_gen_synthetic(classes, per_class, input_dim, spread, seed, query_fraction=0.1, train_fraction=0.5):
    """(features, labels, train, retrieval, query ids) as gen_synthetic built them one class at a time."""
    n_query = round(query_fraction * per_class)
    n_train = round(train_fraction * (per_class - n_query))
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    features, labels, train_ids, retrieval_ids, query_ids = [], [], [], [], []
    for c in range(classes):
        features.append((centers[c] + spread * rng.standard_normal((per_class, input_dim))).astype(np.float32))
        labels.extend(frozenset({c}) for _ in range(per_class))
        perm = rng.permutation(per_class) + c * per_class
        query_ids.extend(perm[:n_query].tolist())
        retrieval_ids.extend(perm[n_query:].tolist())
        train_ids.extend(perm[n_query : n_query + n_train].tolist())
    return np.concatenate(features), labels, train_ids, retrieval_ids, query_ids


@pytest.mark.parametrize("shape", [(1, 3, 2, 0.4, 0.5), (5, 40, 8, 0.1, 0.5), (20, 111, 16, 0.025, 0.1)])
def test_gen_synthetic_equals_the_per_class_build(shape):
    classes, per_class, input_dim, query_fraction, train_fraction = shape
    ds = gen_synthetic(classes, per_class, input_dim, 0.3, 7, query_fraction=query_fraction, train_fraction=train_fraction)
    features, labels, train_ids, retrieval_ids, query_ids = old_gen_synthetic(
        classes, per_class, input_dim, 0.3, 7, query_fraction, train_fraction
    )
    assert isinstance(ds.labels, LabelSets)
    assert list(ds.labels) == labels
    assert ds.features.tobytes() == features.tobytes()
    assert ds.train_ids.tolist() == train_ids
    assert ds.retrieval_ids.tolist() == retrieval_ids
    assert ds.query_ids.tolist() == query_ids
    assert ds.num_classes == classes


def test_gen_synthetic_layout_and_splits():
    ds = gen_synthetic(5, 40, 8, 0.3, 2, query_fraction=0.1, train_fraction=0.5)
    assert ds.features.shape == (200, 8)
    assert list(ds.labels) == [frozenset({c}) for c in range(5) for _ in range(40)]
    assert ds.query_ids.size == 5 * 4
    assert ds.retrieval_ids.size == 5 * 36
    assert ds.train_ids.size == 5 * 18
    assert not set(ds.query_ids.tolist()) & set(ds.retrieval_ids.tolist())
    assert set(ds.train_ids.tolist()) <= set(ds.retrieval_ids.tolist())
    # splits are class-balanced
    for ids, per in ((ds.query_ids, 4), (ds.retrieval_ids, 36), (ds.train_ids, 18)):
        counts = np.bincount(np.asarray(ids) // 40, minlength=5)
        assert counts.tolist() == [per] * 5


def test_gen_synthetic_zero_spread_collapses_classes():
    ds = gen_synthetic(3, 10, 6, 0.0, 5)
    for c in range(3):
        block = ds.features[c * 10 : (c + 1) * 10]
        assert np.all(block == block[0])
    # unit-length class centers
    assert np.linalg.norm(ds.features[::10].astype(np.float64), axis=1) == pytest.approx(
        np.ones(3), rel=1e-6
    )


def test_gen_synthetic_clusters_are_recoverable():
    ds = gen_synthetic(10, 500, 128, 0.3, 1)
    rng = np.random.default_rng(1)
    centers = rng.standard_normal((10, 128))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    d = ((ds.features[:, None, :].astype(np.float64) - centers[None]) ** 2).sum(axis=2)
    truth = np.repeat(np.arange(10), 500)
    assert (d.argmin(axis=1) == truth).mean() > 0.9


def test_gen_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic(0, 10, 4, 0.3, 1)
    with pytest.raises(ValueError):
        gen_synthetic(3, 10, 4, -0.1, 1)
    with pytest.raises(ValueError):
        gen_synthetic(3, 10, 4, 0.3, 1, query_fraction=0.0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 10, 4, 0.3, 1, train_fraction=1.5)
    with pytest.raises(ValueError):
        gen_synthetic(3, 2, 4, 0.3, 1)  # too few items per class to split
    # a bool or a float size or seed is refused by a ValueError that names it
    for sizes, seed, message in (((3, 10, 4), True, "seed must be an integer in [0, inf), got True"),
                                 ((3, 10, 4), 1.5, "seed must be an integer in [0, inf), got 1.5"),
                                 ((3, 10, 4), -1, "seed must be an integer in [0, inf), got -1"),
                                 ((2.5, 10, 4), 1, "classes must be an integer in [1, 2**63), got 2.5"),
                                 ((True, 10, 4), 1, "classes must be an integer in [1, 2**63), got True"),
                                 ((3, np.bool_(True), 4), 1,
                                  "per_class must be an integer in [1, 2**63), got np.True_"),
                                 ((3, 10, True), 1, "input_dim must be an integer in [1, 2**63), got True"),
                                 ((3, 10, 2**63), 1,
                                  "input_dim must be an integer in [1, 2**63), got 9223372036854775808")):
        with pytest.raises(ValueError) as exc:
            gen_synthetic(*sizes, 0.3, seed)
        assert str(exc.value) == message
    numpy_sized = gen_synthetic(np.int64(3), np.int32(10), np.uint8(4), 0.3, np.int64(1))
    int_sized = gen_synthetic(3, 10, 4, 0.3, 1)
    for name in ("features", "train_ids", "retrieval_ids", "query_ids"):
        assert np.array_equal(getattr(numpy_sized, name), getattr(int_sized, name))
    assert list(numpy_sized.labels) == list(int_sized.labels)


@pytest.mark.parametrize("spread", [float("nan"), float("inf"), float("-inf"), -0.1])
def test_gen_synthetic_rejects_a_spread_that_is_not_finite_and_non_negative(spread):
    with pytest.raises(ValueError, match=f"^spread must be finite and non-negative, got {spread!r}$"):
        gen_synthetic(3, 10, 4, spread, 1)


@pytest.mark.parametrize("spread", [1e300, 1e308])
def test_gen_synthetic_rejects_a_spread_that_overflows_float32(spread):
    # 1e300 overflows in the float32 cast, 1e308 already in float64; neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"spread {spread!r} overflows the float32 features of class 0")):
            gen_synthetic(3, 10, 4, spread, 1)
    assert np.isfinite(gen_synthetic(3, 10, 4, 1e30, 1).features).all()


def test_features_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(7, 5)).astype(np.float32)
    path = tmp_path / "x.tfv"
    save_features(path, feats)
    loaded = load_features(path)
    assert loaded.dtype == np.float32
    assert loaded.tobytes() == feats.tobytes()
    # second save is byte-identical
    path2 = tmp_path / "y.tfv"
    save_features(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_features_file_errors(tmp_path):
    path = tmp_path / "x.tfv"
    save_features(path, np.ones((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    bad = tmp_path / "bad.tfv"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(ValueError):
        load_features(bad)
    short = tmp_path / "short.tfv"
    short.write_bytes(raw[:-2])
    with pytest.raises(ValueError):
        load_features(short)
    long = tmp_path / "long.tfv"
    long.write_bytes(raw + b"!")
    with pytest.raises(ValueError):
        load_features(long)
    # a cut header, and a header claiming 2**31 x 2**31 floats, fail before any allocation
    for name, blob in (("header.tfv", raw[:6]), ("huge.tfv", b"TFV1" + struct.pack("<II", 1 << 31, 1 << 31))):
        (tmp_path / name).write_bytes(blob)
        with pytest.raises(ValueError, match="truncated"):
            load_features(tmp_path / name)
    with pytest.raises(ValueError):
        save_features(tmp_path / "e.tfv", np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (300, 64)])
def test_load_features_returns_the_array_it_returned_before(tmp_path, shape):
    # one read into the array: same dtype, shape, bytes and a writable array, as the frombuffer copy gave
    path = tmp_path / "x.tfv"
    save_features(path, np.random.default_rng(2).normal(size=shape).astype(np.float32))
    raw = path.read_bytes()
    got, want = load_features(path), np.frombuffer(raw[12:], dtype="<f4").astype(np.float32).reshape(shape)
    assert (got.dtype, got.shape, got.tobytes(), got.flags.writeable) == (want.dtype, want.shape, want.tobytes(), True)
    for blob, message in ((raw[:-3], f"truncated feature payload: needs {len(raw) - 12} bytes, {len(raw) - 15} left"),
                          (raw + b"\0", "trailing bytes after feature payload")):
        path.write_bytes(blob)
        with pytest.raises(ValueError) as exc:
            load_features(path)
        assert str(exc.value) == message


@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_features_file_corruption_loads_exactly_or_raises_value_error(tmp_path, data):
    path = tmp_path / "valid.tfv"
    save_features(path, np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32))
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        blob = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        blob = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1 :]
    path.write_bytes(blob)
    try:
        loaded = load_features(path)
    except ValueError:
        return
    save_features(tmp_path / "resaved.tfv", loaded)
    assert (tmp_path / "resaved.tfv").read_bytes() == blob


def test_labels_file_roundtrip(tmp_path):
    labels = [frozenset({2, 0}), frozenset({1}), frozenset({5, 3, 4})]
    path = tmp_path / "x.labels"
    save_labels(path, labels)
    assert path.read_text() == "0,2\n1\n3,4,5\n"
    assert list(load_labels(path)) == labels


def test_save_labels_writes_the_same_bytes_from_label_sets_and_lists(tmp_path):
    rows = [{2, 0}, {1}, {5, 3, 4}, {np.int64(7)}, {0, 9, 12345678901234}]
    save_labels(tmp_path / "list.labels", rows)
    save_labels(tmp_path / "csr.labels", LabelSets.of(rows))
    save_labels(tmp_path / "frozen.labels", [frozenset(r) for r in rows])
    want = b"0,2\n1\n3,4,5\n7\n0,9,12345678901234\n"
    for name in ("list", "csr", "frozen"):
        assert (tmp_path / f"{name}.labels").read_bytes() == want
    with pytest.raises(ValueError, match="^cannot save an empty label list$"):
        save_labels(tmp_path / "empty.labels", [])
    assert not (tmp_path / "empty.labels").exists()
    with pytest.raises(ValueError, match="^every item needs at least one label$"):
        save_labels(tmp_path / "bad.labels", [{1}, set()])


def test_labels_file_errors(tmp_path):
    path = tmp_path / "bad.labels"
    path.write_text("1\n\n2\n")
    with pytest.raises(ValueError, match="2"):
        load_labels(path)
    path.write_text("1\nx,2\n")
    with pytest.raises(ValueError):
        load_labels(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_labels(path)
    with pytest.raises(ValueError):
        save_labels(tmp_path / "e.labels", [set()])


def reference_load_labels(path):
    """The line-by-line parser load_labels replaced, kept as the reference, plus the 64-bit range rule."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                raise ValueError(f"{path}:{lineno}: empty label line")
            try:
                row = frozenset(int(tok) for tok in line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: labels must be comma-separated integers") from None
            if not all(-(2**63) <= label < 2**63 for label in row):
                raise ValueError(f"{path}:{lineno}: labels must fit in a signed 64-bit integer")
            out.append(row)
    if not out:
        raise ValueError(f"{path}: no labels")
    return out


def assert_loads_like_reference(path):
    """load_labels(path) equals the reference's sets, or raises its error; returns the loaded rows or None."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # Both reject it. load_labels decodes the whole file before reading a
        # line, so it reports the decoding error, naming the file, even where
        # the line parser met a bad line first.
        with pytest.raises(ValueError) as got:
            load_labels(path)
        assert str(got.value) == f"{path}: {exc}"
        with pytest.raises(ValueError):
            reference_load_labels(path)
        return None
    try:
        want = reference_load_labels(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_labels(path)
        assert str(got.value) == str(exc)
        return None
    loaded = load_labels(path)
    assert list(loaded) == want
    return loaded


@pytest.mark.parametrize(
    "text, rows",
    [
        ("3,1,3\n2,2\n", [{1, 3}, {2}]),
        ("1,2\r\n3\r\n", [{1, 2}, {3}]),
        ("1\r2\r", [{1}, {2}]),
        ("1\n2", [{1}, {2}]),
        (" 4 , 0\t\n-1,+2,1_0\n", [{0, 4}, {-1, 2, 10}]),
        ("9223372036854775807,-9223372036854775808\n", [{2**63 - 1, -(2**63)}]),
        # str.strip() drops \x1c at the ends of a line; int() would not
        ("0,1,2\x1c\n\x1c5\n", [{0, 1, 2}, {5}]),
    ],
)
def test_load_labels_takes_what_the_line_parser_took(tmp_path, text, rows):
    path = tmp_path / "x.labels"
    path.write_bytes(text.encode())
    assert list(assert_loads_like_reference(path)) == rows


@pytest.mark.parametrize(
    "text, message",
    [
        ("", ": no labels"),
        ("\n", ":1: empty label line"),
        ("1\n\n2\n", ":2: empty label line"),
        ("1\n \t\n2\n", ":2: empty label line"),
        ("1\n2\n\n", ":3: empty label line"),
        ("1\n1,,2\n", ":2: labels must be comma-separated integers"),
        ("1\n2,\n", ":2: labels must be comma-separated integers"),
        ("1\n2\nx\n\n", ":3: labels must be comma-separated integers"),
        ("1\x1c,2\n", ":1: labels must be comma-separated integers"),
        ("1\n9223372036854775808\n", ":2: labels must fit in a signed 64-bit integer"),
    ],
)
def test_load_labels_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "bad.labels"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as exc:
        load_labels(path)
    assert str(exc.value) == f"{path}{message}"
    assert_loads_like_reference(path)


def test_load_labels_then_save_labels_is_byte_identical(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "x.labels"
    save_labels(path, [set(rng.choice(40, size=rng.integers(1, 4), replace=False).tolist()) for _ in range(300)])
    save_labels(tmp_path / "again.labels", load_labels(path))
    assert (tmp_path / "again.labels").read_bytes() == path.read_bytes()


_DIGITS = st.integers(1, 19).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(_DIGITS, min_size=1, max_size=4), min_size=1, max_size=8), final_newline=st.booleans())
def test_canonical_labels_parse_as_arrays_like_the_line_parser(tmp_path, rows, final_newline):
    # save_labels' form, leading zeros included; tokens of 1-18 digits take the array parser, 19-digit ones int()
    text = "\n".join(",".join(row) for row in rows) + ("\n" if final_newline else "")
    path = tmp_path / "x.labels"
    path.write_bytes(text.encode())
    assert (_parse_canonical(text) is not None) == all(len(tok) <= 18 for row in rows for tok in row)
    assert_loads_like_reference(path)


def test_canonical_labels_are_exact_at_eighteen_digits(tmp_path):
    path = tmp_path / "x.labels"
    path.write_bytes(b"999999999999999999,000000000000000001\n0,10,100000000000000000\n")
    loaded = load_labels(path)
    assert loaded.indptr.tolist() == [0, 2, 5]
    assert loaded.ids.tolist() == [1, 999999999999999999, 0, 10, 10**17]


@pytest.mark.parametrize(
    "text",
    ["1234567890123456789\n", "9999999999999999999\n", "1,2\r\n3\r\n", "1, 2\n", " 3\n", "+7\n", "1_0\n",
     "\u0663\n", "1\n\n2\n", "1\n2\n\n"],
    ids=["19-digit", "19-digit-overflow", "crlf", "space", "leading-space", "plus", "underscore", "arabic-indic",
         "blank-line", "trailing-blank-line"],
)
def test_non_canonical_labels_load_or_fail_as_the_line_parser_does(tmp_path, text):
    assert _parse_canonical(text) is None
    path = tmp_path / "x.labels"
    path.write_bytes(text.encode())
    assert_loads_like_reference(path)


_LABEL_INSERTS = [b",", b"\n", b"\r", b" ", b"+", b"-", b"_", b"7", b"\x1c", "\u00e9".encode(), "\u0663".encode(),
                  "\u2028".encode(), "\u00a0".encode(), b"\xff", b"\xc3"]


@settings(max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_labels_file_mutation_loads_like_the_line_parser_or_raises_its_error(tmp_path, data):
    rows = data.draw(st.lists(st.sets(st.integers(0, 30), min_size=1, max_size=3), min_size=1, max_size=6), label="rows")
    path = tmp_path / "x.labels"
    save_labels(path, rows)
    blob = path.read_bytes()
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        at = data.draw(st.integers(0, len(blob)), label="offset")
        kind = data.draw(st.sampled_from(["insert", "flip", "delete", "truncate"]), label="kind")
        if kind == "insert":
            blob = blob[:at] + data.draw(st.sampled_from(_LABEL_INSERTS), label="insert") + blob[at:]
        elif kind == "flip" and at < len(blob):
            blob = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255), label="xor")]) + blob[at + 1 :]
        elif kind == "delete":
            blob = blob[:at] + blob[at + 1 :]
        elif kind == "truncate":
            blob = blob[:at]
    path.write_bytes(blob)
    loaded = assert_loads_like_reference(path)
    if loaded is not None:
        save_labels(tmp_path / "resaved.labels", loaded)
        assert list(load_labels(tmp_path / "resaved.labels")) == list(loaded)


def test_splits_roundtrip(tmp_path):
    ds = gen_synthetic(3, 20, 6, 0.25, 4)
    prefix = str(tmp_path / "demo")
    paths = save_splits(prefix, ds)
    assert len(paths) == 6
    loaded = load_splits(prefix)
    for ids_orig, ids_load in (
        (ds.train_ids, loaded.train_ids),
        (ds.retrieval_ids, loaded.retrieval_ids),
        (ds.query_ids, loaded.query_ids),
    ):
        f_orig, l_orig = ds.subset(ids_orig)
        f_load, l_load = loaded.subset(ids_load)
        assert f_orig.tobytes() == f_load.tobytes()
        assert list(l_orig) == list(l_load)


def test_splits_train_row_must_exist(tmp_path):
    ds = gen_synthetic(3, 20, 6, 0.25, 4)
    prefix = str(tmp_path / "demo")
    save_splits(prefix, ds)
    feats = load_features(f"{prefix}.train.tfv")
    feats = feats.copy()
    feats[0, 0] += 1.0
    save_features(f"{prefix}.train.tfv", feats)
    with pytest.raises(ValueError, match="training row 0"):
        load_splits(prefix)


def test_splits_dim_mismatch(tmp_path):
    ds = gen_synthetic(3, 20, 6, 0.25, 4)
    prefix = str(tmp_path / "demo")
    save_splits(prefix, ds)
    save_features(f"{prefix}.query.tfv", np.ones((2, 5), dtype=np.float32))
    save_labels(f"{prefix}.query.labels", [{0}, {1}])
    with pytest.raises(ValueError, match="dims"):
        load_splits(prefix)


@pytest.mark.parametrize("name", ["train", "retrieval", "query"])
def test_splits_row_count_mismatch(tmp_path, capsys, name):
    ds = gen_synthetic(3, 20, 6, 0.25, 4)
    prefix = str(tmp_path / "demo")
    save_splits(prefix, ds)
    labels = load_labels(f"{prefix}.{name}.labels")
    save_labels(f"{prefix}.{name}.labels", labels[:-1])
    message = f"{prefix}.{name}: {len(labels)} feature rows vs {len(labels) - 1} label lines"
    with pytest.raises(ValueError) as exc:
        load_splits(prefix)
    assert str(exc.value) == message
    cfg_path = tmp_path / "run.cfg"
    save_config(cfg_path, ExperimentConfig(data_prefix=prefix, hidden_dims=(16,), code_dim=6, epochs=2, seeds=(1,)))
    assert main(["compare", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def reference_train_ids(prefix):
    """load_splits' train_ids as the dict loop computed them: keyed by (row bytes, frozenset),
    duplicates popped in order."""
    t_feats, t_labels = load_features(f"{prefix}.train.tfv"), load_labels(f"{prefix}.train.labels")
    r_feats, r_labels = load_features(f"{prefix}.retrieval.tfv"), load_labels(f"{prefix}.retrieval.labels")
    by_row = {}
    for i, key in enumerate(zip(map(np.ndarray.tobytes, r_feats), r_labels)):
        by_row.setdefault(key, []).append(i)
    train_ids = []
    for i, key in enumerate(zip(map(np.ndarray.tobytes, t_feats), t_labels)):
        candidates = by_row.get(key)
        if not candidates:
            raise ValueError(f"training row {i} does not appear in the retrieval split")
        train_ids.append(candidates.pop(0))
    return np.array(train_ids)


def write_split_files(prefix, train, retrieval):
    """The six split files from (row, label set) lists, with one query row."""
    query = [(np.full(len(retrieval[0][0]), 9.0), {0})]
    for name, rows in (("train", train), ("retrieval", retrieval), ("query", query)):
        save_features(f"{prefix}.{name}.tfv", np.array([row for row, _ in rows], dtype=np.float32))
        save_labels(f"{prefix}.{name}.labels", [labels for _, labels in rows])


def assert_matches_like_the_dict(prefix):
    """load_splits gives the dict loop's train_ids, or raises its ValueError; returns the ids or the message."""
    try:
        want = reference_train_ids(prefix)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_splits(prefix)
        assert str(got.value) == str(exc)
        return str(exc)
    got = load_splits(prefix).train_ids
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    return got


# Float32 bit patterns that compare equal or unordered as floats but differ as bytes.
BYTE_VALUES = np.array([0x00000000, 0x80000000, 0x7FC00000, 0x7FC00001, 0x3F800000], dtype=np.uint32).view(np.float32)


def test_load_splits_matches_rows_like_the_dict_loop_on_duplicate_heavy_splits(tmp_path):
    rng = np.random.default_rng(13)
    outcomes = set()
    for case in range(300):
        dim = int(rng.integers(1, 4))
        pool = BYTE_VALUES[rng.integers(0, BYTE_VALUES.size, (int(rng.integers(1, 4)), dim))]
        sets = [{0}, {1}, {0, 1}, {2}, {1, 2}]
        n = int(rng.integers(1, 25))
        retrieval = [(pool[rng.integers(pool.shape[0])], sets[rng.integers(len(sets))]) for _ in range(n)]
        train = [retrieval[i] for i in rng.integers(0, n, int(rng.integers(1, n + 3)))]
        for i in range(len(train)):
            if rng.random() < 0.05:  # bytes no retrieval row has
                train[i] = (BYTE_VALUES[rng.integers(0, BYTE_VALUES.size, dim)], train[i][1])
            elif rng.random() < 0.05:  # a label set next to the row's own
                train[i] = (train[i][0], train[i][1] ^ {int(rng.integers(3))} or {3})
        prefix = str(tmp_path / f"case{case}")
        write_split_files(prefix, train, retrieval)
        got = assert_matches_like_the_dict(prefix)
        outcomes.add(type(got))
    assert outcomes == {str, np.ndarray}


def test_load_splits_uses_identical_rows_up_in_order(tmp_path):
    a, b = [1.0, 2.0], [3.0, 4.0]
    retrieval = [(a, {0}), (a, {0}), (b, {0}), (a, {0})]
    write_split_files(tmp_path / "ok", [(a, {0}), (b, {0}), (a, {0}), (a, {0})], retrieval)
    assert assert_matches_like_the_dict(tmp_path / "ok").tolist() == [0, 2, 1, 3]
    write_split_files(tmp_path / "short", [(a, {0})] * 4, retrieval)
    assert assert_matches_like_the_dict(tmp_path / "short") == "training row 3 does not appear in the retrieval split"


def test_load_splits_tells_label_sets_of_the_same_bytes_apart(tmp_path):
    a = [1.0, 2.0]
    retrieval = [(a, {0}), (a, {1}), (a, {0, 1}), (a, {1, 2}), (a, {0, 1, 2}), (a, {2})]
    train = [(a, {2}), (a, {0, 1, 2}), (a, {1}), (a, {0, 1}), (a, {0}), (a, {1, 2})]
    write_split_files(tmp_path / "ok", train, retrieval)
    assert assert_matches_like_the_dict(tmp_path / "ok").tolist() == [5, 4, 1, 2, 0, 3]
    for i, labels in enumerate([{3}, {0, 2}, {0, 1, 2, 3}]):
        write_split_files(tmp_path / f"bad{i}", [(a, {2}), (a, labels)], retrieval)
        message = assert_matches_like_the_dict(tmp_path / f"bad{i}")
        assert message == "training row 1 does not appear in the retrieval split"


def test_load_splits_keeps_each_label_set_apart_from_its_padded_prefixes(tmp_path):
    a = [0.5]
    retrieval = [(a, {4}), (a, {4, 5}), (a, {3, 4}), (a, {3, 4, 5}), (a, {5})]
    write_split_files(tmp_path / "ok", [(a, s) for s in ({3, 4, 5}, {5}, {4}, {3, 4}, {4, 5})], retrieval)
    assert assert_matches_like_the_dict(tmp_path / "ok").tolist() == [3, 4, 0, 2, 1]
    write_split_files(tmp_path / "bad", [(a, {4}), (a, {4})], retrieval)
    assert assert_matches_like_the_dict(tmp_path / "bad") == "training row 1 does not appear in the retrieval split"


def test_load_splits_keys_never_collide(tmp_path):
    # A training row with known bytes and an unknown label set, keyed as if the set id
    # were one below the first, must not land on the row that sorts before it by bytes.
    write_split_files(tmp_path / "sets", [([1.0], {3})], [([0.0], {2}), ([1.0], {1})])
    # A set must not equal a longer one it is a prefix of, negative labels included.
    write_split_files(tmp_path / "negative", [([1.0], {-5})], [([1.0], {-5, -1})])
    for case in ("sets", "negative"):
        assert assert_matches_like_the_dict(tmp_path / case) == "training row 0 does not appear in the retrieval split"


def test_load_splits_names_the_first_unmatched_row_in_training_order(tmp_path):
    a, b, c = [1.0, 0.0], [2.0, 0.0], [1.0, -0.0]
    retrieval = [(b, {0}), (a, {0}), (b, {1})]
    for train, first in [
        ([(b, {0}), (a, {1}), (c, {0}), (a, {0})], 1),  # labels, then bytes (-0.0 is not 0.0)
        ([(a, {0}), (b, {0}), (c, {0}), (a, {1})], 2),  # bytes, then labels
        ([(b, {1}), (b, {0}), (b, {0}), (a, {0}), (a, {0})], 2),  # used up, a later key used up too
        ([(a, {0}), (a, {0})], 1),
    ]:
        write_split_files(tmp_path / "case", train, retrieval)
        message = assert_matches_like_the_dict(tmp_path / "case")
        assert message == f"training row {first} does not appear in the retrieval split"


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_splits_holds_no_per_row_objects(tmp_path):
    prefix = str(tmp_path / "big")
    save_splits(prefix, gen_synthetic(20, 1110, 64, 0.15, 3, query_fraction=0.025, train_fraction=0.1))
    # 6.2 MB of payloads, and 5.7 MB more for the retrieval+query matrix the Dataset keeps;
    # the dict of row bytes, tuples and frozensets peaked at 27.0 MiB
    assert traced_peak(load_splits, prefix) < 20 * 2**20


def test_save_features_writes_from_the_array():
    features = np.random.default_rng(0).standard_normal((20_000, 256)).astype(np.float32)
    # astype("<f4").tobytes() held two more copies of the 19.5 MiB payload
    assert traced_peak(save_features, os.devnull, features) < features.nbytes / 4
