import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ternhash.harness import (
    Dataset,
    gen_synthetic,
    load_features,
    load_labels,
    load_splits,
    save_features,
    save_labels,
    save_splits,
    single_labels,
)
from ternhash.harness.data import _parse_canonical


def tiny_dataset():
    return Dataset(
        features=np.arange(12, dtype=np.float32).reshape(6, 2),
        labels=[{0}, {0}, {1}, {1}, {0, 1}, {1}],
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
    assert labels == [frozenset({0, 1}), frozenset({1})]


def test_dataset_validation():
    feats = np.zeros((4, 2), dtype=np.float32)
    ok = dict(labels=[{0}] * 4, train_ids=[0], retrieval_ids=[0, 1], query_ids=[2, 3])
    Dataset(features=feats, **ok)
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((0, 2)), **ok)
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "labels": [{0}] * 3})
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "labels": [{0}, set(), {0}, {0}]})
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "labels": [{0}, {-1}, {0}, {0}]})
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "query_ids": [1, 2]})  # overlaps retrieval
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "train_ids": [3]})  # not in retrieval
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "retrieval_ids": [0, 0]})
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "query_ids": [2, 7]})
    with pytest.raises(ValueError):
        Dataset(features=feats, **{**ok, "train_ids": []})


def test_single_labels():
    assert single_labels([{3}, {0}, {7}]).tolist() == [3, 0, 7]
    with pytest.raises(ValueError):
        single_labels([{3}, {0, 1}])


def test_gen_synthetic_determinism():
    a = gen_synthetic(4, 30, 16, 0.2, 9)
    b = gen_synthetic(4, 30, 16, 0.2, 9)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels == b.labels
    assert np.array_equal(a.train_ids, b.train_ids)
    assert np.array_equal(a.retrieval_ids, b.retrieval_ids)
    assert np.array_equal(a.query_ids, b.query_ids)
    c = gen_synthetic(4, 30, 16, 0.2, 10)
    assert a.features.tobytes() != c.features.tobytes()


def test_gen_synthetic_layout_and_splits():
    ds = gen_synthetic(5, 40, 8, 0.3, 2, query_fraction=0.1, train_fraction=0.5)
    assert ds.features.shape == (200, 8)
    assert ds.labels == [frozenset({c}) for c in range(5) for _ in range(40)]
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
    assert load_labels(path) == labels


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
    assert loaded == want
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
    assert assert_loads_like_reference(path) == rows


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
        assert load_labels(tmp_path / "resaved.labels") == loaded


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
        assert l_orig == l_load


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
