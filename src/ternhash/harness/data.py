"""Datasets: synthetic Gaussian clusters, split bookkeeping, and feature/label file formats.

A dataset is one feature matrix plus per-item label sets (one LabelSets) and
three id lists.
Query and retrieval ids never overlap; training ids are a subset of retrieval
ids, matching the usual protocol where training images are drawn from the
retrieval pool.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .._fileio import read_header, read_payload, read_text, write_payload
from ..activation import _int_in
from ..retrieval import LabelSets, _int64_vector

_FEATURES_MAGIC = b"TFV1"
_MAX_SIZE = np.iinfo(np.intp).max  # numpy's largest array dimension


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray
    labels: LabelSets
    train_ids: np.ndarray
    retrieval_ids: np.ndarray
    query_ids: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise ValueError(f"features must be a non-empty [n x dim] matrix, got shape {feats.shape}")
        n = feats.shape[0]
        labels = LabelSets.of(self.labels)
        if len(labels) != n:
            raise ValueError(f"{n} feature rows vs {len(labels)} label sets")
        if labels.ids.min() < 0:
            raise ValueError("labels must be non-negative")
        ids = {}
        for name in ("train_ids", "retrieval_ids", "query_ids"):
            arr = _int64_vector(getattr(self, name), name)
            if np.unique(arr).size != arr.size:
                raise ValueError(f"{name} must be a list of distinct ids")
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"{name} out of range [0, {n})")
            ids[name] = arr
        if np.isin(ids["query_ids"], ids["retrieval_ids"]).any():
            raise ValueError("query and retrieval ids must not overlap")
        if not np.isin(ids["train_ids"], ids["retrieval_ids"]).all():
            raise ValueError("train ids must be a subset of retrieval ids")
        if not (ids["train_ids"].size and ids["retrieval_ids"].size and ids["query_ids"].size):
            raise ValueError("train, retrieval, and query splits must all be non-empty")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        for name, arr in ids.items():
            object.__setattr__(self, name, arr)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.ids.max()) + 1

    def subset(self, ids) -> tuple:
        """(features, LabelSets) for an id list or array, in order."""
        return self.features[ids], self.labels[ids]


def single_labels(labels) -> np.ndarray:
    """Collapse one-element label sets to an int vector; multi-label items are rejected.

    The training loss is single-class cross-entropy, so multi-label items can
    be indexed and queried but not trained on.
    """
    labels = LabelSets.of(labels)
    counts = np.diff(labels.indptr)
    if (counts != 1).any():
        i = int(np.argmax(counts != 1))
        raise ValueError(f"item {i} has {counts[i]} labels; training requires exactly one")
    return labels.ids.copy()


def gen_synthetic(
    classes: int,
    per_class: int,
    input_dim: int,
    spread: float,
    seed: int,
    *,
    query_fraction: float = 0.1,
    train_fraction: float = 0.5,
) -> Dataset:
    """Gaussian class clusters: unit-length centers plus isotropic noise.

    Centers are standard-normal draws scaled to unit Euclidean length, so
    spread alone sets the overlap between classes; samples = center +
    spread * N(0, I). Rows are class-major (item c*per_class + j belongs to
    class c) and stored as float32. Per class, a seeded permutation sends a
    query_fraction slice to the query split and the rest to retrieval; the
    first train_fraction of the retrieval part (same permutation) forms the
    training subset. Deterministic per seed. A spread whose samples overflow
    float32 raises ValueError.
    """
    classes, per_class, input_dim = (_int_in(name, size, 1, _MAX_SIZE + 1) for name, size in
                                     (("classes", classes), ("per_class", per_class), ("input_dim", input_dim)))
    seed = _int_in("seed", seed, 0)
    if not 0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and non-negative, got {spread!r}")
    if not 0 < query_fraction < 1 or not 0 < train_fraction <= 1:
        raise ValueError("query_fraction must lie in (0, 1) and train_fraction in (0, 1]")
    n_query = round(query_fraction * per_class)
    n_retrieval = per_class - n_query
    n_train = round(train_fraction * n_retrieval)
    if n_query < 1 or n_retrieval < 1 or n_train < 1:
        raise ValueError(
            f"per_class={per_class} too small for fractions ({n_query} query, {n_retrieval} retrieval, {n_train} train)"
        )
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    features = np.empty((classes * per_class, input_dim), dtype=np.float32)
    perms = np.empty((classes, per_class), dtype=np.int64)
    for c in range(classes):
        rows = features[c * per_class : (c + 1) * per_class]
        with np.errstate(over="ignore"):
            rows[...] = centers[c] + spread * rng.standard_normal((per_class, input_dim))
        if not np.all(np.isfinite(rows)):
            raise ValueError(f"spread {spread!r} overflows the float32 features of class {c}")
        perms[c] = rng.permutation(per_class) + c * per_class
    return Dataset(
        features=features,
        labels=LabelSets(indptr=np.arange(classes * per_class + 1), ids=np.repeat(np.arange(classes), per_class)),
        train_ids=perms[:, n_query : n_query + n_train].ravel(),
        retrieval_ids=perms[:, n_query:].ravel(),
        query_ids=perms[:, :n_query].ravel(),
    )


def save_features(path, features) -> None:
    """Write magic 'TFV1', u32 n, u32 dim, then row-major little-endian float32."""
    arr = np.asarray(features, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"features must be a non-empty [n x dim] matrix, got shape {arr.shape}")
    write_payload(path, _FEATURES_MAGIC + struct.pack("<II", *arr.shape), arr, "<f4")


def load_features(path) -> np.ndarray:
    """Inverse of save_features."""
    with open(path, "rb") as fh:
        n, dim = read_header(fh, _FEATURES_MAGIC, "<II", "feature file header")
        if n < 1 or dim < 1:
            raise ValueError(f"invalid header: n={n}, dim={dim}")
        return read_payload(fh, (n, dim), "<f4", "feature payload")


def save_labels(path, labels) -> None:
    """One line per item: comma-separated integer labels, sorted ascending."""
    labels = LabelSets.of(labels)
    if not len(labels):
        raise ValueError("cannot save an empty label list")
    ids, bounds = list(map(str, labels.ids.tolist())), labels.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(ids[a:b]) for a, b in zip(bounds, bounds[1:])) + "\n")


def load_labels(path) -> LabelSets:
    """Inverse of save_labels; returns one LabelSets row per line.

    Text in save_labels' own form is parsed as arrays; any other text line by
    line. A line may hold its labels in any order and repeat them, with
    whitespace around each; it may not be blank.
    """
    text = read_text(path)
    if not text:
        raise ValueError(f"{path}: no labels")
    parsed = _parse_canonical(text)
    if parsed is not None:
        return LabelSets(*parsed)
    rows = []
    for lineno, line in enumerate(text.removesuffix("\n").split("\n"), start=1):
        line = line.strip()  # int() strips whitespace too, but not \x1c-\x1f, which str.strip() removes
        if not line:
            raise ValueError(f"{path}:{lineno}: empty label line")
        try:
            row = list(map(int, line.split(",")))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: labels must be comma-separated integers") from None
        if not -(2**63) <= min(row) <= max(row) < 2**63:
            raise ValueError(f"{path}:{lineno}: labels must fit in a signed 64-bit integer")
        rows.append(row)
    return LabelSets.of(rows)


def _parse_canonical(text: str):
    """(indptr, ids) of text in save_labels' form, or None for any other text.

    The form: ASCII digits, commas and newlines, every token 1-18 digits (so
    its value is exact in int64), no blank line, the final newline optional.
    """
    if not text.isascii():
        return None
    body = text.removesuffix("\n")
    buf = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero((buf - np.uint8(48)) >= 10)  # wraps, so every non-digit reads >= 10
    newline = buf[seps] == 10
    if not (newline | (buf[seps] == 44)).all():
        return None
    lengths = np.diff(seps, prepend=-1, append=buf.size) - 1
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    ids = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
    return np.concatenate(([0], np.flatnonzero(newline) + 1, [lengths.size])), ids


def save_splits(prefix, dataset: Dataset) -> list:
    """Write <prefix>.{train,retrieval,query}.{tfv,labels}; returns the six paths."""
    paths = []
    for name, ids in (
        ("train", dataset.train_ids),
        ("retrieval", dataset.retrieval_ids),
        ("query", dataset.query_ids),
    ):
        feats, labels = dataset.subset(ids)
        fpath, lpath = f"{prefix}.{name}.tfv", f"{prefix}.{name}.labels"
        save_features(fpath, feats)
        save_labels(lpath, labels)
        paths.extend((fpath, lpath))
    return paths


def load_splits(prefix) -> Dataset:
    """Rebuild a Dataset from the six split files written by save_splits.

    Every training row must also appear in the retrieval split (same float32
    bytes, same labels); rows are matched in order, consuming duplicates.
    """
    parts = {}
    for name in ("train", "retrieval", "query"):
        feats = load_features(f"{prefix}.{name}.tfv")
        labels = load_labels(f"{prefix}.{name}.labels")
        if feats.shape[0] != len(labels):
            raise ValueError(f"{prefix}.{name}: {feats.shape[0]} feature rows vs {len(labels)} label lines")
        parts[name] = (feats, labels)
    dims = {parts[name][0].shape[1] for name in parts}
    if len(dims) != 1:
        raise ValueError(f"split feature dims disagree: {sorted(dims)}")
    (t_feats, t_labels), (r_feats, r_labels), (q_feats, q_labels) = parts.values()
    train_ids = _match_rows(t_feats, t_labels, r_feats, r_labels)
    return Dataset(
        features=np.concatenate([r_feats, q_feats]),
        labels=_join(r_labels, q_labels),
        train_ids=train_ids,
        retrieval_ids=np.arange(len(r_labels)),
        query_ids=np.arange(len(q_labels)) + len(r_labels),
    )


def _join(a: LabelSets, b: LabelSets) -> LabelSets:
    """The rows of a, then the rows of b."""
    return LabelSets(indptr=np.concatenate((a.indptr, a.indptr[-1] + b.indptr[1:])), ids=np.concatenate((a.ids, b.ids)))


def _match_rows(t_feats, t_labels, r_feats, r_labels) -> np.ndarray:
    """The retrieval row of each training row: the i-th training row with a given
    (row bytes, label set) takes the i-th retrieval row with the same pair."""
    n = len(r_labels)
    labels = _join(r_labels, t_labels)
    # each set's ascending labels padded with its largest: no set pads to another, as sets hold no repeats
    width = np.diff(labels.indptr).max()
    sets = labels.ids[np.minimum(labels.indptr[:-1, None] + np.arange(width), labels.indptr[1:, None] - 1)]
    (r_group, t_group), (r_set, t_set) = _groups(r_feats, t_feats), _groups(sets[:n], sets[n:])
    # with n + 1, a training row's -1 (no equal retrieval row) never gives a retrieval row's key
    r_key, t_key = r_group * (n + 1) + r_set, t_group * (n + 1) + t_set
    by_key, t_order = np.argsort(r_key, kind="stable"), np.argsort(t_key, kind="stable")
    first = np.searchsorted(r_key, t_key, sorter=by_key)
    rank = np.empty_like(t_order)
    rank[t_order] = np.arange(t_key.size)
    rank -= np.searchsorted(t_key, t_key, sorter=t_order)  # now how many earlier training rows share the key
    missing = rank >= np.searchsorted(r_key, t_key, side="right", sorter=by_key) - first
    if missing.any():
        raise ValueError(f"training row {int(np.argmax(missing))} does not appear in the retrieval split")
    return by_key[first + rank]


def _groups(pool: np.ndarray, items: np.ndarray) -> tuple:
    """Group ids for the rows of two C-contiguous matrices, each row one np.void item (a view, not a copy):
    equal pool rows share the sorted position of the first of them; an item row takes its pool row's id, or -1."""
    pool, items = (a.view((np.void, a.itemsize * a.shape[1])).ravel() for a in (pool, items))
    order = np.argsort(pool, kind="stable")
    ids = np.searchsorted(pool, items, sorter=order).clip(max=pool.size - 1)
    return np.searchsorted(pool, pool, sorter=order), np.where(pool[order[ids]] == items, ids, -1)
