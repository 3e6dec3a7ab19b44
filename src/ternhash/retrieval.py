"""Hamming-distance retrieval over packed ternary codes, scored by mean average precision.

Ranking is by ascending encoded-Hamming distance with ties broken by ascending
item id. An item is relevant to a query when their label sets intersect.

A list of label sets is one LabelSets: CSR (indptr, ids) int64 arrays.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .codes import CodeMatrix, PackedCode, _scan_rows


def _int64_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype == bool or (arr.size and not np.can_cast(arr.dtype, np.int64)):
        raise ValueError(f"{name} must be a 1-d integer array, got dtype {arr.dtype} and shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class LabelSets(Sequence):
    """n non-empty integer label sets in CSR form (n may be 0): row i is ids[indptr[i]:indptr[i + 1]].

    Construction sorts each row and drops its repeats, so rows are ascending
    and distinct. A read-only sequence of frozenset: an int index gives one
    set, a slice or an integer index array gives a LabelSets, and it equals
    any sequence of sets with the same rows.
    """

    indptr: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        indptr, ids = _int64_vector(self.indptr, "indptr"), _int64_vector(self.ids, "ids")
        counts = np.diff(indptr)
        if not indptr.size or indptr[0] != 0 or indptr[-1] != ids.size or np.any(counts < 0):
            raise ValueError(f"indptr must rise from 0 to {ids.size}")
        if not counts.all():
            raise ValueError("every item needs at least one label")
        rows = np.repeat(np.arange(counts.size), counts)
        same_row = rows[1:] == rows[:-1]
        if np.any(same_row & (ids[1:] <= ids[:-1])):
            ids = ids[np.lexsort((ids, rows))]
            keep = np.ones(ids.size, dtype=bool)
            keep[1:] = ~same_row | (ids[1:] != ids[:-1])
            ids = ids[keep]
            indptr = np.zeros_like(indptr)
            np.cumsum(np.bincount(rows[keep], minlength=counts.size), out=indptr[1:])
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "ids", ids)

    @classmethod
    def of(cls, labels) -> LabelSets:
        """The label sets in CSR form; a LabelSets is returned as is.

        Every label must be an int or numpy integer, not a bool.
        """
        if isinstance(labels, LabelSets):
            return labels
        rows = [frozenset(ls) for ls in labels]
        flat = list(itertools.chain.from_iterable(rows))
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, flat))):
            raise ValueError("labels must be integers")
        try:
            ids = np.fromiter(flat, dtype=np.int64, count=len(flat))
        except OverflowError:
            raise ValueError("labels must fit in a signed 64-bit integer") from None
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        return cls(indptr=np.concatenate(([0], np.cumsum(counts))), ids=ids)

    def __len__(self):
        return self.indptr.size - 1

    def __getitem__(self, i):
        if isinstance(i, slice) or np.ndim(i) == 1:
            starts, counts = self.indptr[:-1][i], np.diff(self.indptr)[i]
            indptr = np.concatenate(([0], np.cumsum(counts)))
            take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
            return LabelSets(indptr=indptr, ids=self.ids[take])
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"label set index {i} out of range for {len(self)} rows")
        i %= len(self)
        return frozenset(self.ids[self.indptr[i] : self.indptr[i + 1]].tolist())

    def __iter__(self):
        ids, bounds = self.ids.tolist(), self.indptr.tolist()
        return (frozenset(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if not isinstance(other, LabelSets):
            if not isinstance(other, Sequence) or not all(isinstance(ls, (set, frozenset)) for ls in other):
                return NotImplemented
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.ids, other.ids)


@dataclass(frozen=True)
class RetrievalIndex:
    """Immutable database of packed codes plus per-item label sets.

    codes may be a CodeMatrix or a sequence of PackedCode; it is held as a
    CodeMatrix. labels may be a LabelSets or a sequence of integer label
    sets; it is held as a LabelSets. Label postings (every (label, item)
    pair, ordered by label, then item) are built once.
    """

    codes: CodeMatrix
    labels: LabelSets
    _postings: tuple = field(init=False, repr=False, compare=False)
    _scan: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.codes):
            raise ValueError("index must hold at least one code")
        if len(self.codes) != len(self.labels):
            raise ValueError(f"{len(self.codes)} codes vs {len(self.labels)} label sets")
        labels = LabelSets.of(self.labels)
        by_label = np.argsort(labels.ids, kind="stable")
        items = np.repeat(np.arange(len(labels)), np.diff(labels.indptr))[by_label]
        object.__setattr__(self, "codes", CodeMatrix.of(self.codes))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_postings", (labels.ids[by_label], items))
        object.__setattr__(self, "_scan", _scan_rows(self.codes))

    @property
    def d(self) -> int:
        return self.codes.d

    def __len__(self):
        return len(self.codes)

    def _relevant(self, query_labels: np.ndarray) -> np.ndarray:
        """Boolean mask over items: True where the item shares a label with the query's label ids."""
        label_ids, items = self._postings
        lo = np.searchsorted(label_ids, query_labels, side="left").tolist()
        hi = np.searchsorted(label_ids, query_labels, side="right").tolist()
        mask = np.zeros(len(self), dtype=bool)
        for a, b in zip(lo, hi):
            mask[items[a:b]] = True
        return mask


def _resolve_k(k, n: int) -> int:
    if k == "all":
        return n
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= n:
        raise ValueError(f'k must be "all" or an integer in [1, {n}], got {k!r}')
    return int(k)


def _check_length(index: RetrievalIndex, d: int) -> None:
    if d != index.d:
        raise ValueError(f"query length {d} does not match index length {index.d}")


def _rank(index: RetrievalIndex, query: np.ndarray, cut: int) -> tuple:
    """(order, dist) for one _scan_rows query row: the ids of the first cut items, and the distances of all items.

    order ranks by ascending distance, then ascending id: a stable argsort of
    dist cut at cut. The ranked distances are dist[order]. For cut < n, the
    cut-th smallest distance t is found by a partition, and only the items
    within t, in id order, are stably sorted. Distances fit the smallest
    unsigned dtype holding 2d; the partition runs in place on a copy at least
    uint16 wide, for which numpy's partition is vectorized.
    """
    dist = np.bitwise_count(index._scan ^ query)
    if dist.ndim == 2:
        dist = dist.sum(axis=1, dtype=np.min_scalar_type(2 * index.d))
    if cut == dist.size:
        order = dist.argsort(kind="stable")
    else:
        wide = dist.astype(np.promote_types(dist.dtype, np.uint16))
        wide.partition(cut - 1)
        threshold = int(wide[cut - 1])
        candidates = (dist <= threshold).nonzero()[0]
        order = candidates[dist[candidates].argsort(kind="stable")[:cut]]
    return order, dist


def query_topk(index: RetrievalIndex, query: PackedCode, k) -> list[tuple[int, int]]:
    """Top-k (item id, distance) pairs, nearest first, id-ascending among ties.

    k is an int in [1, len(index)] or the string "all".
    """
    cut = _resolve_k(k, len(index))
    _check_length(index, query.d)
    ids, dist = _rank(index, _scan_rows(query), cut)
    return list(zip(ids.tolist(), dist[ids].tolist()))


@dataclass(frozen=True)
class EvalReport:
    """mAP plus the per-query APs it averages, at cut k."""

    map: float
    per_query_ap: list[float]
    k: int


def mean_ap(index: RetrievalIndex, query_codes, query_labels, k, *, normalization: str = "found") -> EvalReport:
    """Mean AP over a query set.

    A query's AP is the sum of the precision (hits so far / rank) at each
    relevant item inside the top-k cut, over a denominator that normalization
    selects: "found" counts relevant items inside the cut, "capped" uses
    min(total relevant in index, k), never below that count. It is 0.0 when
    the cut holds none. Each AP and the mAP add their terms in order.
    Queries that share a label set share one relevance mask, built once and
    dropped before the next set's. An AP depends only on the pair (label set,
    code), so each distinct pair is ranked and scored once.
    """
    if normalization not in ("found", "capped"):
        raise ValueError(f'normalization must be "found" or "capped", got {normalization!r}')
    if len(query_codes) != len(query_labels):
        raise ValueError(f"{len(query_codes)} query codes vs {len(query_labels)} label sets")
    if not len(query_codes):
        raise ValueError("query set must be non-empty")
    queries = CodeMatrix.of(query_codes)
    _check_length(index, queries.d)
    cut = _resolve_k(k, len(index))
    labels = LabelSets.of(query_labels)
    ids, bounds = labels.ids.tolist(), labels.indptr.tolist()
    scan = _scan_rows(queries)
    codes = scan.tolist() if scan.ndim == 1 else list(map(tuple, scan.tolist()))
    groups = {}  # label set -> code -> queries; rows are sorted and distinct, so equal sets give equal tuples
    for q, (a, b) in enumerate(zip(bounds, bounds[1:])):
        groups.setdefault(tuple(ids[a:b]), {}).setdefault(codes[q], []).append(q)
    aps = [0.0] * len(queries)
    for label_set, by_code in groups.items():
        relevant = index._relevant(np.array(label_set, dtype=np.int64))
        total = min(int(np.count_nonzero(relevant)), cut) if normalization == "capped" else 0
        for members in by_code.values():
            order, _ = _rank(index, scan[members[0]], cut)
            hits = relevant[order].nonzero()[0]
            ap = np.cumsum(np.arange(1, hits.size + 1) / (hits + 1))[-1] / (total or hits.size) if hits.size else 0.0
            for q in members:
                aps[q] = float(ap)
    # Added in order, as acceptance criterion 5's oracle adds them and compares with ==: from Python 3.12,
    # sum() adds floats with compensated summation, so sum(aps) could differ from it in the last bit.
    return EvalReport(map=float(np.cumsum(aps)[-1]) / len(aps), per_query_ap=aps, k=cut)


def format_report(report: EvalReport) -> str:
    """Plain-text table: one 'qid ap' row per query, then the mAP line."""
    lines = [f"{i} {ap:.6f}" for i, ap in enumerate(report.per_query_ap)]
    lines.append(f"mAP {report.map:.6f}")
    return "\n".join(lines) + "\n"
