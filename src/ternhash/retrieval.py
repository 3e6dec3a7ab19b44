"""Hamming-distance retrieval over packed ternary codes, scored by mean average precision.

Ranking is by ascending encoded-Hamming distance with ties broken by ascending
item id. An item is relevant to a query when their label sets intersect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import CodeMatrix, PackedCode


@dataclass(frozen=True)
class RetrievalIndex:
    """Immutable database of packed codes plus per-item label sets.

    codes may be a CodeMatrix or a sequence of PackedCode; it is held as a
    CodeMatrix. Label postings (label -> ascending item ids) are built once.
    """

    codes: CodeMatrix
    labels: list[frozenset]
    _postings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.codes):
            raise ValueError("index must hold at least one code")
        if len(self.codes) != len(self.labels):
            raise ValueError(f"{len(self.codes)} codes vs {len(self.labels)} label sets")
        labels = [frozenset(ls) for ls in self.labels]
        if any(not ls for ls in labels):
            raise ValueError("every item needs at least one label")
        postings = {}
        for i, ls in enumerate(labels):
            for label in ls:
                postings.setdefault(label, []).append(i)
        object.__setattr__(self, "codes", CodeMatrix.of(self.codes))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_postings", {label: np.array(ids) for label, ids in postings.items()})

    @property
    def d(self) -> int:
        return self.codes.d

    def __len__(self):
        return len(self.codes)

    def _relevant(self, query_labels) -> np.ndarray:
        """Boolean mask over items: True where the item shares a label with the query."""
        mask = np.zeros(len(self), dtype=bool)
        for label in query_labels:
            ids = self._postings.get(label)
            if ids is not None:
                mask[ids] = True
        return mask


def _resolve_k(k, n: int) -> int:
    if k == "all":
        return n
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
        raise ValueError(f'k must be "all" or an integer in [1, {n}], got {k!r}')
    return k


def _check_length(index: RetrievalIndex, d: int) -> None:
    if d != index.d:
        raise ValueError(f"query length {d} does not match index length {index.d}")


def _rank(index: RetrievalIndex, pos: np.ndarray, neg: np.ndarray, cut: int) -> tuple:
    """(ids, distances) of one query's first cut items: ascending distance, then ascending id.

    Distances fit the smallest unsigned dtype holding 2d, on which numpy's
    stable sort is a radix sort over the 2d+1 possible values.
    """
    dtype = np.min_scalar_type(2 * index.d)
    dist = np.bitwise_count(index.codes.pos ^ pos).sum(axis=1, dtype=dtype)
    dist += np.bitwise_count(index.codes.neg ^ neg).sum(axis=1, dtype=dtype)
    order = np.argsort(dist, kind="stable")[:cut]
    return order, dist[order]


def query_topk(index: RetrievalIndex, query: PackedCode, k) -> list[tuple[int, int]]:
    """Top-k (item id, distance) pairs, nearest first, id-ascending among ties.

    k is an int in [1, len(index)] or the string "all".
    """
    cut = _resolve_k(k, len(index))
    _check_length(index, query.d)
    ids, dist = _rank(index, query.pos, query.neg, cut)
    return list(zip(ids.tolist(), dist.tolist()))


def average_precision(relevances, k: int, *, total_relevant=None) -> float:
    """AP over a ranked 0/1 relevance list cut at k.

    Sum of precision-at-hit over hits, divided by total_relevant (defaults to
    the number of hits within the cut). 0.0 when nothing relevant is found.
    The sum is a cumulative sum, so it adds term by term in rank order.
    """
    if k < 1 or k > len(relevances):
        raise ValueError(f"k must be in [1, {len(relevances)}], got {k!r}")
    positions = np.flatnonzero(np.asarray(relevances[:k]))
    denom = len(positions) if total_relevant is None else total_relevant
    if len(positions) == 0 or denom == 0:
        return 0.0
    acc = np.cumsum(np.arange(1, len(positions) + 1) / (positions + 1))[-1]
    return float(acc / denom)


@dataclass(frozen=True)
class EvalReport:
    """mAP plus the per-query APs it averages, at cut k."""

    map: float
    per_query_ap: list[float]
    k: int


def mean_ap(index: RetrievalIndex, query_codes, query_labels, k, *, normalization: str = "found") -> EvalReport:
    """Mean AP over a query set.

    normalization selects the AP denominator: "found" counts relevant items
    inside the top-k cut, "capped" uses min(total relevant in index, k).
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
    aps = []
    for pos, neg, qlabels in zip(queries.pos, queries.neg, query_labels):
        qlabels = frozenset(qlabels)
        if not qlabels:
            raise ValueError("every query needs at least one label")
        relevant = index._relevant(qlabels)
        order, _ = _rank(index, pos, neg, cut)
        total = None
        if normalization == "capped":
            total = min(int(np.count_nonzero(relevant)), cut)
        aps.append(average_precision(relevant[order], cut, total_relevant=total))
    acc = 0.0
    for ap in aps:
        acc += ap
    return EvalReport(map=acc / len(aps), per_query_ap=aps, k=cut)


def format_report(report: EvalReport) -> str:
    """Plain-text table: one 'qid ap' row per query, then the mAP line."""
    lines = [f"{i} {ap:.6f}" for i, ap in enumerate(report.per_query_ap)]
    lines.append(f"mAP {report.map:.6f}")
    return "\n".join(lines) + "\n"
