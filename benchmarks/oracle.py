"""Independent retrieval oracle, written without the program's ranking code.

It works on plain trit matrices: codes are unpacked bit by bit, distance is
the trit rule sum |a - b| (disagreeing nonzero trits cost 2, zero/nonzero 1),
items are ordered by the unique key (distance, id), and AP is summed hit by
hit in rank order, so its floats must equal the program's exactly.
"""

from __future__ import annotations

import struct

import numpy as np

_SHIFTS = np.arange(64, dtype=np.uint64)


def _bits(words: np.ndarray, d: int) -> np.ndarray:
    words = np.asarray(words, dtype=np.uint64)
    bits = (words[:, :, None] >> _SHIFTS) & np.uint64(1)
    return bits.reshape(words.shape[0], -1)[:, :d].astype(np.int8)


def trits_from_planes(pos, neg, d: int) -> np.ndarray:
    """[n, d] int8 trits from [n, words] positive and negative bitplanes."""
    return _bits(pos, d) - _bits(neg, d)


def trits_from_packed(codes) -> np.ndarray:
    """Trits of a list of packed codes (anything with pos, neg and d)."""
    d = codes[0].d
    return trits_from_planes(np.stack([c.pos for c in codes]), np.stack([c.neg for c in codes]), d)


def read_tnc(path) -> np.ndarray:
    """Trits from a .tnc file: 'TNC1', u32 n, u32 d, then per code pos words and neg words."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"TNC1":
        raise ValueError(f"{path}: not a TNC1 file")
    n, d = struct.unpack_from("<II", raw, 4)
    words = (d + 63) // 64
    planes = np.frombuffer(raw, dtype="<u8", offset=12).reshape(n, 2, words)
    return trits_from_planes(planes[:, 0], planes[:, 1], d)


def threshold(values, alpha: float) -> np.ndarray:
    """+1 at v >= alpha, -1 at v <= -alpha, 0 between."""
    v = np.asarray(values)
    return (v >= alpha).astype(np.int8) - (v <= -alpha).astype(np.int8)


def label_matrix(label_sets, num_labels: int) -> np.ndarray:
    out = np.zeros((len(label_sets), num_labels), dtype=bool)
    for i, ls in enumerate(label_sets):
        out[i, sorted(ls)] = True
    return out


def rank(index_trits: np.ndarray, query: np.ndarray):
    """(order, distances): every item, nearest first, lower id first among ties."""
    dist = np.abs(index_trits - query).sum(axis=1, dtype=np.int64)
    key = dist * index_trits.shape[0] + np.arange(index_trits.shape[0])
    return np.argsort(key), dist


def average_precision(relevant_in_order, cut: int, total_relevant=None) -> float:
    acc = 0.0
    hits = 0
    for pos in range(cut):
        if relevant_in_order[pos]:
            hits += 1
            acc += hits / (pos + 1)
    denom = hits if total_relevant is None else total_relevant
    if hits == 0 or denom == 0:
        return 0.0
    return acc / denom


def top(index_trits: np.ndarray, query: np.ndarray, k: int) -> list:
    """The first k (id, distance) pairs of the ranking."""
    order, dist = rank(index_trits, query)
    return [(int(i), int(dist[i])) for i in order[:k]]


def evaluate(index_trits, index_labels, query_trits, query_labels, k, *, normalization="found"):
    """Per-query APs at cut k and their mean."""
    num_labels = 1 + max(max(ls) for ls in (*index_labels, *query_labels))
    item_labels = label_matrix(index_labels, num_labels)
    cut = index_trits.shape[0] if k == "all" else k
    aps = []
    for q, qlabels in zip(query_trits, query_labels):
        order, _ = rank(index_trits, q)
        relevant = item_labels[:, sorted(qlabels)].any(axis=1)
        total = min(int(relevant.sum()), cut) if normalization == "capped" else None
        aps.append(average_precision(relevant[order[:cut]].tolist(), cut, total))
    acc = 0.0
    for ap in aps:
        acc += ap
    return aps, acc / len(aps)


def format_report(aps, mean) -> str:
    """The text `ternhash eval` prints: 'qid ap' rows at six decimals, then the mAP line."""
    rows = [f"{i} {ap:.6f}" for i, ap in enumerate(aps)]
    return "\n".join([*rows, f"mAP {mean:.6f}"]) + "\n"
