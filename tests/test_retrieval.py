import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternhash import (
    CodeMatrix,
    LabelSets,
    RetrievalIndex,
    TernaryCode,
    format_report,
    mean_ap,
    pack,
    pack_matrix,
    query_topk,
    retrieval,
)


def packed(*trits):
    return pack(TernaryCode(np.array(trits, dtype=np.int8)))


def rand_instance(rng, n, d, classes):
    codes = [pack(TernaryCode(rng.integers(-1, 2, size=d).astype(np.int8))) for _ in range(n)]
    labels = [frozenset({int(c)}) for c in rng.integers(0, classes, size=n)]
    return codes, labels


def test_index_validation():
    with pytest.raises(ValueError):
        RetrievalIndex(codes=[], labels=[])
    with pytest.raises(ValueError):
        RetrievalIndex(codes=[packed(1, 0)], labels=[])
    with pytest.raises(ValueError):
        RetrievalIndex(codes=[packed(1, 0), packed(1, 0, -1)], labels=[{0}, {1}])
    with pytest.raises(ValueError):
        RetrievalIndex(codes=[packed(1, 0)], labels=[set()])


def test_query_topk_orders_by_distance_then_id():
    # items at distances (5, 0, 1) from the query: expect ids (1, 2, 0)
    index = RetrievalIndex(
        codes=[packed(-1, -1, 0, 0), packed(1, 1, 0, -1), packed(1, 0, 0, -1)],
        labels=[{0}, {1}, {2}],
    )
    q = packed(1, 1, 0, -1)
    assert query_topk(index, q, "all") == [(1, 0), (2, 1), (0, 5)]
    assert query_topk(index, q, 2) == [(1, 0), (2, 1)]


def test_query_topk_tie_breaks_by_id():
    index = RetrievalIndex(codes=[packed(1, 0), packed(1, 0), packed(0, 0)], labels=[{0}, {0}, {0}])
    got = query_topk(index, packed(1, 0), "all")
    assert got == [(0, 0), (1, 0), (2, 1)]


def test_query_topk_validation():
    index = RetrievalIndex(codes=[packed(1, 0)], labels=[{0}])
    with pytest.raises(ValueError):
        query_topk(index, packed(1, 0, -1), "all")
    for bad in (0, 2, -1, "some", 1.5, True, np.int64(0), np.int32(2), np.bool_(True)):
        with pytest.raises(ValueError):
            query_topk(index, packed(1, 0), bad)
    for good in (np.int64(1), np.int32(1)):
        assert query_topk(index, packed(1, 0), good) == [(0, 0)]


def test_mean_ap_duplicated_queries():
    rng = np.random.default_rng(5)
    codes, _ = rand_instance(rng, 12, 16, 4)
    labels = [frozenset({i}) for i in range(12)]
    index = RetrievalIndex(codes=codes, labels=labels)
    report = mean_ap(index, codes, labels, 1)
    assert report.map == 1.0
    assert report.k == 1


@pytest.mark.parametrize(
    "query, k, normalization, ap",
    [
        # distances (0, 8, 1) with labels (rel, rel, irrel): ranked relevances (1, 0, 1), two relevant in all
        pytest.param((1, 1, 1, 1), 3, "found", (1 / 1 + 2 / 3) / 2, id="found-k3"),
        pytest.param((1, 1, 1, 1), 3, "capped", (1 / 1 + 2 / 3) / 2, id="capped-k3"),
        pytest.param((1, 1, 1, 1), "all", "found", (1 / 1 + 2 / 3) / 2, id="found-all"),
        pytest.param((1, 1, 1, 1), "all", "capped", (1 / 1 + 2 / 3) / 2, id="capped-all"),
        pytest.param((1, 1, 1, 1), 2, "found", 1 / 1, id="found-k2"),
        # capped divides by min(2, 2), more than the one hit inside the cut
        pytest.param((1, 1, 1, 1), 2, "capped", 1 / 1 / 2, id="capped-k2"),
        # distances (1, 7, 0): ranked relevances (0, 1, 1)
        pytest.param((1, 1, 1, 0), 2, "found", 1 / 2, id="second-found-k2"),
        pytest.param((1, 1, 1, 0), 2, "capped", 1 / 2 / 2, id="second-capped-k2"),
        pytest.param((1, 1, 1, 0), 1, "found", 0.0, id="no-hit-found-k1"),
        pytest.param((1, 1, 1, 0), 1, "capped", 0.0, id="no-hit-capped-k1"),
    ],
)
def test_mean_ap_single_query_example(query, k, normalization, ap):
    index = RetrievalIndex(
        codes=[packed(1, 1, 1, 1), packed(-1, -1, -1, -1), packed(1, 1, 1, 0)],
        labels=[{7}, {7}, {0}],
    )
    report = mean_ap(index, [packed(*query)], [{7}], k, normalization=normalization)
    assert report.per_query_ap == [ap]
    assert report.map == ap


def test_mean_ap_is_mean_of_per_query():
    rng = np.random.default_rng(6)
    codes, labels = rand_instance(rng, 60, 8, 3)
    qcodes, qlabels = rand_instance(rng, 11, 8, 3)
    index = RetrievalIndex(codes=codes, labels=labels)
    report = mean_ap(index, qcodes, qlabels, "all")
    assert 0.0 <= report.map <= 1.0
    assert report.map == pytest.approx(sum(report.per_query_ap) / len(report.per_query_ap), abs=1e-12)
    assert len(report.per_query_ap) == 11


def test_mean_ap_query_order_permutes_per_query_aps():
    rng = np.random.default_rng(7)
    codes, labels = rand_instance(rng, 40, 8, 3)
    qcodes, qlabels = rand_instance(rng, 9, 8, 3)
    index = RetrievalIndex(codes=codes, labels=labels)
    base = mean_ap(index, qcodes, qlabels, "all")
    flipped = mean_ap(index, qcodes[::-1], qlabels[::-1], "all")
    assert flipped.per_query_ap == base.per_query_ap[::-1]
    assert flipped.map == pytest.approx(base.map, rel=1e-12)


def test_mean_ap_multilabel_intersection():
    index = RetrievalIndex(codes=[packed(1, 0), packed(0, 1)], labels=[{1, 2}, {3}])
    report = mean_ap(index, [packed(1, 0)], [{2, 9}], "all")
    assert report.per_query_ap == [1.0]


def test_mean_ap_validation():
    index = RetrievalIndex(codes=[packed(1, 0)], labels=[{0}])
    with pytest.raises(ValueError):
        mean_ap(index, [], [], "all")
    with pytest.raises(ValueError):
        mean_ap(index, [packed(1, 0)], [], "all")
    with pytest.raises(ValueError):
        mean_ap(index, [packed(1, 0)], [{0}], "all", normalization="other")
    with pytest.raises(ValueError):
        mean_ap(index, [packed(1, 0)], [set()], "all")
    for bad in (0, 2, "some", True, np.int64(0), np.int32(2), np.bool_(True)):
        with pytest.raises(ValueError):
            mean_ap(index, [packed(1, 0)], [{0}], bad)
    for good in (np.int64(1), np.int32(1)):
        report = mean_ap(index, [packed(1, 0)], [{0}], good)
        assert report.k == 1 and type(report.k) is int


def test_capped_normalization():
    # one relevant item in the index, found at rank 1, cut 2: found-normalization
    # gives 1.0, capped divides by min(total_relevant, k) = 1 as well
    index = RetrievalIndex(codes=[packed(1, 1), packed(-1, -1)], labels=[{0}, {1}])
    found = mean_ap(index, [packed(1, 1)], [{0}], 2, normalization="found")
    capped = mean_ap(index, [packed(1, 1)], [{0}], 2, normalization="capped")
    assert found.map == capped.map == 1.0
    # two relevant items but only the top-1 cut inspected: capped divides by 1
    index2 = RetrievalIndex(codes=[packed(1, 1), packed(1, 0)], labels=[{0}, {0}])
    capped1 = mean_ap(index2, [packed(1, 1)], [{0}], 1, normalization="capped")
    assert capped1.map == 1.0


def test_format_report():
    report = mean_ap(
        RetrievalIndex(codes=[packed(1, 0), packed(0, 1)], labels=[{0}, {1}]),
        [packed(1, 0), packed(0, 1)],
        [{0}, {1}],
        "all",
    )
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "0 1.000000"
    assert lines[1] == "1 1.000000"
    assert lines[-1] == "mAP 1.000000"
    assert text.endswith("\n")


# The per-query ranking the array-native routine replaced, kept as the
# reference: row-stacked planes, a stable argsort of int64 distances,
# relevance by frozenset intersection per item, and AP summed in a loop.


def _distances(pos, neg, query):
    return (np.bitwise_count(pos ^ query.pos).sum(axis=1) + np.bitwise_count(neg ^ query.neg).sum(axis=1)).astype(
        np.int64
    )


def loop_average_precision(relevances, k, total_relevant=None):
    positions = np.flatnonzero(np.asarray(relevances[:k]))
    acc = 0.0
    for hits, i in enumerate(positions, start=1):
        acc += hits / (int(i) + 1)
    denom = len(positions) if total_relevant is None else total_relevant
    if len(positions) == 0 or denom == 0:
        return 0.0
    return acc / denom


def reference_topk(codes, query, k):
    cut = len(codes) if k == "all" else k
    dists = _distances(np.stack([c.pos for c in codes]), np.stack([c.neg for c in codes]), query)
    return [(int(i), int(dists[i])) for i in np.argsort(dists, kind="stable")[:cut]]


def reference_mean_ap(codes, labels, query_codes, query_labels, k, normalization):
    pos, neg = np.stack([c.pos for c in codes]), np.stack([c.neg for c in codes])
    cut = len(codes) if k == "all" else k
    aps = []
    for code, qlabels in zip(query_codes, query_labels):
        relevant = np.fromiter((bool(ls & qlabels) for ls in labels), dtype=bool, count=len(codes))
        order = np.argsort(_distances(pos, neg, code), kind="stable")[:cut]
        total = min(int(relevant.sum()), cut) if normalization == "capped" else None
        aps.append(loop_average_precision(relevant[order], cut, total))
    acc = 0.0
    for ap in aps:
        acc += ap
    return aps, acc / len(aps)


def tied_instance(rng, n, d, classes=5):
    """Codes drawn near a few prototypes, so many items tie; about a third carry two labels."""
    protos = rng.integers(-1, 2, size=(4, d)).astype(np.int8)
    trits = protos[rng.integers(0, len(protos), size=n)]
    for row in trits:
        at = rng.integers(0, d, size=2)
        row[at] = rng.integers(-1, 2, size=2)
    codes = [pack(TernaryCode(t)) for t in trits]
    labels = [
        frozenset(rng.choice(classes, size=1 + int(rng.random() < 1 / 3), replace=False).tolist()) for _ in range(n)
    ]
    return codes, labels


def tie_cut(codes, query):
    """A cut that splits a run of equal distances: the item just past it ties with the last one kept."""
    dists = [dist for _, dist in reference_topk(codes, query, "all")]
    return next(i for i in range(1, len(dists)) if dists[i - 1] == dists[i])


@pytest.mark.parametrize("d", [1, 16, 32, 33, 64, 70, 130])
def test_ranking_equals_reference(d):
    rng = np.random.default_rng(d)
    codes, labels = tied_instance(rng, 150, d)
    qcodes, qlabels = tied_instance(rng, 20, d)
    index = RetrievalIndex(codes=codes, labels=labels)
    assert RetrievalIndex(codes=CodeMatrix.of(codes), labels=labels).codes == index.codes
    for k in (1, 7, tie_cut(codes, qcodes[0]), 149, 150, "all"):
        for q in qcodes:
            assert query_topk(index, q, k) == reference_topk(codes, q, k)
        for normalization in ("found", "capped"):
            aps, mean = reference_mean_ap(codes, labels, qcodes, qlabels, k, normalization)
            for queries in (qcodes, CodeMatrix.of(qcodes)):
                report = mean_ap(index, queries, qlabels, k, normalization=normalization)
                assert report.per_query_ap == aps
                assert report.map == mean


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data(), d=st.integers(1, 140), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_ranking_equals_reference_on_tie_heavy_codes(data, d, n, seed):
    # few prototypes and few flips: long runs of equal distances, cut anywhere
    rng = np.random.default_rng(seed)
    codes, labels = tied_instance(rng, n, d, classes=3)
    qcodes, qlabels = tied_instance(rng, 4, d, classes=3)
    k = data.draw(st.one_of(st.integers(1, n), st.just("all")), label="k")
    index = RetrievalIndex(codes=codes, labels=labels)
    for q in qcodes:
        assert query_topk(index, q, k) == reference_topk(codes, q, k)
    for normalization in ("found", "capped"):
        aps, mean = reference_mean_ap(codes, labels, qcodes, qlabels, k, normalization)
        report = mean_ap(index, qcodes, qlabels, k, normalization=normalization)
        assert report.per_query_ap == aps
        assert report.map == mean


@pytest.mark.parametrize("d", [16, 70])
def test_queries_sharing_a_label_set_score_like_the_reference(d, monkeypatch):
    # the same sets given in different orders and with repeats, and labels the index never holds (classes 0-4)
    rng = np.random.default_rng(300 + d)
    codes, labels = tied_instance(rng, 150, d)
    qcodes, _ = tied_instance(rng, 24, d)
    given_sets = [[1, 3], [3, 1], [3, 1, 3], [2], [2, 2], [7], [9, 8], [8, 9], [4, 7], [7, 4], [0, 1, 2, 3, 4]]
    rows = [given_sets[i % len(given_sets)] for i in range(len(qcodes))]
    qlabels = [frozenset(row) for row in rows]
    csr = LabelSets(indptr=np.cumsum([0] + [len(row) for row in rows]), ids=np.concatenate(rows))
    index = RetrievalIndex(codes=codes, labels=labels)
    masks, relevant = [], RetrievalIndex._relevant

    def counted(self, query_labels):
        masks.append(query_labels.tolist())
        return relevant(self, query_labels)

    monkeypatch.setattr(RetrievalIndex, "_relevant", counted)
    for k in (1, tie_cut(codes, qcodes[0]), 100, "all"):
        for normalization in ("found", "capped"):
            aps, mean = reference_mean_ap(codes, labels, qcodes, qlabels, k, normalization)
            for query_labels in (rows, csr):
                masks.clear()
                report = mean_ap(index, qcodes, query_labels, k, normalization=normalization)
                assert report.per_query_ap == aps
                assert report.map == mean
                # one relevance mask per distinct set, in order of first use
                assert masks == [[1, 3], [2], [7], [8, 9], [4, 7], [0, 1, 2, 3, 4]]
    assert aps[5] == aps[6] == 0.0


@pytest.mark.parametrize("d", [16, 70])
def test_each_distinct_label_set_and_code_is_ranked_once(d, monkeypatch):
    # codes repeat across and within label sets, and the sets come in different orders and with repeats
    rng = np.random.default_rng(500 + d)
    codes, labels = tied_instance(rng, 150, d)
    drawn, _ = tied_instance(rng, 10, d)
    qcodes = [drawn[i] for i in rng.integers(0, len(drawn), size=40)]
    given_sets = [[1, 3], [3, 1], [3, 1, 3], [2], [2, 2], [0, 4]]
    rows = [given_sets[i] for i in rng.integers(0, len(given_sets), size=len(qcodes))]
    qlabels = [frozenset(row) for row in rows]
    pairs = {(ls, q.planes.tobytes()) for ls, q in zip(qlabels, qcodes)}
    assert len(pairs) < len(qcodes)
    index = RetrievalIndex(codes=codes, labels=labels)
    calls, rank = [], retrieval._rank

    def counted(*args):
        calls.append(args)
        return rank(*args)

    monkeypatch.setattr(retrieval, "_rank", counted)
    for k in (1, tie_cut(codes, qcodes[0]), "all"):
        for normalization in ("found", "capped"):
            aps, mean = reference_mean_ap(codes, labels, qcodes, qlabels, k, normalization)
            calls.clear()
            report = mean_ap(index, qcodes, rows, k, normalization=normalization)
            assert report.per_query_ap == aps
            assert report.map == mean
            assert len(calls) == len(pairs)


def test_mean_ap_topk_memory_stays_small():
    n, d = 20_000, 32
    rng = np.random.default_rng(9)
    index = RetrievalIndex(
        codes=pack_matrix(rng.integers(-1, 2, size=(n, d))), labels=LabelSets(np.arange(n + 1), rng.integers(0, 10, n))
    )
    queries, query_labels = pack_matrix(rng.integers(-1, 2, size=(50, d))), LabelSets(np.arange(51), np.arange(50) % 10)
    tracemalloc.start()
    try:
        mean_ap(index, queries, query_labels, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one query's XOR of the one-word scan rows is 8 bytes per item and its distances and selection a few more
    # (about 10.4 in all); scan rows rebuilt per query, or the partition run on an int64 copy, pass 16
    assert peak < 16 * n


def test_label_sets_is_a_sequence_of_frozensets():
    rows = [{3, 1}, {0}, {2, 5, 4}, {7}]
    labels = LabelSets.of(rows)
    assert labels.indptr.tolist() == [0, 2, 3, 6, 7]
    assert labels.ids.tolist() == [1, 3, 0, 2, 4, 5, 7]
    assert len(labels) == 4
    assert labels[0] == frozenset({1, 3}) and isinstance(labels[0], frozenset)
    assert labels[-1] == {7} and labels[-4] == {1, 3}
    for bad in (4, -5):
        with pytest.raises(IndexError):
            labels[bad]
    assert list(labels) == rows
    assert labels == rows and rows == labels
    assert labels == [frozenset(r) for r in rows]
    assert labels != rows[:3] and labels != [*rows[:3], {8}] and labels != "abcd"
    for cut in (slice(1, 3), slice(None, None, -1), slice(0, 4, 2), slice(3, 1), slice(-2, None)):
        part = labels[cut]
        assert isinstance(part, LabelSets)
        assert part == rows[cut]
    assert LabelSets.of(labels) is labels
    # rows are sets: order and repeats do not matter
    assert LabelSets.of([[3, 1, 3], (0,), [4, 2, 5, 2], [7]]) == labels
    # zero rows stay valid; an empty row does not
    for empty in (LabelSets.of([]), labels[:0], labels[[]], LabelSets(indptr=[0], ids=[])):
        assert isinstance(empty, LabelSets) and empty == [] and empty.indptr.tolist() == [0]
    with pytest.raises(ValueError, match="^every item needs at least one label$"):
        LabelSets.of([{1}, set()])


def test_label_sets_validation():
    for bad in ([{1.0}], [{"a"}], [{1, None}], [{True}], [{2, False}], [{np.True_}]):
        with pytest.raises(ValueError, match="integers"):
            LabelSets.of(bad)
    for bad in ([{2**63}], [{np.uint64(2**64 - 1)}]):
        with pytest.raises(ValueError, match="64-bit"):
            LabelSets.of(bad)
    assert LabelSets.of([{np.int32(4), 2}]) == [{2, 4}]
    with pytest.raises(ValueError, match="indptr"):
        LabelSets(indptr=[0, 2], ids=[1])
    with pytest.raises(ValueError, match="indptr"):
        LabelSets(indptr=[0, 2, 1], ids=[1])
    for indptr, ids in (([0, 1], [1.5]), ([0, 1], np.array([True])), (np.array([False, True]), [1])):
        with pytest.raises(ValueError, match="integer"):
            LabelSets(indptr=indptr, ids=ids)
    # construction sorts each row and drops its repeats
    labels = LabelSets(indptr=[0, 3, 4, 5, 8], ids=[5, 1, 5, 2, 4, 9, 9, 9])
    assert labels.indptr.tolist() == [0, 2, 3, 4, 5]
    assert labels.ids.tolist() == [1, 5, 2, 4, 9]
    # every row holds at least one label
    with pytest.raises(ValueError, match="^every item needs at least one label$"):
        LabelSets(indptr=[0, 1, 1, 2, 3], ids=[0, 0, 0])
    assert LabelSets(indptr=[0, 1, 2], ids=[3, 1]).ids.tolist() == [3, 1]


def test_index_holds_labels_as_label_sets():
    for labels in ([{1}, {0, 2}], LabelSets.of([{1}, {0, 2}])):
        index = RetrievalIndex(codes=[packed(1, 0), packed(0, 1)], labels=labels)
        assert isinstance(index.labels, LabelSets)
        assert index.labels == [{1}, {0, 2}]
    for bad in ([{"a"}, {0}], [{0.5}, {0}]):
        with pytest.raises(ValueError, match="integers"):
            RetrievalIndex(codes=[packed(1, 0), packed(0, 1)], labels=bad)
    with pytest.raises(ValueError, match="at least one label"):
        RetrievalIndex(codes=[packed(1, 0), packed(0, 1)], labels=LabelSets.of([{0}, set()]))
    index = RetrievalIndex(codes=[packed(1, 0), packed(0, 1)], labels=[{1}, {0, 2}])
    with pytest.raises(ValueError, match="integers"):
        mean_ap(index, [packed(1, 0)], [{"a"}], "all")
    with pytest.raises(ValueError, match="at least one label"):
        mean_ap(index, [packed(1, 0), packed(0, 1)], LabelSets.of([{0}, set()]), "all")


@pytest.mark.parametrize("d", [16, 70])
def test_label_sets_index_equals_reference(d):
    rng = np.random.default_rng(100 + d)
    codes, labels = tied_instance(rng, 150, d)
    qcodes, qlabels = tied_instance(rng, 20, d)
    for index_labels in (labels, LabelSets.of(labels)):
        index = RetrievalIndex(codes=codes, labels=index_labels)
        for query_labels in (qlabels, LabelSets.of(qlabels)):
            for k in (1, 7, "all"):
                for normalization in ("found", "capped"):
                    aps, mean = reference_mean_ap(codes, labels, qcodes, qlabels, k, normalization)
                    report = mean_ap(index, qcodes, query_labels, k, normalization=normalization)
                    assert report.per_query_ap == aps
                    assert report.map == mean
