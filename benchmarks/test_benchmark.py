"""Tests of the benchmark itself: oracle, span arithmetic, metric names and definitions.

    python3 -m pytest benchmarks -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
from ternhash import RetrievalIndex, TernaryCode, mean_ap, pack, query_topk  # noqa: E402


def _random_case(seed, n=300, nq=25, d=12, classes=4):
    rng = np.random.default_rng(seed)
    index_trits = rng.integers(-1, 2, size=(n, d)).astype(np.int8)
    query_trits = rng.integers(-1, 2, size=(nq, d)).astype(np.int8)
    labels = [frozenset(rng.choice(classes, size=rng.integers(1, 3), replace=False).tolist()) for _ in range(n + nq)]
    return index_trits, query_trits, labels[:n], labels[n:]


@pytest.mark.parametrize("k,normalization", [("all", "found"), (40, "found"), (40, "capped"), ("all", "capped")])
def test_oracle_matches_mean_ap_exactly(k, normalization):
    index_trits, query_trits, index_labels, query_labels = _random_case(7)
    index = RetrievalIndex(codes=[pack(TernaryCode(t)) for t in index_trits], labels=index_labels)
    query_codes = [pack(TernaryCode(t)) for t in query_trits]
    report = mean_ap(index, query_codes, query_labels, k, normalization=normalization)
    aps, mean = oracle.evaluate(index_trits, index_labels, query_trits, query_labels, k, normalization=normalization)
    assert report.per_query_ap == aps
    assert report.map == mean


def test_oracle_top_matches_query_topk_and_unpacking():
    index_trits, query_trits, index_labels, _ = _random_case(8, d=70)
    packed = [pack(TernaryCode(t)) for t in index_trits]
    assert np.array_equal(oracle.trits_from_packed(packed), index_trits)
    index = RetrievalIndex(codes=packed, labels=index_labels)
    for q in query_trits:
        assert query_topk(index, pack(TernaryCode(q)), 30) == oracle.top(index_trits, q, 30)


def test_threshold_is_inclusive():
    assert oracle.threshold(np.array([-0.5, -0.49, 0.0, 0.49, 0.5]), 0.5).tolist() == [-1, 0, 0, 0, 1]


def test_self_time_of_nested_spans():
    # a [0, 100] holds b [10, 60] (which holds c [20, 30]) and d [70, 90].
    spans = [
        ["bench.op", 0, 100, -1, 1],
        ["network.train", 10, 60, 0, 1],
        ["activation.smooth_ternary", 20, 30, 1, 1],
        ["retrieval.mean_ap", 70, 90, 0, 1],
    ]
    assert tracing.self_times(spans) == [30, 40, 10, 20]
    shares = tracing.layer_shares(spans, {1})
    assert shares["bench"] == 0.3 and shares["network"] == 0.4
    assert shares["activation"] == 0.1 and shares["retrieval"] == 0.2
    assert sum(shares.values()) == pytest.approx(1.0)


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()
    tracer.op = 1
    inner = tracer.wrap(lambda x: x + 1, "codes.pack", count=("pairs", lambda x: x))
    outer = tracer.wrap(lambda x: inner(x) * 2, "harness.experiment.encode_dataset")
    assert outer(3) == 8
    assert [s[0] for s in tracer.spans] == ["harness.experiment.encode_dataset", "codes.pack"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.counted("pairs", {1}) == 3 and tracer.counted("pairs", {2}) == 0


def test_layer_of_prefers_longest_layer():
    assert tracing.layer_of("harness.cli.eval") == "harness.cli"
    assert tracing.layer_of("network.train") == "network"
    assert tracing.layer_of("bench.op") == "bench"


@pytest.mark.parametrize("name", ["", "op s", "latency/ms", "é", ".hidden", "x" * 65, None])
def test_bad_metric_names_rejected(name):
    with pytest.raises(ValueError):
        tracing.check_metric_name(name)


def test_definitions_are_consistent():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "benchmarks" / "layer_map.json").read_text())["metrics"]
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for m in (*bench["end_to_end"], *bench["per_layer"]):
        tracing.check_metric_name(m["name"])
    assert [m["name"] for m in bench["per_layer"]] == list(layer_map)
    assert "setup_s" in e2e
    for entry in layer_map.values():
        assert entry["layer"] in (*tracing.LAYERS, "bench")
        for pair in (*entry["moves"], *entry["no_change"]):
            metric, workload = pair.split("@")
            assert metric in e2e and workload in workloads, pair


def test_trace_patches_name_real_attributes():
    import workloads

    for module, attr, _, _ in workloads.trace_patches():
        assert callable(getattr(module, attr)), (module.__name__, attr)
