"""The workloads: set-up, the timed operation, the traced variant of the
operation, correctness checks and isolated calls.

The program is driven only through its public functions and the CLI's
``main``. Calls go through module attributes (``experiment.train``,
``cli.main``, ...) so that the traced run can swap them for span-recording
wrappers; the untraced run calls the functions themselves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import oracle
from tracing import LAYERS, layer_shares, patched
import ternhash.activation as activation
import ternhash.codes as codes
import ternhash.network as network
import ternhash.retrieval as retrieval
from ternhash.harness import cli, config, data, experiment

# train_ref16 shortens the reference schedule to 90 epochs with stride 18, so
# k still steps 3,5,7,9,11 and the network layer stays above 80% of the operation.
TRAIN_EPOCHS = 90
STAGE_KS = (3, 5, 7, 9, 11)
# Fixtures train a short schedule at 10x the reference learning rate. On the
# reference data 20 such epochs reach the mAP (0.98-0.99) and code diversity
# of the 150-epoch reference schedule in an eighth of the time, which keeps
# set-up repeatable within a run.
FIXTURE_LR_SCALE = 10
# files_topk: about 21.6k index rows and 560 queries over 20 classes at d32,
# with a second label on about a quarter of index and query items. 560
# queries keep the operation near 5 s, so a run's median is taken over about
# nine operations.
FILES_CLASSES = 20
FILES_PER_CLASS = 1110
FILES_QUERY_FRACTION = 0.025
FILES_TRAIN_FRACTION = 0.1
FILES_CODE_DIM = 32
FILES_EPOCHS = 30
SECOND_LABEL_FRACTION = 0.25
TOPK = 100
CHECK_QUERIES = 200
# Isolated calls run on at most this many index rows and queries.
ISO_ROWS = 4500
ISO_QUERIES = 500


def _cli_span(argv, *args, **kwargs):
    return f"harness.cli.{argv[0]}"


def _pairs(index, query_codes, *args, **kwargs):
    return len(index) * len(query_codes)


def _one(*args, **kwargs):
    return 1


def trace_patches() -> list:
    """(module, attribute, span name, counter) for every layer boundary the benchmark can wrap.

    Cross-layer names are wrapped where the calling module looks them up, so
    calls made inside the program are attributed to the callee's layer too.
    """
    layer_of_name = {
        "pack": "codes", "ternarize": "codes", "load_codes": "codes", "save_codes": "codes",
        "hash_features": "network", "quantization_error": "network", "train": "network",
        "load_checkpoint": "network", "save_checkpoint": "network",
        "RetrievalIndex": "retrieval", "mean_ap": "retrieval", "format_report": "retrieval",
        "load_config": "harness.config",
        "gen_synthetic": "harness.data", "load_splits": "harness.data", "save_splits": "harness.data",
        "load_features": "harness.data", "load_labels": "harness.data", "save_labels": "harness.data",
        "single_labels": "harness.data",
        "encode_dataset": "harness.experiment", "two_step_baseline": "harness.experiment",
    }
    pairs_counter = ("retrieval.pairs_scored", _pairs)
    out = [(network, name, f"activation.{name}", None)
           for name in ("smooth_ternary", "smooth_ternary_grad", "hard_ternary")]
    out.append((network, "sgd_momentum_step", None, ("network.steps", _one)))
    for module in (experiment, cli):
        for name, layer in layer_of_name.items():
            if hasattr(module, name):
                count = pairs_counter if name == "mean_ap" else None
                out.append((module, name, f"{layer}.{name}", count))
    out += [
        (cli, "main", _cli_span, None),
        (retrieval, "query_topk", "retrieval.query_topk", None),
        (config, "load_config", "harness.config.load_config", None),
        (data, "gen_synthetic", "harness.data.gen_synthetic", None),
        (data, "save_splits", "harness.data.save_splits", None),
        (data, "load_splits", "harness.data.load_splits", None),
    ]
    return out


@dataclasses.dataclass
class Result:
    """What one operation produced: its mAP, a value every repeat must equal, and detail for the oracle."""

    map: float
    key: object
    detail: object = None


@dataclasses.dataclass
class State:
    """What set-up and warm-up leave for the operation; index and queries serve the query_topk check."""

    seed: int
    work: Path
    ds: data.Dataset = None
    net: network.Network = None
    index: retrieval.RetrievalIndex = None
    queries: list = None
    epoch_ends: list = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)


def _reference_config(root: Path, seed: int, epochs: int):
    cfg = config.load_config(root / "configs" / "reference_d16.cfg")
    return dataclasses.replace(cfg, epochs=epochs, stride_epochs=epochs // len(STAGE_KS), seeds=(seed,))


def _gen(cfg, seed):
    return experiment.gen_synthetic(
        cfg.classes, cfg.per_class, cfg.input_dim, cfg.spread, seed,
        query_fraction=cfg.query_fraction, train_fraction=cfg.train_fraction,
    )


def _net_config(cfg, ds, seed, code_dim=None):
    return network.NetworkConfig(
        input_dim=ds.input_dim, hidden_dims=cfg.hidden_dims, code_dim=code_dim or cfg.code_dim,
        num_classes=ds.num_classes, activation=activation.ActivationConfig(alpha=cfg.alpha, k=cfg.k_start),
        seed=seed,
    )


def _train_config(cfg, epochs=None, stride=None, lr0=None):
    epochs = epochs or cfg.epochs
    schedule = activation.ContinuationSchedule(
        k_start=cfg.k_start, k_end=cfg.k_end, stride_epochs=stride or cfg.stride_epochs, total_epochs=epochs
    )
    return network.TrainConfig(
        epochs=epochs, batch_size=cfg.batch_size, lr0=lr0 or cfg.lr0, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, schedule=schedule,
    )


def _train_fixture(state: State, ds, net_cfg, train_cfg):
    feats, label_sets = ds.subset(ds.train_ids)

    def hook(net, entry):
        state.epoch_ends.append(time.perf_counter())

    state.epoch_ends.clear()
    net, _ = experiment.train(net_cfg, train_cfg, feats, experiment.single_labels(label_sets), epoch_hook=hook)
    return net


class Workload:
    """Set-up, warm-up, the timed operation and its checks; the traced operation defaults to the same code."""

    name = ""
    setup_repeats = 3
    min_ops = 2

    def __init__(self, root: Path):
        self.root = root

    def traced_op(self, state: State) -> Result:
        return self.op(state)


class TrainRef16(Workload):
    """harness.run_seed on the d16 reference config, both arms, as `ternhash compare` runs it."""

    name = "train_ref16"

    def setup(self, state: State) -> None:
        cfg = _reference_config(self.root, state.seed, TRAIN_EPOCHS)
        state.ds = _gen(cfg, state.seed)
        state.extra["cfg"] = cfg

    def warmup(self, state: State) -> None:
        # Both arms' training, encode, index and mAP at the operation's shapes.
        # The continuation arm trains like a fixture, so its codes tie like a
        # trained network's; its mAP and top-k answers are checked against the oracle.
        cfg, ds = state.extra["cfg"], state.ds
        net_cfg = _net_config(cfg, ds, state.seed)
        feats, label_sets = ds.subset(ds.train_ids)
        experiment.train(net_cfg, _train_config(cfg, epochs=2, stride=1), feats,
                         experiment.single_labels(label_sets), ternary=False)
        state.net = _train_fixture(state, ds, net_cfg,
                                   _train_config(cfg, epochs=10, stride=2, lr0=FIXTURE_LR_SCALE * cfg.lr0))
        rf, rl = ds.subset(ds.retrieval_ids)
        qf, ql = ds.subset(ds.query_ids)
        state.index = retrieval.RetrievalIndex(codes=experiment.encode_dataset(state.net, rf), labels=rl)
        state.queries = experiment.encode_dataset(state.net, qf)
        state.extra["warm_map"] = (ql, retrieval.mean_ap(state.index, state.queries, ql, "all").per_query_ap)

    def op(self, state: State) -> Result:
        cfg = _reference_config(self.root, state.seed, TRAIN_EPOCHS)
        r = experiment.run_seed(cfg, state.seed)
        key = (r.continuation_map, r.two_step_map, r.stage_ks, r.stage_quant_errors, r.two_step_quant_error)
        return Result(r.continuation_map, key, r.continuation_map - r.two_step_map)

    def traced_op(self, state: State) -> Result:
        """run_seed rebuilt from public calls, so each stage gets its own span."""
        cfg = _reference_config(self.root, state.seed, TRAIN_EPOCHS)
        ds = _gen(cfg, state.seed)
        net_cfg = _net_config(cfg, ds, state.seed)
        train_cfg = _train_config(cfg)
        schedule = train_cfg.schedule
        train_feats, train_labels = ds.subset(ds.train_ids)
        rf, rl = ds.subset(ds.retrieval_ids)
        qf, ql = ds.subset(ds.query_ids)
        stage_ends = [e for e in range(cfg.epochs)
                      if e == cfg.epochs - 1 or activation.schedule_k(e + 1, schedule) != activation.schedule_k(e, schedule)]
        stages = {}

        def hook(net, entry):
            state.epoch_ends.append(time.perf_counter())
            if entry.epoch in stage_ends:
                stages[entry.epoch] = (entry.k, experiment.quantization_error(net, rf, entry.k))

        state.epoch_ends.clear()
        net, _ = experiment.train(
            net_cfg, train_cfg, train_feats, experiment.single_labels(train_labels), ternary=True, epoch_hook=hook
        )
        index = experiment.RetrievalIndex(codes=experiment.encode_dataset(net, rf), labels=rl)
        cont = experiment.mean_ap(index, experiment.encode_dataset(net, qf), ql, cfg.eval_k)
        base = experiment.two_step_baseline(ds, net_cfg, train_cfg)
        base_index = experiment.RetrievalIndex(codes=base.retrieval_codes, labels=rl)
        base_map = experiment.mean_ap(base_index, base.query_codes, ql, cfg.eval_k).map
        base_qe = experiment.quantization_error(base.network, rf, None)
        state.net = net
        key = (cont.map, base_map, tuple(stages[e][0] for e in stage_ends),
               tuple(stages[e][1] for e in stage_ends), base_qe)
        return Result(cont.map, key, cont.map - base_map)

    def check(self, state: State, first: Result) -> list:
        errors = [] if first.key[2] == STAGE_KS else [f"stage_ks {first.key[2]} != {STAGE_KS}"]
        labels, aps = state.extra["warm_map"]
        return errors + _check_aps(aps, oracle.trits_from_packed(state.index.codes), state.index.labels,
                                   oracle.trits_from_packed(state.queries), labels, "all", "found")


class FilesTopk(Workload):
    """The CLI file path: `ternhash encode` twice, then `ternhash eval --k 100 --normalization capped`."""

    name = "files_topk"
    setup_repeats = 2

    def setup(self, state: State) -> None:
        cfg = _reference_config(self.root, state.seed, FILES_EPOCHS)
        state.ds = data.gen_synthetic(
            FILES_CLASSES, FILES_PER_CLASS, cfg.input_dim, cfg.spread, state.seed,
            query_fraction=FILES_QUERY_FRACTION, train_fraction=FILES_TRAIN_FRACTION,
        )
        prefix = state.work / "files"
        data.save_splits(prefix, state.ds)
        # The fixture trains on the split files read back, as `ternhash train` with data_prefix does.
        loaded = data.load_splits(prefix)
        train_cfg = _train_config(cfg, lr0=FIXTURE_LR_SCALE * cfg.lr0)
        net = _train_fixture(state, loaded, _net_config(cfg, loaded, state.seed, FILES_CODE_DIM), train_cfg)
        network.save_checkpoint(state.work / "model.tnh", net, train_cfg.schedule)
        # A second label on about a quarter of index and query items, written
        # over the single-label files only after the checkpoint is trained.
        rng = np.random.default_rng([state.seed, 2])
        for split, ids in (("retrieval", state.ds.retrieval_ids), ("query", state.ds.query_ids)):
            labels = []
            for ls in state.ds.subset(ids)[1]:
                if rng.random() < SECOND_LABEL_FRACTION:
                    (c,) = ls
                    ls = ls | {(c + int(rng.integers(1, FILES_CLASSES))) % FILES_CLASSES}
                labels.append(ls)
            data.save_labels(f"{prefix}.{split}.labels", labels)
        state.extra["paths"] = cli_paths(state.work, prefix)

    def warmup(self, state: State) -> None:
        # Encode both splits, then an eval of the first 50 queries; the
        # encoded files then serve the query_topk check.
        p = state.extra["paths"]
        _run_cli(["encode", "--checkpoint", p["checkpoint"], "--features", p["index_features"], "--out", p["index_codes"]])
        _run_cli(["encode", "--checkpoint", p["checkpoint"], "--features", p["query_features"], "--out", p["query_codes"]])
        warm = {**p, "query_codes": str(state.work / "warm.tnc"), "query_labels": str(state.work / "warm.labels")}
        codes.save_codes(warm["query_codes"], codes.load_codes(p["query_codes"])[:50])
        data.save_labels(warm["query_labels"], data.load_labels(p["query_labels"])[:50])
        _run_cli(eval_argv(warm))
        state.net, _ = network.load_checkpoint(p["checkpoint"])
        state.index = retrieval.RetrievalIndex(codes=codes.load_codes(p["index_codes"]), labels=data.load_labels(p["index_labels"]))
        state.queries = codes.load_codes(p["query_codes"])

    def op(self, state: State) -> Result:
        return cli_op(state.extra["paths"])

    def check(self, state: State, first: Result) -> list:
        p = state.extra["paths"]
        want_index = oracle.threshold(network.hash_features(state.net, data.load_features(p["index_features"])),
                                      state.net.config.activation.alpha)
        errors = []
        index_trits = oracle.read_tnc(p["index_codes"])
        if not np.array_equal(index_trits, want_index):
            errors.append("index .tnc trits differ from thresholded hash features")
        aps, mean = oracle.evaluate(
            index_trits, data.load_labels(p["index_labels"]), oracle.read_tnc(p["query_codes"]),
            data.load_labels(p["query_labels"]), TOPK, normalization="capped",
        )
        if first.key != oracle.format_report(aps, mean):
            errors.append("`ternhash eval` output differs from the oracle's report")
        # The report prints six decimals; the APs themselves are compared
        # exactly on the first CHECK_QUERIES queries, ranked in memory.
        labels = data.load_labels(p["query_labels"])[:CHECK_QUERIES]
        report = retrieval.mean_ap(state.index, state.queries[:CHECK_QUERIES], labels, TOPK, normalization="capped")
        if report.per_query_ap != aps[:CHECK_QUERIES]:
            errors.append("mean_ap per-query APs differ from the oracle")
        return errors


WORKLOADS = {cls.name: cls for cls in (TrainRef16, FilesTopk)}


def cli_paths(work: Path, prefix: Path) -> dict:
    return {
        "checkpoint": str(work / "model.tnh"),
        "index_features": f"{prefix}.retrieval.tfv",
        "index_labels": f"{prefix}.retrieval.labels",
        "query_features": f"{prefix}.query.tfv",
        "query_labels": f"{prefix}.query.labels",
        "index_codes": str(work / "index.tnc"),
        "query_codes": str(work / "query.tnc"),
    }


def eval_argv(p: dict) -> list:
    return ["eval", "--codes", p["index_codes"], "--labels", p["index_labels"],
            "--query-codes", p["query_codes"], "--query-labels", p["query_labels"],
            "--k", str(TOPK), "--normalization", "capped"]


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ternhash {argv[0]} exited {code}")
    return out.getvalue()


def cli_op(p: dict) -> Result:
    _run_cli(["encode", "--checkpoint", p["checkpoint"], "--features", p["index_features"], "--out", p["index_codes"]])
    _run_cli(["encode", "--checkpoint", p["checkpoint"], "--features", p["query_features"], "--out", p["query_codes"]])
    text = _run_cli(eval_argv(p))
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("mAP "):
        raise RuntimeError(f"unexpected eval output tail {last!r}")
    return Result(float(last[4:]), text)


def _check_aps(aps, index_trits, index_labels, query_trits, query_labels, k, normalization) -> list:
    """Per-query APs against the oracle's, compared with ==."""
    want, _ = oracle.evaluate(index_trits, index_labels, query_trits, query_labels, k, normalization=normalization)
    bad = sum(a != b for a, b in zip(aps, want)) + abs(len(aps) - len(want))
    return [f"{bad} of {len(want)} per-query APs differ from the oracle"] if bad else []


def check_queries(state: State) -> list:
    """query_topk on the first CHECK_QUERIES queries against the oracle's first TOPK (id, distance) pairs."""
    index_trits = oracle.trits_from_packed(state.index.codes)
    query_trits = oracle.trits_from_packed(state.queries[:CHECK_QUERIES])
    bad = 0
    for i, q in enumerate(query_trits):
        try:
            bad += retrieval.query_topk(state.index, state.queries[i], TOPK) != oracle.top(index_trits, q, TOPK)
        except Exception:  # an exception is a wrong answer too
            bad += 1
    return [f"{bad} of {len(query_trits)} query_topk answers differ from the oracle"] if bad else []


def _spread(ids: np.ndarray, n: int) -> np.ndarray:
    """At most n ids taken evenly across the list, so every class is represented."""
    return ids[:: max(1, len(ids) // n)][:n]


def _timed(fn, n: int) -> list:
    out = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return out


def isolated(state: State, tracer) -> dict:
    """Microbenchmarks on the workload's own inputs; returns samples per per-layer metric.

    Direct calls are timed without tracing. File and CLI metrics come from
    spans: files_topk's operation already records them, the other workloads
    run one traced CLI pass over their own 4,500 x 500 set.
    """
    net, ds = state.net, state.ds
    alpha = net.config.activation.alpha
    fresh = network.Network.initialize(net.config)
    train_feats, train_labels = ds.subset(ds.train_ids)
    train_labels = data.single_labels(train_labels)
    rows, row_labels = ds.subset(_spread(ds.retrieval_ids, ISO_ROWS))
    queries, query_labels = ds.subset(_spread(ds.query_ids, ISO_QUERIES))
    rng = np.random.default_rng(state.seed)
    x = np.tanh(rng.standard_normal((64, 16)))
    act = activation.ActivationConfig(alpha=alpha, k=7)
    batch = np.asarray(train_feats[:64], dtype=np.float64)
    batch_labels = train_labels[:64]

    s = {}
    s["activation.smooth_ternary_us"] = _timed(lambda: activation.smooth_ternary(x, act), 300)
    s["activation.smooth_ternary_grad_us"] = _timed(lambda: activation.smooth_ternary_grad(x, act), 300)
    s["network.backward_ms"] = _timed(lambda: network.backward(fresh, batch, batch_labels, 7), 50)
    s["network.backward_plain_ms"] = _timed(lambda: network.backward(fresh, batch, batch_labels, None), 50)
    grads = network.backward(fresh, batch, batch_labels, 7)
    tstate = network.TrainState(velocity=[np.zeros_like(p) for p in fresh.params()])
    s["network.sgd_step_ms"] = _timed(lambda: network.sgd_momentum_step(fresh, tstate, grads, 1e-3, 0.9, 1e-4), 50)
    s["network.quant_error_ms"] = _timed(lambda: network.quantization_error(fresh, train_feats, 7), 10)
    s["network.hash_features_ms"] = _timed(lambda: network.hash_features(net, rows), 10)
    hashed = network.hash_features(net, rows[:1000])
    s["codes.ternarize_pack_us"] = [_timed(lambda: codes.pack(codes.ternarize(h, alpha)), 1)[0] for h in hashed]
    s["harness.experiment.encode_rows_per_s"] = [
        len(rows) / t for t in _timed(lambda: experiment.encode_dataset(net, rows), 3)
    ]
    row_codes = experiment.encode_dataset(net, rows)
    query_codes = experiment.encode_dataset(net, queries)
    s["retrieval.index_build_ms"] = _timed(lambda: retrieval.RetrievalIndex(codes=row_codes, labels=row_labels), 5)
    index = retrieval.RetrievalIndex(codes=row_codes, labels=row_labels)
    s["retrieval.mean_ap_ms"] = _timed(lambda: retrieval.mean_ap(index, query_codes, query_labels, "all"), 3)
    s["retrieval.query_topk_us"] = [_timed(lambda: retrieval.query_topk(index, q, TOPK), 1)[0] for q in query_codes]

    tracer.op = "isolated"
    with patched(tracer, trace_patches()):
        for rep in range(2):
            prefix = state.work / f"iso{rep}"
            data.save_splits(prefix, ds)
            data.load_splits(prefix)
        if "paths" not in state.extra:  # no CLI pass in the operation: run one on the 4,500 x 500 set
            prefix = state.work / "iso"
            network.save_checkpoint(state.work / "model.tnh", net,
                                    activation.ContinuationSchedule(total_epochs=TRAIN_EPOCHS))
            for split, feats, labels in (("retrieval", rows, row_labels), ("query", queries, query_labels)):
                data.save_features(f"{prefix}.{split}.tfv", feats)
                data.save_labels(f"{prefix}.{split}.labels", labels)
            paths = cli_paths(state.work, prefix)
            state.extra["paths"] = paths
            cli_op(paths)
    s["codes.tnc_bytes"] = [os.path.getsize(state.extra["paths"]["index_codes"])]
    return s


# Running one workload.


def set_up(wl, seed: int, work: Path, repeats: int, tracer=None):
    """Set up and warm up `repeats` times; returns the last state and each repeat's CPU seconds.

    Traced, only set-up is wrapped, so the warm-up's calls add no spans.
    """
    times = []
    for _ in range(repeats):
        state = State(seed=seed, work=work)
        start = time.process_time()
        with patched(tracer, trace_patches()) if tracer else contextlib.nullcontext():
            wl.setup(state)
        wl.warmup(state)
        times.append(time.process_time() - start)
    return state, times


def measure(wl, state: State, seconds: float, tracer=None) -> dict:
    """Run operations until the next one would end past the window, and at least wl.min_ops.

    Each operation is timed in process CPU seconds, which leave out the time
    a shared host runs other guests on this machine's processors, and in
    wall seconds. Traced, each untraced operation is followed by a traced
    one, so both see the same machine state, and one pair is the minimum.
    """
    run = {"op_s": [], "op_wall_s": [], "traced_s": [], "results": [], "failures": []}
    min_ops = wl.min_ops if tracer is None else 1
    window_start = time.perf_counter()
    ops, last = 0, 0.0  # last: wall seconds of the last operation, traced pair included
    while ops < min_ops or time.perf_counter() - window_start + last <= seconds:
        ops += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = wl.op(state)
            run["op_s"].append(time.process_time() - c0)
            run["op_wall_s"].append(time.perf_counter() - t0)
            _keep(run, result)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            run["failures"].append(f"op: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.op = ops
            with patched(tracer, trace_patches()):
                idx = tracer.begin("bench.op")
                try:
                    _keep(run, wl.traced_op(state))
                except Exception as exc:
                    run["failures"].append(f"traced op: {type(exc).__name__}: {exc}")
                finally:
                    tracer.end(idx)
            run["traced_s"].append((tracer.spans[idx][2] - tracer.spans[idx][1]) / 1e9)
        last = time.perf_counter() - t0
    return run


def _keep(run: dict, result: Result) -> None:
    # Only the first result keeps the detail its oracle check needs, so
    # memory does not grow with the number of operations.
    run["results"].append(dataclasses.replace(result, detail=None) if run["results"] else result)


def check(wl, state: State, run: dict) -> list:
    """Every failure and mismatch of the run, checked after all timing."""
    errors = list(run["failures"])
    results = run["results"]
    if not results:
        return [*errors, "no operation completed"]
    if any(r.key != results[0].key for r in results[1:]):
        errors.append("repeated operations disagree")
    return errors + wl.check(state, results[0]) + check_queries(state)


def end_to_end(state: State, run: dict, setup_times: list) -> dict:
    """End-to-end samples, in seconds where the metric is a time."""
    return {
        "op_cpu_s": run["op_s"],
        "setup_s": [statistics.median(setup_times)],
        "map": [run["results"][0].map] if run["results"] else [],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }


def per_layer(wl, state: State, tracer, run: dict) -> dict:
    """Per-layer samples: isolated calls, the workload's own training, spans and counters."""
    samples = isolated(state, tracer)
    ops = set(range(1, len(run["traced_s"]) + 1))
    ends = state.epoch_ends
    samples["network.epoch_s"] = [b - a for a, b in zip(ends, ends[1:])]
    samples["network.train_s"] = tracer.durations("network.train")
    if samples["network.train_s"]:
        samples["network.steps"] = [tracer.counted("network.steps") / len(samples["network.train_s"])]
    samples["retrieval.pairs_scored"] = [tracer.counted("retrieval.pairs_scored", ops) / len(ops)]
    for metric, span in (
        ("codes.save_codes_ms", "codes.save_codes"),
        ("codes.load_codes_ms", "codes.load_codes"),
        ("network.checkpoint_load_ms", "network.load_checkpoint"),
        ("harness.data.gen_synthetic_ms", "harness.data.gen_synthetic"),
        ("harness.data.save_splits_ms", "harness.data.save_splits"),
        ("harness.data.load_splits_ms", "harness.data.load_splits"),
        ("harness.data.load_features_ms", "harness.data.load_features"),
        ("harness.data.load_labels_ms", "harness.data.load_labels"),
        ("harness.cli.encode_s", "harness.cli.encode"),
        ("harness.cli.eval_s", "harness.cli.eval"),
    ):
        samples[metric] = tracer.durations(span)
    samples["retrieval.mean_ap_topk_ms"] = tracer.durations("retrieval.mean_ap", parent="harness.cli.eval")
    shares = layer_shares(tracer.spans, ops)
    for layer in LAYERS:
        samples[f"share.{layer}"] = [shares[layer]]
    samples["trace_overhead"] = [statistics.median(run["traced_s"]) / statistics.median(run["op_wall_s"]) - 1.0]
    run["share.bench"] = shares["bench"]
    return samples
