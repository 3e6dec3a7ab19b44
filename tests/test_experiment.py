import collections
import dataclasses
import difflib
from pathlib import Path

import numpy as np
import pytest

from ternhash import (
    CodeMatrix,
    LabelSets,
    Network,
    NetworkConfig,
    PackedCode,
    RetrievalIndex,
    TernaryCode,
    TrainState,
    hash_features,
    load_checkpoint,
    mean_ap,
    pack,
    quantization_error,
    save_checkpoint,
    train,
)
from ternhash.harness import (
    ExperimentConfig,
    SeedResult,
    encode_dataset,
    experiment,
    format_experiment_report,
    gen_synthetic,
    run_arm,
    run_experiment,
    run_seed,
    save_splits,
    seed_setup,
    single_labels,
    two_step_baseline,
)


def tiny_config(**over):
    base = dict(
        classes=3,
        per_class=30,
        input_dim=8,
        spread=0.2,
        hidden_dims=(16,),
        code_dim=6,
        k_start=3,
        k_end=5,
        stride_epochs=2,
        epochs=4,
        batch_size=16,
        lr0=5e-3,
        seeds=(1, 2, 3),
    )
    base.update(over)
    return ExperimentConfig(**base)


def file_config(tmp_path, **over):
    """tiny_config reading the splits of a saved synthetic set (data_prefix mode)."""
    prefix = str(tmp_path / "fixed")
    save_splits(prefix, gen_synthetic(3, 30, 8, 0.2, 99))
    cfg = tiny_config(**over).__dict__.copy()
    for key in ("classes", "per_class", "input_dim", "spread", "query_fraction", "train_fraction"):
        cfg.pop(key)
    cfg["data_prefix"] = prefix
    return ExperimentConfig(**cfg)


def reference_run_seed(cfg, seed):
    """run_seed composed as before run_arm: the continuation arm inline, the
    two-step arm through two_step_baseline with its own index and mean_ap, and
    its quantization error taken after training. A stage ends at the last
    epoch and wherever the next epoch's logged k differs."""
    dataset, net_cfg, train_cfg = seed_setup(cfg, seed)
    train_feats, train_label_sets = dataset.subset(dataset.train_ids)
    retrieval_feats, retrieval_labels = dataset.subset(dataset.retrieval_ids)
    query_feats, query_labels = dataset.subset(dataset.query_ids)
    retrieval_labels, query_labels = LabelSets.of(retrieval_labels), LabelSets.of(query_labels)

    errors = {}

    def snapshot(net, entry):
        errors[entry.epoch] = quantization_error(net, retrieval_feats, entry.k)

    cont_net, cont_logs = train(
        net_cfg, train_cfg, train_feats, single_labels(train_label_sets), ternary=True, epoch_hook=snapshot
    )
    stage_ends = [e for e, after in zip(cont_logs, cont_logs[1:] + [None]) if after is None or after.k != e.k]
    cont_index = RetrievalIndex(codes=encode_dataset(cont_net, retrieval_feats), labels=retrieval_labels)
    cont_report = mean_ap(cont_index, encode_dataset(cont_net, query_feats), query_labels, cfg.eval_k)

    base = two_step_baseline(dataset, net_cfg, train_cfg)
    base_index = RetrievalIndex(codes=base.retrieval_codes, labels=retrieval_labels)
    base_report = mean_ap(base_index, base.query_codes, query_labels, cfg.eval_k)

    return SeedResult(
        seed=seed,
        stage_epochs=tuple(e.epoch for e in stage_ends),
        stage_ks=tuple(e.k for e in stage_ends),
        stage_quant_errors=tuple(errors[e.epoch] for e in stage_ends),
        continuation_map=cont_report.map,
        two_step_map=base_report.map,
        two_step_quant_error=quantization_error(base.network, retrieval_feats, None),
        continuation_logs=cont_logs,
        two_step_logs=base.logs,
    )


@pytest.mark.parametrize(
    "epochs, ternary, ends",
    [
        (150, True, ((29, 3), (59, 5), (89, 7), (119, 9), (149, 11))),
        # a truncated run still ends its last, possibly short, stage
        (100, True, ((29, 3), (59, 5), (89, 7), (99, 9))),
        (150, False, ((149, None),)),
    ],
    ids=["schedule", "truncated", "two-step"],
)
def test_run_arm_ends_a_stage_where_k_changes_and_at_the_last_epoch(epochs, ternary, ends):
    dataset, net_cfg, train_cfg = seed_setup(tiny_config(k_end=11, stride_epochs=30, epochs=150), 1)
    train_cfg = dataclasses.replace(train_cfg, epochs=epochs)
    _, logs, stages = run_arm(dataset, net_cfg, train_cfg, "all", ternary=ternary)
    assert len(logs) == epochs
    assert tuple((epoch, k) for epoch, k, _ in stages) == ends


def test_encode_dataset_matches_manual_path():
    from ternhash import CodeMatrix, TernaryCode, hash_features, pack, ternarize

    ds = gen_synthetic(3, 20, 8, 0.2, 1)
    for code_dim in (6, 64, 70, 130):
        cfg = NetworkConfig(input_dim=8, hidden_dims=(16,), code_dim=code_dim, num_classes=3, seed=1)
        net = Network.initialize(cfg)
        codes = encode_dataset(net, ds.features)
        assert isinstance(codes, CodeMatrix) and len(codes) == len(ds.features)
        pre = hash_features(net, ds.features)
        rows = [pack(ternarize(row, 0.5)) for row in pre]
        assert codes == rows
        assert np.array_equal(codes.pos, np.stack([c.pos for c in rows]))
        assert np.array_equal(codes.neg, np.stack([c.neg for c in rows]))
        for row, code in zip(pre, codes):
            trits = np.where(row >= 0.5, 1, np.where(row <= -0.5, -1, 0)).astype(np.int8)
            assert code == pack(TernaryCode(trits))


def test_run_seed_shapes():
    cfg = tiny_config()
    r = run_seed(cfg, 1)
    assert r.seed == 1
    assert r.stage_epochs == (1, 3)
    assert r.stage_ks == (3, 5)
    assert len(r.stage_quant_errors) == 2
    assert all(0.0 <= e <= 2.0 for e in r.stage_quant_errors)
    assert 0.0 <= r.continuation_map <= 1.0
    assert 0.0 <= r.two_step_map <= 1.0
    assert len(r.continuation_logs) == 4
    assert len(r.two_step_logs) == 4
    assert [e.k for e in r.continuation_logs] == [3, 3, 5, 5]
    assert all(e.k is None for e in r.two_step_logs)


@pytest.mark.parametrize("eval_k", [0, "some", True, np.int64(0), np.bool_(True)])
def test_seed_setup_rejects_a_bad_eval_k_before_any_epoch(monkeypatch, eval_k):
    # the config refuses an eval_k that is not "all" or an int >= 1; seed_setup one past the retrieval split
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args, **kwargs: trained.append(args))
    with pytest.raises(ValueError) as exc:
        tiny_config(eval_k=eval_k)
    assert str(exc.value) == f"eval_k must be an integer in [1, inf), got {eval_k!r}"
    n = len(gen_synthetic(3, 30, 8, 0.2, 1).retrieval_ids)
    cfg = tiny_config(eval_k=n + 1)
    for call in (seed_setup, run_seed):
        with pytest.raises(ValueError) as exc:
            call(cfg, 1)
        assert str(exc.value) == f'k other than "all" must be an integer in [1, {n + 1}), got {n + 1}'
    with pytest.raises(ValueError):
        run_experiment(cfg)
    assert trained == []


def test_run_seed_converts_no_label_list(monkeypatch):
    convert = LabelSets.of.__func__
    converted = []

    def counting(cls, labels):
        if not isinstance(labels, LabelSets):
            converted.append(len(labels))
        return convert(cls, labels)

    cfg = tiny_config(query_fraction=0.2)
    expected = run_seed(cfg, 1)
    monkeypatch.setattr(LabelSets, "of", classmethod(counting))
    assert run_seed(cfg, 1) == expected
    assert converted == []


@pytest.mark.parametrize("mode", ["synthetic", "files"])
def test_run_seed_equals_the_reference_composition(tmp_path, monkeypatch, mode):
    cfg = tiny_config(eval_k=20) if mode == "synthetic" else file_config(tmp_path, epochs=5)
    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for seed in (1, 2):
        want = reference_run_seed(cfg, seed)
        calls = collections.Counter()
        with monkeypatch.context() as m:
            for name in ("train", "quantization_error"):
                m.setattr(experiment, name, counted(name, getattr(experiment, name)))
            got = run_seed(cfg, seed)
        assert got == want
        # one error per stage end and one for the two-step arm: no full-set pass beyond them
        assert calls == {"train": 2, "quantization_error": len(got.stage_epochs) + 1}


def test_run_arm_takes_the_two_step_error_at_its_last_epoch():
    cfg = tiny_config()
    dataset, net_cfg, train_cfg = seed_setup(cfg, 1)
    retrieval_feats, retrieval_labels = dataset.subset(dataset.retrieval_ids)
    base = two_step_baseline(dataset, net_cfg, train_cfg)
    index = RetrievalIndex(codes=base.retrieval_codes, labels=retrieval_labels)
    want_map = mean_ap(index, base.query_codes, dataset.labels[dataset.query_ids], cfg.eval_k).map
    got_map, logs, stages = run_arm(dataset, net_cfg, train_cfg, cfg.eval_k, ternary=False)
    assert got_map == want_map
    assert logs == base.logs
    assert stages == [(cfg.epochs - 1, None, quantization_error(base.network, retrieval_feats, None))]


def test_zero_lr_makes_arms_identical():
    # with lr0 = 0 both arms keep their init; identical nets, identical codes
    cfg = tiny_config(lr0=0.0, epochs=2, stride_epochs=1, k_end=3)
    r = run_seed(cfg, 1)
    assert r.continuation_map == r.two_step_map


def test_arms_diverge_on_a_real_run():
    cfg = tiny_config()
    ds_cfg = NetworkConfig(input_dim=8, hidden_dims=(16,), code_dim=6, num_classes=3, seed=1)
    r = run_seed(cfg, 1)
    # trained through different heads, the learned codes are not all equal
    ds = gen_synthetic(3, 30, 8, 0.2, 1)
    from ternhash import ContinuationSchedule as CS
    from ternhash import TrainConfig, train
    from ternhash.harness import single_labels

    tcfg = TrainConfig(
        epochs=4, batch_size=16, lr0=5e-3, momentum=0.9, weight_decay=1e-4,
        schedule=CS(k_start=3, k_end=5, stride_epochs=2, total_epochs=4),
    )
    feats, labels = ds.subset(ds.train_ids)
    cont_net, _ = train(ds_cfg, tcfg, feats, single_labels(labels), ternary=True)
    base = two_step_baseline(ds, ds_cfg, tcfg)
    cont_codes = encode_dataset(cont_net, ds.subset(ds.retrieval_ids)[0])
    assert any(a != b for a, b in zip(cont_codes, base.retrieval_codes))
    assert r.continuation_logs[0].loss != r.two_step_logs[0].loss


def test_run_experiment_medians():
    cfg = tiny_config(seeds=(1, 2, 3))
    result = run_experiment(cfg)
    assert len(result.seed_results) == 3
    assert [r.seed for r in result.seed_results] == [1, 2, 3]
    assert result.median_continuation_map == sorted(r.continuation_map for r in result.seed_results)[1]
    assert result.median_two_step_map == sorted(r.two_step_map for r in result.seed_results)[1]


def test_report_contents_and_determinism():
    cfg = tiny_config(seeds=(1, 2))
    result = run_experiment(cfg)
    text = format_experiment_report(result)
    assert "seed 1" in text
    assert "seed 2" in text
    assert "stage k=3" in text
    assert "stage k=5" in text
    assert "median continuation mAP" in text
    assert "median two-step     mAP" in text
    assert text.endswith("\n")
    again = format_experiment_report(run_experiment(cfg))
    assert again == text


def test_report_header_names_every_generator_key():
    reports = [format_experiment_report(run_experiment(tiny_config(seeds=(1,), train_fraction=f))) for f in (0.5, 0.3)]
    headers = [text.splitlines()[1] for text in reports]
    assert headers == [
        f"dataset: synthetic classes=3 per_class=30 input_dim=8 spread=0.2 query_fraction=0.1 train_fraction={f}"
        for f in (0.5, 0.3)
    ]
    assert reports[0].splitlines()[2:] != reports[1].splitlines()[2:]


def test_file_mode_uses_saved_splits(tmp_path):
    cfg = file_config(tmp_path)
    r1 = run_seed(cfg, 1)
    r2 = run_seed(cfg, 2)
    # the dataset is fixed, so only the network seed differs between runs
    assert r1.continuation_map != r2.continuation_map or r1.two_step_map != r2.two_step_map


def test_checkpoint_of_a_trained_net_encodes_like_the_net(tmp_path):
    dataset, net_cfg, train_cfg = seed_setup(tiny_config(), 1)
    feats, label_sets = dataset.subset(dataset.train_ids)
    net, _ = train(net_cfg, train_cfg, feats, single_labels(label_sets))
    save_checkpoint(tmp_path / "m.tnh", net, train_cfg.schedule)
    loaded, _ = load_checkpoint(tmp_path / "m.tnh")
    for p, q in zip(net.params(), loaded.params()):
        assert q.dtype == p.dtype
        assert q.tobytes() == p.tobytes()
    assert hash_features(loaded, dataset.features).tobytes() == hash_features(net, dataset.features).tobytes()
    assert encode_dataset(loaded, dataset.features) == encode_dataset(net, dataset.features)


EQUALITY_CASES = {
    # type: (a maker of instances from equal inputs, whether it compares by value)
    "Network": (lambda: Network.initialize(NetworkConfig(input_dim=4, hidden_dims=(3,), code_dim=2, num_classes=2)),
                False),
    "TrainState": (lambda: TrainState(velocity=[np.zeros(5)]), False),
    "RetrievalIndex": (lambda: RetrievalIndex(codes=[pack(TernaryCode(t)) for t in ([1, 0], [0, -1])],
                                              labels=[{0}, {1, 2}]), False),
    "Dataset": (lambda: gen_synthetic(3, 10, 4, 0.2, 1), False),
    "LabelSets": (lambda: LabelSets.of([{0}, {1, 2}]), False),
    "TernaryCode": (lambda: TernaryCode(np.array([1, 0, -1])), False),
    "PackedCode": (lambda: PackedCode(planes=[[1], [2]], d=3), True),
    "CodeMatrix": (lambda: CodeMatrix(planes=[[[1], [2]], [[0], [0]]], d=3), True),
}


@pytest.mark.parametrize("make, by_value", EQUALITY_CASES.values(), ids=EQUALITY_CASES)
def test_only_the_code_types_compare_by_value(make, by_value):
    # the acceptance file compares PackedCode and CodeMatrix by value; every other holder of arrays is its identity
    a, b = make(), make()
    assert a == a and not a != a
    if by_value:
        assert a == b and not a != b
        with pytest.raises(TypeError, match=f"^unhashable type: '{type(a).__name__}'$"):
            hash(a)
    else:
        assert a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("dim", [16, 32])
def test_reference_report_matches_the_pinned_text(reference_results, dim):
    """The compare report of each reference config, byte for byte as pinned in tests/golden."""
    want = (GOLDEN_DIR / f"reference_d{dim}.txt").read_text(encoding="utf-8")
    got = format_experiment_report(reference_results[dim][0])
    diff = list(difflib.unified_diff(want.splitlines(), got.splitlines(), "pinned", "now", lineterm=""))
    print("\n".join(diff))
    assert got == want, f"reference_d{dim} report differs from its golden file; the captured stdout has the diff"

