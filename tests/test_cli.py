import dataclasses
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest

from ternhash.harness import experiment, load_config, save_config, save_splits, ExperimentConfig
from ternhash.harness.config import GENERATOR_KEYS
from ternhash.harness.cli import main


def write_tiny_config(path, **over):
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
        seeds=(1, 2),
    )
    base.update(over)
    save_config(path, ExperimentConfig(**base))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_args(prefix, **over):
    base = dict(classes=3, per_class=30, input_dim=8, spread=0.2, seed=1)
    base.update(over)
    return [
        "gen",
        "--classes", str(base["classes"]),
        "--per-class", str(base["per_class"]),
        "--input-dim", str(base["input_dim"]),
        "--spread", str(base["spread"]),
        "--seed", str(base["seed"]),
        "--out", str(prefix),
    ]


def test_full_pipeline(tmp_path, capsys):
    prefix = tmp_path / "data"
    code, out, err = run(capsys, *gen_args(prefix))
    assert code == 0 and err == ""
    paths = out.splitlines()
    assert len(paths) == 6
    assert all(p.startswith(str(prefix)) for p in paths)

    # file-mode config: generator keys stay out of the serialized text
    cfg_path = tmp_path / "run.cfg"
    cfg = ExperimentConfig(
        data_prefix=str(prefix),
        hidden_dims=(16,),
        code_dim=6,
        k_start=3,
        k_end=5,
        stride_epochs=2,
        epochs=4,
        batch_size=16,
        lr0=5e-3,
        seeds=(1, 2),
    )
    save_config(cfg_path, cfg)

    ckpt = tmp_path / "model.tnh"
    code, out, err = run(capsys, "train", "--config", str(cfg_path), "--out", str(ckpt))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5  # four epochs plus the checkpoint path
    assert lines[0].startswith("epoch 0   k 3")
    assert lines[-1] == str(ckpt)
    assert ckpt.exists()

    codes_path = tmp_path / "retrieval.tnc"
    code, out, err = run(
        capsys, "encode", "--checkpoint", str(ckpt),
        "--features", f"{prefix}.retrieval.tfv", "--out", str(codes_path),
    )
    assert code == 0 and out.strip() == str(codes_path)

    qcodes_path = tmp_path / "query.tnc"
    code, out, err = run(
        capsys, "encode", "--checkpoint", str(ckpt),
        "--features", f"{prefix}.query.tfv", "--out", str(qcodes_path),
    )
    assert code == 0

    code, out, err = run(
        capsys, "eval",
        "--codes", str(codes_path), "--labels", f"{prefix}.retrieval.labels",
        "--query-codes", str(qcodes_path), "--query-labels", f"{prefix}.query.labels",
        "--k", "all",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1].startswith("mAP ")
    assert len(lines) == 9 + 1  # 3 classes x 3 queries, then the summary line
    float(lines[-1].split()[1])


def test_compare_command(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "run.cfg", seeds=(1, 2))
    report_path = tmp_path / "report.txt"
    code, out, err = run(capsys, "compare", "--config", str(cfg_path), "--out", str(report_path))
    assert code == 0 and err == ""
    assert "median continuation mAP" in out
    assert report_path.read_text() == out


def test_compare_rejects_eval_k_past_the_retrieval_split_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args, **kwargs: trained.append(args))
    cfg_path = write_tiny_config(tmp_path / "run.cfg", eval_k=5000)
    code, out, err = run(capsys, "compare", "--config", str(cfg_path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith('error: k other than "all" must be an integer in [1, ')
    assert trained == []


@pytest.mark.parametrize("command", ["compare", "train"])
def test_eval_k_zero_is_one_line_error_before_training(tmp_path, capsys, monkeypatch, command):
    from ternhash.harness import cli

    trained = []
    for module in (experiment, cli):
        monkeypatch.setattr(module, "train", lambda *args, **kwargs: trained.append(args))
    cfg_path = write_tiny_config(tmp_path / "run.cfg")
    cfg_path.write_text(cfg_path.read_text().replace("eval_k = all", "eval_k = 0"))
    argv = ["--config", str(cfg_path)] + (["--out", str(tmp_path / "m.tnh")] if command == "train" else [])
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert err == "error: eval_k must be an integer in [1, inf), got 0\n"
    assert trained == [] and not (tmp_path / "m.tnh").exists()


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *gen_args(a))
    run(capsys, *gen_args(b))
    for suffix in (".train.tfv", ".retrieval.tfv", ".query.tfv",
                   ".train.labels", ".retrieval.labels", ".query.labels"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_gen_defaults_are_the_configs_generator(tmp_path, capsys):
    prefix = tmp_path / "gen"
    code, out, err = run(capsys, "gen", "--out", str(prefix))
    assert code == 0 and err == ""
    dataset, _, _ = experiment.seed_setup(ExperimentConfig(seeds=(1,)), 1)
    want = save_splits(tmp_path / "want", dataset)
    assert out.splitlines() == [path.replace(str(tmp_path / "want"), str(prefix)) for path in want]
    for got_path, want_path in zip(out.splitlines(), want):
        assert Path(got_path).read_bytes() == Path(want_path).read_bytes()


@pytest.mark.parametrize("spread", ["nan", "inf"])
def test_gen_rejects_a_spread_that_is_not_finite(tmp_path, capsys, spread):
    code, out, err = run(capsys, *gen_args(tmp_path / "data", spread=spread))
    assert code == 1 and out == ""
    assert err == f"error: spread must be finite and non-negative, got {float(spread)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_a_spread_that_overflows_float32(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *gen_args(tmp_path / "data", per_class=10, input_dim=4, spread=1e300))
    assert caught == []
    assert code == 1 and out == ""
    assert err == "error: spread 1e+300 overflows the float32 features of class 0\n"
    assert list(tmp_path.iterdir()) == []


def test_compare_rejects_a_spread_that_is_not_finite_before_training(tmp_path, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(experiment, "train", lambda *args, **kwargs: trained.append(args))
    cfg_path = write_tiny_config(tmp_path / "run.cfg", spread=float("inf"))
    want = (1, "", "error: spread must be finite and non-negative, got inf\n")
    assert run(capsys, "compare", "--config", str(cfg_path)) == want
    # NaN, the one float that breaks ==, is refused as the config loads
    cfg_path.write_text(cfg_path.read_text().replace("spread = inf", "spread = nan"))
    want = (1, "", "error: spread must be a real number, got nan\n")
    assert run(capsys, "compare", "--config", str(cfg_path)) == want
    assert trained == []


def test_train_is_deterministic(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "run.cfg")
    c1, c2 = tmp_path / "m1.tnh", tmp_path / "m2.tnh"
    code1, out1, _ = run(capsys, "train", "--config", str(cfg_path), "--out", str(c1))
    code2, out2, _ = run(capsys, "train", "--config", str(cfg_path), "--out", str(c2))
    assert code1 == code2 == 0
    assert out1.replace(str(c1), "X") == out2.replace(str(c2), "X")
    assert c1.read_bytes() == c2.read_bytes()


def test_train_seed_override(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "run.cfg")
    c1, c2 = tmp_path / "m1.tnh", tmp_path / "m2.tnh"
    run(capsys, "train", "--config", str(cfg_path), "--out", str(c1))
    run(capsys, "train", "--config", str(cfg_path), "--seed", "2", "--out", str(c2))
    assert c1.read_bytes() != c2.read_bytes()


def test_missing_file_is_one_line_error(tmp_path, capsys):
    code, out, err = run(capsys, "train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "m.tnh"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_bad_magic_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.tnh"
    bad.write_bytes(b"WRONGSTUFF")
    feats = tmp_path / "x.tfv"
    from ternhash.harness import save_features

    save_features(feats, np.ones((2, 8), dtype=np.float32))
    code, out, err = run(capsys, "encode", "--checkpoint", str(bad), "--features", str(feats), "--out", str(tmp_path / "o.tnc"))
    assert code == 1
    assert "bad magic" in err


def test_unknown_config_key_is_reported(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 4\n")
    code, out, err = run(capsys, "compare", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in err


def test_encode_dim_mismatch_is_reported(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "run.cfg")
    ckpt = tmp_path / "m.tnh"
    run(capsys, "train", "--config", str(cfg_path), "--out", str(ckpt))
    from ternhash.harness import save_features

    feats = tmp_path / "wide.tfv"
    save_features(feats, np.ones((2, 9), dtype=np.float32))
    code, out, err = run(capsys, "encode", "--checkpoint", str(ckpt), "--features", str(feats), "--out", str(tmp_path / "o.tnc"))
    assert code == 1
    assert "dim" in err


@pytest.mark.parametrize("kind", ["tnc", "tnh", "tfv"])
def test_truncated_header_is_one_line_error(tmp_path, capsys, kind):
    from ternhash import ContinuationSchedule, Network, NetworkConfig, save_checkpoint
    from ternhash.harness import save_features, save_labels

    ckpt, feats = tmp_path / "m.tnh", tmp_path / "x.tfv"
    save_checkpoint(ckpt, Network.initialize(NetworkConfig(input_dim=8, code_dim=6, num_classes=3)),
                    ContinuationSchedule())
    save_features(feats, np.ones((2, 8), dtype=np.float32))
    save_labels(tmp_path / "x.labels", [{0}])
    cut = {"tnc": b"TNC1\x01\x00", "tnh": ckpt.read_bytes()[:8], "tfv": feats.read_bytes()[:6]}[kind]
    bad = tmp_path / f"cut.{kind}"
    bad.write_bytes(cut)
    if kind == "tnc":
        labels = str(tmp_path / "x.labels")
        argv = ["eval", "--codes", str(bad), "--labels", labels, "--query-codes", str(bad), "--query-labels", labels]
    else:
        argv = ["encode", "--checkpoint", str(ckpt if kind == "tfv" else bad),
                "--features", str(bad if kind == "tfv" else feats), "--out", str(tmp_path / "o.tnc")]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: truncated")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("blob", [b"0\n\n1\n", b"0\n1,,2\n", b"0\n\xff\xfe\n"], ids=["blank", "empty-token", "utf8"])
@pytest.mark.parametrize("which", ["--labels", "--query-labels"])
def test_bad_labels_file_is_one_line_error(tmp_path, capsys, blob, which):
    from ternhash import CodeMatrix, save_codes
    from ternhash.harness import save_labels

    codes, good, bad = tmp_path / "x.tnc", tmp_path / "x.labels", tmp_path / "bad.labels"
    save_codes(codes, CodeMatrix(planes=np.zeros((3, 2, 1), np.uint64), d=6))
    save_labels(good, [{0}, {1}, {2}])
    bad.write_bytes(blob)
    paths = {"--labels": str(good), "--query-labels": str(good), which: str(bad)}
    code, out, err = run(capsys, "eval", "--codes", str(codes), "--labels", paths["--labels"],
                         "--query-codes", str(codes), "--query-labels", paths["--query-labels"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    if b"\xff" in blob:
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


def test_config_that_is_not_utf8_is_one_line_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"classes = 3\n# caf\xe9\n")
    for command in ("train", "compare"):
        code, out, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "m.tnh"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xe9 in position 17")
        assert len(err.strip().splitlines()) == 1


def test_diverging_train_is_one_line_error(tmp_path, capsys):
    ref = load_config(Path(__file__).resolve().parents[1] / "configs" / "reference_d16.cfg")
    save_config(tmp_path / "diverge.cfg", dataclasses.replace(ref, lr0=1e6, epochs=5, stride_epochs=1, per_class=50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape main() as an exception
        code, out, err = run(capsys, "train", "--config", str(tmp_path / "diverge.cfg"),
                             "--out", str(tmp_path / "m.tnh"))
    assert code == 1
    assert out.startswith("epoch 0 ")
    assert err.startswith("error: non-finite training loss at epoch ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.tnh").exists()


@pytest.mark.parametrize(
    "command, key, value, flags, message",
    [
        ("train", "seeds", str(2**64), [],
         "error: seeds[0] must be an integer in [0, 2**64), got 18446744073709551616"),
        ("train", "seeds", "1", ["--seed", str(2**64)],
         "error: seed must be an integer in [0, 2**64), got 18446744073709551616"),
        ("train", "code_dim", str(2**32), [],
         "error: code_dim must be an integer in [1, 2**32), got 4294967296"),
        # fits the header's u32, but its parameters cannot be allocated (about 450 GiB)
        ("train", "hidden_dims", "4000000000", [], "error: Unable to allocate"),
        # a seed that fails after the first has trained would waste that run
        ("compare", "seeds", f"1,{2**64}", [],
         "error: seeds[1] must be an integer in [0, 2**64), got 18446744073709551616"),
        # the message names the key the config file wrote, not the callee's field
        ("compare", "epochs", "0", [], "error: epochs must be an integer in [1, 2**32), got 0"),
        ("compare", "k_start", "4", [], "error: k_start must be odd, got 4"),
    ],
    ids=["seed", "seed-flag", "code_dim", "hidden_dims", "compare-seed", "compare-epochs", "compare-k_start"],
)
def test_train_that_cannot_be_saved_or_allocated_fails_before_any_epoch(
    tmp_path, capsys, monkeypatch, command, key, value, flags, message
):
    base = write_tiny_config(tmp_path / "base.cfg").read_text().splitlines()
    lines = [line for line in base if line.split(" = ")[0] != key] + [f"{key} = {value}"]
    (tmp_path / "big.cfg").write_text("\n".join(lines) + "\n")
    runs = []  # compare trains through experiment.train; train prints each epoch it runs
    monkeypatch.setattr(experiment, "train", lambda *args, **kwargs: runs.append(args))
    argv = ["--out", str(tmp_path / "m.tnh")] if command == "train" else []
    code, out, err = run(capsys, command, "--config", str(tmp_path / "big.cfg"), *flags, *argv)
    assert code == 1
    assert out == "" and runs == []
    assert err.startswith(message)
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.tnh").exists()


def rows_around_a_threshold(net, feats):
    """Float32 rows a few ulps from a point where one hash unit crosses +alpha.

    Many of their hash values lie within float32 rounding of alpha, so a net
    whose parameters differ in the last float32 bit codes some of them
    differently.
    """
    from ternhash import hash_features

    alpha = net.config.activation.alpha
    above = hash_features(net, feats) >= alpha
    unit = int(np.flatnonzero(above.any(axis=0) & ~above.all(axis=0))[0])
    a = feats[np.flatnonzero(~above[:, unit])[0]].astype(np.float64)
    b = feats[np.flatnonzero(above[:, unit])[0]].astype(np.float64)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if hash_features(net, (a + mid * (b - a))[None])[0, unit] >= alpha:
            hi = mid
        else:
            lo = mid
    x = (a + hi * (b - a)).astype(np.float32)
    steps = np.random.default_rng(0).integers(-20, 21, size=(4000, x.size))
    return (x + steps * np.spacing(x)).astype(np.float32)


def test_train_then_encode_matches_the_in_memory_network(tmp_path, capsys):
    from ternhash import train
    from ternhash.codes import save_codes
    from ternhash.harness import load_config, load_features, save_features, seed_setup, single_labels

    cfg_path = write_tiny_config(tmp_path / "run.cfg")
    ckpt = tmp_path / "m.tnh"
    assert run(capsys, "train", "--config", str(cfg_path), "--out", str(ckpt))[0] == 0

    cfg = load_config(cfg_path)
    dataset, net_cfg, train_cfg = seed_setup(cfg, cfg.seeds[0])
    feats, label_sets = dataset.subset(dataset.train_ids)
    net, _ = train(net_cfg, train_cfg, feats, single_labels(label_sets))

    rows = tmp_path / "rows.tfv"
    save_features(rows, np.concatenate([dataset.features, rows_around_a_threshold(net, dataset.features)]))
    assert run(capsys, "encode", "--checkpoint", str(ckpt), "--features", str(rows), "--out", str(tmp_path / "cli.tnc"))[0] == 0
    save_codes(tmp_path / "mem.tnc", experiment.encode_dataset(net, load_features(rows)))
    assert (tmp_path / "cli.tnc").read_bytes() == (tmp_path / "mem.tnc").read_bytes()


def test_divergence_in_an_epochs_last_step_is_one_line_error(tmp_path, capsys):
    cfg_path = write_tiny_config(tmp_path / "run.cfg", per_class=11, batch_size=64, lr0=1e308)
    dataset, _, _ = experiment.seed_setup(load_config(cfg_path), 1)
    assert len(dataset.train_ids) == 15  # one batch per epoch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "train", "--config", str(cfg_path), "--out", str(tmp_path / "m.tnh"))
    assert code == 1 and out == ""
    assert err.startswith("error: non-finite training loss at epoch 0: EpochLog(epoch=0, k=3, lr=1e+308, loss=")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.tnh").exists()


def test_encode_of_features_that_overflow_the_network_is_one_line_error(tmp_path, capsys):
    from ternhash import ContinuationSchedule, Network, NetworkConfig, save_checkpoint
    from ternhash.harness import save_features

    cfg = NetworkConfig(input_dim=64, hidden_dims=(256, 256), code_dim=16, num_classes=10, seed=2)
    net = Network(config=cfg, flat=Network.initialize(cfg).flat.astype(np.float32))
    save_checkpoint(tmp_path / "m.tnh", net, ContinuationSchedule())
    feats = np.zeros((40, 64), dtype=np.float32)
    feats[7] = 3e38  # finite, but the first layers overflow float32
    save_features(tmp_path / "x.tfv", feats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "encode", "--checkpoint", str(tmp_path / "m.tnh"),
                             "--features", str(tmp_path / "x.tfv"), "--out", str(tmp_path / "o.tnc"))
    assert caught == []
    assert code == 1 and out == ""
    assert err == "error: the hash layer of row 7 is not finite: its features overflow the network\n"
    assert not (tmp_path / "o.tnc").exists()


@pytest.mark.parametrize("command", ["compare", "train"])
def test_an_alpha_that_float32_rounds_to_zero_fails_before_training(tmp_path, capsys, monkeypatch, command):
    from ternhash.harness import cli

    trained = []
    monkeypatch.setattr(cli if command == "train" else experiment, "train", lambda *a, **kw: trained.append(a))
    cfg_path = write_tiny_config(tmp_path / "run.cfg", alpha=1e-320)
    argv = ["--out", str(tmp_path / "m.tnh")] if command == "train" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, "--config", str(cfg_path), *argv)
    assert caught == [] and trained == []
    assert code == 1 and out == ""
    assert err == "error: alpha 1e-320 rounds to 0 in float32, in which training computes\n"


CONTRACT_CONFIG = dict(classes=3, per_class=20, input_dim=4, hidden_dims=(8,), code_dim=4, k_start=3, k_end=5,
                       stride_epochs=1, epochs=2, batch_size=16, seeds=(1,))
# None drops the key; 1e-320 is subnormal in float64 and 0 in float32
CONTRACT_VALUES = (None, "0", "-1", "1e300", "nan", "inf", str(2**64), "1e-320")
# wall-time bound per contract case, so a run that no bound keeps finite fails instead of hanging the session;
# the slowest case takes well under a second
CONTRACT_SECONDS = 5.0


def contract_break(capsys, *argv):
    """None when the CLI keeps its contract on argv, else what it did.

    The contract: exit 0 and a silent stderr, or exit 1 and one `error:` line,
    or argparse's exit 2 for a flag value that does not parse; never a
    warning. Any other exception propagates, so a traceback fails the test,
    and so does a run longer than CONTRACT_SECONDS.
    """
    def overrun(signum, frame):  # pytest.fail raises past main()'s except clause, which would catch a TimeoutError
        pytest.fail(f"{argv} ran past {CONTRACT_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, CONTRACT_SECONDS)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code, _, err = run(capsys, *argv)
            except SystemExit as exc:
                code, err = exc.code, capsys.readouterr().err
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    ok = (code, err) == (0, "") or (code == 1 and err.startswith("error: ") and err.count("\n") == 1)
    ok = ok or (code == 2 and ": invalid " in err.splitlines()[-1])
    return None if ok and not caught else (argv, code, err, [str(w.message) for w in caught])


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
@pytest.mark.parametrize("command", ["compare", "train"])
def test_every_config_value_runs_or_is_one_line_error(tmp_path, capsys, command, key):
    base = write_tiny_config(tmp_path / "base.cfg", **CONTRACT_CONFIG).read_text().splitlines()
    broken = []
    for value in CONTRACT_VALUES:
        lines = [line for line in base if line.split(" = ")[0] != key]
        if value is not None:
            lines.append(f"{key} = {value}")
        (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
        argv = ["--out", str(tmp_path / "m.tnh")] if command == "train" else []
        broken.append(contract_break(capsys, command, "--config", str(tmp_path / "run.cfg"), *argv))
    assert broken == [None] * len(broken)


@pytest.mark.parametrize("flag", [*GENERATOR_KEYS, "seed"])
def test_every_gen_flag_value_runs_or_is_one_line_error(tmp_path, capsys, flag):
    base = dict(classes="3", per_class="20", input_dim="8")
    broken = []
    for value in CONTRACT_VALUES[1:]:
        given = {**base, flag: value}
        argv = [arg for key, v in given.items() for arg in (f"--{key.replace('_', '-')}", v)]
        broken.append(contract_break(capsys, "gen", *argv, "--out", str(tmp_path / "data")))
    assert broken == [None] * len(broken)


@pytest.mark.parametrize(("flag", "value"), [
    *((key, value) for key in ("classes", "per_class", "input_dim") for value in ("0", "-1", str(2**64))),
    ("seed", "-1"),
])
def test_gen_names_the_flag_out_of_range(tmp_path, capsys, flag, value):
    given = {"classes": "3", "per_class": "20", "input_dim": "8", flag: value}
    argv = [arg for key, v in given.items() for arg in (f"--{key.replace('_', '-')}", v)]
    code, _, err = run(capsys, "gen", *argv, "--out", str(tmp_path / "data"))
    assert code == 1 and err.startswith(f"error: {flag} ") and err.count("\n") == 1, err


def tiny_files(tmp_path):
    """A valid .tnh (2 -> 3 -> 4 -> 2 net), .tfv (3 x 2), .tnc (3 codes, d = 6) and .labels (3 rows)."""
    from ternhash import (CodeMatrix, ContinuationSchedule, Network, NetworkConfig, TernaryCode, pack, save_checkpoint,
                          save_codes)
    from ternhash.harness import save_features, save_labels

    paths = {kind: tmp_path / f"x.{kind}" for kind in ("tnh", "tfv", "tnc", "labels")}
    net = Network.initialize(NetworkConfig(input_dim=2, hidden_dims=(3,), code_dim=4, num_classes=2))
    save_checkpoint(paths["tnh"], net, ContinuationSchedule())
    save_features(paths["tfv"], np.array([[0.5, -1.0], [2.0, 0.0], [-0.25, 3.0]], dtype=np.float32))
    trits = [[1, 0, -1, 0, 1, 1], [0, 0, 0, 0, 0, 0], [-1, -1, 1, 0, 0, 1]]
    save_codes(paths["tnc"], CodeMatrix.of([pack(TernaryCode(t)) for t in trits]))
    save_labels(paths["labels"], [{0}, {1}, {0, 1}])
    return paths


def corruptions(blob):
    """Every truncation, each first-40 byte overwritten by each of a few telling bytes, and one appended byte."""
    yield from (blob[:cut] for cut in range(len(blob)))
    for at in range(min(40, len(blob))):
        for byte in b"\x00\x01\x7f\x80\xff,\n- ":
            yield blob[:at] + bytes([byte]) + blob[at + 1 :]
    yield blob + b"1"


@pytest.mark.parametrize("kind", ["tnh", "tfv", "tnc", "labels"])
def test_every_corrupt_file_runs_or_is_one_line_error(tmp_path, capsys, kind):
    paths = tiny_files(tmp_path)
    bad = tmp_path / f"bad.{kind}"
    files = {**{k: str(p) for k, p in paths.items()}, kind: str(bad)}
    if kind in ("tnh", "tfv"):
        argv = ["encode", "--checkpoint", files["tnh"], "--features", files["tfv"], "--out", str(tmp_path / "o.tnc")]
    else:  # the corrupt file in both roles
        argv = ["eval", "--codes", files["tnc"], "--labels", files["labels"],
                "--query-codes", files["tnc"], "--query-labels", files["labels"]]
    broken = []
    for blob in corruptions(paths[kind].read_bytes()):
        bad.write_bytes(blob)
        broken.append(contract_break(capsys, *argv))
    assert broken == [None] * len(broken)


def test_every_eval_k_runs_or_is_one_line_error(tmp_path, capsys):
    paths = {kind: str(path) for kind, path in tiny_files(tmp_path).items()}
    files = ["--codes", paths["tnc"], "--labels", paths["labels"],
             "--query-codes", paths["tnc"], "--query-labels", paths["labels"]]
    n, broken = 3, []  # n: the codes in the index
    for k in ("0", "-1", "1e300", "nan", str(2**64), str(n), str(n + 1), "all"):
        for normalization in ("found", "capped"):
            broken.append(contract_break(capsys, "eval", *files, "--k", k, "--normalization", normalization))
    assert broken == [None] * len(broken)


def test_eval_k_that_is_not_an_integer_names_the_flag(tmp_path, capsys):
    paths = {kind: str(path) for kind, path in tiny_files(tmp_path).items()}
    files = ["--codes", paths["tnc"], "--labels", paths["labels"],
             "--query-codes", paths["tnc"], "--query-labels", paths["labels"]]
    for k in ("abc", "1.5"):
        assert run(capsys, "eval", *files, "--k", k) == (1, "", f"error: k must be \"all\" or an integer, got '{k}'\n")
    # a config file names its key instead
    config = tmp_path / "x.cfg"
    config.write_text("eval_k = abc\n")
    assert run(capsys, "compare", "--config", str(config)) == (1, "", "error: bad value for eval_k: 'abc'\n")
