import pytest

from ternhash.harness import (
    ExperimentConfig,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)


def test_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.data_prefix is None
    assert cfg.hidden_dims == (256, 256)
    assert cfg.eval_k == "all"
    assert cfg.seeds == (1, 2, 3)


def test_roundtrip_synthetic_mode():
    cfg = ExperimentConfig(
        classes=4,
        per_class=60,
        input_dim=32,
        spread=0.15,
        hidden_dims=(64,),
        code_dim=8,
        lr0=3e-3,
        eval_k=25,
        seeds=(7, 8),
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_roundtrip_file_mode():
    cfg = ExperimentConfig(data_prefix="runs/demo", epochs=30, seeds=(0,))
    text = serialize_config(cfg)
    assert "data_prefix = runs/demo" in text
    assert "classes" not in text
    assert "spread" not in text
    assert parse_config(text) == cfg


def test_comments_and_blank_lines():
    cfg = parse_config(
        """
        # a comment line
        code_dim = 32   # trailing comment

        epochs = 10
        """
    )
    assert cfg.code_dim == 32
    assert cfg.epochs == 10


def test_value_forms():
    assert parse_config("hidden_dims = 128").hidden_dims == (128,)
    assert parse_config("hidden_dims = ").hidden_dims == ()
    assert parse_config("seeds = 5").seeds == (5,)
    assert parse_config("eval_k = 100").eval_k == 100
    assert parse_config("eval_k = all").eval_k == "all"
    assert parse_config("lr0 = 1e-2").lr0 == 0.01
    assert parse_config("spread = 0.5").spread == 0.5


def test_parse_errors():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("epochs = 5\nepochs = 6")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("learning_rate = 0.1")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("epochs = fast")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("seeds = 1,x")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("epochs")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("= 5")
    with pytest.raises(ValueError, match="data_prefix excludes"):
        parse_config("data_prefix = d\nclasses = 5")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=(1, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=(-1,))
    with pytest.raises(ValueError):
        ExperimentConfig(eval_k=0)
    with pytest.raises(ValueError):
        ExperimentConfig(eval_k="some")


def test_file_roundtrip(tmp_path):
    cfg = ExperimentConfig(classes=3, per_class=30, code_dim=8, seeds=(4,))
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_config_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"classes = 3\n# caf\xe9\n")
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        want = f"{path}: {exc}"
    with pytest.raises(ValueError) as got:
        load_config(path)
    assert str(got.value) == want
    assert type(got.value) is ValueError


def test_reference_configs_parse():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parents[1] / "configs"
    d16 = load_config(config_dir / "reference_d16.cfg")
    d32 = load_config(config_dir / "reference_d32.cfg")
    assert d16.code_dim == 16
    assert d32.code_dim == 32
    assert d16.seeds == d32.seeds == (1, 2, 3)
    assert {**d16.__dict__, "code_dim": 32} == d32.__dict__
