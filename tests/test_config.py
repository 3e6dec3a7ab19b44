import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternhash.harness import (
    ExperimentConfig,
    gen_synthetic,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)
from ternhash.harness.config import GENERATOR_KEYS


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


NON_DEFAULT = dict(
    classes=4,
    per_class=60,
    input_dim=32,
    spread=0.15,
    query_fraction=0.2,
    train_fraction=0.75,
    hidden_dims=(64, 32, 16),
    code_dim=8,
    alpha=0.25,
    k_start=2,
    k_end=9,
    stride_epochs=7,
    epochs=21,
    batch_size=32,
    lr0=3e-3,
    momentum=0.5,
    weight_decay=2.5e-5,
    eval_k=25,
    seeds=(7, 0, 8),
)


@pytest.mark.parametrize("mode", ["synthetic", "file"])
def test_roundtrip_of_every_field(mode):
    """Every field but the other mode's is non-default, so a field the parser drops fails here."""
    default = ExperimentConfig()
    values = dict(NON_DEFAULT, data_prefix="runs/every field")
    assert values.keys() == {f.name for f in fields(ExperimentConfig)}
    assert all(value != getattr(default, key) for key, value in values.items())
    if mode == "file":
        values = {key: value for key, value in values.items() if key not in GENERATOR_KEYS}
    else:
        del values["data_prefix"]
    cfg = ExperimentConfig(**values)
    text = serialize_config(cfg)
    assert len(text.splitlines()) == len(values)
    parsed = parse_config(text)
    assert parsed == cfg
    assert [type(v) for v in vars(parsed).values()] == [type(v) for v in vars(cfg).values()]


def test_file_mode_construction_rejects_generator_fields_off_their_defaults():
    for key in GENERATOR_KEYS:
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(data_prefix="x", **{key: NON_DEFAULT[key]})
        assert str(exc.value) == f"data_prefix excludes synthetic-generator keys: {[key]}"
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(data_prefix="x", train_fraction=0.25, classes=5)
    assert str(exc.value) == "data_prefix excludes synthetic-generator keys: ['classes', 'train_fraction']"
    # the parser still rejects a generator key that is present, even at its default
    with pytest.raises(ValueError, match="data_prefix excludes"):
        parse_config(f"data_prefix = x\nclasses = {ExperimentConfig().classes}")


@given(file_mode=st.booleans(), changed=st.sets(st.sampled_from(sorted(NON_DEFAULT))))
def test_every_constructible_config_round_trips(file_mode, changed):
    values = {key: NON_DEFAULT[key] for key in changed}
    if file_mode:
        values["data_prefix"] = "runs/any"
    if file_mode and changed & set(GENERATOR_KEYS):
        with pytest.raises(ValueError, match="data_prefix excludes synthetic-generator keys"):
            ExperimentConfig(**values)
        return
    cfg = ExperimentConfig(**values)
    assert parse_config(serialize_config(cfg)) == cfg


@given(st.text())
def test_every_data_prefix_that_constructs_round_trips(prefix):
    try:
        cfg = ExperimentConfig(data_prefix=prefix)
    except ValueError as exc:
        assert "#" in prefix or prefix != prefix.strip() or len(prefix.splitlines()) > 1, exc
        return
    assert parse_config(serialize_config(cfg)) == cfg


def test_generator_keys_are_gen_synthetics_parameters():
    params = inspect.signature(gen_synthetic).parameters
    assert set(GENERATOR_KEYS) == params.keys() - {"seed"}
    assert set(GENERATOR_KEYS) <= {f.name for f in fields(ExperimentConfig)}


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
    for seeds in ((-1,), (1, 2**64)):
        with pytest.raises(ValueError, match=re.escape(f"seeds must be integers in [0, 2**64), got {seeds}")):
            ExperimentConfig(seeds=seeds)
    assert ExperimentConfig(seeds=(0, 2**64 - 1)).seeds == (0, 2**64 - 1)
    # parse_config cuts each line at "#", strips it and splits the text at line breaks, and reads a str:
    # none of these would read back
    for prefix in ("runs/a#b", " runs/x ", "runs/x\n", "a\rb", "a\u2028b", Path("runs/x")):
        with pytest.raises(ValueError, match="data_prefix must be a str with no '#', line break"):
            ExperimentConfig(data_prefix=prefix)
    # eval_k is checked against the retrieval split by seed_setup (tests/test_experiment.py), not here
    for eval_k in (0, "some", True):
        assert ExperimentConfig(eval_k=eval_k).eval_k == eval_k


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
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    d16 = load_config(config_dir / "reference_d16.cfg")
    d32 = load_config(config_dir / "reference_d32.cfg")
    assert d16.code_dim == 16
    assert d32.code_dim == 32
    assert d16.seeds == d32.seeds == (1, 2, 3)
    assert {**d16.__dict__, "code_dim": 32} == d32.__dict__
