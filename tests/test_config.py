import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
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
    k_start=5,
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
    for seeds in ((), (1, 1)):
        with pytest.raises(ValueError, match=re.escape(f"seeds must be non-empty and distinct, got {seeds}")):
            ExperimentConfig(seeds=seeds)
    for seeds, message in (((-1,), "seeds[0] must be an integer in [0, 2**64), got -1"),
                           ((1, 2**64), "seeds[1] must be an integer in [0, 2**64), got 18446744073709551616"),
                           ((True,), "seeds[0] must be an integer in [0, 2**64), got True"),
                           ((1, np.bool_(False)), "seeds[1] must be an integer in [0, 2**64), got np.False_"),
                           ((1.0,), "seeds[0] must be an integer in [0, 2**64), got 1.0")):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(seeds=seeds)
        assert str(exc.value) == message
    assert ExperimentConfig(seeds=(0, 2**64 - 1)).seeds == (0, 2**64 - 1)
    # every other integer field is held to the range of the callee seed_setup passes it to, under its own name
    for over, message in (({"classes": True}, "classes must be an integer in [1, 2**63), got True"),
                          ({"classes": 2.0}, "classes must be an integer in [1, 2**63), got 2.0"),
                          ({"per_class": 0}, "per_class must be an integer in [1, 2**63), got 0"),
                          ({"input_dim": 2**63}, "input_dim must be an integer in [1, 2**63), got 9223372036854775808"),
                          ({"hidden_dims": (4, 0)}, "hidden_dims[1] must be an integer in [1, 2**32), got 0"),
                          ({"hidden_dims": (np.bool_(True),)},
                           "hidden_dims[0] must be an integer in [1, 2**32), got np.True_"),
                          ({"code_dim": 2**32}, "code_dim must be an integer in [1, 2**32), got 4294967296"),
                          ({"k_start": 1}, "k_start must be an integer in [3, 2**32), got 1"),
                          ({"k_end": 2**32 + 1}, "k_end must be an integer in [3, 2**32), got 4294967297"),
                          ({"stride_epochs": False}, "stride_epochs must be an integer in [1, 2**32), got False"),
                          ({"epochs": 0}, "epochs must be an integer in [1, 2**32), got 0"),
                          ({"batch_size": 1.5}, "batch_size must be an integer in [1, inf), got 1.5")):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**over)
        assert str(exc.value) == message
    # numpy integers are stored as ints, so the config compares, prints and serializes as the int one does
    numpy_cfg = ExperimentConfig(classes=np.int64(3), per_class=np.uint16(30), hidden_dims=(np.int32(8),),
                                 code_dim=np.int64(6), k_end=np.int8(5), epochs=np.uint8(4), seeds=(np.int64(1),))
    int_cfg = ExperimentConfig(classes=3, per_class=30, hidden_dims=(8,), code_dim=6, k_end=5, epochs=4, seeds=(1,))
    assert numpy_cfg == int_cfg and repr(numpy_cfg) == repr(int_cfg)
    assert serialize_config(numpy_cfg) == serialize_config(int_cfg)
    assert parse_config(serialize_config(numpy_cfg)) == numpy_cfg
    # parse_config cuts each line at "#", strips it and splits the text at line breaks, and reads a str:
    # none of these would read back
    for prefix in ("runs/a#b", " runs/x ", "runs/x\n", "a\rb", "a\u2028b", Path("runs/x")):
        with pytest.raises(ValueError, match="data_prefix must be a str with no '#', line break"):
            ExperimentConfig(data_prefix=prefix)
    # eval_k is "all" or an int >= 1 here; seed_setup checks it against the retrieval split (tests/test_experiment.py)
    for over, message in (({"eval_k": 0}, "eval_k must be an integer in [1, inf), got 0"),
                          ({"eval_k": "ALL"}, "eval_k must be an integer in [1, inf), got 'ALL'"),
                          ({"eval_k": True}, "eval_k must be an integer in [1, inf), got True"),
                          ({"eval_k": 2.0}, "eval_k must be an integer in [1, inf), got 2.0"),
                          ({"alpha": True}, "alpha must be a real number, got True"),
                          ({"lr0": "0.1"}, "lr0 must be a real number, got '0.1'"),
                          ({"spread": float("nan")}, "spread must be a real number, got nan"),
                          ({"momentum": np.float32("nan")}, "momentum must be a real number, got np.float32(nan)"),
                          ({"weight_decay": None}, "weight_decay must be a real number, got None"),
                          ({"train_fraction": np.bool_(True)}, "train_fraction must be a real number, got np.True_")):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**over)
        assert str(exc.value) == message
    # a real's range stays with the callee seed_setup passes it to, so an infinite alpha constructs
    assert repr(ExperimentConfig(alpha=np.float64("inf"), eval_k=np.int64(5))) == repr(
        ExperimentConfig(alpha=float("inf"), eval_k=5))


# every scalar field, drawn from the types a caller may pass: Python and numpy numbers, bools, NaN, inf and text
SCALAR_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "data_prefix" and not isinstance(f.default, tuple)]
SCALARS = st.one_of(
    st.integers(-2**70, 2**70), st.floats(), st.booleans(), st.just(np.bool_(False)),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.text(max_size=4), st.sampled_from(["all", "ALL", "1", "0.5"]),
)


@given(st.dictionaries(st.sampled_from(SCALAR_KEYS), SCALARS, max_size=3))
def test_every_scalar_key_is_stored_as_its_file_type(values):
    try:
        cfg = ExperimentConfig(**values)
    except ValueError:
        return
    assert parse_config(serialize_config(cfg)) == cfg
    as_python = {key: value.item() if isinstance(value, np.generic) else value for key, value in values.items()}
    assert repr(cfg) == repr(ExperimentConfig(**as_python))


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
