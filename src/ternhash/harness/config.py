"""Experiment configuration: a flat text format of `key = value` lines.

`#` starts a comment, blank lines are skipped, unknown keys are errors. A
config either names a dataset file prefix (data_prefix) or describes a
synthetic generator; mixing the two is an error. parse(serialize(cfg))
reproduces cfg exactly.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .._fileio import read_text
from ..activation import _int_in

# the synthetic generator's keys, named as gen_synthetic's parameters; its seed comes from `seeds`
GENERATOR_KEYS = ("classes", "per_class", "input_dim", "spread", "query_fraction", "train_fraction")
# [lo, hi) of each integer field but hidden_dims and seeds: the bounds of gen_synthetic, NetworkConfig,
# ContinuationSchedule (epochs is its total_epochs) and TrainConfig, the callees seed_setup passes them to
_INT_BOUNDS = {"classes": (1, 2**63), "per_class": (1, 2**63), "input_dim": (1, 2**63), "code_dim": (1, 2**32),
               "k_start": (3, 2**32), "k_end": (3, 2**32), "stride_epochs": (1, 2**32), "epochs": (1, 2**32),
               "batch_size": (1, math.inf)}


def _real(name: str, value) -> float:
    """value as a float if it is an int, float or numpy number, not a bool, and not NaN; else a ValueError naming it."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past float's range
            if not math.isnan(real := float(value)):
                return real
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Construction stores each integer field as an int in its range, each real as a float and eval_k as "all"
    or an int >= 1, and checks data_prefix; seed_setup checks the rest: the reals' ranges, k's parity and order,
    and eval_k against the retrieval split."""
    # dataset: file mode (data_prefix) or synthetic generator
    data_prefix: str | None = None
    classes: int = 10
    per_class: int = 500
    input_dim: int = 128
    spread: float = 0.3
    query_fraction: float = 0.1
    train_fraction: float = 0.5
    # model
    hidden_dims: tuple = (256, 256)
    code_dim: int = 16
    # activation and sharpening schedule
    alpha: float = 0.5
    k_start: int = 3
    k_end: int = 11
    stride_epochs: int = 30
    # optimizer
    epochs: int = 150
    batch_size: int = 64
    lr0: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    # evaluation
    eval_k: int | str = "all"
    seeds: tuple = (1, 2, 3)

    def __post_init__(self):
        for name, (lo, hi) in _INT_BOUNDS.items():
            object.__setattr__(self, name, _int_in(name, getattr(self, name), lo, hi))
        for name in _REAL_KEYS:
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not (isinstance(self.eval_k, str) and self.eval_k == "all"):
            object.__setattr__(self, "eval_k", _int_in("eval_k", self.eval_k, 1))
        hidden = tuple(_int_in(f"hidden_dims[{i}]", v, 1, 2**32) for i, v in enumerate(self.hidden_dims))
        object.__setattr__(self, "hidden_dims", hidden)
        object.__setattr__(self, "seeds", tuple(_int_in(f"seeds[{i}]", s, 0, 2**64) for i, s in enumerate(self.seeds)))
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be non-empty and distinct, got {self.seeds!r}")
        if self.data_prefix is not None:
            prefix = self.data_prefix
            if not isinstance(prefix, str) or "#" in prefix or prefix != prefix.strip() or len(prefix.splitlines()) > 1:
                raise ValueError(f"data_prefix must be a str with no '#', line break or outer whitespace: {prefix!r}")
            synth = [key for key in GENERATOR_KEYS if getattr(self, key) != _DEFAULTS[key]]
            if synth:
                raise ValueError(f"data_prefix excludes synthetic-generator keys: {sorted(synth)}")


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_REAL_KEYS = tuple(key for key, default in _DEFAULTS.items() if isinstance(default, float))


def parse_eval_k(raw: str):
    """eval_k's value, in a config file or `ternhash eval --k`: "all" or an int."""
    if raw == "all":
        return "all"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f'k must be "all" or an integer, got {raw!r}') from None


def _parse_value(key: str, raw: str):
    """The value of one key, of its default's type: an int or float, or a comma-separated int tuple."""
    if key not in _DEFAULTS:
        raise ValueError(f"unknown key: {key}")
    default = _DEFAULTS[key]
    try:
        if key == "data_prefix":
            return raw
        if key == "eval_k":
            return parse_eval_k(raw)
        if key == "hidden_dims" and not raw:
            return ()
        if isinstance(default, tuple):
            return tuple(int(tok) for tok in raw.split(","))
        return type(default)(raw)
    except ValueError:
        raise ValueError(f"bad value for {key}: {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into an ExperimentConfig; missing keys take defaults."""
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key}")
        seen[key] = _parse_value(key, raw)
    if "data_prefix" in seen:
        synth = seen.keys() & set(GENERATOR_KEYS)
        if synth:
            raise ValueError(f"data_prefix excludes synthetic-generator keys: {sorted(synth)}")
    return ExperimentConfig(**seen)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render every field as a `key = value` line (dataset-mode keys only for the active mode)."""
    skip = GENERATOR_KEYS if cfg.data_prefix is not None else ("data_prefix",)
    lines = [
        f"{f.name} = {_format_value(getattr(cfg, f.name))}"
        for f in fields(cfg)
        if f.name not in skip
    ]
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    return parse_config(read_text(path))


def save_config(path, cfg: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
