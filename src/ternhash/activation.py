"""Smoothed ternary activation, its hard limit, and the sharpening schedule.

The smooth function tanh((x/alpha)^k) interpolates, as the odd exponent k
grows, toward a three-level quantizer that maps x to +1 at x >= alpha, -1 at
x <= -alpha, and 0 in between. Training sharpens k stepwise; testing uses the
hard quantizer directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _int_in(name: str, value, lo: int, hi: int | float = math.inf) -> int:
    """value as an int if it is an int or numpy integer, not a bool, in [lo, hi); else a ValueError naming it."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= int(value) < hi:
        return int(value)
    top = f"2**{hi.bit_length() - 1}" if hi != math.inf and hi >= 2**32 and hi & (hi - 1) == 0 else hi
    raise ValueError(f"{name} must be an integer in [{lo}, {top}), got {value!r}")


def _check_alpha(alpha) -> None:
    if isinstance(alpha, bool) or not (isinstance(alpha, (int, float)) and math.isfinite(alpha)) or alpha <= 0:
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")


@dataclass(frozen=True)
class ActivationConfig:
    """Scale/threshold alpha and odd sharpness exponent k."""

    alpha: float = 0.5
    k: int = 3

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.alpha <= 2.0**-150:  # float32 rounds it to 0, and a float32 network divides by it
            raise ValueError(f"alpha {self.alpha!r} rounds to 0 in float32, in which training computes")
        object.__setattr__(self, "k", _int_in("k", self.k, 3))
        if self.k % 2 == 0:
            raise ValueError(f"k must be odd, got {self.k}")


@dataclass(frozen=True)
class ContinuationSchedule:
    """Piecewise-constant schedule stepping k by 2 every stride_epochs, clamped at k_end."""

    k_start: int = 3
    k_end: int = 11
    stride_epochs: int = 30
    total_epochs: int = 150

    def __post_init__(self):
        # each field is below 2**32: a checkpoint header stores it as a u32
        for name in ("k_start", "k_end"):
            object.__setattr__(self, name, _int_in(name, getattr(self, name), 3, 2**32))
            if getattr(self, name) % 2 == 0:
                raise ValueError(f"{name} must be odd, got {getattr(self, name)}")
        if self.k_start > self.k_end:
            raise ValueError(f"k_start ({self.k_start}) must not exceed k_end ({self.k_end})")
        for name in ("stride_epochs", "total_epochs"):
            object.__setattr__(self, name, _int_in(name, getattr(self, name), 1, 2**32))


def _as_finite(x) -> np.ndarray:
    # float32 stays float32, so a float32 network's activations do too.
    arr = np.asarray(x)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input must be finite")
    return arr


def _smooth_forward(u: np.ndarray, k: int):
    """(tanh(u^k), log|u|) for odd k, u^k as exp(k*log|u|) signed like u: exactly +-0 at u = 0, an overflow
    to inf, which tanh maps to the correct +-1 limit. _smooth_backward reuses both."""
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(u))
    return np.tanh(np.copysign(np.exp(k * log_mag), u)), log_mag


def _smooth_backward(t: np.ndarray, log_mag: np.ndarray, k: int, alpha: float) -> np.ndarray:
    """d tanh((x/alpha)^k)/dx from _smooth_forward's outputs; exactly 0 where sech^2 is."""
    sech2 = 1.0 - t**2
    poly = (k / alpha) * np.exp((k - 1) * log_mag)
    with np.errstate(invalid="ignore"):
        return np.where(sech2 > 0.0, sech2 * poly, 0.0)


def smooth_ternary(x, cfg: ActivationConfig):
    """tanh((x/alpha)^k), the differentiable surrogate of the hard quantizer.

    Odd in x, strictly inside (-1, 1) until float saturation. Accepts scalars
    or arrays; non-finite input is rejected.
    """
    arr = _as_finite(x)
    out, _ = _smooth_forward(arr / cfg.alpha, cfg.k)
    return float(out) if arr.ndim == 0 else out


def smooth_ternary_grad(x, cfg: ActivationConfig):
    """Analytic derivative: (1 - tanh^2(u^k)) * k * u^(k-1) / alpha, u = x/alpha.

    Nonnegative everywhere (k odd makes u^(k-1) even-powered) and 0 at x = 0.
    Where tanh has saturated, the sech^2 factor kills the polynomial one, so
    the product is taken as exactly 0.
    """
    arr = _as_finite(x)
    out = _smooth_backward(*_smooth_forward(arr / cfg.alpha, cfg.k), cfg.k, cfg.alpha)
    return float(out) if arr.ndim == 0 else out


def hard_ternary(x, alpha: float):
    """Three-level quantizer: +1 at x >= alpha, -1 at x <= -alpha, else 0.

    Boundaries are inclusive. Scalar input returns an int, arrays return int8.
    The result equals the comparison in float64, so float32 input is held
    against alpha itself, not against alpha rounded to float32: it is compared
    in float32 against the smallest float32 >= alpha, which no float32 falls
    between.
    """
    _check_alpha(alpha)
    arr = _as_finite(x)
    bound = _threshold(arr.dtype, alpha)
    out = np.asarray(arr >= bound).view(np.int8) - np.asarray(arr <= -bound).view(np.int8)
    return int(out) if arr.ndim == 0 else out


def _threshold(dtype, alpha: float):
    """The bound that values of dtype are held against, so that v >= bound is v >= alpha in float64.

    alpha itself for float64; for float32, the smallest float32 >= alpha, which
    no float32 falls between.
    """
    alpha = float(alpha)
    if dtype != np.float32:
        return alpha
    with np.errstate(over="ignore"):
        bound = np.float32(alpha)
    # float(bound), not bound: comparing the float32 scalar with a Python float would run in float32
    if float(bound) < alpha:
        bound = np.nextafter(bound, np.float32(np.inf))
    return bound


def schedule_k(epoch: int, sched: ContinuationSchedule) -> int:
    """Exponent in force at a given epoch: k_start + 2*floor(epoch/stride), clamped at k_end."""
    epoch = _int_in("epoch", epoch, 0, sched.total_epochs)
    return min(sched.k_end, sched.k_start + 2 * (epoch // sched.stride_epochs))
