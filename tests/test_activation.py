import math
import re

import numpy as np
import pytest

from ternhash import (
    ActivationConfig,
    CodeMatrix,
    ContinuationSchedule,
    TernaryCode,
    hard_ternary,
    pack,
    schedule_k,
    smooth_ternary,
    smooth_ternary_grad,
)
from ternhash.activation import _threshold
from ternhash.codes import _pack_planes

GRID = np.arange(-200, 201) / 100.0
KS = (3, 5, 7, 9, 11)


def test_config_validation():
    ActivationConfig(0.5, 3)
    with pytest.raises(ValueError):
        ActivationConfig(0.0, 3)
    with pytest.raises(ValueError):
        ActivationConfig(-1.0, 3)
    with pytest.raises(ValueError):
        ActivationConfig(math.inf, 3)
    with pytest.raises(ValueError):
        ActivationConfig(0.5, 4)
    with pytest.raises(ValueError):
        ActivationConfig(0.5, 1)
    # a bool is neither a real alpha nor an integer k; a numpy integer k is stored as an int
    for alpha in (True, False):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be a positive finite real, got {alpha!r}")):
            ActivationConfig(alpha, 3)
    for k, message in ((True, "k must be an integer in [3, inf), got True"),
                       (np.bool_(True), "k must be an integer in [3, inf), got np.True_"),
                       (5.0, "k must be an integer in [3, inf), got 5.0"),
                       (np.int64(4), "k must be odd, got 4")):
        with pytest.raises(ValueError) as exc:
            ActivationConfig(0.5, k)
        assert str(exc.value) == message
    cfg = ActivationConfig(0.5, np.int64(5))
    assert type(cfg.k) is int and repr(cfg) == repr(ActivationConfig(0.5, 5))


def test_config_rejects_an_alpha_that_float32_rounds_to_zero():
    # a float32 network divides by float32(alpha); the smallest float32 subnormal is about 1.4e-45
    for alpha in (1e-320, 7e-46):
        with pytest.raises(ValueError, match=rf"^alpha {alpha!r} rounds to 0 in float32, in which training computes$"):
            ActivationConfig(alpha, 3)
    assert np.float32(ActivationConfig(1e-45, 3).alpha) > 0


def test_smooth_ternary_values():
    cfg = ActivationConfig(0.5, 3)
    assert smooth_ternary(0.0, cfg) == 0.0
    # high-precision references: tanh(1) and -tanh(1/8)
    assert smooth_ternary(0.5, cfg) == pytest.approx(0.7615941559557649, rel=1e-12)
    assert smooth_ternary(-0.25, cfg) == pytest.approx(-0.12435300177159621, rel=1e-12)


def test_smooth_ternary_scalar_and_array():
    cfg = ActivationConfig()
    assert isinstance(smooth_ternary(0.3, cfg), float)
    out = smooth_ternary(GRID, cfg)
    assert isinstance(out, np.ndarray) and out.shape == GRID.shape


def test_smooth_ternary_oddness_exact():
    for k in KS:
        cfg = ActivationConfig(0.5, k)
        f_pos = smooth_ternary(GRID, cfg)
        f_neg = smooth_ternary(-GRID, cfg)
        assert np.array_equal(f_neg, -f_pos)


def test_smooth_ternary_range():
    # |f| stays below 1 until float saturation of tanh; never exceeds 1
    for k in KS:
        cfg = ActivationConfig(0.5, k)
        f = smooth_ternary(GRID, cfg)
        assert np.all(np.abs(f) <= 1.0)
        inner = np.abs(GRID) <= 0.6
        assert np.all(np.abs(f[inner]) < 1.0)


def test_non_finite_rejected():
    cfg = ActivationConfig()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            smooth_ternary(bad, cfg)
        with pytest.raises(ValueError):
            smooth_ternary_grad(bad, cfg)
        with pytest.raises(ValueError):
            hard_ternary(bad, 0.5)


def test_grad_values():
    cfg = ActivationConfig(0.5, 3)
    assert smooth_ternary_grad(0.0, cfg) == 0.0
    # analytic formula at x = alpha: 6 * (1 - tanh(1)^2), high-precision reference
    assert smooth_ternary_grad(0.5, cfg) == pytest.approx(2.5198460496841566, rel=1e-12)


def test_grad_matches_finite_difference_point():
    cfg = ActivationConfig(0.5, 5)
    h = 1e-5
    fd = (smooth_ternary(0.3 + h, cfg) - smooth_ternary(0.3 - h, cfg)) / (2 * h)
    a = smooth_ternary_grad(0.3, cfg)
    assert abs(a - fd) / abs(a) < 1e-6


def test_grad_nonnegative_and_finite():
    for k in KS:
        cfg = ActivationConfig(0.5, k)
        g = smooth_ternary_grad(GRID, cfg)
        assert np.all(np.isfinite(g))
        assert np.all(g >= 0.0)


def test_monotone_convergence_to_hard():
    g = hard_ternary(GRID, 0.5).astype(np.float64)
    keep = np.abs(np.abs(GRID) - 0.5) > 1e-12
    diffs = [np.abs(smooth_ternary(GRID, ActivationConfig(0.5, k)) - g) for k in KS]
    for prev, nxt in zip(diffs, diffs[1:]):
        assert np.all(nxt[keep] <= prev[keep])
        # strict decrease wherever the gap has not already collapsed to zero
        positive = keep & (prev > 0.0)
        assert np.all(nxt[positive] < prev[positive])
        assert np.all(nxt[keep & (prev == 0.0)] == 0.0)


def test_hard_ternary_boundaries():
    assert hard_ternary(0.5, 0.5) == 1
    assert hard_ternary(-0.5, 0.5) == -1
    assert hard_ternary(0.49, 0.5) == 0
    assert hard_ternary(0.0, 0.5) == 0
    out = hard_ternary(np.array([-0.8, -0.5, -0.1, 0.0, 0.5, 2.0]), 0.5)
    assert out.dtype == np.int8
    assert out.tolist() == [-1, -1, 0, 0, 1, 1]
    for alpha in (0.0, math.nan, True):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be a positive finite real, got {alpha!r}")):
            hard_ternary(0.7, alpha)


def test_hard_ternary_holds_float32_input_against_alpha_itself():
    # float32(0.7) is 0.69999999, below 0.7; comparing in float32 would round
    # alpha to the same value and put x on the boundary.
    x = np.float32(0.7)
    assert hard_ternary(x, 0.7) == 0
    assert hard_ternary(-x, 0.7) == 0
    assert hard_ternary(np.array([x, -x, np.float32(0.75)]), 0.7).tolist() == [0, 0, 1]


def reference_hard_ternary(x, alpha):
    # the float64 expression hard_ternary ran before it compared in the input's dtype, kept as the reference
    arr = np.asarray(x).astype(np.float64)
    out = np.zeros(arr.shape, dtype=np.int8)
    out[arr >= alpha] = 1
    out[arr <= -alpha] = -1
    return out


ALPHAS = [0.5, 0.7, 1 / 3, 1e-30, 3e38]


def values_around(alpha):
    """alpha in float64 and rounded to float32, each with its float32 and float64 neighbours, both signs, and a few others."""
    near = []
    for a in (np.float64(alpha), np.float64(np.float32(alpha))):
        for dtype in (np.float32, np.float64):
            v = dtype(a)
            near += [v, np.nextafter(v, dtype(0)), np.nextafter(v, dtype(np.inf))]
    near = np.array(near, dtype=np.float64)
    return np.concatenate([near, -near, [0.0, -0.0, 1e-45, 0.25, 1.0, 3.4e38]])


@pytest.mark.parametrize("alpha", ALPHAS)
def test_hard_ternary_equals_the_float64_comparison(alpha):
    x = values_around(alpha)
    for dtype in (np.float32, np.float64):
        xs = x.astype(dtype)
        got, want = hard_ternary(xs, alpha), reference_hard_ternary(xs, alpha)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)
        assert np.array_equal(hard_ternary(xs.reshape(2, -1), alpha), want.reshape(2, -1))
        for v in xs:
            got = hard_ternary(v, alpha)
            assert type(got) is int
            assert got == int(reference_hard_ternary(v, alpha))


@pytest.mark.parametrize("d", [16, 70])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_packing_at_the_shared_threshold_is_the_packed_float64_comparison(alpha, d):
    # encode packs hash values at +-_threshold, never making trits: its planes must be those of the reference trits
    x = values_around(alpha)
    for dtype in (np.float32, np.float64):
        xs = np.resize(x, (x.size // d + 2, d)).astype(dtype)  # the grid repeated row by row over [rows, d]
        bound = _threshold(xs.dtype, alpha)
        got = _pack_planes(xs, bound)
        want = CodeMatrix.of([pack(TernaryCode(t)) for t in reference_hard_ternary(xs, alpha)])
        assert got.tobytes() == want.planes.tobytes()


def test_hard_ternary_integer_and_scalar_input():
    ints = np.arange(-3, 4)
    for alpha in (1, 1.5, 2, 0.5):
        got = hard_ternary(ints, alpha)
        assert got.dtype == np.int8
        assert np.array_equal(got, reference_hard_ternary(ints, alpha))
        for v in (*ints.tolist(), *ints.astype(np.int32)):
            assert hard_ternary(v, alpha) == int(reference_hard_ternary(v, alpha))
            assert type(hard_ternary(v, alpha)) is int
    assert type(hard_ternary(np.float32(0.7), 0.7)) is int


def test_activation_computes_in_float32_for_float32_input():
    cfg = ActivationConfig(0.5, 7)
    x32 = np.linspace(-1.0, 1.0, 41, dtype=np.float32)
    for fn in (smooth_ternary, smooth_ternary_grad):
        out32 = fn(x32, cfg)
        assert out32.dtype == np.float32
        out64 = fn(x32.astype(np.float64), cfg)
        assert out64.dtype == np.float64
        assert out32 == pytest.approx(out64, rel=1e-4, abs=1e-6)
        assert fn(np.arange(-2, 3), cfg).dtype == np.float64


def signed_power(u, k):
    # the power kernel before the activation's forward/backward were fused, kept as the reference
    with np.errstate(divide="ignore"):
        mag = np.exp(k * np.log(np.abs(u)))
    mag = np.where(u == 0.0, 0.0, mag)
    if k % 2:
        return np.copysign(mag, u)
    return mag


def reference_smooth_ternary(x, cfg):
    return np.tanh(signed_power(x / cfg.alpha, cfg.k))


def reference_smooth_ternary_grad(x, cfg):
    u = x / cfg.alpha
    sech2 = 1.0 - np.tanh(signed_power(u, cfg.k)) ** 2
    poly = (cfg.k / cfg.alpha) * signed_power(u, cfg.k - 1)
    with np.errstate(invalid="ignore"):
        return np.where(sech2 > 0.0, sech2 * poly, 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.05])
def test_activation_is_bit_equal_to_the_signed_power_reference(dtype, alpha):
    # the grid with both signed zeros, a float32 ulp walk around alpha, and values large enough to saturate
    x = np.concatenate([GRID, [0.0, -0.0, 1e-30, -1e-30, 50.0, -50.0],
                        alpha * (1 + np.arange(-8, 9) * 2.0**-23)]).astype(dtype)
    for k in KS:
        cfg = ActivationConfig(alpha, k)
        for fn, ref in ((smooth_ternary, reference_smooth_ternary),
                        (smooth_ternary_grad, reference_smooth_ternary_grad)):
            got, want = fn(x, cfg), ref(x, cfg)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (fn.__name__, k)
            for v in (0.0, -0.0, float(x[37])):
                assert math.copysign(1, fn(v, cfg)) == math.copysign(1, float(ref(np.float64(v), cfg)))
                assert fn(v, cfg) == float(ref(np.float64(v), cfg))


def test_schedule_defaults():
    sched = ContinuationSchedule()
    assert schedule_k(0, sched) == 3
    assert schedule_k(30, sched) == 5
    assert schedule_k(149, sched) == 11
    ks = [schedule_k(e, sched) for e in range(150)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    assert sorted(set(ks)) == [3, 5, 7, 9, 11]


def test_schedule_clamps_at_k_end():
    sched = ContinuationSchedule(k_start=3, k_end=7, stride_epochs=10, total_epochs=100)
    assert schedule_k(99, sched) == 7
    # a run shorter than the full ladder is legal; clamping handles the rest
    short = ContinuationSchedule(k_start=3, k_end=11, stride_epochs=30, total_epochs=40)
    assert schedule_k(39, short) == 5


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(k_start=4, k_end=11, stride_epochs=30, total_epochs=150)
    with pytest.raises(ValueError):
        ContinuationSchedule(k_start=11, k_end=3, stride_epochs=30, total_epochs=150)
    with pytest.raises(ValueError):
        ContinuationSchedule(stride_epochs=0)
    with pytest.raises(ValueError):
        ContinuationSchedule(total_epochs=0)
    # non-integer epoch counts: a fractional stride made schedule_k return a float k, and a checkpoint cannot store one
    for bad in (dict(stride_epochs=2.5, total_epochs=10), dict(total_epochs=10.0), dict(stride_epochs=2.0),
                dict(stride_epochs="2"), dict(total_epochs=None)):
        with pytest.raises(ValueError, match=re.escape("must be an integer in [1, 2**32)")):
            ContinuationSchedule(**bad)
    # every field fits the checkpoint header's u32 at its width minus one, and is refused at the width
    # (the first odd k past it, 2**32 + 1)
    most = 2**32 - 1
    assert ContinuationSchedule(k_start=most, k_end=most, stride_epochs=most, total_epochs=most).k_end == most
    for name, width, message in (
        ("k_start", 2**32 + 1, "k_start must be an integer in [3, 2**32), got 4294967297"),
        ("k_end", 2**32 + 1, "k_end must be an integer in [3, 2**32), got 4294967297"),
        ("stride_epochs", 2**32, "stride_epochs must be an integer in [1, 2**32), got 4294967296"),
        ("total_epochs", 2**32, "total_epochs must be an integer in [1, 2**32), got 4294967296"),
        # an even k, and a bool, a numpy bool or an integral float in any field
        ("k_end", 12, "k_end must be odd, got 12"),
        ("k_start", True, "k_start must be an integer in [3, 2**32), got True"),
        ("k_end", np.bool_(True), "k_end must be an integer in [3, 2**32), got np.True_"),
        ("stride_epochs", True, "stride_epochs must be an integer in [1, 2**32), got True"),
        ("total_epochs", 150.0, "total_epochs must be an integer in [1, 2**32), got 150.0"),
    ):
        with pytest.raises(ValueError) as exc:
            ContinuationSchedule(**{name: width})
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=re.escape("stride_epochs must be an integer in [1, 2**32), got True")):
        ContinuationSchedule(stride_epochs=True, total_epochs=True)
    # numpy integers are stored as ints, so the schedule reads and prints as the int one does
    numpy_sched = ContinuationSchedule(np.int64(3), np.int32(11), np.uint8(30), np.int64(150))
    assert repr(numpy_sched) == repr(ContinuationSchedule()) and type(numpy_sched.total_epochs) is int
    sched = ContinuationSchedule()
    assert schedule_k(np.int64(30), sched) == 5 and type(schedule_k(np.uint16(30), numpy_sched)) is int
    for epoch in (-1, 150, 1000, True, np.bool_(False), 30.0):
        with pytest.raises(ValueError, match=re.escape(f"epoch must be an integer in [0, 150), got {epoch!r}")):
            schedule_k(epoch, sched)
