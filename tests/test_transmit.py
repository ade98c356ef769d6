"""Transmit-curve contracts: bounds, monotonicity, derivatives, power."""

import math
import warnings

import numpy as np
import pytest

from macfusion import transmit as tx
from oracles import eval_fn

BOUNDED = [
    tx.tanh_fn(1.0),
    tx.tanh_fn(5.0),
    tx.gudermannian_fn(1.0),
    tx.gudermannian_fn(0.4),
    tx.rational_fn(2.0),
    tx.uniform_quantizer_fn(x_max=1.0, levels=3),
    tx.uniform_quantizer_fn(x_max=2.0, levels=7),
]
ALL_KINDS = BOUNDED + [tx.signed_power_fn(0.3), tx.linear_fn(1.7)]
SMOOTH = [f for f in ALL_KINDS if f.kind not in (tx.UNIFORM_QUANTIZER, tx.SIGNED_POWER)]


class TestEval:
    def test_tanh_odd_origin(self):
        assert eval_fn(tx.tanh_fn(1.0), 0.0) == 0.0

    def test_quantizer_saturation(self):
        # Delta = 2/3, K = 1: the saturation branch returns K*Delta
        f = tx.uniform_quantizer_fn(x_max=1.0, levels=3)
        assert eval_fn(f, 10.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_rational_direct_substitution(self):
        assert eval_fn(tx.rational_fn(2.0), 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_quantizer_half_open_cells(self):
        # Cells are [(k-1/2)Delta, (k+1/2)Delta); the left edge belongs in.
        f = tx.uniform_quantizer_fn(x_max=2.0, levels=4 + 3)  # Delta = 4/7
        delta = tx.quantizer_step(f)
        assert eval_fn(f, 0.5 * delta) == pytest.approx(delta, rel=1e-12)
        assert eval_fn(f, 0.5 * delta * (1.0 - 1e-12)) == 0.0

    def test_gudermannian_normalized(self):
        f = tx.gudermannian_fn(1.0)
        assert eval_fn(f, 1.0) == pytest.approx((2.0 / math.pi) * math.atan(math.sinh(1.0)), rel=1e-12)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_odd(self, f):
        x = np.linspace(0.01, 25.0, 500)
        assert np.allclose(eval_fn(f, -x), -eval_fn(f, x), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_monotone_on_sorted_pairs(self, f):
        """10^4 sorted random pairs: nondecreasing everywhere, and strict
        for non-quantizer kinds wherever the curve is resolvable in float64
        (tanh saturates to exactly 1.0 beyond ~8 transition widths)."""
        rng = np.random.default_rng(42)
        x = rng.uniform(-30.0, 30.0, size=(10**4, 2))
        lo = x.min(axis=1)
        hi = x.max(axis=1)
        keep = hi > lo
        y_lo = eval_fn(f, lo[keep])
        y_hi = eval_fn(f, hi[keep])
        assert np.all(y_hi >= y_lo)
        if f.kind != tx.UNIFORM_QUANTIZER:
            width = 1.0 / f.omega if f.omega else 30.0
            x = np.sort(rng.uniform(-8.0 * width, 8.0 * width, size=(10**4, 2)), axis=1)
            inner_lo, inner_hi = x[:, 0], x[:, 1]
            keep = inner_hi > inner_lo
            assert np.all(eval_fn(f, inner_hi[keep]) > eval_fn(f, inner_lo[keep]))

    @pytest.mark.parametrize("f", BOUNDED)
    def test_saturation_at_large_argument(self, f):
        c = tx.bound(f)
        assert eval_fn(f, 1e6) == pytest.approx(c, rel=1e-6)
        assert eval_fn(f, -1e6) == pytest.approx(-c, rel=1e-6)

    @pytest.mark.parametrize("f", BOUNDED)
    def test_instantaneous_power_capped(self, f):
        """rho * f(x)^2 <= rho * c^2 for every draw, however wild."""
        rng = np.random.default_rng(7)
        x = np.concatenate([
            rng.standard_cauchy(10**6) * 10.0,
            np.array([0.0, 1e12, -1e12, np.pi]),
        ])
        c = tx.bound(f)
        assert np.all(eval_fn(f, x) ** 2 <= c * c * (1.0 + 1e-15))


class TestDerivative:
    def test_tanh_chain_rule_at_origin(self):
        assert tx.derivative(tx.tanh_fn(2.5), 0.0) == pytest.approx(2.5, rel=1e-14)

    def test_linear_constant(self):
        f = tx.linear_fn(3.0)
        assert tx.derivative(f, -17.3) == pytest.approx(3.0)
        assert np.allclose(tx.derivative(f, np.array([0.0, 5.0])), 3.0)

    def test_gudermannian_normalized_slope(self):
        assert tx.derivative(tx.gudermannian_fn(1.0), 0.0) == pytest.approx(2.0 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("f", SMOOTH)
    def test_matches_central_differences(self, f):
        x = np.linspace(-6.0, 6.0, 121)
        if f.kind == tx.RATIONAL:
            # |x| kinks the second derivative at 0, where the central
            # difference itself carries an O(h) error.
            x = x[x != 0.0]
        h = 1e-5
        fd = (eval_fn(f, x + h) - eval_fn(f, x - h)) / (2.0 * h)
        assert np.allclose(tx.derivative(f, x), fd, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("f", SMOOTH)
    def test_positive(self, f):
        width = 1.0 / f.omega if f.omega else 10.0
        x = np.linspace(-8.0 * width, 8.0 * width, 81)
        assert np.all(tx.derivative(f, x) > 0.0)

    @pytest.mark.parametrize("f", [tx.tanh_fn(1.0), tx.gudermannian_fn(1.0)])
    def test_far_tail_slope_is_zero_without_overflow_warnings(self, f):
        """cosh overflows to inf far out; the slope is then 0, silently."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tx.derivative(f, 800.0) == 0.0
            assert np.array_equal(tx.derivative(f, np.array([-800.0, 800.0])), [0.0, 0.0])

    def test_quantizer_rejected(self):
        with pytest.raises(tx.UnsupportedKindError):
            tx.derivative(tx.uniform_quantizer_fn(x_max=1.0, levels=3), 0.3)

    def test_signed_power_away_from_origin(self):
        f = tx.signed_power_fn(0.25)
        assert tx.derivative(f, 2.0) == pytest.approx(0.25 * 2.0 ** (-0.75), rel=1e-12)
        with pytest.raises(tx.UnsupportedKindError):
            tx.derivative(f, 0.0)


class TestBound:
    def test_tanh_unit(self):
        assert tx.bound(tx.tanh_fn(5.0)) == 1.0

    def test_quantizer_k_delta(self):
        assert tx.bound(tx.uniform_quantizer_fn(x_max=2.0, levels=5)) == pytest.approx(1.6, rel=1e-12)

    def test_unbounded_kinds(self):
        assert tx.bound(tx.linear_fn(3.0)) is None
        assert tx.bound(tx.signed_power_fn(0.3)) is None


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tx.TransmitFunction("sigmoid", omega=1.0)

    def test_nonpositive_omega(self):
        with pytest.raises(ValueError):
            tx.tanh_fn(0.0)

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            tx.signed_power_fn(0.5)
        with pytest.raises(ValueError):
            tx.signed_power_fn(0.0)

    def test_quantizer_levels_must_be_odd(self):
        with pytest.raises(ValueError):
            tx.uniform_quantizer_fn(x_max=1.0, levels=4)
        with pytest.raises(ValueError):
            tx.uniform_quantizer_fn(x_max=1.0, levels=1)

    def test_breakpoints_are_cell_edges(self):
        f = tx.uniform_quantizer_fn(x_max=1.0, levels=3)
        delta = tx.quantizer_step(f)
        assert tx.breakpoints(f) == pytest.approx((-1.5 * delta, -0.5 * delta, 0.5 * delta, 1.5 * delta))

    def test_with_omega_only_for_scaled_kinds(self):
        g = tx.with_omega(tx.tanh_fn(1.0), 2.0)
        assert g.omega == 2.0
        with pytest.raises(tx.UnsupportedKindError):
            tx.with_omega(tx.linear_fn(1.0), 2.0)
