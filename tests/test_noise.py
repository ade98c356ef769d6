"""Noise family contracts: densities, scores, tails, and samplers."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from macfusion import noise, transmit as tx
from macfusion.numerics import RngStream, adaptive_quadrature
from oracles import from_variance, sample

MODELS = [
    noise.gaussian(1.0),
    noise.gaussian(0.4),
    noise.laplacian(1.0),
    noise.laplacian(2.5),
    noise.cauchy(1.0),
    noise.cauchy(0.7),
]

ONE_SIGMA_TWO_TAIL = 0.31731050786291415  # 2 * (1 - Phi(1))


class TestPdf:
    def test_standard_normal_mode(self):
        assert noise.pdf(noise.gaussian(1.0), 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_standard_cauchy_mode(self):
        assert noise.pdf(noise.cauchy(1.0), 0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_laplace_closed_form(self):
        # 0.5 * exp(-2) for unit scale at x = 2
        assert noise.pdf(noise.laplacian(1.0), 2.0) == pytest.approx(0.06766764161830635, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_symmetry_exact(self, model):
        """pdf(x) == pdf(-x) exactly on a grid."""
        x = np.linspace(-20.0, 20.0, 801)
        assert np.array_equal(noise.pdf(model, x), noise.pdf(model, -x))

    @pytest.mark.parametrize("model", MODELS)
    def test_positive_on_truncated_support(self, model):
        """Strictly positive everywhere quadrature will look."""
        t = noise.tail_truncation(model, 1e-12)
        x = np.linspace(-t, t, 501)
        assert np.all(noise.pdf(model, x) > 0.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_normalization_on_truncated_support(self, model):
        """Integral over the 1e-12 tail truncation equals 1 within 1e-9."""
        t = noise.tail_truncation(model, 1e-12)
        val, _, _ = adaptive_quadrature(lambda x: noise.pdf(model, x), -t, t, rel_tol=1e-10, abs_tol=1e-13)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestScore:
    def test_gaussian_score_is_linear(self):
        model = noise.gaussian(0.5)
        x = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(noise.score(model, x), x / 0.25, rtol=1e-14)

    def test_cauchy_score_at_one(self):
        assert noise.score(noise.cauchy(1.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_laplacian_sign_form(self):
        model = noise.laplacian(2.0)
        assert noise.score(model, 3.7) == pytest.approx(0.5)
        assert noise.score(model, -0.2) == pytest.approx(-0.5)

    @pytest.mark.parametrize("model", MODELS)
    def test_zero_at_origin(self, model):
        assert noise.score(model, 0.0) == 0.0

    @pytest.mark.parametrize("model", MODELS)
    def test_odd_function(self, model):
        x = np.linspace(0.1, 15.0, 200)
        assert np.allclose(noise.score(model, -x), -noise.score(model, x), rtol=1e-14)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_log_density_derivative(self, model):
        """score = -d/dx ln pdf, checked by central differences at 1e-5.

        The Laplacian kink at 0 is excluded; the step never straddles it.
        """
        x = np.concatenate([np.linspace(-8.0, -0.5, 40), np.linspace(0.5, 8.0, 40)])
        h = 1e-5
        fd = -(np.log(noise.pdf(model, x + h)) - np.log(noise.pdf(model, x - h))) / (2.0 * h)
        assert np.allclose(noise.score(model, x), fd, rtol=1e-6, atol=1e-9)


class TestTailTruncation:
    def test_gaussian_one_sigma(self):
        assert noise.tail_truncation(noise.gaussian(1.0), ONE_SIGMA_TWO_TAIL) == pytest.approx(1.0, abs=1e-9)
        assert noise.tail_truncation(noise.gaussian(1.0), 0.3173) == pytest.approx(1.0, abs=1e-3)

    def test_cauchy_quartiles(self):
        assert noise.tail_truncation(noise.cauchy(1.0), 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_laplacian_log_tail(self):
        assert noise.tail_truncation(noise.laplacian(1.0), math.exp(-8.0)) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_mass_bound_holds(self, model):
        for mass in (0.5, 1e-3, 1e-9):
            t = noise.tail_truncation(model, mass)
            observed = 2.0 * noise.cdf(model, -t)  # symmetric lower tail, no cancellation
            assert observed <= mass * (1.0 + 1e-9)

    def test_mass_out_of_range(self):
        with pytest.raises(ValueError):
            noise.tail_truncation(noise.gaussian(1.0), 0.0)
        with pytest.raises(ValueError):
            noise.tail_truncation(noise.gaussian(1.0), 1.0)


class TestInverseCdf:
    """``transform_uniforms`` is the one inverse CDF: the sampler and the
    probability-space response mesh both map uniforms through it."""

    TAIL = np.geomspace(5e-13, 0.4, 200)
    V = np.concatenate([TAIL, [0.5], 1.0 - TAIL[::-1]])

    @pytest.mark.parametrize("model", MODELS[1::2], ids=lambda m: m.kind)
    def test_inverts_the_cdf_from_tail_to_tail(self, model):
        """Strictly increasing, n(1/2) = 0 and |cdf(n(v)) - v| within two
        ulps of 1 for v from 5e-13 to 1 - 5e-13, both tails geometric."""
        assert np.all(np.diff(self.V) > 0.0)
        n = noise.transform_uniforms(model, self.V)
        assert np.all(np.diff(n) > 0.0)
        assert n[self.TAIL.size] == 0.0
        assert np.max(np.abs(noise.cdf(model, n) - self.V)) <= 4.4e-16


class TestBreakpoints:
    def test_only_the_laplacian_density_has_a_kink(self):
        assert noise.breakpoints(noise.laplacian(2.5)) == (0.0,)
        assert noise.breakpoints(noise.gaussian(0.4)) == ()
        assert noise.breakpoints(noise.cauchy(0.7)) == ()


class TestSampler:
    def test_count_zero(self):
        out = sample(noise.gaussian(1.0), RngStream(1, 0), 0)
        assert out.shape == (0,)

    def test_deterministic_given_stream(self):
        a = sample(noise.laplacian(1.0), RngStream(9, 3), 100)
        b = sample(noise.laplacian(1.0), RngStream(9, 3), 100)
        assert np.array_equal(a, b)

    def test_gaussian_mean_clt_bound(self):
        draws = sample(noise.gaussian(1.0), RngStream(11, 0), 10**6)
        assert abs(draws.mean()) < 4.0 / math.sqrt(10**6)

    def test_cauchy_median_stable_mean_not(self):
        """Across reruns the medians agree near 0 but the means disperse."""
        medians, means = [], []
        for sid in range(5):
            draws = sample(noise.cauchy(1.0), RngStream(123, sid), 10**6)
            medians.append(np.median(draws))
            means.append(draws.mean())
        assert max(abs(m) for m in medians) < 0.01
        assert max(abs(m) for m in means) > 10.0 * max(abs(m) for m in medians)

    @pytest.mark.parametrize("model", MODELS)
    def test_sampler_matches_cdf(self, model):
        """KS statistic of 1e5 draws below the 1% critical value."""
        draws = sample(model, RngStream(77, 5), 10**5)
        stat = kstest(draws, lambda x: noise.cdf(model, x)).statistic
        assert stat < 1.628 / math.sqrt(10**5)

    def test_counter_accounting(self):
        stream = RngStream(5, 1)
        sample(noise.cauchy(2.0), stream, 17)
        assert stream.counter == 17


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            noise.NoiseModel("student_t", 1.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            noise.NoiseModel("gaussian", 0.0)

    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_scale_range_is_inclusive(self, kind):
        for scale in (noise.MIN_SCALE, noise.MAX_SCALE):
            assert noise.NoiseModel(kind, scale).scale == scale
        for scale in (0.5 * noise.MIN_SCALE, 2.0 * noise.MAX_SCALE, math.inf, math.nan):
            with pytest.raises(tx.FieldError, match="noise scale must lie in") as err:
                noise.NoiseModel(kind, scale)
            assert err.value.field == "scale"

    def test_variance_convention(self):
        assert noise.variance(noise.gaussian(2.0)) == 4.0
        assert noise.variance(noise.laplacian(1.0)) == 2.0
        assert math.isinf(noise.variance(noise.cauchy(1.0)))

    def test_nominal_variance_stands_in_only_for_cauchy(self):
        assert noise.nominal_variance(noise.gaussian(2.0)) == 4.0
        assert noise.nominal_variance(noise.laplacian(1.0)) == 2.0
        assert noise.nominal_variance(noise.cauchy(3.0)) == 1.0

    def test_from_variance_laplacian_scale(self):
        model = from_variance("laplacian", 1.0)
        assert noise.variance(model) == pytest.approx(1.0, rel=1e-12)
