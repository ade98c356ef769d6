"""Mean response, inversion estimator, asymptotic variance, AF baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import jarque_bera

from macfusion import noise, transmit as tx
from macfusion import estimation as est
from macfusion import harness, kernels, numerics
from macfusion.numerics import QuadratureSpec
from macfusion.transmit import UnsupportedKindError
from oracles import (
    af_estimate,
    clear_moment_cache,
    estimate,
    estimate_info,
    from_variance,
    laplacian_moment,
    per_sigma_response,
)

GAUSS = noise.gaussian(1.0)


def _setup(**kwargs):
    base = dict(
        theta=1.0,
        L=500,
        sigmas=est.constant_sigmas(1.0),
        noise=GAUSS,
        transmit=tx.tanh_fn(0.75),
        total_power=10.0,
        channel_noise_var=1.0,
    )
    base.update(kwargs)
    return est.EstimationSetup(**base)


class TestSigmaSequence:
    def test_constant(self):
        assert np.array_equal(est.constant_sigmas(2.0).resolve(4), [2.0, 2.0, 2.0, 2.0])

    def test_sqrt_growth(self):
        seq = est.sqrt_growth_sigmas(0.5).resolve(4)
        assert np.allclose(seq, 0.5 * np.sqrt([1.0, 2.0, 3.0, 4.0]))

    def test_explicit_list_length_checked(self):
        seq = est.SigmaSequence(est.EXPLICIT_LIST, values=(1.0, 2.0))
        with pytest.raises(ValueError):
            seq.resolve(3)

    def test_constant_is_a_read_only_zero_stride_view(self):
        seq = est.constant_sigmas(2.0).resolve(10**6)
        assert seq.shape == (10**6,)
        assert seq.strides == (0,)
        assert not seq.flags.writeable
        with pytest.raises(ValueError):
            seq[0] = 1.0

    @pytest.mark.parametrize("L", [1, 7, 1000])
    def test_constant_distinct_is_the_unique_of_the_materialized_array(self, L):
        values, counts = est.constant_sigmas(0.3).distinct(L)
        expected_values, expected_counts = np.unique(np.full(L, 0.3), return_counts=True)
        assert values.dtype == expected_values.dtype
        assert counts.dtype == expected_counts.dtype
        assert np.array_equal(values, expected_values)
        assert np.array_equal(counts, expected_counts)

    def test_distinct_counts(self):
        seq = est.SigmaSequence(est.EXPLICIT_LIST, values=(1.0, 2.0, 1.0, 1.0))
        values, counts = seq.distinct(4)
        assert np.array_equal(values, [1.0, 2.0])
        assert np.array_equal(counts, [3, 1])

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            est.constant_sigmas(0.0)
        with pytest.raises(ValueError):
            est.SigmaSequence(est.EXPLICIT_LIST, values=(1.0, -1.0))


class TestMeanResponse:
    def test_zero_at_origin_odd_symmetric(self):
        assert est.mean_response(_setup(), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_saturates_to_bound(self):
        assert est.mean_response(_setup(), 40.0) == pytest.approx(1.0, abs=1e-6)
        assert est.mean_response(_setup(), 40.0) < 1.0

    def test_linear_transmit_exact(self):
        setup = _setup(transmit=tx.linear_fn(1.3))
        for theta in (-2.0, 0.4, 3.5):
            assert est.mean_response(setup, theta) == pytest.approx(1.3 * theta, abs=1e-10)

    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    @pytest.mark.parametrize("make", [tx.tanh_fn, tx.gudermannian_fn, tx.rational_fn])
    def test_strictly_increasing(self, kind, make):
        """h(theta + 1e-3) > h(theta) across [-5, 5] for bounded kinds."""
        setup = _setup(noise=noise.NoiseModel(kind, 1.0), transmit=make(1.0), L=25)
        grid = np.linspace(-5.0, 5.0, 21)
        values = np.array([est.mean_response(setup, t) for t in grid])
        bumped = np.array([est.mean_response(setup, t + 1e-3) for t in grid])
        assert np.all(bumped > values)

    def test_odd_in_theta(self):
        setup = _setup(sigmas=est.SigmaSequence(est.EXPLICIT_LIST, values=(0.5, 1.0, 2.0)), L=3)
        for theta in (0.3, 1.1, 2.7):
            plus = est.mean_response(setup, theta)
            minus = est.mean_response(setup, -theta)
            assert minus == pytest.approx(-plus, abs=1e-9)

    def test_constant_sequence_independent_of_L(self):
        a = est.mean_response(_setup(L=10), 0.8)
        b = est.mean_response(_setup(L=10**4), 0.8)
        assert a == b  # bit-identical by the dedup construction


class TestEstimate:
    def test_noiseless_round_trip(self):
        setup = _setup()
        z = math.sqrt(setup.total_power) * est.mean_response(setup, 1.0)
        assert estimate(setup, z) == pytest.approx(1.0, abs=1e-8)

    def test_zero_received_gives_zero(self):
        assert estimate(_setup(), 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_out_of_range_clamps_and_reports(self):
        setup = _setup()
        result = estimate_info(setup, math.sqrt(setup.total_power) * 1.5)
        assert result.clamped
        assert math.isfinite(result.theta)
        assert result.theta > 5.0

    def test_quantizer_rejected(self):
        setup = _setup(transmit=tx.uniform_quantizer_fn(x_max=1.0, levels=3))
        with pytest.raises(UnsupportedKindError):
            estimate(setup, 0.1)

    def test_full_pipeline_consistency(self):
        """Median of 1e3 Monte Carlo estimates lands within 0.05 of theta."""
        setup = _setup()
        estimates = harness.run_estimation_experiment(setup, 1000, 321)
        assert abs(np.median(estimates) - 1.0) < 0.05


class TestAsymptoticVariance:
    def test_linear_gaussian_closed_form(self):
        """AsV = sigma_n^2 + sigma_v^2 / (P_T alpha^2) for f = alpha x."""
        setup = _setup(transmit=tx.linear_fn(2.0), noise=noise.gaussian(0.8), theta=0.7, channel_noise_var=1.3, total_power=2.0)
        expected = 0.8**2 + 1.3 / (2.0 * 2.0**2)
        assert est.asymptotic_variance(setup) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_nonnegative(self, kind):
        setup = _setup(noise=noise.NoiseModel(kind, 1.0), channel_noise_var=1e-12)
        assert est.asymptotic_variance(setup) >= 0.0

    def test_requires_unit_sigmas(self):
        with pytest.raises(ValueError):
            est.asymptotic_variance(_setup(sigmas=est.constant_sigmas(2.0)))
        with pytest.raises(ValueError):
            est.asymptotic_variance(_setup(sigmas=est.sqrt_growth_sigmas(1.0)))

    def test_requires_differentiable_transmit(self):
        with pytest.raises(UnsupportedKindError):
            est.asymptotic_variance(_setup(transmit=tx.uniform_quantizer_fn(x_max=1.0, levels=3)))

    def test_omega_minimizer_stable_across_grids(self):
        """argmin of AsV(omega) agrees between 32- and 64-point scans."""
        from macfusion.numerics import minimize_scalar

        def asv_of_omega(omega):
            return est.asymptotic_variance(_setup(transmit=tx.tanh_fn(float(omega))))

        w32, _ = minimize_scalar(asv_of_omega, 0.3, 3.0, 32)
        w64, _ = minimize_scalar(asv_of_omega, 0.3, 3.0, 64)
        assert abs(w32 - w64) <= (3.0 - 0.3) / 32.0

    def test_matches_mc_variance_at_large_L(self):
        """L*var over 1e4 trials within 10% of the limit value at L=500."""
        setup = _setup()
        target = est.asymptotic_variance(setup)
        estimates = harness.run_estimation_experiment(setup, 10**4, 99)
        assert harness.l_var(estimates, setup.L) == pytest.approx(target, rel=0.10)


class TestAmplifyForward:
    def test_zero_noise_recovers_theta(self):
        setup = _setup(L=8)
        assert af_estimate(setup, np.zeros(8), 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_matches_rearranged_model(self):
        setup = _setup(L=5, sigmas=est.SigmaSequence(est.EXPLICIT_LIST, values=(1.0, 2.0, 0.5, 1.5, 1.0)))
        rng = np.random.default_rng(0)
        draws = rng.normal(size=5)
        chan = 0.37
        alpha = est.af_gain(setup)
        sigmas = setup.sigmas.resolve(5)
        expected = 1.0 + np.mean(sigmas * draws) + chan / (5 * alpha)
        assert af_estimate(setup, draws, chan) == pytest.approx(expected, rel=1e-14)

    def test_gain_satisfies_power_constraint(self):
        setup = _setup(L=50, theta=0.6)
        alpha = est.af_gain(setup)
        sigmas = setup.sigmas.resolve(50)
        total = alpha**2 * np.sum(0.6**2 + sigmas**2 * noise.variance(setup.noise))
        assert total == pytest.approx(setup.total_power, rel=1e-12)

    @pytest.mark.parametrize("L", [1, 9, 128, 129, 8193, 100_003])
    def test_constant_gain_is_bit_identical_to_the_materialized_sum(self, L):
        """af_gain sums one term broadcast over L sensors; numpy's pairwise
        sum gives the same bits as summing L materialized terms."""
        setup = _setup(L=L, theta=0.6, sigmas=est.constant_sigmas(1.7), noise=noise.laplacian(0.8))
        sigma_n2 = noise.nominal_variance(setup.noise)
        expected = math.sqrt(setup.total_power / float(np.sum(0.6**2 + np.full(L, 1.7) ** 2 * sigma_n2)))
        assert est.af_gain(setup) == expected

    def test_cauchy_uses_nominal_variance(self):
        """Cauchy noise has no variance; its gain is that of unit-variance noise."""
        setup = _setup(noise=noise.cauchy(1.0))
        assert est.af_gain(setup) == est.af_gain(replace(setup, noise=noise.gaussian(1.0)))

    def test_error_shrinks_for_gaussian(self):
        """Median |theta_af - theta| decreases with L for finite variance."""
        maes = []
        for L in (100, 1000, 10000):
            setup = _setup(L=L)
            estimates = harness.run_estimation_experiment(setup, 400, 11, estimator="af")
            maes.append(harness.median_abs_error(estimates, setup.theta))
        assert maes[1] < maes[0] and maes[2] < maes[1]

    def test_error_flat_under_sqrt_growth(self):
        """At sigma_i = sqrt(i) the averaged noise term has variance
        ~ sigma_n^2/2 at every L, so the AF error cannot shrink."""
        maes = []
        for L in (100, 10000):
            setup = _setup(L=L, sigmas=est.sqrt_growth_sigmas(1.0))
            estimates = harness.run_estimation_experiment(setup, 400, 12, estimator="af")
            maes.append(harness.median_abs_error(estimates, setup.theta))
        assert maes[1] > maes[0] / 1.2

    def test_error_shrinks_under_slow_unbounded_growth(self):
        """sigma_i = i**(1/4) diverges yet satisfies the summability
        condition (sum sigma_i^2/i^2 = sum i^{-3/2} converges), so AF stays
        consistent while the bounded scheme degenerates."""
        maes = []
        for L in (100, 1000, 10000):
            vals = tuple(float(i) ** 0.25 for i in range(1, L + 1))
            setup = _setup(L=L, sigmas=est.SigmaSequence(est.EXPLICIT_LIST, values=vals))
            estimates = harness.run_estimation_experiment(setup, 400, 12, estimator="af")
            maes.append(harness.median_abs_error(estimates, setup.theta))
        assert maes[1] < maes[0] and maes[2] < maes[1]
        assert maes[2] < maes[0] / 2.0

    def test_cauchy_error_does_not_shrink(self):
        """The channel-computed sample mean stays Cauchy at every L."""
        maes = []
        for L in (100, 10000):
            setup = _setup(L=L, noise=noise.cauchy(1.0))
            estimates = harness.run_estimation_experiment(setup, 400, 13, estimator="af")
            maes.append(harness.median_abs_error(estimates, setup.theta))
        assert maes[1] > maes[0] / 2.0


class TestDegenerationUnderGrowth:
    def test_response_gap_collapses(self):
        """|h_L(1) - h_L(0)| falls as L climbs when sigma_i = sqrt(i)."""
        gaps = []
        for L in (10, 100, 1000):
            setup = _setup(L=L, sigmas=est.sqrt_growth_sigmas(1.0))
            gaps.append(abs(est.mean_response(setup, 1.0) - est.mean_response(setup, 0.0)))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]

    def test_received_signal_concentrates_at_zero(self):
        stats_small = harness.run_signal_statistics(_setup(L=100, sigmas=est.sqrt_growth_sigmas(1.0)), 400, 21)
        stats_large = harness.run_signal_statistics(_setup(L=10000, sigmas=est.sqrt_growth_sigmas(1.0)), 400, 21)
        small = np.median(np.abs(stats_small["z_targets"]))
        large = np.median(np.abs(stats_large["z_targets"]))
        assert large < small


class TestBoundedConsistency:
    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_median_error_halves_from_100_to_10000(self, kind):
        """Strong consistency readout: >= 2x shrink for bounded sigmas."""
        maes = []
        for L in (100, 10000):
            setup = _setup(L=L, noise=noise.NoiseModel(kind, 1.0))
            estimates = harness.run_estimation_experiment(setup, 400, 17)
            maes.append(harness.median_abs_error(estimates, setup.theta))
        assert maes[1] <= maes[0] / 2.0


class TestCltOfNormalizedSignal:
    @pytest.mark.parametrize("kind", ["gaussian", "laplacian"])
    def test_jarque_bera_at_one_percent(self, kind):
        """sqrt(L)(z_L - sqrt(P_T) h) / sigma passes JB normality at 1%."""
        model = from_variance(kind, 1.0)
        setup = _setup(noise=model, L=500)
        h = est.mean_response(setup, 1.0)
        second = est.g_moment(model, setup.transmit, 1.0, 1.0, 2)
        sigma2 = setup.total_power * (second - h * h) + setup.channel_noise_var
        stats = harness.run_signal_statistics(setup, 10**4, 23)
        z = stats["z_targets"] * math.sqrt(setup.total_power)  # back to z_L scale
        standardized = math.sqrt(setup.L) * (z - math.sqrt(setup.total_power) * h) / math.sqrt(sigma2)
        assert abs(standardized.mean()) < 0.05
        assert abs(standardized.std(ddof=1) - 1.0) < 0.05
        assert jarque_bera(standardized).pvalue > 0.01


def _fitted(setup, lo, hi):
    """The fine series ``FlatResponse.invert`` fits for the targets h(lo) .. h(hi),
    as a function of theta, with its (edges, coefficient rows)."""
    flat = est.build_flat_response(setup)
    edges, coefs = flat.fit(est.mean_response(setup, lo), est.mean_response(setup, hi))
    return (lambda thetas: kernels.eval_series(coefs, edges, thetas)), edges, coefs


class TestChebyshevResponse:
    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_matches_adaptive_everywhere(self, kind):
        setup = _setup(noise=noise.NoiseModel(kind, 1.0), L=40)
        series, _, _ = _fitted(setup, -6.0, 6.0)
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-6.0, 6.0, size=9):
            assert series(theta) == pytest.approx(est.mean_response(setup, theta), abs=1e-12)

    def test_batch_inversion_round_trip(self):
        setup = _setup()
        flat = est.build_flat_response(setup)
        rng = np.random.default_rng(4)
        thetas = rng.uniform(-4.0, 4.0, size=64)
        targets = np.array([est.mean_response(setup, theta) for theta in thetas])
        solved, clamped = flat.invert(targets)
        assert not clamped.any()
        assert np.allclose(solved, thetas, atol=1e-8)

    def test_clamp_mask_counts_extremes(self):
        setup = _setup()
        flat = est.build_flat_response(setup)
        _, clamped = flat.invert(np.array([0.0, 2.0, -2.0]))
        assert list(clamped) == [False, True, True]

    def test_limit_is_the_truncated_supremum(self):
        """A response that drops tail mass 1e-3 saturates at 1 - 1e-3, not at
        sup |f| = 1: a target of 0.9995 clamps inside that range instead of
        ending in "no theta within 1e18 brings h to the target"."""
        spec = QuadratureSpec(tail_mass=1e-3)
        setup = _setup(L=40)
        flat = est.build_flat_response(setup, spec)
        assert flat.limit == pytest.approx(1.0 - 1e-3, abs=1e-12)
        thetas, clamped = flat.invert(np.array([0.9995, -0.9995, 0.5]))
        assert list(clamped) == [True, True, False]
        margin = flat.limit - est.CLAMP_MARGIN
        h = [est.mean_response(setup, theta, spec) for theta in thetas]
        assert h == pytest.approx([margin, -margin, 0.5], abs=1e-12)

    def test_chunked_inversion_matches_one_kernel_call(self, monkeypatch):
        """Chunks of 7 targets give the bits of one ``invert_h_targets``
        call: every target iterates on its own values, on one fine series.
        The two clamped targets, in the last chunk, skip the kernel."""
        setup = _setup(transmit=tx.rational_fn(2.7), L=40)
        flat = est.build_flat_response(setup)
        targets = np.concatenate([harness.run_signal_statistics(setup, 100, 8)["z_targets"], [-1.0, 1.0]])
        calls = []
        invert = kernels.invert_h_targets

        def counting(*args, targets, **kwargs):
            calls.append(targets.size)
            return invert(*args, targets=targets, **kwargs)

        monkeypatch.setattr(kernels, "invert_h_targets", counting)
        monkeypatch.setattr(est, "INVERT_CHUNK", targets.size)
        whole, whole_clamped = flat.invert(targets)
        monkeypatch.setattr(est, "INVERT_CHUNK", 7)
        chunked, chunked_clamped = flat.invert(targets)
        assert calls == [100] + [7] * 14 + [2]
        assert whole_clamped.sum() == 2
        assert np.array_equal(whole_clamped, chunked_clamped)
        assert whole.tobytes() == chunked.tobytes()

    def test_clamped_targets_are_solved_on_the_mean_response(self, monkeypatch):
        """The clamp values c - 1e-9 of the slowly saturating rational curve
        are reached only near |theta| ~ 4e8; they are solved on
        ``mean_response`` itself, so the fine series still spans only the
        unclamped targets."""
        setup = _setup(transmit=tx.rational_fn(2.7))
        flat = est.build_flat_response(setup)
        targets = np.concatenate([harness.run_signal_statistics(setup, 4000, 31)["z_targets"], [-1.0, 1.0]])
        spans = []
        invert = kernels.invert_h_targets

        def recording(coefs, edges, *, targets):
            spans.append(edges[-1] - edges[0])
            return invert(coefs, edges, targets=targets)

        monkeypatch.setattr(kernels, "invert_h_targets", recording)
        thetas, clamped = flat.invert(targets)
        monkeypatch.undo()
        assert clamped.sum() == 2
        assert max(spans) < 2.0
        margin = flat.limit - est.CLAMP_MARGIN
        assert abs(thetas[-1]) > 1e8
        residual = [est.mean_response(setup, theta) for theta in thetas[clamped]] - np.array([-margin, margin])
        assert np.all(np.abs(residual) <= 4 * np.spacing(margin))
        inner = np.flatnonzero(~clamped)[::80]
        residual = [est.mean_response(setup, theta) for theta in thetas[inner]] - targets[inner]
        assert np.max(np.abs(residual)) <= 1e-14

    def test_build_makes_one_quadrature_per_sigma_band(self, monkeypatch):
        """The coarse fit's 17 samples and the band quadrature of the
        constant 1 behind ``limit`` share one quadrature per band."""
        assert len(_recorded_quadratures(monkeypatch, lambda: est.build_flat_response(_setup(noise=noise.cauchy(1.0))))) == 1
        # sigma_i = sqrt(i): i = 1..16 and i = 17..30 are the two bands.
        setup = _setup(L=30, sigmas=est.sqrt_growth_sigmas(1.0))
        assert len(_recorded_quadratures(monkeypatch, lambda: est.build_flat_response(setup))) == 2

    def test_degree_doubling_samples_only_the_new_points(self, monkeypatch):
        """Chebyshev points of degree n are every other point of 2n's, so a
        fit that doubles twice samples 17, then 16, then 32 thetas."""
        sizes = []
        response = est._response

        def recording(setup, thetas, spec):
            sizes.append(thetas.size)
            return response(setup, thetas, spec)

        monkeypatch.setattr(est, "_response", recording)
        setup = _setup(transmit=tx.rational_fn(3.0))
        coefs, _, _ = est._fit(setup, -3.0, 5.0, numerics.DEFAULT_QUADRATURE)
        assert coefs.size == 65
        assert sizes == [17, 16, 32]

    def test_a_fit_that_does_not_chop_names_its_interval(self, monkeypatch):
        monkeypatch.setattr(est, "MAX_DEGREE", 32)
        setup = _setup(transmit=tx.uniform_quantizer_fn(2.0, 5), noise=noise.cauchy(1.0), L=20)
        with pytest.raises(est.MeshValidationError, match=r"series on theta in \[-2.0, 4.0\] did not chop within degree 32"):
            est._fit(setup, -2.0, 4.0, numerics.DEFAULT_QUADRATURE)

    def test_laplacian_fits_split_at_the_kinks_of_f(self):
        """Under Laplacian noise the quantizer's h_L has a jump in h'' at each
        quantizer edge; one piece per interval between them chops at degree 16,
        where one series over all of them stalled at degree 512."""
        setup = _setup(transmit=tx.uniform_quantizer_fn(2.0, 5), noise=noise.laplacian(1.0), L=20)
        pieces = est._fit_span(setup, -2.0, 4.0, numerics.DEFAULT_QUADRATURE)
        edges = [a for a, *_ in pieces] + [pieces[-1][1]]
        assert edges == pytest.approx([-2.0, -1.2, -0.4, 0.4, 1.2, 2.0, 4.0], abs=1e-15)
        assert all(c.size == est.FIT_DEGREE + 1 for _, _, c, _, _ in pieces)
        gaussian = _setup(transmit=tx.uniform_quantizer_fn(2.0, 5), L=20)
        assert len(est._fit_span(gaussian, -2.0, 4.0, numerics.DEFAULT_QUADRATURE)) == 1


# fig4's curves at two omegas, and four setups that a frozen node mesh could
# not represent: its mesh missed rational omega = 0.6 by 2.85e-6, and the
# other four ended in "mesh failed validation".
ACCURACY_SETUPS = {
    **{
        f"{make.__name__}-{omega}": _setup(transmit=make(omega))
        for make in (tx.tanh_fn, tx.gudermannian_fn, tx.rational_fn)
        for omega in (0.6, 3.0)
    },
    "signed_power-cauchy": _setup(transmit=tx.signed_power_fn(0.3), noise=noise.cauchy(1.0), L=20),
    "quantizer-cauchy": _setup(transmit=tx.uniform_quantizer_fn(2.0, 5), noise=noise.cauchy(1.0), L=20),
    "rational-2.7-cauchy": _setup(transmit=tx.rational_fn(2.7), noise=noise.cauchy(1.0), L=100),
    "quantizer-laplacian": _setup(transmit=tx.uniform_quantizer_fn(2.0, 5), noise=noise.laplacian(1.0), L=20),
}


class TestSeriesAccuracy:
    @pytest.mark.parametrize("name", sorted(ACCURACY_SETUPS))
    def test_fit_matches_the_mean_response_on_601_thetas(self, name):
        """Over theta +- 3 the fitted series lies within 1e-11 max(1, |h|) of
        ``mean_response``; the largest gap is 1.7e-12 (tanh, omega = 3)."""
        setup = ACCURACY_SETUPS[name]
        thetas = np.linspace(setup.theta - 3.0, setup.theta + 3.0, 601)
        series, _, _ = _fitted(setup, thetas[0], thetas[-1])
        exact = np.array([est.mean_response(setup, theta) for theta in thetas])
        assert np.max(np.abs(series(thetas) - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-11

    @pytest.mark.parametrize("name", sorted(ACCURACY_SETUPS))
    def test_inversion_matches_brentq_on_the_mean_response(self, name):
        """Targets h(theta) over theta +- 1, inverted in one batch, match an
        independent Brent solve of ``mean_response`` within 1e-12."""
        setup = ACCURACY_SETUPS[name]
        targets = np.array([est.mean_response(setup, theta) for theta in np.linspace(-1.0, 1.0, 9) + setup.theta])
        thetas, clamped = est.build_flat_response(setup).invert(targets)
        assert not clamped.any()
        g = lambda theta, t: est.mean_response(setup, theta) - t
        reference = [brentq(g, setup.theta - 1.5, setup.theta + 1.5, args=(t,), xtol=1e-15, rtol=1e-15) for t in targets]
        assert np.max(np.abs(thetas - reference)) <= 1e-12


FINE = QuadratureSpec(rel_tol=1e-13)
NINE_THETAS = np.linspace(-3.0, 5.0, 9)


def _response_gap(setup):
    """max |fitted response - per-sigma response at rel_tol 1e-13| on nine thetas."""
    series, _, _ = _fitted(setup, NINE_THETAS[0], NINE_THETAS[-1])
    exact = np.array([per_sigma_response(setup, float(theta), FINE) for theta in NINE_THETAS])
    return float(np.max(np.abs(series(NINE_THETAS) - exact)))


class TestSigmaBands:
    """One quadrature per band of sigma within ``SIGMA_BAND_RATIO``: the
    sqrt-growth response no longer sums one moment per sensor."""

    @pytest.mark.parametrize("model", [GAUSS, noise.laplacian(1.0), noise.cauchy(1.0)], ids=lambda m: m.kind)
    def test_sqrt_growth_matches_the_per_sigma_response(self, model):
        """Per-sigma frozen meshes missed by 2.3e-11 under Laplacian noise."""
        setup = _setup(noise=model, L=300, sigmas=est.sqrt_growth_sigmas(1.0))
        assert _response_gap(setup) <= 1e-12

    @pytest.mark.parametrize("model", [GAUSS, noise.cauchy(1.0)], ids=lambda m: m.kind)
    @pytest.mark.parametrize(
        "values",
        [(1e-50, 1.0), (1e-3, 1.0, 1e3), tuple(np.geomspace(1e-3, 1e3, 50))],
        ids=["1e-50,1", "1e-3,1,1e3", "geomspace-50"],
    )
    def test_explicit_lists_match_the_per_sigma_response(self, model, values):
        """One reference for all sigma passes its own check but misses the
        narrow densities by up to 0.5."""
        setup = _setup(noise=model, L=len(values), sigmas=est.SigmaSequence(est.EXPLICIT_LIST, values=values))
        assert _response_gap(setup) <= 1e-11

    @pytest.mark.parametrize("model", [GAUSS, noise.laplacian(1.0), noise.cauchy(1.0)], ids=lambda m: m.kind)
    def test_series_length_stays_flat_in_L(self, model):
        """Per-sigma frozen meshes held 1.2-1.3 million nodes at L=3000; the
        fitted series over [-3, 5] needs the same few coefficients at L=300 and 3000."""
        sizes = [
            _fitted(_setup(noise=model, L=L, sigmas=est.sqrt_growth_sigmas(1.0)), -3.0, 5.0)[2].size for L in (300, 3000)
        ]
        assert max(sizes) <= 129
        assert sizes[0] == sizes[1]

    def test_bands_split_at_the_ratio(self):
        values = np.array([1.0, 2.0, 4.0, 4.5, 16.0, 18.0, 100.0])
        bands = list(est._sigma_bands(values, values / values.sum()))
        assert [band.tolist() for band, _ in bands] == [[1.0, 2.0, 4.0], [4.5, 16.0, 18.0], [100.0]]


BAND_THETAS = (-3.0, 0.0, 0.4, 1.0, 5.0)


def _band_gap(setup):
    """max over ``BAND_THETAS`` of |mean_response - per-sigma response| / max(1, |h|)."""
    gaps = []
    for theta in BAND_THETAS:
        exact = per_sigma_response(setup, theta)
        gaps.append(abs(est.mean_response(setup, theta) - exact) / max(1.0, abs(exact)))
    return max(gaps)


def _recorded_quadratures(monkeypatch, run):
    """The (value, error, edges) of every adaptive quadrature ``run()`` makes, from a cold moment cache."""
    results = []
    quadrature = numerics.adaptive_quadrature

    def recording(*args, **kwargs):
        results.append(quadrature(*args, **kwargs))
        return results[-1]

    clear_moment_cache()
    monkeypatch.setattr(numerics, "adaptive_quadrature", recording)
    try:
        run()
    finally:
        monkeypatch.undo()
        clear_moment_cache()
    return results


class TestBandResponse:
    """``mean_response`` integrates one quadrature per sigma band and agrees
    with the per-sigma sum of moments (``oracles.per_sigma_response``)."""

    @pytest.mark.parametrize("model", [GAUSS, noise.laplacian(1.0), noise.cauchy(1.0)], ids=lambda m: m.kind)
    @pytest.mark.parametrize("L", [100, 1000, 3000])
    def test_sqrt_growth_matches_the_per_sigma_response(self, model, L):
        assert _band_gap(_setup(noise=model, L=L, sigmas=est.sqrt_growth_sigmas(1.0))) <= 1e-11

    @pytest.mark.parametrize("model", [GAUSS, noise.cauchy(1.0)], ids=lambda m: m.kind)
    @pytest.mark.parametrize(
        "values",
        [(1e-50, 1.0), (1e-3, 1.0, 1e3), tuple(np.geomspace(1e-3, 1e3, 50))],
        ids=["1e-50,1", "1e-3,1,1e3", "geomspace-50"],
    )
    def test_explicit_lists_match_the_per_sigma_response(self, model, values):
        setup = _setup(noise=model, L=len(values), sigmas=est.SigmaSequence(est.EXPLICIT_LIST, values=values))
        assert _band_gap(setup) <= 1e-11

    @pytest.mark.parametrize("model", [GAUSS, noise.laplacian(1.0), noise.cauchy(1.0)], ids=lambda m: m.kind)
    @pytest.mark.parametrize(
        "f",
        [tx.tanh_fn(0.75), tx.gudermannian_fn(2.0), tx.rational_fn(1.5), tx.uniform_quantizer_fn(1.0, 5), tx.linear_fn(1.0)],
        ids=lambda f: f.kind,
    )
    def test_curves_match_the_per_sigma_response(self, model, f):
        """The largest gap is 9e-13 relative: the linear curve's under Laplacian noise."""
        assert _band_gap(_setup(noise=model, L=300, sigmas=est.sqrt_growth_sigmas(1.0), transmit=f)) <= 1e-11

    @pytest.mark.parametrize("L", [1, 20, 10**4])
    @pytest.mark.parametrize("model", [GAUSS, noise.laplacian(1.0), noise.cauchy(1.0)], ids=lambda m: m.kind)
    def test_constant_sigma_is_bit_identical_to_g_moment(self, model, L):
        setup = _setup(noise=model, L=L, sigmas=est.constant_sigmas(0.7))
        for theta in BAND_THETAS:
            assert est.mean_response(setup, theta) == est.g_moment(model, setup.transmit, 0.7, theta, 1)

    def test_one_quadrature_per_sigma_band(self, monkeypatch):
        """sqrt_growth at L = 2000 has 3 bands; the per-sigma groups made 32 quadratures."""
        setup = _setup(L=2000, sigmas=est.sqrt_growth_sigmas(1.0))
        assert len(list(est._sigma_bands(*setup.sigma_shares()))) == 3
        assert len(_recorded_quadratures(monkeypatch, lambda: est.mean_response(setup, 1.0))) == 3

    @pytest.mark.parametrize(
        "model, sigmas, kink",
        [
            (noise.laplacian(1.0), est.sqrt_growth_sigmas(1.0), True),
            (noise.laplacian(1.0), est.constant_sigmas(1.0), True),
            (GAUSS, est.constant_sigmas(1.0), False),
        ],
        ids=["band", "lone", "lone-gaussian"],
    )
    def test_laplacian_band_takes_the_center_as_a_breakpoint(self, monkeypatch, model, sigmas, kink):
        """A Laplacian density, and a mixture of several, has a kink at n = 0,
        which every band takes as a breakpoint; a Gaussian band does not."""
        setup = _setup(noise=model, L=10, sigmas=sigmas)
        assert len(list(est._sigma_bands(*setup.sigma_shares()))) == 1
        [(_, _, edges)] = _recorded_quadratures(monkeypatch, lambda: est.mean_response(setup, 0.7))
        assert (0.0 in edges) == kink


class TestLaplacianAccuracy:
    """Every integral under Laplacian noise takes the density's kink at n = 0
    as a breakpoint, and matches a 30-digit reference (``oracles.laplacian_moment``)
    over the same truncated support."""

    T = noise.tail_truncation(noise.laplacian(1.0), 1e-12)

    def test_constant_sigma_fitted_response(self):
        setup = _setup(noise=noise.laplacian(1.0), L=20)
        thetas = np.linspace(-3.0, 5.0, 9)
        fitted = _fitted(setup, thetas[0], thetas[-1])[0](thetas)
        exact = [laplacian_moment(setup.transmit, 1.0, 1.0, float(theta), 1, self.T) for theta in thetas]
        assert np.max(np.abs(fitted - exact)) <= 1e-13

    @pytest.mark.parametrize("f", [tx.tanh_fn(0.75), tx.rational_fn(1.0), tx.linear_fn(1.0)], ids=lambda f: f.kind)
    def test_g_moment(self, f):
        for sigma in (1.0, 3.7, 17.0):
            for theta in (-3.0, 0.4, 5.0):
                for power in (1, 2):
                    exact = laplacian_moment(f, 1.0, sigma, theta, power, self.T)
                    got = est.g_moment(noise.laplacian(1.0), f, sigma, theta, power)
                    assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact)), (sigma, theta, power)


class TestMomentCache:
    def test_stays_within_its_bound(self):
        """The process-wide moment memo evicts its least recently used
        entries instead of growing with every distinct moment."""
        clear_moment_cache()
        try:
            f = tx.tanh_fn(1.0)
            for i in range(est.MOMENT_CACHE_SIZE + 20):
                est.g_moment(noise.gaussian(1.0), f, 1.0, 1e-3 * i)
            info = est._g_moments_cached.cache_info()
            assert info.misses == est.MOMENT_CACHE_SIZE + 20
            assert info.maxsize == est.MOMENT_CACHE_SIZE
            assert info.currsize == est.MOMENT_CACHE_SIZE
        finally:
            clear_moment_cache()
