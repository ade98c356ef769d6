"""Deflection coefficient, quadratic detector, and duality contracts."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from macfusion import detection as det
from macfusion import estimation as est
from macfusion import harness, noise, transmit as tx
from macfusion.numerics import RngStream, adaptive_quadrature

GAUSS = noise.gaussian(1.0)


def _setup(**kwargs):
    base = dict(
        theta=1.0,
        L=20,
        sigmas=est.constant_sigmas(1.0),
        noise=GAUSS,
        transmit=tx.tanh_fn(1.0),
        total_power=2.0,
        channel_noise_var=1.0,
        priors=(0.5, 0.5),
    )
    base.update(kwargs)
    return det.DetectionSetup(**base)


class TestDeflection:
    def test_zero_signal_gives_zero(self):
        assert det.deflection(_setup(theta=0.0)) == 0.0

    def test_linear_closed_form(self):
        """D = theta^2 / (sigma^2 sigma_n^2 + sigma_v^2/(P_T alpha^2))."""
        setup = _setup(
            transmit=tx.linear_fn(2.0),
            sigmas=est.constant_sigmas(1.5),
            noise=noise.gaussian(0.8),
            theta=1.0,
        )
        expected = 1.0 / (1.5**2 * 0.8**2 + 1.0 / (2.0 * 2.0**2))
        assert det.deflection(setup) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    @pytest.mark.parametrize("levels", [3, 5])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_quantizer_positive(self, kind, levels, theta):
        """Quantized transmissions keep a strictly positive deflection."""
        setup = _setup(
            theta=theta,
            noise=noise.NoiseModel(kind, 1.0),
            transmit=tx.uniform_quantizer_fn(x_max=1.0, levels=levels),
        )
        assert det.deflection(setup) > 0.0

    def test_constant_sigmas_exactly_L_invariant(self):
        values = {L: det.deflection(_setup(L=L)) for L in (10, 100, 1000, 10000)}
        assert len(set(values.values())) == 1  # bit-identical across L

    def test_vanishes_under_sqrt_growth(self):
        """D_L falls monotonically once sigma_i = sqrt(i) diverges."""
        ds = [det.deflection(_setup(L=L, sigmas=est.sqrt_growth_sigmas(1.0))) for L in (10, 100, 1000)]
        assert ds[1] < ds[0] and ds[2] < ds[1]

    def test_positive_for_bounded_sigmas_across_L(self):
        ds = [det.deflection(_setup(L=L)) for L in (10, 100, 1000, 10000)]
        assert min(ds) > 0.1 * max(ds)
        assert min(ds) > 0.0

    def test_numerator_shift_increases_in_theta(self):
        """The per-sigma mean shift grows strictly with theta (smooth f)."""
        setup = _setup()
        thetas = np.linspace(0.0, 3.0, 13)
        shifts = [
            est.g_moment(setup.noise, setup.transmit, 1.0, t, 1) - est.g_moment(setup.noise, setup.transmit, 1.0, 0.0, 1)
            for t in thetas
        ]
        assert all(b > a for a, b in zip(shifts, shifts[1:]))


class TestOptimalOmega:
    def test_constant_objective_ties_to_lo(self):
        setup = _setup(transmit=tx.linear_fn(1.0))
        omega, _ = det.optimal_omega(setup, 0.25, 3.0, 16)
        assert omega == 0.25

    def test_stable_across_grid_resolutions(self):
        setup = _setup(theta=math.sqrt(10.0), total_power=10**0.3)
        w32, _ = det.optimal_omega(setup, 0.1, 3.0, 32)
        w64, _ = det.optimal_omega(setup, 0.1, 3.0, 64)
        assert abs(w32 - w64) <= (3.0 - 0.1) / 32.0

    def test_cauchy_heavy_tail_interior_optimum(self):
        setup = _setup(theta=math.sqrt(10.0), total_power=10**0.3, noise=noise.cauchy(1.0))
        omega, dval = det.optimal_omega(setup, 0.1, 3.0, 32)
        assert omega > 0.0 and math.isfinite(omega)
        assert dval > 0.0


class TestDetectorMoments:
    def test_degenerate_at_zero_theta(self):
        d = det.build_detector(_setup(theta=0.0))
        assert d.mean0 == d.mean1
        assert d.var0 == d.var1

    def test_odd_transmit_zero_mean_under_h0(self):
        d = det.build_detector(_setup())
        assert d.mean0 == pytest.approx(0.0, abs=1e-10)

    def test_linear_gaussian_matches_exact_model(self):
        """With f = alpha x the channel output is exactly Gaussian."""
        alpha, sig, sn = 0.7, 1.3, 0.9
        setup = _setup(transmit=tx.linear_fn(alpha), sigmas=est.constant_sigmas(sig), noise=noise.gaussian(sn))
        d = det.build_detector(setup)
        var_expected = setup.total_power * alpha**2 * sig**2 * sn**2 + setup.channel_noise_var
        mean1_expected = math.sqrt(setup.total_power * setup.L) * alpha * setup.theta
        assert d.var0 == pytest.approx(var_expected, rel=1e-9)
        assert d.var1 == pytest.approx(var_expected, rel=1e-9)
        assert d.mean1 == pytest.approx(mean1_expected, rel=1e-9)
        assert d.mean0 == pytest.approx(0.0, abs=1e-9)


class TestDecide:
    def test_midpoint_tie_goes_to_h1(self):
        d = det.GaussianApproxDetector(mean0=0.0, mean1=2.0, var0=1.0, var1=1.0, log_prior_ratio=0.0)
        assert det.decide(d, 1.0) == 1
        assert det.decide(d, 1.0 - 1e-9) == 0

    def test_decides_h1_at_its_mean(self):
        d = det.GaussianApproxDetector(mean0=0.0, mean1=5.0, var0=1.0, var1=1.0, log_prior_ratio=0.0)
        assert det.decide(d, 5.0) == 1

    def test_unequal_variance_region_matches_density_comparison(self):
        """var1 = 4 var0 carves two H1 intervals; compare densities directly."""
        d = det.GaussianApproxDetector(mean0=0.0, mean1=1.0, var0=0.5, var1=2.0, log_prior_ratio=math.log(0.6 / 0.4))
        y = np.linspace(-8.0, 8.0, 1001)

        def normal_pdf(x, m, v):
            return np.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v)

        brute = (0.6 * normal_pdf(y, 1.0, 2.0) >= 0.4 * normal_pdf(y, 0.0, 0.5)).astype(np.uint8)
        assert np.array_equal(det.decide(d, y), brute)
        flips = np.flatnonzero(np.diff(det.decide(d, y).astype(int)))
        assert flips.size == 2  # two-interval decision region

    def test_prior_scale_invariance(self):
        """Only the prior ratio enters, so common rescaling changes nothing."""
        base = det.GaussianApproxDetector(0.0, 1.5, 1.0, 2.0, math.log(0.7 / 0.3))
        scaled = det.GaussianApproxDetector(0.0, 1.5, 1.0, 2.0, math.log((0.7 * 3.7) / (0.3 * 3.7)))
        y = np.linspace(-6.0, 6.0, 501)
        assert np.array_equal(det.decide(base, y), det.decide(scaled, y))


class TestErrorProbability:
    def test_huge_snr_nearly_perfect(self):
        """rho_s = 60 dB, rho_c = 20 dB: errors all but vanish."""
        setup = _setup(theta=1000.0, total_power=100.0, channel_noise_var=1.0)
        assert harness.run_detection_experiment(setup, 10**4, 1).aggregates["pe"] < 0.01

    def test_zero_signal_errs_at_smaller_prior(self):
        setup = _setup(theta=0.0, priors=(0.3, 0.7))
        aggregates = harness.run_detection_experiment(setup, 10**4, 2).aggregates
        assert abs(aggregates["pe"] - 0.3) <= 3.0 * max(aggregates["stderr"], 1e-3)

    def test_stream_draw_accounting(self):
        setup = _setup(L=7)
        stream = RngStream(3, 0)
        det.simulate_decisions(setup, det.build_detector(setup), 100, stream)
        assert stream.counter == 100 * (7 + 2)

    def test_stratified_draw_accounting_and_agreement(self):
        setup = _setup(theta=math.sqrt(10.0), total_power=10**0.3)
        stream = RngStream(4, 0)
        trials_by_h, errors_by_h = det.simulate_decisions(setup, det.build_detector(setup), 20000, stream, stratified=True)
        assert stream.counter == 20000 * (setup.L + 1)
        assert list(trials_by_h) == [10000, 10000]
        pe_strat, se_strat = det.summarize_errors(setup.priors, trials_by_h, errors_by_h, True)
        plain = harness.run_detection_experiment(setup, 20000, 4, stream_id_base=1).aggregates
        assert abs(pe_strat - plain["pe"]) < 3.0 * (se_strat + plain["stderr"])

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            harness.run_detection_experiment(_setup(), 0, 5)


class TestLocallyOptimal:
    def test_gaussian_score_is_linear(self):
        f = det.locally_optimal_nonlinearity(noise.gaussian(0.5))
        x = np.linspace(-3.0, 3.0, 7)
        assert np.allclose(f(x), x / 0.25)

    def test_laplacian_score_is_hard_clipper(self):
        f = det.locally_optimal_nonlinearity(noise.laplacian(1.0))
        assert f(2.3) == 1.0 and f(-0.4) == -1.0

    def test_sech_density_yields_tanh(self):
        """-p'/p of the normalized sech density is tanh."""
        x = np.linspace(-5.0, 5.0, 41)
        h = 1e-6
        sech_pdf = lambda t: 1.0 / (np.pi * np.cosh(t))
        score = -(np.log(sech_pdf(x + h)) - np.log(sech_pdf(x - h))) / (2.0 * h)
        assert np.allclose(score, np.tanh(x), atol=1e-6)


class TestMatchedDensity:
    def test_tanh_gives_normalized_sech(self):
        density = det.matched_density(tx.tanh_fn(1.0))
        x = np.linspace(-10.0, 10.0, 201)
        assert np.max(np.abs(density(x) - 1.0 / (np.pi * np.cosh(x)))) < 1e-6

    def test_tanh_density_integrates_to_one(self):
        density = det.matched_density(tx.tanh_fn(1.0))
        val, _, _ = adaptive_quadrature(density, -60.0, 60.0, rel_tol=1e-10, abs_tol=1e-14)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_tanh_density_score_round_trip(self):
        density = det.matched_density(tx.tanh_fn(1.0))
        x = np.linspace(-4.0, 4.0, 17)
        h = 1e-6
        score = -(np.log(density(x + h)) - np.log(density(x - h))) / (2.0 * h)
        assert np.allclose(score, np.tanh(x), atol=1e-6)

    def test_identity_gives_standard_gaussian(self):
        density = det.matched_density(tx.linear_fn(1.0))
        x = np.linspace(-8.0, 8.0, 17)
        ref = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(density(x) - ref)) < 1e-8

    def test_sign_clipper_gives_laplace(self):
        density = det.matched_density(lambda x: np.sign(x))
        x = np.linspace(-9.0, 9.0, 61)
        ref = 0.5 * np.exp(-np.abs(x))
        assert np.max(np.abs(density(x) - ref)) < 1e-8

    @pytest.mark.parametrize("model", [noise.gaussian(1.0), noise.laplacian(1.0)])
    def test_score_density_round_trip(self, model):
        """matched_density(score of p) reproduces p on [-10, 10]."""
        density = det.matched_density(det.locally_optimal_nonlinearity(model))
        x = np.linspace(-10.0, 10.0, 81)
        assert np.max(np.abs(density(x) - noise.pdf(model, x))) < 1e-6

    def test_vanishing_tail_slope_rejected(self):
        dead = lambda x: np.where(np.abs(x) <= 1.0, x, np.sign(x) * 0.0)
        with pytest.raises(det.NonNormalizableError):
            det.matched_density(dead)


class TestDcOptimumQuality:
    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_pe_at_dc_optimum_near_minimum(self, kind):
        """Tuning omega by deflection nearly minimizes the error rate:
        Pe at the DC-optimal omega stays within 10% (or MC noise) of the
        smallest Pe seen across the omega range."""
        model = noise.NoiseModel(kind, 1.0 if kind != "laplacian" else 1.0 / math.sqrt(2.0))
        base = _setup(theta=math.sqrt(10.0), total_power=10**0.3, noise=model)
        omega_star, _ = det.optimal_omega(base, 0.1, 3.0, 32)
        trials = 300000
        omegas = list(np.linspace(0.2, 2.5, 10)) + [omega_star]
        pes = []
        for k, w in enumerate(omegas):
            point = replace(base, transmit=tx.with_omega(base.transmit, float(w)))
            summary = harness.run_detection_experiment(point, trials, 606, stream_id_base=k * harness.POINT_STREAM_STRIDE)
            pes.append((summary.aggregates["pe"], summary.aggregates["stderr"]))
        pe_star, se_star = pes[-1]
        best, se_best = min(pes[:-1])
        assert pe_star <= best + max(0.10 * best, 4.0 * (se_star + se_best))


class TestSetupValidation:
    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            _setup(theta=-0.5)

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            _setup(priors=(0.5, 0.6))
        with pytest.raises(ValueError):
            _setup(priors=(1.0, 0.0))

    def test_is_the_estimation_channel_plus_priors(self):
        """Positional construction keeps the field order; every field swap
        re-runs the channel checks and the detection checks."""
        setup = det.DetectionSetup(1.0, 20, est.sqrt_growth_sigmas(1.0), GAUSS, tx.tanh_fn(1.0), 2.0, 1.0, (0.3, 0.7))
        assert isinstance(setup, est.EstimationSetup)
        assert [f.name for f in fields(setup)] == [f.name for f in fields(est.EstimationSetup)] + ["priors"]
        assert setup.rho == 0.1
        values, shares = setup.sigma_shares()
        assert np.array_equal(values, np.sqrt(np.arange(1.0, 21.0))) and np.all(shares == 1 / 20)
        bad = [("theta", -0.5), ("L", 0), ("total_power", 0.0), ("channel_noise_var", math.inf), ("priors", (0.5, 0.6))]
        for name, value in bad:
            with pytest.raises(ValueError):
                replace(setup, **{name: value})
