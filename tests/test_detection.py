"""Deflection coefficient, quadratic detector, and duality contracts."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macfusion import detection as det
from macfusion import estimation as est
from macfusion import harness, kernels, noise, numerics, transmit as tx
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

    @pytest.mark.parametrize(
        "moments, priors, intervals",
        [
            pytest.param((0.0, 1.0, 2.0, 0.5), (0.5, 0.5), [(False, False)], id="bounded"),
            pytest.param((0.0, 0.0, 2.0, 1.0), (0.9, 0.1), [], id="a<0, no root"),
            pytest.param((0.0, 1.0, 0.5, 2.0), (0.4, 0.6), [(True, False), (False, True)], id="two half-lines"),
            pytest.param((0.0, 0.0, 1.0, 2.0), (0.1, 0.9), [(True, True)], id="a>0, no root"),
            pytest.param((0.0, 2.0, 1.0, 1.0), (0.5, 0.5), [(False, True)], id="equal variances, mean1 > mean0"),
            pytest.param((2.0, 0.0, 1.0, 1.0), (0.4, 0.6), [(True, False)], id="equal variances, mean1 < mean0"),
            pytest.param((1.0, 1.0, 1.0, 1.0), (0.5, 0.5), [(True, True)], id="a=b=0, ln(P1/P0) >= 0"),
            pytest.param((1.0, 1.0, 1.0, 1.0), (0.6, 0.4), [], id="a=b=0, ln(P1/P0) < 0"),
            # b = c = 0: the quadratic touches zero at y = mean0, and is positive elsewhere.
            pytest.param((0.0, 0.0, 1.0, 4.0), (1.0 / 3.0, 2.0 / 3.0), [(True, False), (False, True)], id="tangent"),
        ],
    )
    def test_unequal_variance_region_matches_density_comparison(self, moments, priors, intervals):
        """Every shape of the H1 region against P1 N(y; m1, v1) >= P0 N(y; m0, v0)
        on a grid; ``intervals`` says which ends of each interval are infinite."""
        (m0, m1, v0, v1), (p0, p1) = moments, priors
        d = det.GaussianApproxDetector(m0, m1, v0, v1, math.log(p1 / p0))
        region = det.h1_region(d)
        assert [(lo == -math.inf, hi == math.inf) for lo, hi in region] == intervals
        y = np.linspace(-8.0, 8.0, 1001)

        def normal_pdf(x, m, v):
            return np.exp(-0.5 * (x - m) ** 2 / v) / math.sqrt(2.0 * math.pi * v)

        brute = (p1 * normal_pdf(y, m1, v1) >= p0 * normal_pdf(y, m0, v0)).astype(np.uint8)
        assert np.array_equal(det.decide(d, y), brute)

    @pytest.mark.parametrize("moments", [(0.0, 1.0, 2.0, 0.5), (0.0, 1.0, 0.5, 2.0), (2.0, 0.0, 1.0, 1.0)])
    def test_extreme_and_non_finite_y_are_tested_for_membership(self, moments):
        """Far, infinite and NaN received values raise no RuntimeWarning: the
        llr's squares overflowed at 1e300 and took inf - inf at +-inf."""
        d = det.GaussianApproxDetector(*moments, 0.0)
        y = np.array([1e300, -1e300, math.inf, -math.inf, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = det.decide(d, y)
        want = [any(lo <= v <= hi for lo, hi in det.h1_region(d)) for v in y]
        assert got.tolist() == want
        assert got[-1] == 0

    def test_prior_scale_invariance(self):
        """Only the prior ratio enters, so common rescaling changes nothing."""
        base = det.GaussianApproxDetector(0.0, 1.5, 1.0, 2.0, math.log(0.7 / 0.3))
        scaled = det.GaussianApproxDetector(0.0, 1.5, 1.0, 2.0, math.log((0.7 * 3.7) / (0.3 * 3.7)))
        y = np.linspace(-6.0, 6.0, 501)
        assert np.array_equal(det.decide(base, y), det.decide(scaled, y))


_MAGNITUDES = st.floats(-3.0, 6.0).map(lambda e: 10.0**e)
_MEANS = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), _MAGNITUDES)


@st.composite
def _detectors_and_margins(draw):
    """Means and variances of magnitude 1e-3 to 1e6, equal variances half the
    time, P1 of 0.5 or anywhere in [0.05, 0.95], and a margin of 1e-12 to 1e2."""
    var0 = draw(_MAGNITUDES)
    var1 = var0 if draw(st.booleans()) else draw(_MAGNITUDES)
    p1 = draw(st.one_of(st.just(0.5), st.floats(0.05, 0.95)))
    detector = det.GaussianApproxDetector(draw(_MEANS), draw(_MEANS), var0, var1, math.log(p1 / (1.0 - p1)))
    return detector, draw(st.floats(-12.0, 2.0).map(lambda e: 10.0**e))


class TestSettledRegions:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=_detectors_and_margins())
    def test_decide_agrees_with_every_settled_interval(self, case):
        """``decide`` gives each settled interval's verdict at both ends widened
        by the margin and at random floats inside: the filter's certificate."""
        detector, margin = case
        edges, verdicts = det._settled_regions(detector, margin)
        assert np.all(np.diff(edges) >= 0.0)
        rng = np.random.default_rng(0)
        for (lo, hi), verdict in zip(edges.reshape(-1, 2), verdicts):
            y = np.concatenate([[lo - margin, lo, hi, hi + margin], rng.uniform(lo, hi, 32)])
            assert np.all(det.decide(detector, y) == verdict), (lo, hi, verdict)


class TestErrorProbability:
    def test_huge_snr_nearly_perfect(self):
        """rho_s = 60 dB, rho_c = 20 dB: errors all but vanish."""
        setup = _setup(theta=1000.0, total_power=100.0, channel_noise_var=1.0)
        assert harness.run_detection_experiment(setup, 10**4, 1)[0] < 0.01

    def test_zero_signal_errs_at_smaller_prior(self):
        setup = _setup(theta=0.0, priors=(0.3, 0.7))
        pe, stderr = harness.run_detection_experiment(setup, 10**4, 2)
        assert abs(pe - 0.3) <= 3.0 * max(stderr, 1e-3)

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
        pe, stderr = harness.run_detection_experiment(setup, 20000, 4, stream_id_base=1)
        assert abs(pe_strat - pe) < 3.0 * (se_strat + stderr)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            harness.run_detection_experiment(_setup(), 0, 5)

    def test_stratified_counts_need_both_hypotheses(self):
        """A stratified Pe weighs each hypothesis's error rate; a hypothesis
        without trials had its rate taken as 0. A pooled Pe needs no split."""
        for trials_by_h in ((0, 1), (1000, 0)):
            with pytest.raises(ValueError, match="trials of both hypotheses"):
                det.summarize_errors((0.9995, 0.0005), trials_by_h, (0, 0), True)
        assert det.summarize_errors((0.5, 0.5), (0, 1), (0, 0), False) == (0.0, 0.0)
        # The splits that give a hypothesis no trials: round(0.5) = 0, round(999.5) = 1000.
        assert det.stratified_h0_trials((0.5, 0.5), 1) == 0
        assert det.stratified_h0_trials((0.9995, 0.0005), 1000) == 1000
        assert det.stratified_h0_trials((0.9995, 0.0005), 2000) == 1999

    @pytest.mark.parametrize("stratified", [False, True])
    def test_bracket_filter_settles_all_but_a_few_trials(self, monkeypatch, stratified):
        """fig5's setup at omega = 1 over eight draw blocks: under 1% of the
        trials reach ``decide``. A filter that settled nothing would still
        count right, only at the old cost; this is what catches it."""
        setup = _setup(theta=math.sqrt(10.0), total_power=10**0.3)
        trials = 8 * numerics.DRAW_BLOCK_ELEMENTS // (setup.L + 2)
        decide = det.decide
        reached = []
        monkeypatch.setattr(det, "decide", lambda d, y: reached.append(np.size(y)) or decide(d, y))
        trials_by_h, _ = det.simulate_decisions(setup, det.build_detector(setup), trials, RngStream(6, 0), stratified=stratified)
        assert trials_by_h.sum() == trials
        assert 0 < sum(reached) < 0.01 * trials

    @pytest.mark.parametrize("stratified", [False, True])
    def test_unsettled_trials_run_through_the_exact_pipeline_once_per_point(self, monkeypatch, stratified):
        """fig5's setup over eight draw blocks: the few trials the filter
        leaves wait in the stash, which they do not fill, so the channel
        sums and ``decide`` each run once for the point, not once per block."""
        setup = _setup(theta=math.sqrt(10.0), total_power=10**0.3)
        trials = 8 * numerics.DRAW_BLOCK_ELEMENTS // (setup.L + 2)
        calls = {"channel_sums": 0, "decide": 0}
        for module, name in ((kernels, "channel_sums"), (det, "decide")):
            original = getattr(module, name)

            def counted(*args, original=original, name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        trials_by_h, _ = det.simulate_decisions(setup, det.build_detector(setup), trials, RngStream(6, 0), stratified=stratified)
        assert trials_by_h.sum() == trials
        assert calls == {"channel_sums": 1, "decide": 1}

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("transmit", [tx.tanh_fn(0.74), tx.rational_fn(4.2)], ids=lambda f: f.kind)
    def test_bounded_curves_settle_their_end_cells(self, monkeypatch, transmit, stratified):
        """fig6's setup at L=30 and about its DC-optimal omegas: under 0.2%
        of 20,000 trials reach ``decide``, for the rational curve as for
        tanh. The rational curve is inf/inf at the transform's limits, so
        its end cells are bounded by its limits; left unbounded, they sent
        about 1.5% of the trials to ``decide``."""
        setup = _setup(theta=math.sqrt(10.0), L=30, transmit=transmit, total_power=1.0)
        decide = det.decide
        reached = []
        monkeypatch.setattr(det, "decide", lambda d, y: reached.append(np.size(y)) or decide(d, y))
        det.simulate_decisions(setup, det.build_detector(setup), 20000, RngStream(6, 0), stratified=stratified)
        assert 0 < sum(reached) < 0.002 * 20000


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

    @pytest.mark.parametrize(
        "f, reference",
        [
            (tx.tanh_fn(1.0), lambda x: 1.0 / (np.pi * np.cosh(x))),
            (lambda x: np.sign(x), lambda x: 0.5 * np.exp(-np.abs(x))),
        ],
        ids=["tanh-sech", "sign-laplace"],
    )
    def test_density_beyond_the_mesh(self, f, reference):
        """The frozen mesh ends where A reaches 46 nats (|x| = 64 for both
        curves); beyond it one panel runs from the mesh's end edge, the
        first one backwards."""
        density = det.matched_density(f)
        x = np.array([-300.0, -100.0, -64.5, 64.5, 100.0, 300.0])
        assert np.max(np.abs(density(x) / reference(x) - 1.0)) < 1e-9
        assert [density(v) for v in x] == pytest.approx(reference(x), rel=1e-9)

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
            pes.append(harness.run_detection_experiment(point, trials, 606, stream_id_base=k * harness.POINT_STREAM_STRIDE))
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
