"""Mean response, inversion estimator, asymptotic variance, AF baseline."""

import math

import numpy as np
import pytest
from scipy.stats import jarque_bera

from macfusion import noise, transmit as tx
from macfusion import estimation as est
from macfusion import harness, kernels, numerics
from macfusion.numerics import QuadratureSpec
from macfusion.transmit import UnsupportedKindError
from oracles import af_estimate, clear_moment_cache, estimate, estimate_info, from_variance, scalar_mesh_is_valid

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
        alpha, nominal = est.af_gain(setup)
        sigmas = setup.sigmas.resolve(5)
        expected = 1.0 + np.mean(sigmas * draws) + chan / (5 * alpha)
        assert not nominal
        assert af_estimate(setup, draws, chan) == pytest.approx(expected, rel=1e-14)

    def test_gain_satisfies_power_constraint(self):
        setup = _setup(L=50, theta=0.6)
        alpha, _ = est.af_gain(setup)
        sigmas = setup.sigmas.resolve(50)
        total = alpha**2 * np.sum(0.6**2 + sigmas**2 * noise.variance(setup.noise))
        assert total == pytest.approx(setup.total_power, rel=1e-12)

    @pytest.mark.parametrize("L", [1, 9, 128, 129, 8193, 100_003])
    def test_constant_gain_is_bit_identical_to_the_materialized_sum(self, L):
        """af_gain sums one term broadcast over L sensors; numpy's pairwise
        sum gives the same bits as summing L materialized terms."""
        setup = _setup(L=L, theta=0.6, sigmas=est.constant_sigmas(1.7), noise=noise.laplacian(0.8))
        sigma_n2, _ = noise.nominal_variance(setup.noise)
        expected = math.sqrt(setup.total_power / float(np.sum(0.6**2 + np.full(L, 1.7) ** 2 * sigma_n2)))
        assert est.af_gain(setup)[0] == expected

    def test_cauchy_uses_nominal_variance(self):
        setup = _setup(noise=noise.cauchy(1.0))
        _, nominal = est.af_gain(setup)
        assert nominal

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


class TestFlatResponseFastPath:
    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_matches_adaptive_everywhere(self, kind):
        setup = _setup(noise=noise.NoiseModel(kind, 1.0), L=40)
        flat = est.build_flat_response(setup)
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-6.0, 6.0, size=9):
            assert flat.eval_one(theta) == pytest.approx(est.mean_response(setup, theta), abs=2e-9)

    def test_batch_inversion_round_trip(self):
        setup = _setup()
        flat = est.build_flat_response(setup)
        rng = np.random.default_rng(4)
        thetas = rng.uniform(-4.0, 4.0, size=64)
        targets = flat.eval(thetas)
        solved, clamped = flat.invert(targets)
        assert not clamped.any()
        assert np.allclose(solved, thetas, atol=1e-8)

    def test_clamp_mask_counts_extremes(self):
        setup = _setup()
        flat = est.build_flat_response(setup)
        _, clamped = flat.invert(np.array([0.0, 2.0, -2.0]))
        assert list(clamped) == [False, True, True]

    def test_limit_is_the_frozen_supremum(self):
        """A response that drops tail mass 1e-3 saturates at 1 - 1e-3, not at
        sup |f| = 1: a target of 0.9995 clamps inside that range instead of
        ending in "no theta below 1e18 brings h above the target"."""
        flat = est.build_flat_response(_setup(L=40), QuadratureSpec(tail_mass=1e-3))
        assert flat.limit == pytest.approx(1.0 - 1e-3, abs=1e-12)
        thetas, clamped = flat.invert(np.array([0.9995, -0.9995, 0.5]))
        assert list(clamped) == [True, True, False]
        margin = flat.limit - est.CLAMP_MARGIN
        assert flat.eval(thetas) == pytest.approx([margin, -margin, 0.5], abs=1e-12)

    def test_chunked_inversion_matches_one_kernel_call(self, monkeypatch):
        """Chunks of 7 targets give the bits of one ``invert_h_targets``
        call: every target iterates on its own values, from one seed grid."""
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
        assert calls == [102] + [7] * 14 + [4]
        assert whole_clamped.sum() == 2
        assert np.array_equal(whole_clamped, chunked_clamped)
        assert whole.tobytes() == chunked.tobytes()

    def test_clamped_targets_do_not_stretch_the_seed_grid(self, monkeypatch):
        """Two margin targets cost a few evaluations, not wider grid cells.

        On the slowly saturating rational curve the clamp value c - 1e-9 is
        reached only near |theta| ~ 4e8; a seed grid stretched that far made
        every other target iterate longer (16 response evaluations per
        target instead of 6).
        """
        setup = _setup(transmit=tx.rational_fn(2.7))
        flat = est.build_flat_response(setup)
        targets = np.concatenate([harness.run_signal_statistics(setup, 4000, 31)["z_targets"], [-1.0, 1.0]])
        rows = []
        evaluate = kernels.eval_response

        def counting(nodes, weights, f, thetas):
            rows.append(np.size(thetas))
            return evaluate(nodes, weights, f, thetas)

        monkeypatch.setattr(kernels, "eval_response", counting)
        thetas, clamped = flat.invert(targets)
        monkeypatch.undo()
        assert clamped.sum() == 2
        assert sum(rows) <= 6.5 * targets.size
        margin = flat.limit - est.CLAMP_MARGIN
        residual = flat.eval(thetas[clamped]) - np.array([-margin, margin])
        assert np.all(np.abs(residual) <= 4 * np.spacing(margin))
        inner = ~clamped
        assert np.max(np.abs(flat.eval(thetas[inner]) - targets[inner])) <= 8 * np.finfo(float).eps


def _halve(edges):
    return np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))


def _check_decisions(setup, *, every=1, scale=1.0, mesh_spec=None):
    """(scalar oracle, batched check) verdicts on each mesh build_flat_response would test.

    Walks every ``every``-th distinct sigma through up to four halving
    passes, like ``build_flat_response``; ``scale`` multiplies the frozen
    weights and ``mesh_spec`` builds a coarser mesh than the checks.
    """
    spec = QuadratureSpec()
    probes = est._probes(setup)
    check = np.unique(np.concatenate([probes, 0.5 * (probes[:-1] + probes[1:])]))
    values, counts = setup.sigmas.distinct(setup.L)
    exact = est.g_moment(setup.noise, setup.transmit, values, check, 1, spec)
    verdicts = []
    for k in sorted({*range(0, values.size, every), values.size - 1}):
        sigma, count = values[k], counts[k]
        share = count / setup.L
        edges = est._probability_mesh(setup.noise, setup.transmit, float(sigma), probes, mesh_spec or spec)
        for _ in range(4):
            v_nodes, v_weights = numerics.fixed_mesh_nodes(edges)
            nodes = sigma * np.asarray(noise.quantile(setup.noise, v_nodes))
            weights = scale * share * v_weights
            old = scalar_mesh_is_valid(setup, nodes, weights, sigma, count, probes, spec)
            flat = kernels.eval_response(nodes, weights, setup.transmit, check)
            new = est._worst_check(flat, share * exact[:, k], check) is None
            verdicts.append((old, new))
            if old and new:
                break
            edges = _halve(edges)
    return verdicts


FIG4_CURVES = [tx.tanh_fn, tx.gudermannian_fn, tx.rational_fn]
FIG4_OMEGAS = np.linspace(0.3, 3.0, 10)


class TestBatchedMeshCheck:
    """One vector quadrature per sigma group decides like the 13 scalar checks it replaced."""

    @pytest.mark.parametrize("make", FIG4_CURVES, ids=lambda make: make.__name__)
    def test_fig4_curves_on_the_omega_grid(self, make):
        for omega in FIG4_OMEGAS:
            verdicts = _check_decisions(_setup(transmit=make(float(omega))))
            assert all(old == new for old, new in verdicts)
            assert verdicts[-1] == (True, True)

    def test_cauchy_af(self):
        for L in (100, 1000, 10000):
            verdicts = _check_decisions(_setup(noise=noise.cauchy(1.0), L=L))
            assert verdicts == [(True, True)]

    def test_sqrt_growth_at_L_300(self):
        """Every 23rd of the 300 distinct sigma, and the largest, under Cauchy noise."""
        setup = _setup(noise=noise.cauchy(1.0), L=300, sigmas=est.sqrt_growth_sigmas(1.0))
        verdicts = _check_decisions(setup, every=23)
        assert len(verdicts) >= 14
        assert all(old == new for old, new in verdicts)

    def test_perturbed_mesh_is_rejected_by_both(self):
        verdicts = _check_decisions(_setup(noise=noise.cauchy(1.0)), scale=1.0 + 1e-6)
        assert verdicts == [(False, False)] * 4

    def test_coarse_mesh_is_refined_the_same_way(self):
        """A mesh built to 1e-6 fails the first checks and passes after halving, for both."""
        setup = _setup(noise=noise.laplacian(1.0))
        verdicts = _check_decisions(setup, mesh_spec=QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9))
        assert all(old == new for old, new in verdicts)
        assert verdicts[0] == (False, False) and verdicts[-1] == (True, True)


class TestCheckQuadratureCount:
    def _count(self, monkeypatch, setup, **kwargs):
        """(mesh quadratures, check quadratures) of one build with a cold moment cache."""
        clear_moment_cache()
        calls = {"mesh": 0, "check": 0}
        quadrature = numerics.adaptive_quadrature

        def counting(key):
            def run(*args, **kw):
                calls[key] += 1
                return quadrature(*args, **kw)

            return run

        monkeypatch.setattr(est, "adaptive_quadrature", counting("mesh"))
        monkeypatch.setattr(numerics, "adaptive_quadrature", counting("check"))
        try:
            est.build_flat_response(setup, **kwargs)
        finally:
            monkeypatch.undo()
            clear_moment_cache()
        return calls["mesh"], calls["check"]

    def test_one_check_quadrature_per_sigma_group(self, monkeypatch):
        assert self._count(monkeypatch, _setup(noise=noise.cauchy(1.0))) == (1, 1)
        group = est.MOMENT_GROUP // 13
        setup = _setup(L=30, sigmas=est.sqrt_growth_sigmas(1.0))
        assert self._count(monkeypatch, setup) == (30, -(-30 // group))

    def test_refinement_passes_reuse_the_check_moments(self, monkeypatch):
        fixed_mesh_nodes = est.fixed_mesh_nodes

        def perturbed(edges):
            nodes, weights = fixed_mesh_nodes(edges)
            return nodes, weights * (1.0 + 1e-6)

        monkeypatch.setattr(est, "fixed_mesh_nodes", perturbed)
        with pytest.raises(est.MeshValidationError, match="theta="):
            self._count(monkeypatch, _setup())
