"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 4's amplify-and-forward half is implemented exactly as stated and
fails for a documented mathematical reason (see the analysis note in the
test); every other criterion passes at its stated tolerance.
"""

import math
from dataclasses import replace
import time

import numpy as np
from scipy.stats import jarque_bera

from macfusion import cli, detection as det, estimation as est, harness, noise, transmit as tx

from oracles import estimate, from_variance
from test_numerics import quadrature_vs_mc_matrix

SQRT10 = math.sqrt(10.0)
RHO_C_3DB = 10**0.3

NOISE_UNIT_VARIANCE = {
    "gaussian": noise.gaussian(1.0),
    "laplacian": noise.laplacian(1.0 / math.sqrt(2.0)),
    "cauchy": noise.cauchy(1.0),  # nominal unit squared-scale
}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def _fig2_setup(model, omega, L=500):
    return est.EstimationSetup(
        theta=1.0,
        L=L,
        sigmas=est.constant_sigmas(1.0),
        noise=model,
        transmit=tx.tanh_fn(omega),
        total_power=10.0,
        channel_noise_var=1.0,
    )


def _fig5_setup(model, omega=1.0, L=20, total_power=RHO_C_3DB):
    return det.DetectionSetup(
        theta=SQRT10,
        L=L,
        sigmas=est.constant_sigmas(1.0),
        noise=model,
        transmit=tx.tanh_fn(omega),
        total_power=total_power,
        channel_noise_var=1.0,
        priors=(0.5, 0.5),
    )


class TestCriterion1AsvAgreement:
    def test_lvar_tracks_asv_on_omega_grid(self):
        """10% band at every omega for all three noise families, plus the
        finite-sample gap ordering at L=25 vs L=500 (Laplacian, omega=0.75)."""
        start = time.time()
        omegas = np.linspace(0.3, 3.0, 10)
        trials = 10**4
        worst = ("", 0.0)
        failures = []
        for name, model in NOISE_UNIT_VARIANCE.items():
            for k, omega in enumerate(omegas):
                setup = _fig2_setup(model, float(omega))
                asv = est.asymptotic_variance(setup)
                estimates = harness.run_estimation_experiment(
                    setup, trials, 1001, stream_id_base=k * harness.POINT_STREAM_STRIDE
                )
                rel = abs(harness.l_var(estimates, setup.L) - asv) / asv
                if rel > worst[1]:
                    worst = (f"{name}@omega={omega:.2f}", rel)
                if rel > 0.10:
                    failures.append((name, float(omega), rel))

        gaps = {}
        for L in (25, 500):
            setup = _fig2_setup(NOISE_UNIT_VARIANCE["laplacian"], 0.75, L=L)
            asv = est.asymptotic_variance(setup)
            estimates = harness.run_estimation_experiment(setup, trials, 1002)
            gaps[L] = abs(harness.l_var(estimates, L) - asv)
        finite_sample_ok = gaps[25] > gaps[500]
        elapsed = time.time() - start
        ok = not failures and finite_sample_ok and elapsed < 300.0
        _report(
            1,
            ok,
            f"L*var within 10% of AsV over 10-point omega grid, 3 noise families "
            f"(worst {worst[0]} at {worst[1]:.1%}); gap(L=25)={gaps[25]:.3f} > gap(L=500)={gaps[500]:.3f}; "
            f"{elapsed:.0f}s (< 300s target)",
        )
        assert not failures, f"relative gaps above 10%: {failures}"
        assert finite_sample_ok
        assert elapsed < 300.0


class TestCriterion2ClosedFormAnchors:
    def test_linear_transmit_formulas(self):
        """Generic quadrature pipeline hits the analytic AsV and DC."""
        alpha, sigma_n, p_t, sv2, sigma, theta = 2.0, 0.8, 2.0, 1.3, 1.5, 1.0
        esetup = est.EstimationSetup(
            theta=theta, L=100, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(sigma_n),
            transmit=tx.linear_fn(alpha), total_power=p_t, channel_noise_var=sv2,
        )
        asv = est.asymptotic_variance(esetup)
        asv_ref = sigma_n**2 + sv2 / (p_t * alpha**2)
        dsetup = det.DetectionSetup(
            theta=theta, L=20, sigmas=est.constant_sigmas(sigma), noise=noise.gaussian(sigma_n),
            transmit=tx.linear_fn(alpha), total_power=p_t, channel_noise_var=sv2,
        )
        dc = det.deflection(dsetup)
        dc_ref = theta**2 / (sigma**2 * sigma_n**2 + sv2 / (p_t * alpha**2))
        asv_rel = abs(asv - asv_ref) / asv_ref
        dc_rel = abs(dc - dc_ref) / dc_ref
        ok = asv_rel < 1e-6 and dc_rel < 1e-6
        _report(2, ok, f"linear-transmit anchors: AsV rel err {asv_rel:.2e}, DC rel err {dc_rel:.2e} (< 1e-6)")
        assert ok


class TestCriterion3CauchyRobustness:
    def test_bounded_shrinks_af_does_not(self):
        """Cauchy sensing noise, sigma_i = 1, 1e3 trials per point."""
        maes = {}
        for estimator in ("bounded", "af"):
            maes[estimator] = {}
            for k, L in enumerate((100, 10**4)):
                setup = est.EstimationSetup(
                    theta=1.0, L=L, sigmas=est.constant_sigmas(1.0), noise=noise.cauchy(1.0),
                    transmit=tx.tanh_fn(0.75), total_power=10.0, channel_noise_var=1.0,
                )
                estimates = harness.run_estimation_experiment(
                    setup, 1000, 3003, estimator=estimator, stream_id_base=k * harness.POINT_STREAM_STRIDE
                )
                maes[estimator][L] = harness.median_abs_error(estimates, setup.theta)
        bounded_ratio = maes["bounded"][100] / maes["bounded"][10**4]
        af_ratio = maes["af"][100] / maes["af"][10**4]
        ok = bounded_ratio >= 2.0 and af_ratio <= 1.2
        _report(
            3,
            ok,
            f"Cauchy: bounded error shrinks {bounded_ratio:.1f}x (>= 2x), AF shrinks {af_ratio:.2f}x (<= 1.2x)",
        )
        assert bounded_ratio >= 2.0
        assert af_ratio <= 1.2


class TestCriterion4DegenerationVsAf:
    def test_response_collapses_while_af_shrinks(self):
        """Faithful to the stated criterion; both numeric thresholds are
        unattainable at sigma_i = sqrt(i) and the test is expected to fail.

        Response gap: |h_L(1) - h_L(0)| = L^-1 sum_i g(sqrt(i)) with
        g(sigma) ~ C/sigma, i.e. ~2C/sqrt(L); a 100x increase in L shrinks
        it 10x (measured 0.1375 -> 0.0157, ratio 0.114), never below 0.05.
        The degeneration itself is real and monotone, just with a 1/sqrt(L)
        law. AF: the averaged-noise term has variance
        sigma_n^2 (L+1)/(2L) -> sigma_n^2/2 because sum sigma_i^2/i^2 is
        harmonic and diverges (the quoted convergent sum i^(-3/2)
        corresponds to sigma_i = i^(1/4)), so no shrink is possible; and
        any growth slow enough to restore AF consistency caps the gap decay
        at ~1/sqrt(L), so the two halves cannot hold together. See the
        decisions ledger and the slow-growth consistency test in
        test_estimation.py."""
        gaps = {}
        af_mae = {}
        for k, L in enumerate((100, 10**4)):
            setup = est.EstimationSetup(
                theta=1.0, L=L, sigmas=est.sqrt_growth_sigmas(1.0), noise=noise.gaussian(1.0),
                transmit=tx.tanh_fn(0.75), total_power=10.0, channel_noise_var=1.0,
            )
            gaps[L] = abs(est.mean_response(setup, 1.0) - est.mean_response(setup, 0.0))
            estimates = harness.run_estimation_experiment(
                setup, 1000, 4004, estimator="af", stream_id_base=k * harness.POINT_STREAM_STRIDE
            )
            af_mae[L] = harness.median_abs_error(estimates, setup.theta)
        gap_ratio = gaps[10**4] / gaps[100]
        gap_ok = gap_ratio < 0.05
        af_ratio = af_mae[100] / af_mae[10**4]
        af_ok = af_ratio >= 2.0
        _report(
            4,
            gap_ok and af_ok,
            f"sqrt-growth: h-gap ratio {gap_ratio:.3f} (< 0.05 required; 1/sqrt(L) law gives ~0.1) "
            f"-> {'PASS' if gap_ok else 'FAIL, unattainable as stated'}; "
            f"AF shrink {af_ratio:.2f}x (>= 2x required; variance is L-independent at this rate) "
            f"-> {'PASS' if af_ok else 'FAIL, unattainable as stated'}; see decisions ledger",
        )
        assert gap_ok, (
            f"h-gap shrinks {1.0 / gap_ratio:.1f}x from L=1e2 to L=1e4 (ratio {gap_ratio:.3f}); the "
            "sqrt(i) rate yields a 1/sqrt(L) law, so the stated 5% threshold cannot be met "
            "(documented in the decisions ledger)"
        )
        assert af_ok, (
            "AF error cannot shrink at sigma_i = sqrt(i): var of the averaged noise term "
            f"tends to sigma_n^2/2 (measured shrink {af_ratio:.2f}x); documented in the decisions ledger"
        )


class TestCriterion5DeflectionTheorems:
    def test_deflection_limit_suite(self):
        base = dict(
            theta=1.0, L=20, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
            transmit=tx.tanh_fn(1.0), total_power=10.0, channel_noise_var=1.0,
        )
        # Vanishing limit under sqrt growth.
        d_growth = {}
        for L in (10, 100, 1000, 10**4):
            setup = det.DetectionSetup(**{**base, "L": L, "sigmas": est.sqrt_growth_sigmas(1.0)})
            d_growth[L] = det.deflection(setup)
        ratio = d_growth[10**4] / d_growth[10]
        decreasing = all(
            d_growth[b] < d_growth[a] for a, b in zip((10, 100, 1000), (100, 1000, 10**4))
        )
        # Exact L-invariance for a constant sequence.
        d_const = {L: det.deflection(det.DetectionSetup(**{**base, "L": L})) for L in (10, 100, 1000, 10**4)}
        invariant = len(set(d_const.values())) == 1 and d_const[10] > 0.0
        # Quantizer positivity across levels, noise families, and thetas.
        quantizer_ok = True
        for levels in (3, 5):
            for model in NOISE_UNIT_VARIANCE.values():
                for theta in (0.5, 1.0, 2.0):
                    setup = det.DetectionSetup(**{
                        **base,
                        "theta": theta,
                        "noise": model,
                        "transmit": tx.uniform_quantizer_fn(x_max=1.0, levels=levels),
                    })
                    quantizer_ok &= det.deflection(setup) > 0.0
        ok = ratio < 0.05 and decreasing and invariant and quantizer_ok
        _report(
            5,
            ok,
            f"D(1e4)/D(10) = {ratio:.4f} under sqrt growth (< 0.05, monotone={decreasing}); "
            f"constant sigmas exactly L-invariant and positive ({invariant}); "
            f"quantizer D>0 for M in (3,5) x 3 noises x 3 thetas ({quantizer_ok})",
        )
        assert ratio < 0.05
        assert decreasing
        assert invariant
        assert quantizer_ok


class TestCriterion6DcVsPeAlignment:
    def test_argmax_dc_matches_argmin_pe(self):
        """32-point omega grid, 1e6 trials per point, three noise families.

        Faithful to the stated criterion and expected to fail by one cell:
        the quadratic detector also profits from the variance drop under H1
        that the deflection ratio ignores, so the true Pe optimum sits
        systematically ~0.2 in omega to the right of the DC optimum (2-3
        cells on this grid), and near the optimum the Pe curve is so flat
        that adjacent cells differ by only ~1-2 standard errors at 1e6
        trials. A characteristic-function oracle with no Monte Carlo at all
        reproduces both the Pe values and the offset
        (test_pe_oracle.py), so the gap is a property of the detector, not
        of sampling. The substantive claim - Pe at the DC-optimal omega is
        within ~10% of the minimal Pe - is asserted by
        test_detection.py::TestDcOptimumQuality and printed below."""
        start = time.time()
        omegas = np.linspace(0.1, 3.0, 32)
        trials = 10**6
        results = {}
        flatness = {}
        for name, model in NOISE_UNIT_VARIANCE.items():
            dcs = np.array([det.deflection(_fig5_setup(model, float(w))) for w in omegas])
            pes = np.empty_like(dcs)
            errs = np.empty_like(dcs)
            for k, w in enumerate(omegas):
                pes[k], errs[k] = harness.run_detection_experiment(
                    _fig5_setup(model, float(w)), trials, 6006,
                    stream_id_base=k * harness.POINT_STREAM_STRIDE,
                )
            i_dc = int(np.argmax(dcs))
            i_pe = int(np.argmin(pes))
            results[name] = (i_dc, i_pe)
            flatness[name] = (pes[i_dc] - pes[i_pe]) / pes[i_pe]
        elapsed = time.time() - start
        ok = all(abs(i_dc - i_pe) <= 1 for i_dc, i_pe in results.values()) and elapsed < 900.0
        detail = ", ".join(
            f"{name}: DC cell {i_dc} vs Pe cell {i_pe} (Pe excess at DC-opt {flatness[name]:.1%})"
            for name, (i_dc, i_pe) in results.items()
        )
        _report(
            6,
            ok,
            f"{detail}; {elapsed:.0f}s (< 900s target)"
            + ("" if ok else "; one-cell agreement unattainable at 1e6 trials, see ledger"),
        )
        for name, (i_dc, i_pe) in results.items():
            assert abs(i_dc - i_pe) <= 1, (
                f"{name}: DC/Pe optima cells {i_dc} vs {i_pe}; the Pe optimum sits systematically "
                f"right of the DC optimum while Pe at the DC optimum exceeds the minimum by only "
                f"{flatness[name]:.1%} (documented in the decisions ledger)"
            )
        assert elapsed < 900.0


class TestCriterion7FunctionOrdering:
    def test_pe_ordering_at_dc_optimal_omegas(self):
        """rho_s = 10 dB, rho_c = 0 dB, L = 20, 1e6 trials per function."""
        model = noise.gaussian(1.0)
        candidates = []
        alpha = 1.0 / math.sqrt(0.5 * SQRT10**2 + 1.0)  # prior-averaged power normalization
        for label, f in (
            ("linear_af", tx.linear_fn(alpha)),
            ("tanh", tx.tanh_fn(1.0)),
            ("gudermannian", tx.gudermannian_fn(1.0)),
            ("rational", tx.rational_fn(1.0)),
        ):
            setup = det.DetectionSetup(
                theta=SQRT10, L=20, sigmas=est.constant_sigmas(1.0), noise=model,
                transmit=f, total_power=1.0, channel_noise_var=1.0, priors=(0.5, 0.5),
            )
            if f.kind != tx.LINEAR:
                omega_star, _ = det.optimal_omega(setup, 0.05, 8.0, 64)
                setup = replace(setup, transmit=tx.with_omega(setup.transmit, float(omega_star)))
            candidates.append((label, setup))
        pes = {}
        for k, (label, setup) in enumerate(candidates):
            pes[label] = harness.run_detection_experiment(
                setup, 10**6, 7007, stream_id_base=k * harness.POINT_STREAM_STRIDE
            )
        order = ["linear_af", "tanh", "gudermannian", "rational"]
        adjacency_ok = all(
            pes[a][0] <= pes[b][0] + 2.0 * (pes[a][1] + pes[b][1]) for a, b in zip(order, order[1:])
        )
        separated_pairs = [
            ("linear_af", "tanh"), ("linear_af", "gudermannian"), ("linear_af", "rational"),
            ("tanh", "rational"), ("gudermannian", "rational"),
        ]
        separation_ok = all(
            pes[b][0] - pes[a][0] >= 2.0 * (pes[a][1] + pes[b][1]) for a, b in separated_pairs
        )
        detail = ", ".join(f"{k}={v[0]:.4f}" for k, v in pes.items())
        ok = adjacency_ok and separation_ok
        _report(7, ok, f"Pe ordering {detail}; adjacent order ok={adjacency_ok}, 2-stderr separations ok={separation_ok}")
        assert adjacency_ok
        assert separation_ok


class TestCriterion8DualityRoundTrip:
    def test_matched_density_and_score_round_trips(self):
        xs = np.linspace(-10.0, 10.0, 401)
        tanh_err = float(np.max(np.abs(det.matched_density(tx.tanh_fn(1.0))(xs) - 1.0 / (np.pi * np.cosh(xs)))))
        round_trips = {}
        for name, model in (("gaussian", noise.gaussian(1.0)), ("laplacian", noise.laplacian(1.0))):
            density = det.matched_density(det.locally_optimal_nonlinearity(model))
            round_trips[name] = float(np.max(np.abs(density(xs) - noise.pdf(model, xs))))
        ok = tanh_err < 1e-6 and all(v < 1e-6 for v in round_trips.values())
        _report(
            8,
            ok,
            f"matched(tanh) vs sech/pi sup err {tanh_err:.2e}; round trips "
            + ", ".join(f"{k}: {v:.2e}" for k, v in round_trips.items())
            + " (< 1e-6)",
        )
        assert tanh_err < 1e-6
        for v in round_trips.values():
            assert v < 1e-6


class TestCriterion9WorkerDeterminism:
    def test_preset_byte_identical_across_worker_counts(self, tmp_path):
        outputs = {}
        for workers in (1, 8):
            out = tmp_path / f"w{workers}.csv"
            rc = cli.main([
                "run", "cauchy-af", "--out", str(out), "--workers", str(workers),
                "--set", "trials=500", "--set", "L_values=[100,1000]",
            ])
            assert rc == 0
            outputs[workers] = out.read_bytes()
        ok = outputs[1] == outputs[8]
        _report(9, ok, f"cauchy-af preset CSV identical under 1 and 8 workers ({len(outputs[1])} bytes)")
        assert ok


class TestCriterion10PropertySuites:
    def test_module_invariant_bundle(self):
        # Quadrature vs 1e7-draw MC oracle across the full pair matrix.
        oracle_rows = quadrature_vs_mc_matrix()
        oracle_ok = all(abs(value - mc) < 3.0 * se for _, _, value, mc, se in oracle_rows)
        # Mean-response monotonicity across families.
        mono_ok = True
        for kind in noise.NOISE_KINDS:
            setup = _fig2_setup(noise.NoiseModel(kind, 1.0), 1.0, L=25)
            grid = np.linspace(-5.0, 5.0, 11)
            vals = [est.mean_response(setup, float(t)) for t in grid]
            bump = [est.mean_response(setup, float(t) + 1e-3) for t in grid]
            mono_ok &= all(b > a for a, b in zip(vals, bump))
        # Inversion round trips at 1e-8.
        rng = np.random.default_rng(10101)
        inv_ok = True
        setup = _fig2_setup(noise.gaussian(1.0), 0.75)
        for theta in rng.uniform(-3.0, 3.0, size=25):
            z = math.sqrt(setup.total_power) * est.mean_response(setup, float(theta))
            inv_ok &= abs(estimate(setup, z) - theta) < 1e-8
        # CLT normality of the standardized received signal at 1%.
        clt_ok = True
        for kind in ("gaussian", "laplacian"):
            model = from_variance(kind, 1.0)
            s = _fig2_setup(model, 0.75)
            h = est.mean_response(s, 1.0)
            second = est.g_moment(model, s.transmit, 1.0, 1.0, 2)
            sigma2 = s.total_power * (second - h * h) + s.channel_noise_var
            stats = harness.run_signal_statistics(s, 10**4, 10)
            z = stats["z_targets"] * math.sqrt(s.total_power)
            standardized = math.sqrt(s.L) * (z - math.sqrt(s.total_power) * h) / math.sqrt(sigma2)
            clt_ok &= jarque_bera(standardized).pvalue > 0.01
        ok = oracle_ok and mono_ok and inv_ok and clt_ok
        _report(
            10,
            ok,
            f"quadrature-vs-MC 3se ({oracle_ok}), h monotone ({mono_ok}), "
            f"inversion 1e-8 round trips ({inv_ok}), CLT JB at 1% ({clt_ok})",
        )
        assert oracle_ok
        assert mono_ok
        assert inv_ok
        assert clt_ok
