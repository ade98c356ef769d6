"""Semi-analytic cross-check of the Monte Carlo error probability.

The channel output is a scaled i.i.d. sum plus Gaussian noise, so its
characteristic function is phi_Z(sqrt(rho) u)^L * exp(-sigma_v^2 u^2 / 2)
with phi_Z the transmitted-value characteristic function computed by
density quadrature. Gil-Pelaez inversion then yields exact hypothesis-
conditional CDFs, and the quadratic detector's acceptance region is a
closed-form root interval of its log-likelihood-ratio parabola. Together
these give an error probability with no Monte Carlo at all - an
independent oracle for the simulated pipeline, including at the omega
values where the deflection and error-rate optima are compared.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from macfusion import detection as det
from macfusion import estimation as est
from macfusion import harness, noise, transmit as tx
from macfusion.numerics import adaptive_quadrature, fixed_mesh_nodes
from oracles import eval_fn

SQRT10 = math.sqrt(10.0)
RHO_C_3DB = 10**0.3


def _transmitted_cf(model, f, shift, u):
    """E[exp(i u f(shift + n))] on a refined fixed quadrature mesh."""
    t_tail = noise.tail_truncation(model, 1e-12)
    kinks = [p - shift for p in tx.breakpoints(f)]

    def weighted(n):
        return eval_fn(f, shift + n) * noise.pdf(model, n)

    _, _, edges = adaptive_quadrature(
        weighted, -t_tail, t_tail,
        rel_tol=1e-10, abs_tol=1e-13,
        breakpoints=[k for k in kinks if -t_tail < k < t_tail],
    )
    edges = np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    x, w = fixed_mesh_nodes(edges)
    fv = eval_fn(f, shift + x)
    pw = w * noise.pdf(model, x)
    assert abs(pw.sum() - 1.0) < 1e-9  # mesh carries the full density mass
    return np.exp(1j * u[:, None] * fv[None, :]) @ pw


def _output_cf(setup, hypothesis_shift, u):
    phi_z = _transmitted_cf(setup.noise, setup.transmit, hypothesis_shift, u * math.sqrt(setup.rho))
    return phi_z**setup.L * np.exp(-0.5 * setup.channel_noise_var * u * u)


def _gil_pelaez_cdf(xs, setup, hypothesis_shift, mean, u_max=14.0, n_points=8001):
    """P[y <= x] = 1/2 - (1/pi) int_0^inf Im[e^{-iux} phi(u)]/u du."""
    u = np.linspace(0.0, u_max, n_points)
    phi = _output_cf(setup, hypothesis_shift, u[1:])
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    out = np.empty(xs.shape)
    for k, x in enumerate(xs):
        integrand = np.empty(u.size)
        integrand[0] = mean - x  # continuous limit at u = 0
        integrand[1:] = np.imag(np.exp(-1j * u[1:] * x) * phi) / u[1:]
        # Composite Simpson on the uniform grid.
        h = u[1] - u[0]
        s = integrand[0] + integrand[-1] + 4.0 * integrand[1:-1:2].sum() + 2.0 * integrand[2:-1:2].sum()
        out[k] = 0.5 - (h / 3.0) * s / math.pi
    return out


def _h1_region(detector):
    """The accept-H1 set of the quadratic rule as interval endpoints."""
    a = 0.5 * (1.0 / detector.var0 - 1.0 / detector.var1)
    b = detector.mean1 / detector.var1 - detector.mean0 / detector.var0
    c = (
        0.5 * (detector.mean0**2 / detector.var0 - detector.mean1**2 / detector.var1)
        + 0.5 * math.log(detector.var0 / detector.var1)
        + detector.log_prior_ratio
    )
    # Scale-aware degeneracy test: equal variances leave only float noise
    # in the quadratic coefficient and the rule is a single threshold.
    if abs(a) * max(detector.var0, detector.var1) < 1e-9:
        cut = -c / b
        return [(cut, math.inf)] if b > 0.0 else [(-math.inf, cut)]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return [(-math.inf, math.inf)] if a > 0.0 else []
    r1 = (-b - math.sqrt(disc)) / (2.0 * a)
    r2 = (-b + math.sqrt(disc)) / (2.0 * a)
    lo, hi = min(r1, r2), max(r1, r2)
    if a > 0.0:
        return [(-math.inf, lo), (hi, math.inf)]
    return [(lo, hi)]


def pe_semi_analytic(setup):
    """Error probability of the quadratic detector without Monte Carlo."""
    detector = det.build_detector(setup)
    region = _h1_region(detector)
    probs = {}
    for label, shift, mean in (("h0", 0.0, detector.mean0), ("h1", setup.theta, detector.mean1)):
        mass = 0.0
        for lo, hi in region:
            cdf_hi = 1.0 if math.isinf(hi) else float(_gil_pelaez_cdf(hi, setup, shift, mean)[0])
            cdf_lo = 0.0 if math.isinf(lo) and lo < 0 else float(_gil_pelaez_cdf(lo, setup, shift, mean)[0])
            mass += cdf_hi - cdf_lo
        probs[label] = min(max(mass, 0.0), 1.0)
    p0, p1 = setup.priors
    return p0 * probs["h0"] + p1 * (1.0 - probs["h1"])


def _fig5_setup(omega, model=None):
    return det.DetectionSetup(
        theta=SQRT10,
        L=20,
        sigmas=est.constant_sigmas(1.0),
        noise=model or noise.gaussian(1.0),
        transmit=tx.tanh_fn(omega),
        total_power=RHO_C_3DB,
        channel_noise_var=1.0,
        priors=(0.5, 0.5),
    )


class TestOracleSelfChecks:
    def test_linear_transmit_matches_exact_gaussian_answer(self):
        """With f = alpha x the output is exactly Gaussian, so the CF
        route must land on the closed-form two-Gaussian error rate."""
        alpha = 0.35
        setup = det.DetectionSetup(
            theta=SQRT10, L=20, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
            transmit=tx.linear_fn(alpha), total_power=1.0, channel_noise_var=1.0, priors=(0.5, 0.5),
        )
        detector = det.build_detector(setup)
        # Equal variances: single threshold at the midpoint of the means.
        cut = 0.5 * (detector.mean0 + detector.mean1)
        s = math.sqrt(detector.var0)
        exact = 0.5 * (1.0 - ndtr((cut - detector.mean0) / s)) + 0.5 * ndtr((cut - detector.mean1) / s)
        assert pe_semi_analytic(setup) == pytest.approx(exact, abs=5e-7)

    def test_cdf_endpoints_sane(self):
        setup = _fig5_setup(0.8)
        detector = det.build_detector(setup)
        cdf = _gil_pelaez_cdf(np.array([-50.0, 50.0]), setup, 0.0, detector.mean0)
        assert cdf[0] == pytest.approx(0.0, abs=1e-7)
        assert cdf[1] == pytest.approx(1.0, abs=1e-7)


class TestRegionAgainstOracle:
    @pytest.mark.parametrize("omega", np.linspace(0.1, 3.0, 32).tolist())
    def test_h1_region_matches_the_oracle_region(self, omega):
        """``det.h1_region`` (roots of the standardized quadratic) and this
        file's ``_h1_region`` (textbook roots in y) give the same intervals
        at every detector of fig5's omega grid."""
        detector = det.build_detector(_fig5_setup(omega))
        got, want = det.h1_region(detector), _h1_region(detector)
        assert len(got) == len(want)
        for ends, oracle_ends in zip(got, want):
            assert ends == pytest.approx(oracle_ends, rel=1e-9)


class TestMonteCarloAgainstOracle:
    @pytest.mark.parametrize("omega", [0.568, 0.848, 1.5])
    def test_pe_within_monte_carlo_noise(self, omega):
        """1e6-trial MC error rates sit within 4 standard errors of the
        CF/Gil-Pelaez value, including at the omegas where the deflection
        and error-rate optima are compared."""
        setup = _fig5_setup(omega)
        oracle = pe_semi_analytic(setup)
        pe, se = harness.run_detection_experiment(setup, 10**6, 60606)
        assert abs(pe - oracle) < 4.0 * se, f"MC {pe} vs oracle {oracle} (se={se})"

    def test_oracle_confirms_pe_optimum_right_of_dc_optimum(self):
        """The systematic offset between the deflection maximum and the
        error-rate minimum is a property of the model, not of sampling:
        the no-MC oracle itself places Pe lower at omega=0.848 than at the
        deflection-optimal omega=0.604."""
        dc_opt, _ = det.optimal_omega(_fig5_setup(1.0), 0.1, 3.0, 32)
        pe_at_dc = pe_semi_analytic(_fig5_setup(dc_opt))
        pe_right = pe_semi_analytic(_fig5_setup(0.848))
        assert 0.55 < dc_opt < 0.67
        assert pe_right < pe_at_dc
