"""Deflection coefficient, moment-matched quadratic detector, and the
locally-optimal nonlinearity duality.

The fusion center distinguishes signal present (theta under H1) from absent
(0 under H0) by watching the superposed channel output. The exact
likelihood ratio needs an (L+1)-fold convolution, so the working detector
is the Bayesian likelihood-ratio test between two moment-matched Gaussians;
its first two moments under each hypothesis come from density quadrature.
The deflection coefficient serves as the detector-free output-SNR surrogate

    D_L = (mean shift)^2 / (normalized H0 variance + channel term)

and the small-signal theory pairs each noise density with the transmit
curve that is locally optimal for it: f = -p'/p, with the inverse map
p = C exp(-int f).

Detection runs over the estimation channel: ``DetectionSetup`` is
``estimation.EstimationSetup`` plus the priors, and the deflection and the
detector weight their per-sigma moments by its ``sigma_shares()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, transmit as tx
from .estimation import EstimationSetup, g_moment
from .noise import NoiseModel, score
from .numerics import DEFAULT_QUADRATURE, NumericsError, QuadratureSpec, _gk15_batch, adaptive_quadrature, minimize_scalar


@dataclass(frozen=True)
class DetectionSetup(EstimationSetup):
    """The estimation channel, theta as the H1 signal level, and priors (P0, P1)."""

    priors: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        # The H1 signal level is nonnegative (0: both hypotheses agree).
        if self.theta < 0.0:
            raise tx.FieldError(f"theta must be nonnegative (H1 signal level), got {self.theta!r}", field="theta")
        super().__post_init__()
        p0, p1 = self.priors
        if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0) or abs(p0 + p1 - 1.0) > 1e-12:
            message = f"priors must be strictly positive and sum to 1, got {tuple(self.priors)}"
            raise tx.FieldError(message, field="priors")


def deflection(setup: DetectionSetup, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Deflection coefficient D_L of the superposed channel output.

    Numerator: squared average shift of E[f] when theta turns on.
    Denominator: average per-sensor variance of f under H0 plus the channel
    noise term sigma_v^2 / P_T. The per-sigma expectations are deduplicated,
    so for a constant sequence the value is exactly independent of L.
    """
    values, shares = setup.sigma_shares()
    g1 = g_moment(setup.noise, setup.transmit, values, setup.theta, 1, spec)
    g0 = g_moment(setup.noise, setup.transmit, values, 0.0, 1, spec)
    m2 = g_moment(setup.noise, setup.transmit, values, 0.0, 2, spec)
    shift = math.fsum(shares * (g1 - g0))
    var0 = math.fsum(shares * (m2 - g0 * g0))
    return shift * shift / (var0 + setup.channel_noise_var / setup.total_power)


def optimal_omega(
    setup: DetectionSetup,
    lo: float,
    hi: float,
    grid_points: int = 32,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Maximize the deflection coefficient over the transmit scale omega."""
    if setup.transmit.kind not in tx.BOUNDED_SMOOTH_KINDS:
        # No omega to tune; the deflection is constant so the tie-break
        # convention applies.
        d = deflection(setup, spec)
        return lo, d

    def negative_dc(omega: float) -> float:
        return -deflection(replace(setup, transmit=tx.with_omega(setup.transmit, float(omega))), spec)

    omega_star, neg = minimize_scalar(negative_dc, lo, hi, grid_points)
    return omega_star, -neg


@dataclass(frozen=True)
class GaussianApproxDetector:
    """Bayesian LRT between two moment-matched Gaussians.

    ``log_prior_ratio`` is ln(P1/P0); only the ratio enters the decision,
    so rescaling both priors leaves every decision unchanged.
    """

    mean0: float
    mean1: float
    var0: float
    var1: float
    log_prior_ratio: float

    def __post_init__(self):
        if not (self.var0 > 0.0 and self.var1 > 0.0):
            raise ValueError("detector variances must be positive")


def build_detector(setup: DetectionSetup, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> GaussianApproxDetector:
    """Exact first two moments of the channel output under each hypothesis."""
    values, shares = setup.sigma_shares()
    scale = math.sqrt(setup.total_power * setup.L)
    means = []
    variances = []
    for theta in (0.0, setup.theta):
        g1 = g_moment(setup.noise, setup.transmit, values, theta, 1, spec)
        m2 = g_moment(setup.noise, setup.transmit, values, theta, 2, spec)
        means.append(scale * math.fsum(shares * g1))
        variances.append(setup.total_power * math.fsum(shares * (m2 - g1 * g1)) + setup.channel_noise_var)
    p0, p1 = setup.priors
    return GaussianApproxDetector(
        mean0=means[0],
        mean1=means[1],
        var0=variances[0],
        var1=variances[1],
        log_prior_ratio=math.log(p1 / p0),
    )


def log_density_ratio(detector: GaussianApproxDetector, y):
    """ln N(y; mean1, var1) - ln N(y; mean0, var0), vectorized."""
    y = np.asarray(y, dtype=np.float64)
    d0 = y - detector.mean0
    d1 = y - detector.mean1
    return (
        0.5 * math.log(detector.var0 / detector.var1)
        - 0.5 * d1 * d1 / detector.var1
        + 0.5 * d0 * d0 / detector.var0
    )


def decide(detector: GaussianApproxDetector, y):
    """0/1 hypothesis decision; ties go to H1. Vectorized over ``y``."""
    llr = log_density_ratio(detector, y)
    out = (llr >= -detector.log_prior_ratio).astype(np.uint8)
    if out.ndim == 0:
        return int(out)
    return out


def summarize_errors(priors, trials_by_h, errors_by_h, stratified: bool) -> tuple[float, float]:
    """(Pe, binomial standard error) from the trial and error counts per hypothesis."""
    p0, p1 = priors
    n0, n1 = (int(n) for n in trials_by_h)
    e0, e1 = (int(e) for e in errors_by_h)
    if stratified:
        rate0 = e0 / n0 if n0 else 0.0
        rate1 = e1 / n1 if n1 else 0.0
        pe = p0 * rate0 + p1 * rate1
        stderr = math.sqrt(
            (p0 * p0 * rate0 * (1.0 - rate0) / n0 if n0 else 0.0)
            + (p1 * p1 * rate1 * (1.0 - rate1) / n1 if n1 else 0.0)
        )
        return pe, stderr
    trials = n0 + n1
    pe = (e0 + e1) / trials
    return pe, math.sqrt(max(pe * (1.0 - pe), 0.0) / trials)


def simulate_decisions(
    setup: DetectionSetup,
    detector: GaussianApproxDetector,
    trials: int,
    stream,
    stratified: bool = False,
):
    """Run the full transmit/superpose/decide pipeline over ``trials`` trials.

    Returns ``(trials_by_h, errors_by_h)``: the number of trials and of wrong
    decisions under H0 and H1. Each trial draws one hypothesis uniform
    (omitted when stratified: the first round(P0 * trials) trials are H0) in
    the lead column of ``kernels.draw_blocks``, and each block is decided
    as soon as it is drawn.
    """
    p0, _ = setup.priors
    n_h0_total = int(round(p0 * trials)) if stratified else 0
    sqrt_rho = math.sqrt(setup.rho)
    trials_by_h = np.zeros(2, dtype=np.int64)
    errors_by_h = np.zeros(2, dtype=np.int64)
    for rows, lead, sums in kernels.draw_blocks(setup, trials, stream, lead=0 if stratified else 1):
        h1 = np.arange(rows.start, rows.stop) >= n_h0_total if stratified else lead[:, 0] >= p0
        f_sums, _, chan = sums(h1[:, None] * setup.theta)
        wrong = decide(detector, sqrt_rho * f_sums + chan) != h1
        n1, e1 = np.count_nonzero(h1), np.count_nonzero(wrong & h1)
        trials_by_h += (h1.size - n1, n1)
        errors_by_h += (np.count_nonzero(wrong) - e1, e1)
    return trials_by_h, errors_by_h


def locally_optimal_nonlinearity(model: NoiseModel):
    """The small-signal optimal transmit curve for ``model``: its score."""

    def f(x):
        return score(model, x)

    return f


class NonNormalizableError(NumericsError):
    """exp(-antiderivative of f) does not integrate to a finite mass."""


def matched_density(f, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Density for which ``f`` is the locally optimal nonlinearity.

    Returns a normalized callable p(x) = C exp(-A(x)) with
    A(x) = integral of f from 0 to x; the lower limit is a convention (any
    other choice is absorbed by C) that keeps p symmetric for odd f.
    ``f`` may be a TransmitFunction or a plain vectorized callable.
    """
    if isinstance(f, tx.TransmitFunction):
        feval = lambda x: kernels.eval_transmit(f, x=x)
        kinks = tx.breakpoints(f)
    else:
        feval = lambda x: np.asarray(f(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        kinks = ()

    def antiderivative_at(t: float) -> float:
        lo, hi = (0.0, t) if t >= 0.0 else (t, 0.0)
        if lo == hi:
            return 0.0
        val, _, _ = adaptive_quadrature(
            feval,
            lo,
            hi,
            rel_tol=spec.rel_tol,
            abs_tol=spec.abs_tol,
            breakpoints=[k for k in kinks if lo < k < hi],
            max_subdivisions=spec.max_subdivisions,
            context="antiderivative of transmit curve",
        )
        return val if t >= 0.0 else -val

    # The density is integrable only if A(x) climbs without bound on both
    # sides; 46 nats leaves the truncated tail below 1e-20 of the mass.
    supports = []
    for sign in (1.0, -1.0):
        t = 1.0
        while t <= 2**40:
            if antiderivative_at(sign * t) >= 46.0:
                break
            t *= 2.0
        else:
            raise NonNormalizableError(
                "antiderivative of f grows too slowly; exp(-A) has a non-integrable tail"
            )
        supports.append(sign * t)
    t_plus, t_minus = supports

    # Freeze A on a refined mesh: panel integrals of f accumulate exactly,
    # and point evaluations finish with a single panel from the nearest
    # left edge.
    _, _, edges = adaptive_quadrature(
        feval,
        t_minus,
        t_plus,
        rel_tol=min(spec.rel_tol, 1e-10),
        abs_tol=spec.abs_tol,
        breakpoints=[k for k in kinks if t_minus < k < t_plus],
        max_subdivisions=spec.max_subdivisions,
        context="matched density antiderivative mesh",
    )
    edges = np.unique(np.concatenate([edges, np.linspace(t_minus, t_plus, 257), [0.0]]))
    panel_vals, _ = _gk15_batch(feval, edges[:-1], edges[1:])
    cumulative = np.concatenate([[0.0], np.cumsum(panel_vals)])
    origin = float(np.interp(0.0, edges, cumulative))

    def antiderivative(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        clipped = np.clip(flat, edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, clipped, side="right") - 1, 0, edges.size - 2)
        lefts = edges[idx]
        partial = np.zeros(flat.size)
        nontrivial = clipped > lefts
        if nontrivial.any():
            vals, _ = _gk15_batch(feval, lefts[nontrivial], clipped[nontrivial])
            partial[nontrivial] = vals
        inner = cumulative[idx] + partial - origin
        # Outside the frozen mesh the curve is extended with one panel; f is
        # saturated there for every built-in kind.
        outside = flat != clipped
        if outside.any():
            lo_side = flat < edges[0]
            ext = np.zeros(flat.size)
            if lo_side.any():
                vals, _ = _gk15_batch(feval, flat[lo_side], np.full(lo_side.sum(), edges[0]))
                ext[lo_side] = -vals
            hi_side = outside & ~lo_side
            if hi_side.any():
                vals, _ = _gk15_batch(feval, np.full(hi_side.sum(), edges[-1]), flat[hi_side])
                ext[hi_side] = vals
            inner = inner + ext
        return inner.reshape(x.shape)

    def unnormalized(x):
        return np.exp(-antiderivative(x))

    mass, _, _ = adaptive_quadrature(
        unnormalized,
        t_minus,
        t_plus,
        rel_tol=min(spec.rel_tol, 1e-10),
        abs_tol=spec.abs_tol,
        breakpoints=[k for k in kinks if t_minus < k < t_plus],
        max_subdivisions=spec.max_subdivisions,
        context="matched density normalization",
    )
    if not (mass > 0.0 and np.isfinite(mass)):
        raise NonNormalizableError(f"normalization integral is {mass!r}")

    def density(x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        out = unnormalized(np.asarray(x, dtype=np.float64)) / mass
        if scalar:
            return float(out)
        return out

    return density
