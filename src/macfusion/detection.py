"""Deflection coefficient, moment-matched quadratic detector, and the
locally-optimal nonlinearity duality.

The fusion center distinguishes signal present (theta under H1) from absent
(0 under H0) by watching the superposed channel output. The exact
likelihood ratio needs an (L+1)-fold convolution, so the working detector
is the Bayesian likelihood-ratio test between two moment-matched Gaussians;
its first two moments under each hypothesis come from density quadrature.
Its accept-H1 set (``h1_region``) is at most two closed intervals of the
received value, with ends at the real roots of one quadratic; ``decide``
and the Monte Carlo filter's settled regions both read it.
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

from . import kernels, noise, numerics, transmit as tx
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
    scale = math.sqrt(setup.total_power) * math.sqrt(setup.L)
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


def _quadratic_roots(a: float, b: float, c: float) -> list:
    """Real roots of a y^2 + b y + c, by the cancellation-free formula."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if not disc >= 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def h1_region(detector: GaussianApproxDetector) -> list:
    """The accept-H1 set of ``decide``: at most two closed intervals (lo, hi) of y, in order.

    In z = (y - mean0) / sqrt(var0), the llr plus ln(P1/P0) is the quadratic
    a z^2 + b z + c with k = var0 / var1, m = (mean1 - mean0) / sqrt(var0),
    a = (1 - k) / 2, b = k m and c = ln(k) / 2 - k m^2 / 2 + ln(P1/P0), so no
    coefficient overflows for finite moments. H1 is where it is >= 0 (ties
    go to H1): between its real roots, outside them, or on one side of the
    single root when the variances are equal.
    """
    d = detector
    s0 = math.sqrt(d.var0)
    k = d.var0 / d.var1
    m = (d.mean1 - d.mean0) / s0
    a, b, c = 0.5 * (1.0 - k), k * m, 0.5 * math.log(k) - 0.5 * k * m * m + d.log_prior_ratio
    z = sorted(_quadratic_roots(a, b, c))
    if a == 0.0 and b != 0.0:
        ends = [(z[0], math.inf)] if b > 0.0 else [(-math.inf, z[0])]
    elif z:
        ends = [(-math.inf, z[0]), (z[-1], math.inf)] if a > 0.0 else [(z[0], z[-1])]
    else:
        # No real root: a z^2 + c keeps one sign.
        ends = [(-math.inf, math.inf)] if a > 0.0 or (a == 0.0 and c >= 0.0) else []
    return [(d.mean0 + s0 * lo, d.mean0 + s0 * hi) for lo, hi in ends]


def decide(detector: GaussianApproxDetector, y):
    """0/1 hypothesis decision: whether y lies in ``h1_region``. Vectorized over ``y``."""
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros(y.shape, dtype=np.uint8)
    for lo, hi in h1_region(detector):
        out |= (lo <= y) & (y <= hi)
    return int(out) if out.ndim == 0 else out


def stratified_h0_trials(priors, trials: int) -> int:
    """The trials a stratified run gives H0, the first round(P0 * trials);
    H1 gets the rest."""
    return int(round(priors[0] * trials))


def summarize_errors(priors, trials_by_h, errors_by_h, stratified: bool) -> tuple[float, float]:
    """(Pe, binomial standard error) from the trial and error counts per
    hypothesis. A stratified Pe weighs each hypothesis's error rate, so
    both need trials (ValueError if not)."""
    p0, p1 = priors
    n0, n1 = (int(n) for n in trials_by_h)
    e0, e1 = (int(e) for e in errors_by_h)
    if stratified:
        if not (n0 and n1):
            raise ValueError(f"a stratified Pe needs trials of both hypotheses, got {n0} and {n1}")
        rate0, rate1 = e0 / n0, e1 / n1
        pe = p0 * rate0 + p1 * rate1
        stderr = math.sqrt(p0 * p0 * rate0 * (1.0 - rate0) / n0 + p1 * p1 * rate1 * (1.0 - rate1) / n1)
        return pe, stderr
    trials = n0 + n1
    pe = (e0 + e1) / trials
    return pe, math.sqrt(max(pe * (1.0 - pe), 0.0) / trials)


# Verdict of a trial that the bracket filter leaves to the exact pipeline.
_UNSETTLED = 2


def _settled_regions(detector: GaussianApproxDetector, margin: float):
    """Intervals of y on which ``decide`` is certain, and its decision there.

    Returns ``(edges, verdicts)``: sorted disjoint intervals
    [edges[2i], edges[2i + 1]] such that ``decide(detector, y)`` returns
    ``verdicts[i]`` for every y within ``margin`` of the interval. The ends
    of ``h1_region`` cut [-cap, cap] into pieces, each inside or outside
    the region, as its midpoint is; each piece then shrinks by ``margin``
    and by 4 eps ``cap`` for its own rounding and that of the bracket's
    sums with the channel, so no region end lies within the margin of a
    settled interval. Beyond +-``cap`` nothing is settled.
    """
    d = detector
    region = h1_region(d)
    cap = 2.0**20 * (1.0 + abs(d.mean0) + abs(d.mean1) + math.sqrt(d.var0) + math.sqrt(d.var1))
    ends = sorted({-cap, cap, *(end for piece in region for end in piece if -cap < end < cap)})
    shrink = float(margin) + 4.0 * 2.0**-52 * cap
    pieces = [(lo + shrink, hi - shrink) for lo, hi in zip(ends[:-1], ends[1:]) if lo + shrink <= hi - shrink]
    verdicts = [any(a <= 0.5 * (lo + hi) <= b for a, b in region) for lo, hi in pieces]
    return np.array(pieces).reshape(-1), np.array(verdicts, dtype=np.uint8)


class _DecisionBracket:
    """Exact decisions for most trials of a point, without their noise transforms.

    Each sensor term f(shift + sigma n(u)) is monotone in its uniform u
    (sigma is constant), so the cell of u in the tables of
    ``kernels.cell_bounds`` (one per hypothesis) bounds it, and an
    ``einsum`` adds up a trial's lower bounds, another its upper bounds.
    The cell comes from the top bits of u's Philox word, so no uniform is
    made.
    The channel draw of cell k lies within the nodes' slack of
    [channel[k], channel[k + 1]] (``kernels.transform_nodes``). So
    y_lo = sqrt(rho) lo_sum + channel[k] and y_hi = sqrt(rho) hi_sum +
    channel[k + 1] bracket the y of the exact pipeline up to ``margin``:
    the rounding of the two row sums (at most L eps L max|term| each, in
    any summation order) and of their product with sqrt(rho), and that
    slack. ``_settled_regions`` adds the rounding of the sums with the
    channel.

    A trial whose bracket lies inside a settled region gets that region's
    decision, which is the one ``decide`` gives: no end of ``h1_region``
    lies within the margin of the region. The rest (ties, NaN and
    infinite bounds included) go to the exact pipeline, in batches through
    the stash of ``simulate_decisions``. This is the
    filtered predicate of Shewchuk (Discrete Comput. Geom. 18, 1997): a
    cheap certified filter with an exact fallback.
    """

    def __init__(self, setup: DetectionSetup, detector: GaussianApproxDetector):
        sigma = setup.sigma_shares()[0][0]
        # Row 0 holds the cells' lower bounds and row 1 their upper bounds,
        # H0's cells in columns [0, K) and H1's in [K, 2K): the shifts of the
        # draw loop are hypothesis (False, True) times theta.
        self.bounds = np.empty((2, 2 * kernels.BRACKET_CELLS))
        nodes = kernels.transform_nodes(setup.noise)
        for table, shift in zip(np.split(self.bounds, 2, axis=1), (0.0, setup.theta)):
            kernels.cell_bounds(nodes, setup.transmit, sigma, shift, out=table.T)
        largest = np.max(np.abs(self.bounds), where=np.isfinite(self.bounds), initial=0.0)
        # Monotone, with infinite ends: the largest finite |node| is next to an end.
        self.channel = kernels.transform_nodes(noise.gaussian(math.sqrt(setup.channel_noise_var)))
        self.sqrt_rho = math.sqrt(setup.rho)
        margin = (
            6.0 * setup.L * setup.L * np.finfo(np.float64).eps * largest * self.sqrt_rho
            + kernels.BRACKET_SLACK * max(-self.channel[1], self.channel[-2]) + np.finfo(np.float64).tiny
        )
        self.edges, verdicts = _settled_regions(detector, margin)
        # The verdict of a y_lo whose searchsorted position in the edges is k.
        self.state = np.full(self.edges.size + 1, _UNSETTLED, dtype=np.uint8)
        self.state[1::2] = verdicts

    def settle(self, h1, decision, words, channel_words, scratch):
        """Write each trial's certified decision, or ``_UNSETTLED``, into ``decision``.

        ``h1`` holds the trials' hypotheses, ``words`` the Philox words of
        their (trials, L) sensor uniforms and ``channel_words`` those of
        their channel uniforms; the cell of each uniform is the word's top
        bits. Nothing of block size is allocated. The trials go in spans of
        up to a quarter of ``scratch``'s size (at fig5's settings the whole
        block), whose brackets (y_lo, y_hi) sit at its tail. The sensor sums
        go in row chunks: each chunk's cells and one (rows, L) buffer for
        the lower and then the upper bounds (2L doubles per row). The
        channel cells, the search among the edges and the verdict run once
        per span. If no row chunk fits, every row is left.
        """
        count, sensors = words.shape
        # A span's row takes 4 doubles: its bracket, and its channel cell and gathered value.
        span = min(count, scratch.size // 4)
        front = scratch.size - 2 * span
        chunk = min(span, front // (2 * sensors))
        if chunk == 0 or not self.edges.size:
            decision.fill(_UNSETTLED)
            return
        with np.errstate(all="ignore"):
            for v in range(0, count, span):
                w = min(v + span, count)
                y_lo, y_hi = y = scratch[front:].reshape(2, span)[:, : w - v]
                for a in range(v, w, chunk):
                    b = min(a + chunk, w)
                    size = (b - a) * sensors
                    # Cells: the words' top bits, shifted in place in the scratch (a
                    # ufunc reading the strided block takes a buffer), read as signed.
                    cells = scratch[:size].view(np.uint64).reshape(b - a, sensors)
                    gathered = scratch[size : 2 * size].reshape(b - a, sensors)
                    np.copyto(cells, words[a:b])
                    cells >>= kernels.CELL_SHIFT
                    index = cells.view(np.int64)
                    np.add(index, kernels.BRACKET_CELLS, out=index, where=h1[a:b, None])
                    for table, sums in zip(self.bounds, y):
                        np.einsum("ij->i", table.take(index, out=gathered, mode="clip"), out=sums[a - v : b - v])
                y *= self.sqrt_rho
                cells = scratch[: w - v].view(np.uint64)
                gathered = scratch[w - v : 2 * (w - v)]
                np.copyto(cells, channel_words[v:w])
                cells >>= kernels.CELL_SHIFT
                index = cells.view(np.int64)
                y_lo += self.channel.take(index, out=gathered, mode="clip")
                y_hi += self.channel[1:].take(index, out=gathered, mode="clip")
                # y_lo's position k among the edges names its region (odd k) or
                # gap (even k); a y_hi past the far edge (or NaN) sends k to gap 0.
                # The test writes int64 0/1 over the far edges it reads, so the
                # product takes no cast buffer.
                k = self.edges.searchsorted(y_lo, side="right")
                far = self.edges.take(k, out=gathered, mode="clip")
                k *= np.less_equal(y_hi, far, out=far.view(np.int64))
                self.state.take(k, out=decision[v:w])


def simulate_decisions(
    setup: DetectionSetup,
    detector: GaussianApproxDetector,
    trials: int,
    stream,
    stratified: bool = False,
):
    """Run the full transmit/superpose/decide pipeline over ``trials`` trials.

    Returns ``(trials_by_h, errors_by_h)``: the number of trials and of wrong
    decisions under H0 and H1. A trial is a row of Philox words in the
    layout of ``kernels.exact_sums``, led by a hypothesis word (omitted when
    stratified: the first round(P0 * trials) trials are H0).

    With a constant sigma sequence and rows that fit a draw block,
    ``_DecisionBracket.settle`` decides the trials whose bracket of y
    clears the threshold (all but about 0.1% at fig5's settings) from the
    cells of their words. The others' rows wait in trial order in a stash
    of a 32nd of a block's rows; when it fills, and at the end, they go
    through ``exact_sums`` together and ``decide``. Other setups run every
    block through ``exact_sums``. Each decision is the exact pipeline's;
    only the rows reaching ``decide`` differ. One ``bincount`` of decision
    + 3 h1 per block or batch counts the trials and errors of both
    hypotheses.
    """
    p0, _ = setup.priors
    n_h0_total = stratified_h0_trials(setup.priors, trials) if stratified else 0
    h1_word = numerics.least_word_at_least(p0)
    lead = 0 if stratified else 1
    cols = lead + setup.L + 1
    sigmas = setup.sigmas.resolve(setup.L)
    work = np.empty(numerics.block_elements(trials, cols))
    # Trials by decision + 3 h1: H0's right and wrong decisions, H1's wrong
    # and right ones at 0, 1, 3, 4, and at 2, 5 the rows ``settle`` leaves,
    # which the totals skip: ``exact`` counts them when they reach it.
    by_code = np.zeros(6, dtype=np.int64)

    def tally(h1, decision):
        np.add(decision, 3, out=decision, where=h1)
        by_code[:] += np.bincount(decision, minlength=6)

    def exact(h1, draw):
        # h1 * theta, without the cast buffer of a bool-times-float product.
        shift = np.where(h1, setup.theta, 0.0 * setup.theta)[:, None]
        y, _, _ = kernels.exact_sums(setup, sigmas, draw, lead, shift, work)
        tally(h1, decide(detector, y))

    bracket = None
    if cols <= numerics.DRAW_BLOCK_ELEMENTS and setup.sigma_shares()[0].size == 1:
        bracket = _DecisionBracket(setup, detector)
        capacity = max(1, work.size // cols // 32)
        stash = np.empty((capacity, cols), dtype=np.uint64)
        stash_h1, stashed = np.empty(capacity, dtype=bool), 0
    for start, count, draw in numerics.row_blocks(stream, trials, cols):
        h1 = np.arange(start, start + count) >= n_h0_total if stratified else draw(0, 1)[:, 0] >= h1_word
        if bracket is None:
            exact(h1, draw)
            continue
        decision = np.empty(count, dtype=np.uint8)
        bracket.settle(h1, decision, draw(lead, lead + setup.L), draw(cols - 1, cols)[:, 0], work)
        left = decision == _UNSETTLED
        # Counted before the rows are indexed: bincount's intp copy of
        # ``decision`` and the index, each 8 bytes a row, are not held together.
        tally(h1, decision)
        unsettled = left.nonzero()[0]
        while unsettled.size:
            part, unsettled = unsettled[: capacity - stashed], unsettled[capacity - stashed :]
            # Indexing, not ``np.take``, which would copy the whole block first.
            stash[stashed : stashed + part.size], stash_h1[stashed : stashed + part.size] = draw(0, cols)[part], h1[part]
            stashed += part.size
            if stashed == capacity:
                exact(stash_h1, lambda lo, hi: stash[:, lo:hi])
                stashed = 0
        # Both are views of the block's index of unsettled rows: free it before the next draw.
        unsettled = part = None
    if bracket is not None:
        exact(stash_h1[:stashed], lambda lo, hi: stash[:stashed, lo:hi])
    return by_code[[0, 3]] + by_code[[1, 4]], by_code[[1, 3]]


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
            breakpoints=kinks,
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
        breakpoints=kinks,
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
        breakpoints=kinks,
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
