"""Mean-response inversion estimator and the amplify-and-forward baseline.

The fusion center sees a power-scaled sum of nonlinearly mapped sensor
observations. Its estimator inverts the mean response

    h_L(theta) = (1/L) sum_i E[f(theta + sigma_i * n_i)]

at the normalized received value. h_L is strictly increasing whenever f is,
so inversion is well posed; when channel noise pushes the target outside
the attainable range the target is clamped just inside and the event is
reported to the caller.

h_L sums one adaptive quadrature over n per band of sigma within a factor
of 4 (``mean_response``); ``g_moment`` gives the per-sigma moments
E[f^k(theta + sigma n)] where each sigma's own value is needed. The
estimator inverts whole target arrays at once, on a Chebyshev series of h_L
fitted to that band quadrature over the targets' theta range and chopped at
1e-13 (``FlatResponse``); a kernel solves each target on the series by
Newton steps from a monotone seed grid of about 513 points, spread over the
series' pieces by each piece's rise in h.

Memory does not grow with L for a constant sigma sequence: ``resolve``
returns one value broadcast to L entries, ``distinct`` skips the sort, and
sums over the sensors (``sensor_sum``) evaluate their term once. The
inversion holds its two output arrays and the working set of one chunk of
``INVERT_CHUNK`` targets, however many targets there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels, transmit as tx
from .noise import MAX_SCALE, MIN_SCALE, NoiseModel, breakpoints, nominal_variance, pdf
# adaptive_quadrature stays bound here: perfbench/tracer.py wraps it at this module.
from .numerics import DEFAULT_QUADRATURE, NumericsError, QuadratureSpec, adaptive_quadrature, expect  # noqa: F401

CONSTANT = "constant"
EXPLICIT_LIST = "explicit_list"
SQRT_GROWTH = "sqrt_growth"

SIGMA_KINDS = (CONSTANT, EXPLICIT_LIST, SQRT_GROWTH)


@dataclass(frozen=True)
class SigmaSequence:
    """Deterministic per-sensor reliability scales sigma_i.

    ``constant`` repeats one value, ``explicit_list`` enumerates values,
    and ``sqrt_growth`` models decreasingly reliable sensing via
    sigma_i = sigma * sqrt(i).
    """

    kind: str
    sigma: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in SIGMA_KINDS:
            message = f"unknown sigma sequence kind {self.kind!r}; expected one of {SIGMA_KINDS}"
            raise tx.FieldError(message, field="kind")
        if self.kind in (CONSTANT, SQRT_GROWTH):
            if self.sigma is None or not (self.sigma > 0.0 and np.isfinite(self.sigma)):
                message = f"{self.kind} sigma sequence requires positive sigma, got {self.sigma}"
                raise tx.FieldError(message, field="sigma")
        else:
            if not self.values or any(not (v > 0.0 and np.isfinite(v)) for v in self.values):
                raise tx.FieldError("explicit_list sigma sequence requires positive entries", field="values")

    def resolve(self, length: int) -> np.ndarray:
        """sigma_1 .. sigma_L as an array.

        A constant sequence comes back as a read-only zero-stride view of
        its one value (``np.broadcast_to``), so it takes no memory that
        grows with L; the other kinds materialize their L values.
        """
        if length <= 0:
            raise ValueError("sensor count must be positive")
        if self.kind == CONSTANT:
            return np.broadcast_to(np.float64(self.sigma), (length,))
        if self.kind == SQRT_GROWTH:
            return self.sigma * np.sqrt(np.arange(1, length + 1, dtype=np.float64))
        if len(self.values) != length:
            raise ValueError(f"explicit sigma list has {len(self.values)} entries, setup has L={length}")
        return np.asarray(self.values, dtype=np.float64)

    def distinct(self, length: int):
        """(unique sigma values, multiplicities) for quadrature dedup.

        A constant sequence gives ([sigma], [L]) without sorting L values:
        the values and dtypes ``np.unique`` would return.
        """
        values = self.resolve(length)
        if self.kind == CONSTANT:
            return values[:1].copy(), np.array([length], dtype=np.intp)
        return np.unique(values, return_counts=True)


def constant_sigmas(sigma: float = 1.0) -> SigmaSequence:
    return SigmaSequence(CONSTANT, sigma=sigma)


def sqrt_growth_sigmas(sigma: float = 1.0) -> SigmaSequence:
    return SigmaSequence(SQRT_GROWTH, sigma=sigma)


@dataclass(frozen=True)
class EstimationSetup:
    """Parameter, sensor field, transmit curve, and channel budget; the
    channel of both estimation and detection (``DetectionSetup`` adds priors)."""

    theta: float
    L: int
    sigmas: SigmaSequence
    noise: NoiseModel
    transmit: tx.TransmitFunction
    total_power: float
    channel_noise_var: float

    def __post_init__(self):
        if self.L <= 0:
            raise tx.FieldError(f"L must be positive, got {self.L}", field="L")
        if not (self.total_power > 0.0 and np.isfinite(self.total_power)):
            raise tx.FieldError(f"total_power must be positive, got {self.total_power}", field="total_power")
        # Its square root is the scale of the channel's Gaussian noise model.
        if not (self.channel_noise_var > 0.0 and MIN_SCALE <= math.sqrt(self.channel_noise_var) <= MAX_SCALE):
            message = f"channel_noise_var must lie in [{MIN_SCALE**2:g}, {MAX_SCALE**2:g}], got {self.channel_noise_var}"
            raise tx.FieldError(message, field="channel_noise_var")
        if self.sigmas.kind == EXPLICIT_LIST and len(self.sigmas.values) != self.L:
            raise tx.FieldError(f"{len(self.sigmas.values)} entries, but L is {self.L}", field="sigmas.values")
        # Each sensor's noise scale sigma_i * noise.scale has a noise model's range.
        s, scale = self.sigmas, self.noise.scale
        top = max(s.values) if s.kind == EXPLICIT_LIST else s.sigma * math.sqrt(self.L if s.kind == SQRT_GROWTH else 1)
        if not top * scale <= MAX_SCALE:
            message = f"sigma_i * noise.scale must be at most {MAX_SCALE:g}, got {top * scale!r} for the largest sigma_i"
            raise tx.FieldError(message, field="sigmas.values" if s.kind == EXPLICIT_LIST else "sigmas.sigma")

    @property
    def rho(self) -> float:
        """Per-sensor power factor under the total power budget."""
        return self.total_power / self.L

    def sigma_shares(self):
        """(distinct sigma values ascending, share count / L of each)."""
        values, counts = self.sigmas.distinct(self.L)
        return values, counts / self.L


def _transition_width(f: tx.TransmitFunction) -> float:
    """Characteristic x-scale over which f turns; guards quadrature seeding."""
    if f.kind in tx.BOUNDED_SMOOTH_KINDS:
        return 1.0 / f.omega
    if f.kind == tx.UNIFORM_QUANTIZER:
        return tx.quantizer_step(f)
    return 1.0


def _moment_breakpoints(f: tx.TransmitFunction, sigmas, thetas) -> list[float]:
    """f's breakpoints in n of every density integral of f(theta + sigma n)^k p(n),
    at each theta of a scalar or array ``thetas``; ``expect`` adds the
    density's, and the quadrature keeps those inside its interval. f's kinks
    are mapped exactly for every sigma. For smooth kinds the transition
    center and a few width multiples of the smallest and the largest sigma
    are seeded, so large sigma cannot hide the feature from the first
    refinement rounds; the transitions of the sigmas in between lie among
    those seeds.
    """
    pts = []
    for theta in np.atleast_1d(thetas).tolist():
        pts += [(b - theta) / sigma for sigma in sigmas for b in tx.breakpoints(f)]
        for sigma in {min(sigmas), max(sigmas)}:
            center, width = -theta / sigma, _transition_width(f) / sigma
            pts += [center + k * width for k in (0.0, 1.0, -1.0, 10.0, -10.0)]
    return pts


def _sigma_label(sigmas) -> str:
    return f"sigma={sigmas[0]}" if len(sigmas) == 1 else f"sigma in [{sigmas[0]}, {sigmas[-1]}]"


# Most (theta, sigma) components integrated together on one shared mesh;
# larger groups refine the mesh for features most members do not have, and
# their per-round arrays outgrow the cache.
MOMENT_GROUP = 64

# Moment quadratures the process keeps, least recently used first out. One
# run's working set fits: fig6, the largest, makes 961 (its omega scans
# reuse each curve's moments across the four L).
MOMENT_CACHE_SIZE = 1024


@lru_cache(maxsize=MOMENT_CACHE_SIZE)
def _g_moments_cached(
    noise: NoiseModel, f: tx.TransmitFunction, sigmas: tuple[float, ...], theta: float, power: int, spec: QuadratureSpec
) -> np.ndarray:
    """E[f^power(theta + sigma n)] for every sigma, as a read-only array
    from one vector-valued quadrature."""
    scale = np.array(sigmas)[:, None]

    def g(n):
        v = kernels.eval_transmit(f, x=theta + scale * n)
        return v if power == 1 else v * v

    values = expect(
        noise,
        g,
        spec,
        breakpoints=_moment_breakpoints(f, sigmas, theta),
        context=f"E[f^{power}(theta + sigma n)] at {_sigma_label(sigmas)}, theta={theta}",
    )
    values.flags.writeable = False
    return values


def g_moment(
    noise: NoiseModel,
    f: tx.TransmitFunction,
    sigma,
    theta: float,
    power: int = 1,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
):
    """E[f(theta + sigma n)^power] by adaptive quadrature (memoized).

    ``sigma`` may be an array of ascending distinct values: the result is
    then one moment per entry, for callers that need each sigma's own value
    (detection's variance term). Each vector-valued quadrature integrates up
    to ``MOMENT_GROUP`` consecutive entries on one shared mesh; h_L sums one
    quadrature per band of sigma instead (``mean_response``).
    """
    sigmas = np.atleast_1d(np.asarray(sigma, dtype=np.float64)).tolist()
    theta = float(theta)
    groups = range(0, len(sigmas), MOMENT_GROUP)
    values = np.concatenate(
        [_g_moments_cached(noise, f, tuple(sigmas[i : i + MOMENT_GROUP]), theta, int(power), spec) for i in groups]
    )
    return float(values[0]) if np.ndim(sigma) == 0 else values


# Largest ratio of the largest to the smallest sigma in one band. A band is
# integrated over its largest sigma, whose density has the heaviest tails,
# so the mixture ratio stays below 4 times the band's share and the
# narrowest member density is at least a quarter as wide as the reference's.
SIGMA_BAND_RATIO = 4.0

# Doubles in one (sigma, point) piece of the mixture ratio's sum: 64 KiB stays
# in cache; draw-block-sized pieces made the band quadratures 1.5 times as slow.
RATIO_CHUNK_ELEMENTS = 2**13


def _sigma_bands(values: np.ndarray, shares: np.ndarray):
    """(sigmas, shares) of each run of the ascending distinct sigma whose
    largest is at most ``SIGMA_BAND_RATIO`` times its smallest."""
    start = 0
    while start < values.size:
        stop = int(np.searchsorted(values, SIGMA_BAND_RATIO * values[start], side="right"))
        yield values[start:stop], shares[start:stop]
        start = stop


def _mixture_ratio(noise: NoiseModel, sigmas: np.ndarray, shares: np.ndarray):
    """The band's weight r(n) = sum_k share_k p_k(s n) / p_s(s n), p_k the
    density of sigma_k times the noise and s = sigmas[-1], as a sum over
    c_k = s / sigma_k of share_k c_k p(c_k n) / p(n) in pieces of sigma of
    at most ``RATIO_CHUNK_ELEMENTS`` (sigma, point) doubles. One sigma gives
    r = its share."""
    if sigmas.size == 1:
        return lambda n: np.full(n.shape, shares[0])
    c = sigmas[-1] / sigmas

    def ratio(n):
        step = max(1, RATIO_CHUNK_ELEMENTS // n.size)
        chunks = (slice(i, i + step) for i in range(0, c.size, step))
        return sum(shares[k] @ (c[k, None] * pdf(noise, c[k, None] * n)) for k in chunks) / pdf(noise, n)

    return ratio


def _band_responses(setup: EstimationSetup, theta, spec: QuadratureSpec, mass: bool = False):
    """The share of h_L of each band (``_sigma_bands``): E[f(theta + s n) r(n)],
    s the band's largest sigma and r its ``_mixture_ratio``, is one
    quadrature (one value per entry of an array ``theta``) with the
    ``_moment_breakpoints`` of s at every theta. With ``mass`` (an array
    ``theta``) E[r(n)], the band's share of the truncated mass, follows as
    one more component."""
    f = setup.transmit
    for sigmas, shares in _sigma_bands(*setup.sigma_shares()):
        s, ratio = float(sigmas[-1]), _mixture_ratio(setup.noise, sigmas, shares)
        rows = lambda n: kernels.eval_transmit(f, x=np.add.outer(theta, s * n))
        yield expect(
            setup.noise,
            lambda n: (np.vstack([rows(n), np.ones(n.size)]) if mass else rows(n)) * ratio(n),
            spec,
            breakpoints=_moment_breakpoints(f, (s,), theta),
            context=f"the mean response at {_sigma_label(sigmas)}, theta={'each theta' if np.ndim(theta) else theta}",
        )


def mean_response(setup: EstimationSetup, theta: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """h_L(theta), one quadrature per band of sigma (``_band_responses``). A
    constant sequence is one band with mixture ratio 1.0, so the result is
    bit-identical to ``g_moment(noise, f, sigma, theta, 1)`` for every L."""
    return math.fsum(_band_responses(setup, float(theta), spec))


CLAMP_MARGIN = 1e-9

# Targets ``FlatResponse.invert`` hands the kernel per call: its working set,
# about 20 doubles per target, stays near one draw block.
INVERT_CHUNK = 2048


def check_asymptotic_regime(setup: EstimationSetup) -> None:
    """The setups whose asymptotic variance is defined: sigma_i = 1 for
    every sensor and a differentiable transmit curve. The FieldError names
    ``sigmas.kind``, ``sigmas.sigma``, ``sigmas.values`` or ``transmit.kind``."""
    sigmas = setup.sigmas
    if sigmas.kind == SQRT_GROWTH:
        raise tx.FieldError("asymptotic variance requires sigma_i = 1, not sqrt_growth", field="sigmas.kind")
    if sigmas.kind == CONSTANT and sigmas.sigma != 1.0:
        raise tx.FieldError(f"asymptotic variance requires sigma = 1, got {sigmas.sigma}", field="sigmas.sigma")
    if sigmas.kind == EXPLICIT_LIST and any(v != 1.0 for v in sigmas.values):
        raise tx.FieldError("asymptotic variance requires sigma_i = 1 for every sensor", field="sigmas.values")
    if not tx.is_differentiable(setup.transmit):
        message = f"asymptotic variance needs a differentiable transmit curve, not {setup.transmit.kind}"
        raise tx.UnsupportedKindError(message, field="transmit.kind")


def asymptotic_variance(setup: EstimationSetup, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Limiting variance of sqrt(L) * (theta_hat - theta).

    Requires the i.i.d. unit-scale regime (sigma_i = 1) and a
    differentiable transmit curve (``check_asymptotic_regime``). The closed
    form takes E[f], E[f^2] and the slope E[f'] at theta + n from one
    vector-valued quadrature, whose mesh resolves all three.
    """
    check_asymptotic_regime(setup)
    f = setup.transmit
    theta = setup.theta

    def moments(n):
        x = theta + n
        v = kernels.eval_transmit(f, x=x)
        return np.vstack([v, v * v, tx.derivative(f, x)])

    mean, second, slope = expect(
        setup.noise,
        moments,
        spec,
        breakpoints=_moment_breakpoints(f, (1.0,), theta),
        context=f"E[f, f^2, f'](theta + n) at theta={theta}",
    ).tolist()
    noise_part = second - mean * mean + setup.channel_noise_var / setup.total_power
    if not slope * slope > 0.0:
        raise NumericsError(f"asymptotic variance at theta={theta}: the slope E[f'(theta + n)] = {slope!r} vanishes")
    return noise_part / (slope * slope)


def sensor_sum(sigmas: SigmaSequence, length: int, term) -> float:
    """Sum over the ``length`` sensors of ``term(sigma_i)``, an elementwise
    numpy expression.

    A constant sequence evaluates ``term`` on one entry and sums a
    zero-stride broadcast of it: numpy's pairwise sum visits the same
    values in the same order, so the result is bit-identical to summing the
    materialized terms, and no array grows with L.
    """
    values = sigmas.resolve(length)
    if sigmas.kind == CONSTANT:
        return float(np.sum(np.broadcast_to(term(values[:1]), (length,))))
    return float(np.sum(term(values)))


def af_gain(setup: EstimationSetup) -> float:
    """Power-normalizing gain alpha_L for amplify-and-forward, with
    ``noise.nominal_variance`` as the sensing noise variance.

    Raises ``NumericsError`` when the power sum is not positive and finite,
    or the gain it gives is not.
    """
    sigma_n2 = nominal_variance(setup.noise)
    with np.errstate(over="ignore"):
        denom = sensor_sum(setup.sigmas, setup.L, lambda s: setup.theta**2 + s**2 * sigma_n2)
    alpha = math.sqrt(setup.total_power / denom) if 0.0 < denom < math.inf else 0.0
    if not 0.0 < alpha < math.inf:
        raise NumericsError(f"AF power normalization at L={setup.L}: the power sum {denom!r} gives no positive finite gain")
    return alpha


# ---------------------------------------------------------------------------
# Chebyshev series of h_L
# ---------------------------------------------------------------------------


class MeshValidationError(NumericsError):
    """A Chebyshev fit of h_L did not chop within ``MAX_DEGREE``."""


# Degree of the coarse series and of a fine fit's first try; the fine fit
# doubles it until its last three coefficients fall below CHOP_TOL *
# max(1, |h|). FIT_CHUNK sample thetas share one band quadrature, whose
# mesh resolves each one's kinks: 64 thetas of the signed power hit the
# subdivision cap.
FIT_DEGREE = 16
CHOP_TOL = 1e-13
MAX_DEGREE = 1024
FIT_CHUNK = FIT_DEGREE + 1


def _response(setup: EstimationSetup, thetas: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """h_L at every theta, summed over ``_band_responses`` of FIT_CHUNK thetas."""
    chunks = (thetas[i : i + FIT_CHUNK] for i in range(0, thetas.size, FIT_CHUNK))
    return np.array([math.fsum(values) for chunk in chunks for values in zip(*_band_responses(setup, chunk, spec))])


def _chebyshev_points(lo: float, hi: float, n: int) -> np.ndarray:
    """The n + 1 Chebyshev points of the second kind on [lo, hi], ascending,
    with exact ends; those of n are every other point of 2n's."""
    x = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n + 1) / n)
    x[0], x[-1] = lo, hi
    return x


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the series through ``values`` at ascending
    ``_chebyshev_points``, from the FFT of their even extension."""
    v = values[::-1]
    c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / (v.size - 1)
    c[[0, -1]] *= 0.5
    return c


def _fit(setup: EstimationSetup, lo: float, hi: float, spec: QuadratureSpec):
    """(coefficients, h(lo), h(hi)) of h_L's series on [lo, hi] through the
    band quadrature at Chebyshev points, its degree doubled from
    ``FIT_DEGREE`` (sampling only the new points) until it chops (Aurentz
    and Trefethen, ACM TOMS 43, 2017). h_L convolves f with the noise
    density, so between the kinks ``_fit_span`` splits at its coefficients
    fall geometrically."""
    n, h = FIT_DEGREE, _response(setup, _chebyshev_points(lo, hi, FIT_DEGREE), spec)
    while True:
        c = _chebyshev_coefficients(h)
        tail, tol = float(np.max(np.abs(c[-3:]))), CHOP_TOL * max(1.0, float(np.max(np.abs(h))))
        if tail <= tol:
            return c, float(h[0]), float(h[-1])
        if n >= MAX_DEGREE:
            message = f"the mean response's series on theta in [{lo!r}, {hi!r}] did not chop within degree {n}"
            raise MeshValidationError(f"{message}: its last coefficients reach {tail:.3g} > {tol:.3g}")
        n *= 2
        h = np.insert(h, np.arange(1, h.size), _response(setup, _chebyshev_points(lo, hi, n)[1::2], spec))


def _fit_span(setup: EstimationSetup, lo: float, hi: float, spec: QuadratureSpec) -> list:
    """[(lo_k, hi_k, coefficients, h(lo_k), h(hi_k))] of the ``_fit`` pieces
    of [lo, hi], split where a kink b of f meets a density's kink at n = 0
    (Laplacian): at theta = b the quantizer's h_L has a jump in h'', and one
    series across several stalled at degree 512."""
    kinks = tx.breakpoints(setup.transmit) if breakpoints(setup.noise) else ()
    cuts = [lo, *sorted(b for b in kinks if lo < b < hi), hi]
    return [(a, b, *_fit(setup, a, b, spec)) for a, b in zip(cuts[:-1], cuts[1:])]


@dataclass(frozen=True)
class FlatResponse:
    """h_L of one setup for batched inversion: ``coarse`` is the series
    through h_L at ``nodes``, Chebyshev points over the probe span, and only
    locates targets; ``invert`` fits the fine series it solves on."""

    setup: EstimationSetup
    spec: QuadratureSpec
    nodes: np.ndarray
    coarse: np.ndarray
    # sup |f| times the band quadrature of the constant 1, which falls short
    # of 1 by the truncated tail mass; math.inf for unbounded kinds.
    limit: float

    def fit(self, t_min: float, t_max: float, ends=None) -> tuple[np.ndarray, np.ndarray]:
        """(edges, coefficient rows) of a piecewise series of h_L whose end
        values bracket ``ends`` (default (t_min, t_max)): over the span from
        the cells of t_min and t_max in a 129-point grid on the coarse
        series, plus 5% of its width at each end (``_fit_span``), and while
        h at an end misses its value, a piece of twice that end's last width
        beyond it. Each end doubles its own width, so a piece spans about as
        much again as the pieces before it on that side."""
        span = self.nodes[[0, -1]]
        grid = np.linspace(span[0], span[1], 129)
        grid_h = np.maximum.accumulate(kernels.eval_series(self.coarse[None, :], span, grid))
        i, j = np.clip(np.searchsorted(grid_h, [t_min, t_max]), 1, grid.size - 1)
        lo, hi = grid[[i - 1, j]].tolist()
        pad, width = 0.05 * (hi - lo), [1.1 * (hi - lo)] * 2
        pieces = _fit_span(self.setup, lo - pad, hi + pad, self.spec)
        low, high = (t_min, t_max) if ends is None else ends
        # width[True] is the last width beyond the left end, width[False] beyond the right.
        while (left := pieces[0][3] > low) or pieces[-1][4] < high:
            width[left] *= 2.0
            if width[left] > 1e18:
                raise NumericsError(f"no theta within 1e18 brings the mean response to [{low!r}, {high!r}]")
            if left:
                pieces[:0] = _fit_span(self.setup, pieces[0][0] - width[left], pieces[0][0], self.spec)
            else:
                pieces += _fit_span(self.setup, pieces[-1][1], pieces[-1][1] + width[left], self.spec)
        coefs = np.array([np.pad(c, (0, max(p[2].size for p in pieces) - c.size)) for _, _, c, _, _ in pieces])
        return np.array([p[0] for p in pieces] + [pieces[-1][1]]), coefs

    def invert(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invert an array of targets; returns (thetas, clamp mask).

        Every target goes to ``kernels.invert_h_targets`` on one fine series
        (``fit``), ``INVERT_CHUNK`` at a time, so only one chunk's working
        set is held besides the results, which do not depend on the chunk
        size. A target within ``CLAMP_MARGIN`` of -+limit is clamped: it
        solves h_L = -+(limit - margin), on pieces the fit adds beyond the
        span of the unclamped targets.
        """
        shape, targets = np.shape(targets), np.asarray(targets, dtype=np.float64).reshape(-1)
        bound = self.limit - CLAMP_MARGIN
        clamped = (targets <= -bound) | (targets >= bound)
        if targets.size == 0:
            return np.empty(shape), clamped.reshape(shape)
        # The span of the unclamped targets (of the clamp values if there is
        # none) starts the fit; the clamp values only extend its ends.
        ends = (max(float(np.min(targets)), -bound), min(float(np.max(targets)), bound))
        inner = ~clamped
        span = sorted([np.min(targets, where=inner, initial=ends[1]), np.max(targets, where=inner, initial=ends[0])])
        edges, coefs = self.fit(*span, ends)
        thetas = np.empty(targets.shape)
        for chunk in (slice(i, i + INVERT_CHUNK) for i in range(0, targets.size, INVERT_CHUNK)):
            thetas[chunk] = kernels.invert_h_targets(coefs, edges, targets=np.clip(targets[chunk], -bound, bound))
        return thetas.reshape(shape), clamped.reshape(shape)


def build_flat_response(setup: EstimationSetup, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> FlatResponse:
    """The coarse series of h_L over the probe span theta +- 6 * max(1,
    transition width), and ``limit``: sup |f| times the sum over the bands
    of E[r(n)], r a band's ``_mixture_ratio``, from the same quadratures."""
    pad = 6.0 * max(1.0, _transition_width(setup.transmit))
    nodes = _chebyshev_points(setup.theta - pad, setup.theta + pad, FIT_DEGREE)
    h = [math.fsum(values) for values in zip(*_band_responses(setup, nodes, spec, mass=True))]
    c = tx.bound(setup.transmit)
    limit = math.inf if c is None else c * h[-1]
    return FlatResponse(setup, spec, nodes, _chebyshev_coefficients(np.array(h[:-1])), limit)
