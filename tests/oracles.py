"""Reference implementations that the tests use as independent oracles.

Each is a plain, one-value-at-a-time version of something the package
computes in batches:

- ``simulate_channel`` runs one trial of the sensing/transmit/superpose
  pipeline (the harness draws whole blocks of trials);
- ``sample`` draws noise values one request at a time;
- ``estimate`` and ``estimate_info`` invert the adaptive mean response with
  Brent's method, one target at a time (the estimator inverts a Chebyshev
  series of it in batches);
- ``invert_monotone`` and ``InversionRangeError`` are that scalar solver;
- ``split_stream`` derives a child stream;
- ``per_sigma_response`` sums h_L over the per-sigma moments, one
  quadrature per group of 64 sigma, where ``estimation.mean_response`` and
  ``estimation.build_flat_response`` integrate each band of sigma once over
  its largest sigma, weighted by the band's mixture ratio;
- ``laplacian_moment`` integrates E f^k(theta + sigma n) under Laplacian
  noise over the truncated support in mpmath, split at the density's kink
  and at f's center (the package integrates in double precision);
- ``af_estimate`` is the amplify-and-forward estimate of one trial (the
  harness forms it for whole blocks);
- ``unbounded_cells`` stands in for ``kernels.cell_bounds`` with tables
  that bound nothing, so every detection trial takes the exact path;
- ``cdf`` is a noise model's cumulative distribution function, and
  ``fixed_mesh_nodes`` the K15 nodes and weights of a fixed quadrature mesh
  (the package integrates adaptively);
- ``eval_fn`` evaluates a transmit curve on scalars or arrays of any shape,
  ``from_variance`` builds a noise model of a given variance,
  ``read_csv`` reads the CLI's CSV back, and ``clear_moment_cache`` empties
  the moment engine's memo.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.special import ndtr, ndtri

from macfusion import estimation as est
from macfusion import kernels, numerics, transmit as tx
from macfusion.noise import CAUCHY, GAUSSIAN, LAPLACIAN, NoiseModel, transform_uniforms
from macfusion.numerics import DEFAULT_QUADRATURE, NumericsError, QuadratureSpec, RngStream, words_to_uniforms


# ---------------------------------------------------------------------------
# noise, transmit curves and channel
# ---------------------------------------------------------------------------


def from_variance(kind: str, target_variance: float) -> NoiseModel:
    """Build a model whose variance equals ``target_variance``.

    For Cauchy, whose variance diverges, the target is read as a nominal
    squared scale so that ``target_variance = 1`` gives unit half-width.
    """
    if not target_variance > 0.0:
        raise ValueError("target variance must be positive")
    root = float(np.sqrt(target_variance))
    if kind == GAUSSIAN:
        return NoiseModel(kind, root)
    if kind == LAPLACIAN:
        return NoiseModel(kind, root / np.sqrt(2.0))
    if kind == CAUCHY:
        return NoiseModel(kind, root)
    raise ValueError(f"unknown noise kind {kind!r}")


def cdf(model: NoiseModel, x):
    """Cumulative distribution function; vectorized over ``x``."""
    x = np.asarray(x, dtype=np.float64)
    s = model.scale
    if model.kind == GAUSSIAN:
        return ndtr(x / s)
    if model.kind == LAPLACIAN:
        z = x / s
        return np.where(z < 0.0, 0.5 * np.exp(np.minimum(z, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))
    return 0.5 + np.arctan(x / s) / np.pi


def fixed_mesh_nodes(edges: np.ndarray):
    """K15 nodes and weights for a fixed mesh given by sorted ``edges``:
    ``sum(w * fun(x))`` reproduces the adaptive result on the mesh
    ``numerics.adaptive_quadrature`` converged to."""
    edges = np.asarray(edges, dtype=np.float64)
    lefts, rights = edges[:-1], edges[1:]
    centers = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    x = (centers[:, None] + half[:, None] * numerics._NODES[None, :]).ravel()
    w = (half[:, None] * numerics._KW[None, :]).ravel()
    return x, w


def unbounded_cells(nodes, f, scale, shift, out=None):
    """``kernels.cell_bounds`` with every cell bounded by (-inf, +inf)."""
    out = np.empty((kernels.BRACKET_CELLS, 2)) if out is None else out
    out[:] = (-np.inf, np.inf)
    return out


def eval_fn(f: tx.TransmitFunction, x):
    """Evaluate f(x); vectorized over ``x``."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    out = kernels.eval_transmit(f, x=np.asarray(x, dtype=np.float64).ravel())
    if scalar:
        return float(out[0])
    return out.reshape(np.shape(x))


def sample(model: NoiseModel, stream, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. values from ``stream`` by inverse CDF.

    One uniform is consumed per value. Cauchy uses the tan transform of a
    centered uniform; Gaussian and Laplacian use their closed-form
    quantiles, so the draw is a deterministic function of the stream state.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    u = words_to_uniforms(stream.uniforms(count))
    return transform_uniforms(model, u)


def split_stream(parent: RngStream, child_id: int) -> RngStream:
    """Derive an independent child stream keyed by (master_seed, child_id).

    The derivation is flat: only the parent's master seed enters, so the
    same child id yields the identical sequence no matter which worker asks
    or in what order.
    """
    return RngStream(master_seed=parent.master_seed, stream_id=int(child_id))


@dataclass(frozen=True)
class ChannelRealization:
    """One channel use: raw output y_L and normalized z_L = y_L / sqrt(L).

    y_L is re-derived as z_L * sqrt(L) so the pair satisfies the identity
    exactly in floating point.
    """

    y_L: float
    z_L: float

    @classmethod
    def from_raw(cls, y_raw: float, L: int) -> "ChannelRealization":
        z = y_raw / math.sqrt(L)
        return cls(y_L=z * math.sqrt(L), z_L=z)


def simulate_channel(setup, trial_stream) -> ChannelRealization:
    """One trial of the sensing/transmit/superpose pipeline.

    Consumes exactly L sensor draws (ascending index) and one channel draw
    from ``trial_stream``.
    """
    sigmas = setup.sigmas.resolve(setup.L)
    noise_draws = sample(setup.noise, trial_stream, setup.L)
    chan_u = words_to_uniforms(trial_stream.uniforms(1))
    x = setup.theta + sigmas * noise_draws
    y_raw = math.sqrt(setup.rho) * float(kernels.channel_sums(setup.transmit, x=x[None, :])[0])
    y_raw += math.sqrt(setup.channel_noise_var) * float(ndtri(chan_u[0]))
    return ChannelRealization.from_raw(y_raw, setup.L)


def af_estimate(setup: est.EstimationSetup, sensor_noise: np.ndarray, channel_draw: float) -> float:
    """Amplify-and-forward estimate for one trial's noise realization."""
    sensor_noise = np.asarray(sensor_noise, dtype=np.float64)
    if sensor_noise.shape != (setup.L,):
        raise ValueError(f"expected {setup.L} sensor noise draws, got shape {sensor_noise.shape}")
    alpha = est.af_gain(setup)
    sigmas = setup.sigmas.resolve(setup.L)
    return setup.theta + float(np.mean(sigmas * sensor_noise)) + channel_draw / (setup.L * alpha)


# ---------------------------------------------------------------------------
# scalar inversion
# ---------------------------------------------------------------------------


class InversionRangeError(NumericsError):
    """Target lies outside the closure of the monotone function's range."""

    def __init__(self, target: float, nearest_endpoint: float, at_x: float):
        self.target = target
        self.nearest_endpoint = nearest_endpoint
        self.at_x = at_x
        super().__init__(
            f"target {target!r} is outside the attainable range; "
            f"nearest endpoint {nearest_endpoint!r} at x={at_x!r}"
        )


def invert_monotone(h, target: float, bracket_hint=(-1.0, 1.0)) -> float:
    """Solve h(x) = target for strictly increasing ``h``.

    The bracket expands geometrically from the hint until the residual
    changes sign. Targets beyond the attainable range raise
    :class:`InversionRangeError` carrying the nearest attainable value.
    """
    from scipy.optimize import brentq

    lo, hi = (float(bracket_hint[0]), float(bracket_hint[1]))
    if lo > hi:
        lo, hi = hi, lo
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    f_lo = h(lo) - target
    f_hi = h(hi) - target
    width = hi - lo
    limit = 1e15
    while f_lo > 0.0 or f_hi < 0.0:
        if f_lo > 0.0:  # root lies to the left
            if lo <= -limit:
                raise InversionRangeError(target, h(lo), lo)
            width *= 2.0
            lo = max(lo - width, -limit)
            f_lo = h(lo) - target
        else:  # f_hi < 0: root lies to the right
            if hi >= limit:
                raise InversionRangeError(target, h(hi), hi)
            width *= 2.0
            hi = min(hi + width, limit)
            f_hi = h(hi) - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    return float(brentq(lambda x: h(x) - target, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200))


def response_limits(setup: est.EstimationSetup) -> tuple[float, float]:
    """Closure of the range of h_L: (-c, c) for bounded f, else the line."""
    c = tx.bound(setup.transmit)
    if c is None:
        return -math.inf, math.inf
    return -c, c


@dataclass(frozen=True)
class InversionResult:
    theta: float
    clamped: bool


def estimate_info(setup: est.EstimationSetup, received_z: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> InversionResult:
    """Invert the normalized received signal; reports range clamping."""
    if setup.transmit.kind == tx.UNIFORM_QUANTIZER:
        raise tx.UnsupportedKindError("uniform_quantizer is not invertible; the estimator requires a one-to-one transmit curve")
    target = received_z / math.sqrt(setup.total_power)
    lo, hi = response_limits(setup)
    clamped = False
    if target <= lo + est.CLAMP_MARGIN:
        target = lo + est.CLAMP_MARGIN
        clamped = True
    elif target >= hi - est.CLAMP_MARGIN:
        target = hi - est.CLAMP_MARGIN
        clamped = True
    theta = invert_monotone(lambda t: est.mean_response(setup, t, spec), target, bracket_hint=(-1.0, 1.0))
    return InversionResult(theta=theta, clamped=clamped)


def estimate(setup: est.EstimationSetup, received_z: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """theta estimate from the normalized received signal (Brent path)."""
    return estimate_info(setup, received_z, spec).theta


# ---------------------------------------------------------------------------
# moment memo, per-sigma response and CSV reader
# ---------------------------------------------------------------------------


def clear_moment_cache() -> None:
    est._g_moments_cached.cache_clear()


def per_sigma_response(setup: est.EstimationSetup, theta: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """h_L(theta) as the sum over the distinct sigma of share * E[f(theta + sigma n)],
    the moments from ``estimation.g_moment`` (one quadrature per group of
    ``MOMENT_GROUP`` sigma)."""
    values, shares = setup.sigma_shares()
    return math.fsum(shares * est.g_moment(setup.noise, setup.transmit, values, float(theta), 1, spec))


# Each curve in mpmath, for the reference moments.
_MP_CURVES = {
    tx.TANH: lambda f, x: mpmath.tanh(f.omega * x),
    tx.RATIONAL: lambda f, x: f.omega * x / (1 + abs(f.omega * x)),
    tx.LINEAR: lambda f, x: f.alpha * x,
}


def laplacian_moment(f: tx.TransmitFunction, scale: float, sigma: float, theta: float, power: int, t: float) -> float:
    """integral over [-t, t] of f(theta + sigma n)^power p(n) dn for the
    Laplacian density p of ``scale``, at 30 digits, with the interval split
    at n = 0 (p's kink) and n = -theta / sigma (f's center)."""
    curve = _MP_CURVES[f.kind]
    with mpmath.workdps(30):
        points = sorted({-t, t, *(p for p in (0.0, -theta / sigma) if -t < p < t)})
        p = lambda n: mpmath.exp(-abs(n) / scale) / (2 * scale)
        return float(mpmath.quad(lambda n: curve(f, theta + sigma * n) ** power * p(n), points))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Round-trip reader for the CLI's own CSV output."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]
