"""Hot numeric kernels in vectorized numpy.

Three operations dominate simulation runtime: transmit-curve evaluation
over large draw arrays, per-trial channel sums, and batched inversion of
the mean response's piecewise Chebyshev series (``invert_h_targets``:
about three series evaluations per target, from a linear seed).
``exact_sums`` is the one definition of the simulated channel, on rows of
Philox words in the fixed layout its docstring gives, so the draws an
experiment consumes do not depend on how the kernels batch their work.

For detection, ``cell_bounds`` tabulates a sensor's draw pipeline
f(shift + sigma n(u)) as certified lower and upper bounds over each cell
[k/K, (k+1)/K] of its uniform, K = ``BRACKET_CELLS``, and
``transform_nodes`` the noise transform alone at u = k/K. A uniform's cell
is the top 12 bits of the Philox word it is made from (``CELL_SHIFT``), so
a caller can settle most trials of a block from such tables and the
block's words, and send only the rest through ``exact_sums``.

Every kernel takes the ``TransmitFunction`` f itself. Each curve is
defined once, in ``_curve``, as a chain of ufunc calls that take an
``out=`` argument: with ``out=None`` the first call allocates the result
and the rest of the chain runs in place on it; with ``out=x`` the whole
chain overwrites ``x`` (the rational curve and the signed power keep one
scratch array for their second operand). The order of operations is
fixed, so every entry point gives bit-identical values. ``x`` and
``targets`` are keyword-only because ``perfbench/tracer.py`` counts them by name.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from . import noise, numerics, transmit as tx

_FOUR_OVER_PI = 4.0 / math.pi

# Cells of the unit interval in the tables of ``cell_bounds``. A power of
# two: the uniform of a Philox word w lies in the closed cell
# w >> CELL_SHIFT (``numerics.words_to_uniforms``).
CELL_BITS = 12
BRACKET_CELLS = 2**CELL_BITS
CELL_SHIFT = 64 - CELL_BITS
# Relative slack of those tables: thousands of times the few-ulp error of
# the noise transforms and curves.
BRACKET_SLACK = 1e-12
_TINY = np.finfo(np.float64).tiny


def get_backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "numpy"


def _curve(f: tx.TransmitFunction, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f(x); the one array definition of each curve.

    ``out=None`` leaves ``x`` untouched and returns a new array; ``out=x``
    overwrites ``x`` with f(x).
    """
    if f.kind == tx.TANH:
        y = np.multiply(f.omega, x, out=out)
        return np.tanh(y, out=y)
    if f.kind == tx.GUDERMANNIAN:
        y = np.multiply(0.5 * f.omega, x, out=out)
        np.tanh(y, out=y)
        np.arctan(y, out=y)
        return np.multiply(_FOUR_OVER_PI, y, out=y)
    if f.kind == tx.RATIONAL:
        t = np.multiply(f.omega, x, out=out)
        d = np.abs(t)
        np.add(1.0, d, out=d)
        return np.divide(t, d, out=t)
    if f.kind == tx.SIGNED_POWER:
        s = np.sign(x)
        y = np.abs(x, out=out)
        np.power(y, f.p_exponent, out=y)
        return np.multiply(s, y, out=y)
    if f.kind == tx.UNIFORM_QUANTIZER:
        step = tx.quantizer_step(f)
        top = (f.levels - 1) / 2.0
        k = np.divide(x, step, out=out)
        np.add(k, 0.5, out=k)
        np.floor(k, out=k)
        np.clip(k, -top, top, out=k)
        return np.multiply(k, step, out=k)
    return np.multiply(f.alpha, x, out=out)


def eval_transmit(f: tx.TransmitFunction, *, x) -> np.ndarray:
    """f applied elementwise to an array of any shape; ``x`` is not modified."""
    return _curve(f, np.asarray(x, dtype=np.float64))


def channel_sums(f: tx.TransmitFunction, *, x, out: np.ndarray | None = None) -> np.ndarray:
    """Row sums of f over a (trials, sensors) observation block.

    ``x`` is not modified unless it is ``out``: f(x) goes to ``out``, a
    float64 array of ``x``'s shape, so ``out=x`` applies f in place; with
    ``out=None`` to a new array.
    """
    if out is None:
        x = np.asarray(x, dtype=np.float64)
    return _curve(f, x, out=out).sum(axis=1)


def transform_nodes(model: noise.NoiseModel) -> np.ndarray:
    """``noise.transform_uniforms(model, k/K)`` for k = 0 .. K, K = ``BRACKET_CELLS``.

    The ends take the transform's limits -inf and +inf instead of being
    evaluated. The transform is monotone up to the few-ulp error of
    ``ndtri``, ``log1p`` and ``tan``, so every u in [k/K, (k+1)/K] maps into
    [n[k] - s[k], n[k + 1] + s[k + 1]] with s = BRACKET_SLACK |n| + tiny.
    """
    k = BRACKET_CELLS
    n = np.empty(k + 1)
    n[0], n[k] = -np.inf, np.inf
    noise.transform_uniforms(model, np.arange(1, k) / k, out=n[1:k])
    return n


def cell_bounds(nodes: np.ndarray, f: tx.TransmitFunction, scale: float, shift: float, out=None) -> np.ndarray:
    """Certified bounds of f(shift + scale * n(u)), cell by cell of the uniform u.

    ``nodes`` is ``transform_nodes`` of the noise model, and the ufuncs and
    their order are those of ``exact_sums``. Returns a (K, 2) array, K =
    ``BRACKET_CELLS``, whose row k holds a lower and an upper bound of the
    value of every u in [k/K, (k+1)/K]; written into ``out`` if given.

    The ends of a cell are its nodes widened by their slack, so f is
    applied to bounds of n and a cell is bounded even where f steps (the
    quantizer). The curves too are monotone up to a few ulps, which a
    slack of ``BRACKET_SLACK`` (1 + max |bound|) covers. Where a bounded
    curve is undefined (the rational curve's inf/inf at n = +-inf), its
    limits -sup|f| and +sup|f| bound the end cells. Those of an unbounded
    curve stay infinite ("no bound" to callers): a finite bound at the
    extreme draws (a Cauchy n(2**-54) is about -5.7e15) would inflate the
    rounding margin, which scales with the largest finite bound.
    """
    out = np.empty((BRACKET_CELLS, 2)) if out is None else out
    with np.errstate(all="ignore"):
        slack = BRACKET_SLACK * np.abs(nodes)
        slack += _TINY
        np.subtract(nodes[:-1], slack[:-1], out=out[:, 0])
        np.add(nodes[1:], slack[1:], out=out[:, 1])
        np.multiply(scale, out, out=out)
        np.add(shift, out, out=out)
        _curve(f, out, out=out)
        limit = tx.bound(f)
        if limit is not None:
            np.copyto(out, (-limit, limit), where=np.isnan(out))
        slack = np.maximum(np.abs(out[:, 0]), np.abs(out[:, 1]))
        slack *= BRACKET_SLACK
        slack += BRACKET_SLACK
        out[:, 0] -= slack
        out[:, 1] += slack
    return out


def exact_sums(setup, sigmas, draw, lead, shift, work, scaled=False):
    """The simulated channel of ``setup`` on one block of trials: the exact pipeline.

    Draw layout: a trial is a row of ``lead + L + 1`` Philox words, one per
    uniform: the caller's ``lead`` columns (detection's hypothesis), the L
    sensors in ascending index order, then the channel. ``draw(lo, hi)``
    returns the block's words of columns [lo, hi), as ``numerics.row_blocks``
    does; the sensor spans are requested in order and the channel last.
    Sensor i sends f(shift + sigma_i n_i), n_i the transform of its uniform
    under ``setup.noise``, ``sigmas`` = ``setup.sigmas.resolve(L)``, and
    ``shift`` a scalar or a (trials, 1) column; the channel draw v is the
    transform under N(0, channel_noise_var). Returns ``(y, scaled_sums,
    channel)``: the received values y = sqrt(rho) sum_i f(...) + v (formed
    nowhere else), the row sums of sigma n when ``scaled`` (else None), and v.

    Each span's uniforms are made in ``work`` (``numerics.block_elements``
    doubles, apart from the words), then transformed, scaled, shifted and
    mapped through f in place. Span sums combine along numpy's pairwise
    tree (``numerics.pairwise_row_sum``), so each sum is bit-identical to
    the whole row's, and no row's values depend on the block's other rows.
    """
    cols = lead + setup.L + 1

    def leaf(lo, hi):
        words = draw(lead + lo, lead + hi)
        x = numerics.words_to_uniforms(words, out=work[: words.size].reshape(words.shape))
        noise.transform_uniforms(setup.noise, x, out=x)
        np.multiply(sigmas[lo:hi], x, out=x)
        scaled_sums = x.sum(axis=1) if scaled else None
        np.add(shift, x, out=x)
        f_sums = channel_sums(setup.transmit, x=x, out=x)
        return np.stack([f_sums, scaled_sums]) if scaled else f_sums

    total = numerics.pairwise_row_sum(setup.L, leaf)
    y, scaled_sums = total if scaled else (total, None)
    channel_u = numerics.words_to_uniforms(draw(cols - 1, cols)[:, 0])
    channel = noise.transform_uniforms(noise.gaussian(math.sqrt(setup.channel_noise_var)), channel_u, out=channel_u)
    y *= math.sqrt(setup.rho)
    y += channel
    return y, scaled_sums, channel


def eval_series(coefs: np.ndarray, edges: np.ndarray, thetas, piece=None, derivative=False) -> np.ndarray:
    """The piecewise Chebyshev series (its theta derivative if asked) at each
    theta: row k of ``coefs`` holds the coefficients on [edges[k],
    edges[k + 1]] mapped to [-1, 1]. Each theta takes its ``piece`` (found
    unless given); one outside the edges takes the end piece."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if piece is None:
        piece = np.clip(np.searchsorted(edges, thetas, side="right") - 1, 0, edges.size - 2)
    out = np.empty(thetas.shape)
    for k in np.unique(piece).tolist():
        on = piece == k
        lo, hi = edges[k], edges[k + 1]
        c = chebder(coefs[k]) * (2.0 / (hi - lo)) if derivative else coefs[k]
        out[on] = chebval((2.0 * thetas[on] - (lo + hi)) / (hi - lo), c)
    return out


# Points of the monotone grid on the series that seeds every target, and a
# safety cap on Newton steps: from its seed a target takes about three.
SEED_POINTS = 513
_MAX_NEWTON_STEPS = 100


def invert_h_targets(coefs: np.ndarray, edges: np.ndarray, *, targets: np.ndarray) -> np.ndarray:
    """Solve p(theta) = target for each target, p the piecewise Chebyshev
    series ``coefs`` on ``edges`` (``eval_series``), whose end values must
    bracket every target.

    A nondecreasing grid of ``SEED_POINTS`` points, spread over the pieces
    with their edges among them, puts each target in a cell of one piece;
    linear interpolation there seeds Newton steps on that piece's series,
    kept inside the bracket the residual signs narrow (bisection where a
    step would leave it), until a step moves it by at most 4 ulp of
    max(1, |theta|). A target's iterates depend on its own values alone.
    """
    per_piece = max(2, SEED_POINTS // (edges.size - 1))
    grid_x = np.unique(np.concatenate([np.linspace(a, b, per_piece) for a, b in zip(edges[:-1], edges[1:])]))
    grid_h = np.maximum.accumulate(eval_series(coefs, edges, grid_x))
    idx = np.clip(np.searchsorted(grid_h, targets, side="left"), 1, grid_x.size - 1)
    lo, hi = grid_x[idx - 1], grid_x[idx]
    rise = grid_h[idx] - grid_h[idx - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(rise > 0.0, lo + (targets - grid_h[idx - 1]) / rise * (hi - lo), 0.5 * (lo + hi))
    x = np.minimum(np.maximum(x, lo), hi)
    piece = np.clip(np.searchsorted(edges, 0.5 * (lo + hi), side="right") - 1, 0, edges.size - 2)
    thetas = np.empty(targets.shape)
    # Indices of the targets still iterating; the other arrays hold only those.
    active, t = np.arange(targets.size), targets
    for _ in range(_MAX_NEWTON_STEPS):
        if active.size == 0:
            break
        fx = eval_series(coefs, edges, x, piece) - t
        lo, hi = np.where(fx < 0.0, x, lo), np.where(fx < 0.0, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - fx / eval_series(coefs, edges, x, piece, derivative=True)
        live = ~(np.abs(step - x) <= 4.0 * np.spacing(np.maximum(np.abs(x), 1.0)))
        step = np.where((lo <= step) & (step <= hi) | ~live, step, 0.5 * (lo + hi))
        thetas[active] = np.minimum(np.maximum(step, lo), hi)
        active, x, lo, hi, piece, t = active[live], step[live], lo[live], hi[live], piece[live], t[live]
    return thetas
