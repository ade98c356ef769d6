"""Hot numeric kernels in vectorized numpy.

Three operations dominate simulation runtime: transmit-curve evaluation
over large draw arrays, per-trial channel sums, and batched inversion of
the frozen mean-response function (about three response evaluations per
target, from a cubic seed). Only ``draw_blocks``, the one Monte Carlo
draw loop of estimation and detection, draws random numbers, in the fixed
layout its docstring gives, so the draws an experiment consumes do not
depend on how the kernels batch their work.

Every kernel takes the ``TransmitFunction`` f itself. Each curve is
defined once, in ``_curve``, as a chain of ufunc calls that take an
``out=`` argument: with ``out=None`` the first call allocates the result
and the rest of the chain runs in place on it; with ``out=x`` the whole
chain overwrites ``x`` (the rational curve and the signed power keep one
scratch array for their second operand). The order of operations is
fixed, so every entry point gives bit-identical values. ``x`` and
``targets`` are keyword-only because ``perfbench/tracer.py`` counts them by name.

The mean response h(theta) = sum_j w_j f(theta + u_j) is evaluated by
``eval_response`` in tiles of at most ``numerics.DRAW_BLOCK_ELEMENTS``
theta-node products: a scratch tile is filled with theta + nodes, mapped
through f in place and reduced against the weights, so the working set
stays cache-sized however many thetas and nodes there are. The reduction
is one dot product per row (``np.vecdot``). Its value depends on the row
alone, not on how many rows share the tile or where they sit in it, so
h(theta) is a function of theta and the inverted thetas are the same for
every tile size. A BLAS mat-vec over the whole tile is not: its row
blocking moves results by an ulp as the tile composition changes. Against
the untiled mat-vec the inverted thetas differ by an ulp or two, since
each row is summed in another order.
"""

from __future__ import annotations

import math

import numpy as np

from . import noise, numerics, transmit as tx

_FOUR_OVER_PI = 4.0 / math.pi


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


def draw_blocks(setup, trials: int, stream, lead: int = 0):
    """The simulated channel of ``setup``, block by block of trials.

    Draw layout: each trial is one row of ``lead + L + 1`` uniforms from
    ``stream``, rows one after another. The ``lead`` columns belong to the
    caller (detection's hypothesis uniform), then come the L sensor columns
    in ascending index order, then the channel column. Sensor i sends
    f(shift + sigma_i n_i), where n_i is the noise transform of its uniform
    under ``setup.noise``; the channel draw is the transform under
    N(0, channel_noise_var). ``numerics.row_blocks`` draws as many whole rows
    as fit in ``numerics.DRAW_BLOCK_ELEMENTS`` at once, and a wider row span
    by span; the values are the same for any budget.

    Yields ``(rows, lead_columns, sums)`` per block. ``rows`` is the block's
    slice of the trials and ``lead_columns`` its (trials, lead) uniforms,
    None when ``lead`` is 0; the view is valid until ``sums`` is called.
    ``sums(shift, scaled=False)`` draws the rest of the block and returns
    ``(f_sums, scaled_sums, channel)``: the row sums of f(shift + sigma n),
    those of sigma n when ``scaled`` (else None), and the channel draws;
    ``shift`` is a scalar or one value per trial as a (trials, 1) column.
    Call it exactly once per block, so every column is drawn once and in
    stream order.

    Nothing of draw size is allocated per block: each span's transform is
    written into one workspace of ``numerics.block_elements`` doubles per
    call, scaled and shifted in place and mapped through f in place by
    ``channel_sums``. A wide row's span sums are combined along numpy's
    pairwise tree (``numerics.pairwise_row_sum``), so every sum is
    bit-identical to summing the whole row at once.
    """
    sigmas = setup.sigmas.resolve(setup.L)
    channel = noise.gaussian(math.sqrt(setup.channel_noise_var))
    cols = lead + setup.L + 1
    work = np.empty(numerics.block_elements(trials, cols))
    for start, count, draw in numerics.row_blocks(stream, trials, cols):

        def sums(shift, scaled=False):
            def leaf(lo, hi):
                u = draw(lead + lo, lead + hi)
                x = noise.transform_uniforms(setup.noise, u, out=work[: u.size].reshape(u.shape))
                np.multiply(sigmas[lo:hi], x, out=x)
                scaled_sums = x.sum(axis=1) if scaled else None
                np.add(shift, x, out=x)
                f_sums = channel_sums(setup.transmit, x=x, out=x)
                return np.stack([f_sums, scaled_sums]) if scaled else f_sums

            total = numerics.pairwise_row_sum(setup.L, leaf)
            f_sums, scaled_sums = total if scaled else (total, None)
            # Requested last: a wide row draws the channel column after its sensor spans.
            return f_sums, scaled_sums, noise.transform_uniforms(channel, draw(cols - 1, cols)[:, 0])

        yield slice(start, start + count), draw(0, lead) if lead else None, sums


def eval_response(nodes: np.ndarray, weights: np.ndarray, f: tx.TransmitFunction, thetas) -> np.ndarray:
    """sum_j weights[j] * f(theta + nodes[j]) for every theta.

    Works through the thetas in tiles of at most
    ``numerics.DRAW_BLOCK_ELEMENTS`` theta-node products (one theta per
    tile if a single row is larger), with one scratch tile per call.
    """
    thetas = np.asarray(thetas, dtype=np.float64).ravel()
    rows = max(1, numerics.DRAW_BLOCK_ELEMENTS // nodes.size)
    h = np.empty(thetas.size)
    tile = np.empty((min(rows, thetas.size), nodes.size))
    for start in range(0, thetas.size, rows):
        stop = min(start + rows, thetas.size)
        part = tile[: stop - start]
        np.add(thetas[start:stop, None], nodes, out=part)
        _curve(f, part, out=part)
        np.vecdot(part, weights, out=h[start:stop])
    return h


# Safety cap on Illinois steps per target; converged targets leave the
# iteration long before (three response evaluations from a cubic seed).
_MAX_ILLINOIS_STEPS = 100


def _cubic_seed(grid_x: np.ndarray, grid_h: np.ndarray, idx: np.ndarray, targets: np.ndarray):
    """Inverse-cubic seeds (theta, dtheta/dh) at the targets, from the grid.

    theta(h) is interpolated through the four grid points around each
    target's cell [idx - 1, idx]. The seed is NaN where that interpolant is
    unusable: a seed outside its cell, or a value that is not finite, as
    repeated grid values make it (they divide by zero).
    """
    j = np.clip(idx - 2, 0, grid_x.size - 4) + np.arange(4)[:, None]
    xs, hs = grid_x[j], grid_h[j]
    d = targets - hs
    seed = np.zeros(targets.shape)
    slope = np.zeros(targets.shape)
    with np.errstate(all="ignore"):
        for k in range(4):
            m0, m1, m2 = (m for m in range(4) if m != k)
            w = xs[k] / ((hs[k] - hs[m0]) * (hs[k] - hs[m1]) * (hs[k] - hs[m2]))
            seed += w * d[m0] * d[m1] * d[m2]
            slope += w * (d[m0] * d[m1] + d[m0] * d[m2] + d[m1] * d[m2])
    usable = (grid_x[idx - 1] < seed) & (seed < grid_x[idx]) & np.isfinite(slope)
    return np.where(usable, seed, np.nan), slope


def invert_h_targets(
    nodes: np.ndarray,
    weights: np.ndarray,
    f: tx.TransmitFunction,
    *,
    targets: np.ndarray,
    grid_x: np.ndarray,
    grid_h: np.ndarray,
) -> np.ndarray:
    """Solve sum_j w_j f(theta + u_j) = target for each target.

    ``grid_x``/``grid_h`` is a precomputed nondecreasing sampling of the
    response, of at least four points, that must bracket every target; each
    solve starts from its grid cell and polishes with a bracketed Illinois
    false-position iteration, one ``eval_response`` call per step. The first
    iterate is the inverse-cubic seed of ``_cubic_seed`` (the false-position
    step where it is unusable). The second is one Newton step past the seed
    with the cubic's dtheta/dh, scaled by 1 + 1e-4 plus 4 ulp, so it lands
    just beyond the root and one more step usually finishes. A target stops
    as soon as its residual is within eps * max(1, |target|), the rounding
    of h, its iterate stops moving, or its bracket holds no float strictly
    inside. Every array is float64.
    """
    idx = np.clip(np.searchsorted(grid_h, targets, side="left"), 1, grid_x.size - 1)
    seed, slope = _cubic_seed(grid_x, grid_h, idx, targets)
    tol = np.finfo(np.float64).eps * np.maximum(1.0, np.abs(targets))
    lo_x = grid_x[idx - 1]
    hi_x = grid_x[idx]
    lo_f = grid_h[idx - 1] - targets
    hi_f = grid_h[idx] - targets
    # Latest evaluated iterate of every target; NaN until the first step.
    x = np.full(targets.shape, np.nan)
    stuck_lo = np.zeros(targets.shape, dtype=np.int64)
    stuck_hi = np.zeros(targets.shape, dtype=np.int64)
    # Indices of the targets still iterating; the bracket arrays and fx
    # hold only those.
    active = np.arange(targets.size)
    for step in range(_MAX_ILLINOIS_STEPS):
        df = hi_f - lo_f
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = np.where(df > 0.0, lo_x - lo_f * (hi_x - lo_x) / np.where(df > 0.0, df, 1.0), 0.5 * (lo_x + hi_x))
        if step == 0:
            x_new = np.where(np.isnan(seed), x_new, seed)
        elif step == 1:
            seeded = ~np.isnan(seed[active])
            newton = -fx * slope[active] * (1.0 + 1e-4)
            newton += np.copysign(4.0 * np.spacing(np.abs(x[active])), newton)
            x_new = np.where(seeded, x[active] + newton, x_new)
        x_new = np.minimum(np.maximum(x_new, lo_x), hi_x)
        # A target whose update returns its last iterate is converged.
        moving = x_new != x[active]
        active, x_new = active[moving], x_new[moving]
        lo_x, hi_x, lo_f, hi_f = lo_x[moving], hi_x[moving], lo_f[moving], hi_f[moving]
        stuck_lo, stuck_hi = stuck_lo[moving], stuck_hi[moving]
        if active.size == 0:
            break
        x[active] = x_new
        fx = eval_response(nodes, weights, f, x_new) - targets[active]
        below = fx < 0.0
        lo_x = np.where(below, x_new, lo_x)
        lo_f = np.where(below, fx, lo_f)
        hi_x = np.where(below, hi_x, x_new)
        hi_f = np.where(below, hi_f, fx)
        # Illinois step: halve the retained side's residual when it stalls,
        # which keeps the false-position update superlinear.
        stuck_hi = np.where(below, stuck_hi + 1, 0)
        stuck_lo = np.where(below, 0, stuck_lo + 1)
        hi_f = np.where(stuck_hi >= 2, 0.5 * hi_f, hi_f)
        lo_f = np.where(stuck_lo >= 2, 0.5 * lo_f, lo_f)
        # Also converged: a residual at the rounding level of h, or no float
        # left strictly inside the bracket.
        live = (np.abs(fx) > tol[active]) & (np.nextafter(lo_x, hi_x) < hi_x)
        active, fx = active[live], fx[live]
        lo_x, hi_x, lo_f, hi_f = lo_x[live], hi_x[live], lo_f[live], hi_f[live]
        stuck_lo, stuck_hi = stuck_lo[live], stuck_hi[live]
    return x
