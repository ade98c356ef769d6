"""Hot numeric kernels in vectorized numpy.

Three operations dominate simulation runtime: transmit-curve evaluation
over large draw arrays, per-trial channel sums, and batched inversion of
the frozen mean-response function. Random number generation never happens
inside kernels, so the draws an experiment consumes do not depend on how
the kernels batch their work.
"""

from __future__ import annotations

import math

import numpy as np

_FOUR_OVER_PI = 4.0 / math.pi


def get_backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "numpy"


def _eval_transmit_np(code: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    if code == 0:
        return np.tanh(a * x)
    if code == 1:
        return _FOUR_OVER_PI * np.arctan(np.tanh(0.5 * a * x))
    if code == 2:
        t = a * x
        return t / (1.0 + np.abs(t))
    if code == 3:
        return np.sign(x) * np.abs(x) ** a
    if code == 4:
        k = np.clip(np.floor(x / a + 0.5), -b, b)
        return k * a
    return a * x


# Safety cap on Illinois steps per target; converged targets leave the
# iteration long before (a handful of steps from a grid cell).
_MAX_ILLINOIS_STEPS = 100


def _invert_h_targets_np(
    nodes: np.ndarray,
    weights: np.ndarray,
    code: int,
    a: float,
    b: float,
    targets: np.ndarray,
    grid_x: np.ndarray,
    grid_h: np.ndarray,
) -> np.ndarray:
    idx = np.clip(np.searchsorted(grid_h, targets, side="left"), 1, grid_x.size - 1)
    lo_x = grid_x[idx - 1]
    hi_x = grid_x[idx]
    lo_f = grid_h[idx - 1] - targets
    hi_f = grid_h[idx] - targets
    # Latest evaluated iterate of every target; NaN until the first step.
    x = np.full(targets.shape, np.nan)
    stuck_lo = np.zeros(targets.shape, dtype=np.int64)
    stuck_hi = np.zeros(targets.shape, dtype=np.int64)
    # Indices of the targets still iterating; the bracket arrays hold only
    # those.
    active = np.arange(targets.size)
    for _ in range(_MAX_ILLINOIS_STEPS):
        df = hi_f - lo_f
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = np.where(df > 0.0, lo_x - lo_f * (hi_x - lo_x) / np.where(df > 0.0, df, 1.0), 0.5 * (lo_x + hi_x))
        x_new = np.minimum(np.maximum(x_new, lo_x), hi_x)
        # A target whose update returns its last iterate is converged.
        moving = x_new != x[active]
        active, x_new = active[moving], x_new[moving]
        lo_x, hi_x, lo_f, hi_f = lo_x[moving], hi_x[moving], lo_f[moving], hi_f[moving]
        stuck_lo, stuck_hi = stuck_lo[moving], stuck_hi[moving]
        if active.size == 0:
            break
        x[active] = x_new
        shifted = x_new[:, None] + nodes[None, :]
        fx = _eval_transmit_np(code, a, b, shifted) @ weights - targets[active]
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
        # Also converged: an exact root, or no float left strictly inside
        # the bracket.
        live = (fx != 0.0) & (np.nextafter(lo_x, hi_x) < hi_x)
        active = active[live]
        lo_x, hi_x, lo_f, hi_f = lo_x[live], hi_x[live], lo_f[live], hi_f[live]
        stuck_lo, stuck_hi = stuck_lo[live], stuck_hi[live]
    return x


def eval_transmit(code: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """f applied elementwise to an array of any shape."""
    return _eval_transmit_np(code, a, b, np.ascontiguousarray(x, dtype=np.float64))


def channel_sums(code: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Row sums of f over a (trials, sensors) observation block."""
    return _eval_transmit_np(code, a, b, np.ascontiguousarray(x, dtype=np.float64)).sum(axis=1)


def invert_h_targets(
    nodes: np.ndarray,
    weights: np.ndarray,
    code: int,
    a: float,
    b: float,
    targets: np.ndarray,
    grid_x: np.ndarray,
    grid_h: np.ndarray,
) -> np.ndarray:
    """Solve sum_j w_j f(theta + u_j) = target for each target.

    ``grid_x``/``grid_h`` is a precomputed nondecreasing sampling of the
    response that must bracket every target; each solve starts from its
    grid cell and polishes with a bracketed Illinois false-position
    iteration. A target stops iterating as soon as its residual is zero,
    its iterate stops moving, or its bracket holds no float strictly
    inside, so a handful of response evaluations per target suffice.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    grid_x = np.ascontiguousarray(grid_x, dtype=np.float64)
    grid_h = np.ascontiguousarray(grid_h, dtype=np.float64)
    return _invert_h_targets_np(nodes, weights, code, a, b, targets, grid_x, grid_h)
