"""Numerical substrate: quadrature, minimization, RNG streams.

Expectations against a noise density are computed by adaptive Gauss-Kronrod
(G7/K15) quadrature over a quantile-truncated interval. Truncation at tail
mass m keeps the error certifiable for the bounded integrands used
throughout: |error| <= sup|g| * m. The refinement loop is round-based and
evaluates every pending panel in one vectorized call. An integrand may
return several components at once (for example one per distinct
per-sensor reliability and per sample theta); they share one mesh, which is
refined until every component meets its own tolerance. Each round decides
convergence and which panels to split from numpy row sums of the
(components, panels) arrays; only the value and error bound of the final
mesh are summed exactly (``math.fsum``).

Random streams are counter-keyed Philox generators: the pair
(master_seed, stream_id) fully determines the draw sequence, so any worker
layout that assigns disjoint stream ids reproduces bit-identical results.
A stream hands out raw 64-bit Philox words, and ``words_to_uniforms`` is
the one map from words to uniforms (bit-identical to ``Generator.random``
plus a half step); the top bits of a word name the cell of its uniform, so
a caller that needs only the cell reads the word. ``row_blocks`` draws
every Monte Carlo trial, and ``pairwise_row_sum`` sums its wide rows, in
the layout of ``kernels.exact_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseModel, pdf, tail_truncation, breakpoints as noise_breakpoints
from .transmit import FieldError


class NumericsError(Exception):
    """Base error for the numerical substrate."""


class QuadratureConvergenceError(NumericsError):
    """Adaptive refinement hit the subdivision cap before the tolerance."""

    def __init__(self, estimate: float, error_bound: float, context: str = ""):
        self.estimate = estimate
        self.error_bound = error_bound
        self.context = context
        label = context or "integral"
        super().__init__(
            f"quadrature did not converge for {label}: "
            f"estimate={estimate!r}, error bound={error_bound!r}"
        )


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances governing every density expectation."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    tail_mass: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        for name in ("rel_tol", "tail_mass"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise FieldError(f"{name} must lie in (0, 1), got {getattr(self, name)}", field=name)
        if not self.abs_tol > 0.0:
            raise FieldError(f"abs_tol must be positive, got {self.abs_tol}", field="abs_tol")
        if self.max_subdivisions <= 0:
            message = f"max_subdivisions must be positive, got {self.max_subdivisions}"
            raise FieldError(message, field="max_subdivisions")


DEFAULT_QUADRATURE = QuadratureSpec()

# G7/K15 abscissae and weights (positive half; index 7 is the origin).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.empty(15)
_KW = np.empty(15)
_GW = np.zeros(15)
for _i in range(7):
    _NODES[_i] = -_XGK[_i]
    _NODES[14 - _i] = _XGK[_i]
    _KW[_i] = _KW[14 - _i] = _WGK[_i]
_NODES[7] = 0.0
_KW[7] = _WGK[7]
for _j, _pos in enumerate((1, 3, 5)):
    _GW[_pos] = _GW[14 - _pos] = _WG[_j]
_GW[7] = _WG[3]
del _i, _j, _pos


def _gk15_batch(fun, lefts: np.ndarray, rights: np.ndarray):
    """Evaluate K15 value and error estimate on every panel at once.

    ``fun`` returns one value per point, or a (components, points) array;
    the results have shape (panels,) or (components, panels) to match.
    """
    centers = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    points = centers[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(fun(points.ravel()), dtype=np.float64)
    shape = y.shape[:-1] + lefts.shape
    # One row of 15 node values per (component, panel); sums over the
    # nodes come back as (components, panels).
    y = y.reshape(-1, _NODES.size)
    panels = (-1, lefts.size)
    # Infinite integrand values give NaN and inf, which the caller reports.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = half * (y @ _KW).reshape(panels)
        gauss = half * (y @ _GW).reshape(panels)
        errdiff = np.abs(vals - gauss)
        mean = vals / np.where(rights != lefts, rights - lefts, 1.0)
        resasc = half * (np.abs(y - mean.reshape(-1, 1)) @ _KW).reshape(panels)
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * errdiff / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5),
            errdiff,
        )
    return vals.reshape(shape), scaled.reshape(shape)


def adaptive_quadrature(
    fun,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    breakpoints=(),
    max_subdivisions: int = 2000,
    context: str = "",
):
    """Integrate ``fun`` over [a, b] with round-based panel refinement.

    ``fun`` must accept a 1-D float array and return one value per point,
    or a (components, points) array for a vector-valued integrand. All
    components share one mesh: a panel is split while any component not yet
    converged exceeds its share of that component's own tolerance
    max(abs_tol, rel_tol * |integral|), as in Shampine's vectorized adaptive
    quadrature. One component takes exactly the steps of a scalar integrand.
    Interior breakpoints become initial panel edges so discontinuous
    integrands never straddle a panel. Returns ``(value, error_bound,
    edges)``, where value and error bound are floats for a scalar integrand
    and arrays over components otherwise, and ``edges`` is the final sorted
    mesh.
    """
    if not b > a:
        raise ValueError("integration interval requires b > a")
    interior = sorted(p for p in breakpoints if a < p < b)
    edges = np.array([a, *interior, b], dtype=np.float64)
    edges = np.unique(edges)
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = _gk15_batch(fun, lefts, rights)
    scalar = vals.ndim == 1
    subdivisions = 0
    while True:
        panels = lefts.size
        vals2 = vals.reshape(-1, panels)
        errs2 = errs.reshape(-1, panels)
        # Round decisions use numpy row sums; only the reported totals are
        # summed exactly, so a decision differs from an exact-sum one only
        # when an error total is within rounding of its tolerance.
        with np.errstate(invalid="ignore"):  # -inf + inf: reported below
            tols = np.maximum(abs_tol, rel_tol * np.abs(vals2.sum(axis=1)))
        over = errs2.sum(axis=1) > tols
        if not over.any():
            if not (np.isfinite(vals2).all() and np.isfinite(errs2).all()):
                raise NumericsError(f"quadrature of {context or 'integral'} has a total that is not finite")
            order = np.argsort(lefts)
            final_edges = np.append(lefts[order], rights[order][-1])
            totals = np.array([math.fsum(row) for row in vals2.tolist()])
            err_totals = np.array([math.fsum(row) for row in errs2.tolist()])
            if scalar:
                return float(totals[0]), float(err_totals[0]), final_edges
            return totals, err_totals, final_edges
        # Split every panel exceeding its fair share of the budget of some
        # unconverged component; at least one such panel exists whenever
        # the loop continues.
        shares = np.where(over, tols / panels, math.inf)[:, None]
        split = (errs2 > shares).any(axis=0)
        if not split.any():
            errs_over = errs2[over]
            split = (errs_over == errs_over.max(axis=1, keepdims=True)).any(axis=0)
        n_split = int(split.sum())
        if subdivisions + n_split > max_subdivisions:
            worst = int(np.argmax(errs2.sum(axis=1) / tols))
            label = context if scalar else f"{context or 'integral'} (component {worst} of {tols.size})"
            raise QuadratureConvergenceError(math.fsum(vals2[worst]), math.fsum(errs2[worst]), label)
        subdivisions += n_split
        keep = ~split
        mids = 0.5 * (lefts[split] + rights[split])
        new_lefts = np.concatenate([lefts[keep], lefts[split], mids])
        new_rights = np.concatenate([rights[keep], mids, rights[split]])
        ref_vals, ref_errs = _gk15_batch(fun, np.concatenate([lefts[split], mids]), np.concatenate([mids, rights[split]]))
        lefts, rights = new_lefts, new_rights
        vals = np.concatenate([vals.compress(keep, axis=-1), ref_vals], axis=-1)
        errs = np.concatenate([errs.compress(keep, axis=-1), ref_errs], axis=-1)


def expect(
    model: NoiseModel,
    g,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    breakpoints=(),
    context: str = "",
) -> float | np.ndarray:
    """E[g(n)] = integral of g(n) p(n) dn over the truncated support.

    ``g`` must be vectorized over a 1-D array; it may return a
    (components, points) array, and then the result is an array of one
    expectation per component. ``breakpoints`` are the kinks of ``g``; the
    first mesh adds the density's (``noise.breakpoints``) and an edge at
    +-scale * 10**k per decade k >= 1 inside the truncation point, so a heavy
    tail is sampled decade by decade, whatever the tolerance.
    """
    t = tail_truncation(model, spec.tail_mass)
    if not math.isfinite(t * t):
        # The Cauchy density and every second moment square the abscissa.
        message = f"tail truncation point {t!r} of {model} at tail mass {spec.tail_mass!r} has no finite square"
        raise NumericsError(message)
    decades = [s * 10.0**k for k in range(1, int(math.log10(t / model.scale)) + 1) for s in (-model.scale, model.scale)]

    def integrand(x):
        return np.asarray(g(x), dtype=np.float64) * pdf(model, x)

    value, _, _ = adaptive_quadrature(
        integrand,
        -t,
        t,
        rel_tol=spec.rel_tol,
        abs_tol=spec.abs_tol,
        breakpoints=[*breakpoints, *noise_breakpoints(model), *decades],
        max_subdivisions=spec.max_subdivisions,
        context=context or "density expectation",
    )
    return value


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
MIN_SCAN_POINTS = 8  # fewest grid points of minimize_scalar's coarse scan


def _golden_section(g, a: float, b: float, tol: float):
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, g(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = g(c)
    yd = g(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = g(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = g(d)
    if yc < yd:
        return c, yc
    return d, yd


def minimize_scalar(g, lo: float, hi: float, grid_points: int = 32):
    """Coarse grid scan followed by golden-section refinement.

    Deterministic, and ties resolve to the smallest abscissa: a constant
    objective returns ``lo``. The grid pass guards against local traps the
    refinement alone could fall into.
    """
    if not lo < hi:
        raise ValueError("minimize_scalar requires lo < hi")
    if grid_points < MIN_SCAN_POINTS:
        raise ValueError(f"grid_points must be >= {MIN_SCAN_POINTS}")
    grid = np.linspace(lo, hi, grid_points)
    values = np.array([g(x) for x in grid], dtype=np.float64)
    best = int(np.argmin(values))
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, grid_points - 1)]
    x_ref, v_ref = _golden_section(g, float(left), float(right), tol=1e-10 * max(1.0, abs(hi), abs(lo)))
    if v_ref < values[best]:
        return float(x_ref), float(v_ref)
    return float(grid[best]), float(values[best])


_MAX_UINT64 = 2**64
_BELOW_ONE = np.nextafter(1.0, 0.0)

# Largest number of uniforms a simulation draws at once: 2**16 words
# (512 KiB) keep each block and its temporaries in cache.
DRAW_BLOCK_ELEMENTS = 2**16


def words_to_uniforms(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The uniform in the open interval (0, 1) made from each 64-bit Philox word.

    u = min(((w >> 11) + 1/2) 2**-53, 1 - 2**-53): ``Generator.random``'s
    double (the top 53 bits of w), a half step up that keeps inverse-CDF
    transforms finite, and a clamp for the top value, which the half step
    rounds up to 1.0. So u lies in the closed cell [k/K, (k+1)/K] of
    k = w >> (64 - log2 K), for any power of two K <= 2**53.

    ``out``, a C-contiguous float64 array of ``words``' shape (None: a new
    one), holds the words on the way: ``copyto`` reads strided words
    without a ufunc's buffer, and the cast runs in place on flat views.
    """
    out = np.empty(np.shape(words)) if out is None else out
    np.copyto(out.view(np.uint64), words)
    flat = out.reshape(-1)
    top = flat.view(np.uint64)
    top >>= 11
    np.copyto(flat, top, casting="unsafe")
    flat *= 2.0**-53
    flat += 2.0**-54
    np.minimum(flat, _BELOW_ONE, out=flat)
    return out


def least_word_at_least(p: float) -> np.uint64:
    """The least Philox word whose uniform (``words_to_uniforms``) is >= p, for 0 < p < 1.

    The uniform of w lies in [k, k + 1] 2**-53 for k = w >> 11 and grows
    with w, so the word is (k << 11) for k within one of floor(p 2**53),
    and ``words >= least_word_at_least(p)`` is ``uniforms >= p``.
    """
    top = np.clip(int(p * 2.0**53) + np.arange(-1, 2), 0, 2**53 - 1).astype(np.uint64) << np.uint64(11)
    return top[words_to_uniforms(top) >= p][0]


@dataclass
class RngStream:
    """A counter-keyed random stream owned by exactly one consumer.

    (master_seed, stream_id) keys a Philox bit generator; ``counter``
    counts values drawn so far. Every drawn value consumes exactly one
    64-bit word, which makes draw accounting across a simulated trial exact.
    """

    master_seed: int
    stream_id: int
    counter: int = 0
    _bits: np.random.Philox | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= v < _MAX_UINT64):
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {v}")

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` Philox words of the stream, a uint64 array.

        Each word is one uniform's worth of the stream:
        ``words_to_uniforms`` makes the uniforms in (0, 1), and the word's
        top bits name the cell of its uniform.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if self._bits is None:
            self._bits = np.random.Philox(key=np.array([self.master_seed, self.stream_id], dtype=np.uint64))
        words = self._bits.random_raw(count)
        self.counter += count
        return words


# numpy sums a contiguous run of more than this many values pairwise: it
# splits the run at half its length rounded down to a multiple of 8.
_PAIRWISE_LEAF = 128


def block_elements(rows: int, cols: int) -> int:
    """Values in the largest block ``row_blocks(stream, rows, cols)`` draws:
    whole rows, or for a row wider than ``DRAW_BLOCK_ELEMENTS`` the widest
    leaf of ``pairwise_row_sum``."""
    if cols > DRAW_BLOCK_ELEMENTS:
        return max(DRAW_BLOCK_ELEMENTS, _PAIRWISE_LEAF)
    return min(DRAW_BLOCK_ELEMENTS // cols, rows) * cols


def row_blocks(stream: RngStream, rows: int, cols: int):
    """Draw ``rows`` rows of ``cols`` Philox words row-major from ``stream``.

    Yields ``(start, count, draw)`` per block of rows, where ``draw(lo, hi)``
    returns columns [lo, hi) of the block's rows as a (count, hi - lo)
    uint64 view; ``words_to_uniforms`` makes the uniforms of any of them.
    As many whole rows as fit in ``DRAW_BLOCK_ELEMENTS`` are drawn in one
    request; a row wider than that comes alone and is drawn span by span as
    its columns are requested, so a caller must then request every column
    once, in increasing order, at most ``block_elements(rows, cols)``
    columns at a time. Each block or span is a fresh array, and the
    generator drops its block before drawing the next, so views stay valid
    only until then and a caller that keeps none holds one block at a time.
    """
    if cols > DRAW_BLOCK_ELEMENTS:

        def span(lo, hi):
            return stream.uniforms(hi - lo)[None, :]

        for start in range(rows):
            yield start, 1, span
        return
    per_block = DRAW_BLOCK_ELEMENTS // cols
    block = [None]

    def draw(lo, hi):
        return block[0][:, lo:hi]

    for start in range(0, rows, per_block):
        count = min(per_block, rows - start)
        block[0] = None  # dropped before the next block is drawn
        block[0] = stream.uniforms(count * cols).reshape(count, cols)
        yield start, count, draw


def _pairwise_node(leaf, lo: int, hi: int):
    n = hi - lo
    if n <= max(DRAW_BLOCK_ELEMENTS, _PAIRWISE_LEAF):
        return leaf(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise_node(leaf, lo, lo + half) + _pairwise_node(leaf, lo + half, hi)


def pairwise_row_sum(width: int, leaf):
    """Row sums over columns [0, width), combined in numpy's pairwise order.

    ``leaf(lo, hi)`` returns the row sums of columns [lo, hi) computed with
    ``.sum(axis=-1)``. The span is split along numpy's own pairwise
    summation tree until each piece holds at most ``DRAW_BLOCK_ELEMENTS``
    columns (or is a leaf of that tree), so the result is bit-identical to
    summing whole rows at once. Leaves are visited left to right. The
    recursion is a module-level function, so a caller's leaf closure forms
    no reference cycle and its block is freed at once, not at a GC pass.
    """
    return _pairwise_node(leaf, 0, width)
