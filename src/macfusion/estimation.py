"""Mean-response inversion estimator and the amplify-and-forward baseline.

The fusion center sees a power-scaled sum of nonlinearly mapped sensor
observations. Its estimator inverts the mean response

    h_L(theta) = (1/L) sum_i E[f(theta + sigma_i * n_i)]

at the normalized received value. h_L is strictly increasing whenever f is,
so inversion is well posed; when channel noise pushes the target outside
the attainable range the target is clamped just inside and the event is
reported to the caller.

One moment engine, ``g_moment``, computes every E[f^k(theta + sigma n)]:
vector-valued adaptive quadratures over n, with a sigma axis (the distinct
per-sensor scales) and a theta axis, each quadrature covering one group of
sigma on a shared mesh. ``mean_response`` and the asymptotic variance make
scalar-theta calls. The estimator inverts whole target arrays at once:
h_L is frozen once per setup into flat node/weight arrays, validated
against the engine's moments at 13 check thetas (one quadrature per sigma
group), and the targets are then solved in a kernel, each seeded by an
inverse cubic through a 129-point monotone response grid.

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
from .noise import NoiseModel, cdf, nominal_variance, quantile, tail_truncation
from .numerics import (
    DEFAULT_QUADRATURE,
    NumericsError,
    QuadratureSpec,
    adaptive_quadrature,
    expect,
    fixed_mesh_nodes,
)

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
        if not (self.channel_noise_var > 0.0 and np.isfinite(self.channel_noise_var)):
            message = f"channel_noise_var must be positive, got {self.channel_noise_var}"
            raise tx.FieldError(message, field="channel_noise_var")
        if self.sigmas.kind == EXPLICIT_LIST and len(self.sigmas.values) != self.L:
            raise tx.FieldError(f"{len(self.sigmas.values)} entries, but L is {self.L}", field="sigmas.values")

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


def _moment_breakpoints(f: tx.TransmitFunction, sigmas, theta: float, domain: float):
    """Seed points in n for the integrands f(theta + sigma n)^k p(n).

    Kinks map exactly for every sigma. For smooth kinds the transition
    center and a few width multiples of the smallest and the largest sigma
    are seeded, so large sigma cannot hide the feature from the first
    refinement rounds; the transitions of the sigmas in between lie among
    those seeds.
    """
    pts = [(b - theta) / sigma for sigma in sigmas for b in tx.breakpoints(f)]
    for sigma in {min(sigmas), max(sigmas)}:
        center = -theta / sigma
        width = _transition_width(f) / sigma
        for k in (0.0, 1.0, -1.0, 10.0, -10.0):
            pts.append(center + k * width)
    return tuple(p for p in pts if abs(p) < domain)


# Most (theta, sigma) components integrated together on one shared mesh;
# larger groups refine the mesh for features most members do not have, and
# their per-round arrays outgrow the cache.
MOMENT_GROUP = 64


@lru_cache(maxsize=None)
def _g_moments_cached(
    noise: NoiseModel,
    f: tx.TransmitFunction,
    sigmas: tuple[float, ...],
    thetas: tuple[float, ...],
    power: int,
    spec: QuadratureSpec,
) -> np.ndarray:
    """E[f^power(theta + sigma n)] for every (theta, sigma) pair, as a
    read-only (thetas, sigmas) array from one vector-valued quadrature."""
    t = tail_truncation(noise, spec.tail_mass)
    # One component per (theta, sigma), theta-major.
    shift = np.repeat(thetas, len(sigmas))[:, None]
    scale = np.tile(sigmas, len(thetas))[:, None]

    def g(n):
        v = kernels.eval_transmit(f, x=shift + scale * n)
        return v if power == 1 else v * v

    label = f"sigma={sigmas[0]}" if len(sigmas) == 1 else f"sigma in [{sigmas[0]}, {sigmas[-1]}]"
    where = f"theta={thetas[0]}" if len(thetas) == 1 else f"theta in [{thetas[0]}, {thetas[-1]}]"
    values = expect(
        noise,
        g,
        spec,
        breakpoints=[p for theta in thetas for p in _moment_breakpoints(f, sigmas, theta, t)],
        context=f"E[f^{power}(theta + sigma n)] at {label}, {where}",
    ).reshape(len(thetas), len(sigmas))
    values.flags.writeable = False
    return values


def g_moment(
    noise: NoiseModel,
    f: tx.TransmitFunction,
    sigma,
    theta,
    power: int = 1,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
):
    """E[f(theta + sigma n)^power] by adaptive quadrature (memoized).

    ``sigma`` may be an array: the result is then the array of moments, one
    per entry. ``theta`` may be an array too: the result is then a
    (thetas, sigmas) array. Each vector-valued quadrature integrates every
    theta with up to ``MOMENT_GROUP`` // len(thetas) consecutive sigma
    entries on one shared mesh. Callers pass distinct sigma values in
    ascending order, so each group has similar features.
    """
    sigmas = np.atleast_1d(np.asarray(sigma, dtype=np.float64)).tolist()
    thetas = tuple(np.atleast_1d(np.asarray(theta, dtype=np.float64)).tolist())
    group = max(1, MOMENT_GROUP // len(thetas))
    values = np.concatenate(
        [
            _g_moments_cached(noise, f, tuple(sigmas[i : i + group]), thetas, int(power), spec)
            for i in range(0, len(sigmas), group)
        ],
        axis=1,
    )
    if np.ndim(theta) > 0:
        return values
    return float(values[0, 0]) if np.ndim(sigma) == 0 else values[0]


def mean_response(setup: EstimationSetup, theta: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """h_L(theta), deduplicated over distinct sigma values.

    For a constant sequence the average over L identical terms is computed
    as 1.0 * g(theta), so the result is bit-identical for every L.
    """
    values, shares = setup.sigma_shares()
    moments = g_moment(setup.noise, setup.transmit, values, theta, 1, spec)
    return math.fsum(shares * moments)


CLAMP_MARGIN = 1e-9

# Points of the response grid that seeds the inversion. Cubic seeds from it
# are close enough for a Newton and a false-position step to finish; a finer
# grid costs more response evaluations than it saves.
SEED_GRID_POINTS = 129

# Targets ``FlatResponse.invert`` hands the kernel per call: its working set,
# about 30 doubles per target, stays near one draw block.
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
    differentiable transmit curve (``check_asymptotic_regime``); three
    density expectations feed the closed form.
    """
    check_asymptotic_regime(setup)
    f = setup.transmit
    theta = setup.theta
    second = g_moment(setup.noise, f, 1.0, theta, 2, spec)
    mean = g_moment(setup.noise, f, 1.0, theta, 1, spec)
    slope = expect(
        setup.noise,
        lambda n: tx.derivative(f, theta + n),
        spec,
        breakpoints=_moment_breakpoints(f, (1.0,), theta, 1e300),
        context=f"E[f'(theta + n)] at theta={theta}",
    )
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


def af_gain(setup: EstimationSetup) -> tuple[float, bool]:
    """Power-normalizing gain alpha_L for amplify-and-forward.

    Returns (alpha_L, used_nominal_variance): see ``noise.nominal_variance``.
    Raises ``NumericsError`` when the power sum is not positive and finite,
    or the gain it gives is not.
    """
    sigma_n2, nominal = nominal_variance(setup.noise)
    with np.errstate(over="ignore"):
        denom = sensor_sum(setup.sigmas, setup.L, lambda s: setup.theta**2 + s**2 * sigma_n2)
    alpha = math.sqrt(setup.total_power / denom) if 0.0 < denom < math.inf else 0.0
    if not 0.0 < alpha < math.inf:
        raise NumericsError(f"AF power normalization at L={setup.L}: the power sum {denom!r} gives no positive finite gain")
    return alpha, nominal


# ---------------------------------------------------------------------------
# Flat-node fast path
# ---------------------------------------------------------------------------


class MeshValidationError(NumericsError):
    """The frozen quadrature mesh failed to reproduce the adaptive answer."""


@dataclass(frozen=True)
class FlatResponse:
    """h_L frozen into flat shifted-node/weight arrays.

    h(theta) = sum_j weights[j] * f(theta + nodes[j]) for the setup's
    transmit curve ``f``; the weights absorb the probability measure and
    sigma multiplicities, so evaluation and batched inversion reduce to
    kernel calls.
    """

    nodes: np.ndarray
    weights: np.ndarray
    f: tx.TransmitFunction
    # sup |h|: bound(f) times the weight sum, which falls short of 1 by the
    # truncated tail mass; math.inf for unbounded kinds.
    limit: float

    def eval(self, theta) -> np.ndarray:
        return kernels.eval_response(self.nodes, self.weights, self.f, theta)

    def eval_one(self, theta: float) -> float:
        return float(self.eval(np.array([theta]))[0])

    def _walk(self, x: float, width: float, step: float, target: float):
        """Step from x by doubling widths, downward (step -1) or upward (+1).

        Stops at the first point whose response passes ``target`` (below it
        going down, above it going up). Returns the points stepped to,
        their responses and the last width.
        """
        xs, hs = [], []
        h = self.eval_one(x)
        while step * h <= step * target:
            width *= 2.0
            x += step * width
            if abs(x) > 1e18:
                where = "above -1e18 brings h below" if step < 0 else "below 1e18 brings h above"
                raise NumericsError(f"inverting the mean response: no theta {where} the target {target!r}")
            h = self.eval_one(x)
            xs.append(x)
            hs.append(h)
        return xs, hs, width

    def invert(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invert an array of targets; returns (thetas, clamp mask).

        The seed grid spans the unclamped targets only. The clamp values
        (at most two) sit far out on a saturating response; their brackets
        come from continuing the doubling walk beyond the grid ends, whose
        points extend the grid, so they do not stretch its cells.

        One seed grid serves every target; the kernel then solves
        ``INVERT_CHUNK`` targets at a time, so besides the two returned
        arrays only one chunk's working set is held. A target's iteration
        depends on its own values alone, so the thetas do not depend on the
        chunk size.
        """
        targets = np.asarray(targets, dtype=np.float64)
        clamped = np.zeros(targets.shape, dtype=bool)
        lo_t, hi_t = -math.inf, math.inf
        if math.isfinite(self.limit):
            lo_t, hi_t = -self.limit + CLAMP_MARGIN, self.limit - CLAMP_MARGIN
            clamped = (targets <= lo_t) | (targets >= hi_t)
        inner = ~clamped
        t_min = float(np.min(targets, initial=math.inf, where=inner))
        t_max = float(np.max(targets, initial=-math.inf, where=inner))
        below, _, width = self._walk(-1.0, 2.0, -1.0, t_min)
        above, _, width = self._walk(1.0, width, 1.0, t_max)
        lo = below[-1] if below else -1.0
        hi = above[-1] if above else 1.0
        # The grid only seeds each target's bracket; the kernel iterates every
        # target to convergence.
        grid_x = [np.linspace(lo, hi, SEED_GRID_POINTS)]
        grid_h = [self.eval(grid_x[0])]
        if (clamped & (targets < 0.0)).any():
            xs, hs, _ = self._walk(lo, width, -1.0, lo_t)
            grid_x.insert(0, xs[::-1])
            grid_h.insert(0, hs[::-1])
        if (clamped & (targets > 0.0)).any():
            xs, hs, _ = self._walk(hi, width, 1.0, hi_t)
            grid_x.append(xs)
            grid_h.append(hs)
        # Enforce nondecreasing grid values; saturation plateaus can wiggle
        # at machine precision and searchsorted needs sorted input.
        grid_h = np.maximum.accumulate(np.concatenate(grid_h))
        grid_x = np.concatenate(grid_x)
        thetas = np.empty(targets.shape)
        flat_targets, flat_thetas = targets.reshape(-1), thetas.reshape(-1)
        for start in range(0, flat_targets.size, INVERT_CHUNK):
            chunk = np.clip(flat_targets[start : start + INVERT_CHUNK], lo_t, hi_t)
            flat_thetas[start : start + INVERT_CHUNK] = kernels.invert_h_targets(
                self.nodes, self.weights, self.f, targets=chunk, grid_x=grid_x, grid_h=grid_h
            )
        return thetas, clamped


def _probability_mesh(
    noise: NoiseModel,
    f: tx.TransmitFunction,
    sigma: float,
    probes,
    spec: QuadratureSpec,
):
    """Adaptive mesh edges in probability space for E[f(theta + sigma n)].

    Integrating in v with n = Q(v) turns the truncated density expectation
    into integral_{d}^{1-d} f(theta + sigma Q(v)) dv, whose mesh stays
    compact even for heavy-tailed noise. One adaptive pass on the summed
    probe integrand resolves every probe's transition, so a single mesh
    serves the whole inversion bracket. The constant offset keeps the total
    away from zero without touching the panel error estimates, so the
    relative tolerance stays meaningful for odd integrands.
    """
    d = 0.5 * spec.tail_mass
    probes = np.asarray(probes, dtype=np.float64)
    offset = 2.0 * probes.size

    def integrand(v):
        q = sigma * np.asarray(quantile(noise, v))
        acc = np.full(q.shape, offset)
        for theta in probes:
            acc = acc + kernels.eval_transmit(f, x=theta + q)
        return acc

    bps = set()
    for theta in probes:
        for p in _moment_breakpoints(f, (sigma,), float(theta), math.inf):
            u = float(cdf(noise, p))
            if d < u < 1.0 - d:
                bps.add(u)
    _, _, edges = adaptive_quadrature(
        integrand,
        d,
        1.0 - d,
        rel_tol=spec.rel_tol,
        abs_tol=spec.abs_tol,
        breakpoints=sorted(bps),
        max_subdivisions=spec.max_subdivisions,
        context=f"probability-space response mesh at sigma={sigma}",
    )
    return edges


def _probes(setup: EstimationSetup) -> np.ndarray:
    """The seven probe thetas of the response mesh, evenly spread over
    theta +- 6 * max(1, transition width)."""
    pad = 6.0 * max(1.0, _transition_width(setup.transmit))
    return np.linspace(setup.theta - pad, setup.theta + pad, 7)


def build_flat_response(setup: EstimationSetup, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> FlatResponse:
    """Freeze h_L into flat arrays and validate against the adaptive path.

    The mesh is built from adaptive runs at probe thetas around the true
    theta and accepted only if each sigma's frozen evaluation
    matches its share of E[f(theta + sigma n)] to 1e-9 (relative to
    max(1, |moment|)) at 13 check thetas; otherwise every panel is halved
    and the check repeats, at most four times. The check moments come from
    independent n-space quadratures, computed once per build: one
    vector-valued quadrature covers every check theta for a group of sigma.
    """
    probes = _probes(setup)
    check = np.unique(np.concatenate([probes, 0.5 * (probes[:-1] + probes[1:])]))
    values, shares = setup.sigma_shares()
    exact = g_moment(setup.noise, setup.transmit, values, check, 1, spec)

    parts_nodes = []
    parts_weights = []
    for sigma, share, moments in zip(values, shares, exact.T):
        edges = _probability_mesh(setup.noise, setup.transmit, float(sigma), probes, spec)
        for _ in range(4):
            v_nodes, v_weights = fixed_mesh_nodes(edges)
            nodes = sigma * np.asarray(quantile(setup.noise, v_nodes))
            weights = share * v_weights
            worst = _worst_check(kernels.eval_response(nodes, weights, setup.transmit, check), share * moments, check)
            if worst is None:
                break
            edges = np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
        else:
            theta, diff, bound = worst
            raise MeshValidationError(
                f"flat response mesh failed validation at sigma={sigma}: worst check at theta={theta!r}, "
                f"|flat - exact| = {diff:.3g} > bound {bound:.3g}"
            )
        parts_nodes.append(nodes)
        parts_weights.append(weights)

    c = tx.bound(setup.transmit)
    weights = np.concatenate(parts_weights)
    return FlatResponse(
        nodes=np.concatenate(parts_nodes),
        weights=weights,
        f=setup.transmit,
        limit=math.inf if c is None else c * math.fsum(weights),
    )


def _worst_check(flat: np.ndarray, exact: np.ndarray, thetas: np.ndarray):
    """None if |flat - exact| <= 1e-9 * max(1, |exact|) at every theta;
    otherwise (theta, |flat - exact|, bound) of the worst failing check."""
    diff = np.abs(flat - exact)
    bound = 1e-9 * np.maximum(1.0, np.abs(exact))
    failed = diff > bound
    if not failed.any():
        return None
    j = int(np.argmax(np.where(failed, diff / bound, -math.inf)))
    return float(thetas[j]), float(diff[j]), float(bound[j])
