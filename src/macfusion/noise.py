"""Symmetric zero-median sensing-noise families.

Three families are built in: Gaussian, Laplacian, and Cauchy. Each exposes
the exact density, the score -p'(x)/p(x), the CDF, the tail truncation
point, the density's kinks (quadrature breakpoints), and the inverse CDF
that maps uniforms to draws and the response mesh's v to n. All densities
are symmetric about zero with support on the whole real line, so every
family has zero median even when (as for Cauchy) no mean exists.

Each draw is a deterministic function of exactly one uniform, which keeps
stream counter accounting exact for the simulation harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .transmit import FieldError

GAUSSIAN = "gaussian"
LAPLACIAN = "laplacian"
CAUCHY = "cauchy"

NOISE_KINDS = (GAUSSIAN, LAPLACIAN, CAUCHY)

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Range of a scale: its square (in the Cauchy density), its draws and its
# tail truncation points at ordinary tail masses stay finite, normal floats.
MIN_SCALE, MAX_SCALE = 1e-100, 1e100


@dataclass(frozen=True)
class NoiseModel:
    """A symmetric sensing-noise distribution.

    ``scale`` is the family's own scale parameter: the standard deviation
    for Gaussian, the exponential scale b for Laplacian, and the half-width
    gamma for Cauchy; it lies in [``MIN_SCALE``, ``MAX_SCALE``].
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise FieldError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}", field="kind")
        if not MIN_SCALE <= self.scale <= MAX_SCALE:
            raise FieldError(f"noise scale must lie in [{MIN_SCALE:g}, {MAX_SCALE:g}], got {self.scale}", field="scale")


def gaussian(scale: float = 1.0) -> NoiseModel:
    return NoiseModel(GAUSSIAN, scale)


def laplacian(scale: float = 1.0) -> NoiseModel:
    return NoiseModel(LAPLACIAN, scale)


def cauchy(scale: float = 1.0) -> NoiseModel:
    return NoiseModel(CAUCHY, scale)


def pdf(model: NoiseModel, x):
    """Density p(x); vectorized over ``x``."""
    x = np.asarray(x, dtype=np.float64)
    s = model.scale
    if model.kind == GAUSSIAN:
        return np.exp(-0.5 * (x / s) ** 2) / (s * _SQRT_2PI)
    if model.kind == LAPLACIAN:
        return np.exp(-np.abs(x) / s) / (2.0 * s)
    return s / (np.pi * (x * x + s * s))


def score(model: NoiseModel, x):
    """The score -p'(x)/p(x); an odd function of x.

    The Laplacian kink at x = 0 is resolved to 0 by odd symmetry.
    """
    x = np.asarray(x, dtype=np.float64)
    s = model.scale
    if model.kind == GAUSSIAN:
        return x / (s * s)
    if model.kind == LAPLACIAN:
        return np.sign(x) / s
    return 2.0 * x / (x * x + s * s)


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


def breakpoints(model: NoiseModel) -> tuple[float, ...]:
    """x-locations where the density has a kink: the Laplacian's center."""
    return (0.0,) if model.kind == LAPLACIAN else ()


def tail_truncation(model: NoiseModel, mass: float) -> float:
    """Return T with Pr(|n| > T) <= mass.

    Computed directly from the lower-tail quantile at mass/2, which stays
    accurate for tiny masses where forming 1 - mass/2 would lose digits.
    A T beyond the float range comes back as inf, for the caller to reject.
    """
    if not (0.0 < mass < 1.0):
        raise ValueError(f"tail mass must lie in (0, 1), got {mass}")
    s = model.scale
    half = 0.5 * mass
    with np.errstate(over="ignore"):
        if model.kind == GAUSSIAN:
            return float(-s * ndtri(half))
        if model.kind == LAPLACIAN:
            return float(-s * np.log(mass))
        return float(s / np.tan(np.pi * half))


def variance(model: NoiseModel) -> float:
    """Distribution variance; infinite for Cauchy."""
    s = model.scale
    if model.kind == GAUSSIAN:
        return s * s
    if model.kind == LAPLACIAN:
        return 2.0 * s * s
    return float("inf")


def nominal_variance(model: NoiseModel) -> float:
    """The variance for power normalizations: Cauchy noise has none, so a
    nominal unit variance stands in for it."""
    v = variance(model)
    return v if np.isfinite(v) else 1.0


def transform_uniforms(model: NoiseModel, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map open-(0,1) uniforms to noise draws by inverse CDF (Cauchy: the tan
    transform of a centered uniform).

    ``u`` is not modified unless it is ``out``. The draws go to ``out``, a
    float64 array of ``u``'s shape, or to a new array if it is None; the
    first ufunc writes them there and every later step reads only ``out``
    (and the Laplacian's one scratch array for its log term), so ``out``
    may be ``u`` itself.
    """
    s = model.scale
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty(u.shape)
    if model.kind == GAUSSIAN:
        y = ndtri(u, out=out)
        return np.multiply(s, y, out=y)
    y = np.subtract(u, 0.5, out=out)
    if model.kind == LAPLACIAN:
        m = np.abs(y)
        np.multiply(-2.0, m, out=m)
        np.log1p(m, out=m)
        np.sign(y, out=y)
        np.multiply(-s, y, out=y)
        return np.multiply(y, m, out=y)
    np.multiply(np.pi, y, out=y)
    np.tan(y, out=y)
    return np.multiply(s, y, out=y)
