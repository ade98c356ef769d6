"""Per-sensor transmission nonlinearities.

Every analytic bounded kind (tanh, gudermannian, rational) is normalized so
that sup |f| = 1; the gudermannian carries a 2/pi factor for that reason.
The uniform quantizer follows the mid-rise-free convention with odd level
count M = 2K + 1, step Delta = 2*x_max/M, half-open cells
[(k-1/2)Delta, (k+1/2)Delta), and saturation at +/- K*Delta. ``linear`` and
``signed_power`` are deliberately unbounded; they exist as the
amplify-and-forward baseline and the heavy-tail side experiment.

Array evaluation lives in :mod:`macfusion.kernels`, which holds the one
array definition of each curve and takes the ``TransmitFunction`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TANH = "tanh"
GUDERMANNIAN = "gudermannian"
RATIONAL = "rational"
SIGNED_POWER = "signed_power"
UNIFORM_QUANTIZER = "uniform_quantizer"
LINEAR = "linear"

TRANSMIT_KINDS = (TANH, GUDERMANNIAN, RATIONAL, SIGNED_POWER, UNIFORM_QUANTIZER, LINEAR)

# Kinds satisfying smooth strict monotonicity with bounded range.
BOUNDED_SMOOTH_KINDS = (TANH, GUDERMANNIAN, RATIONAL)


class FieldError(ValueError):
    """A value that the rule of a config type rejects.

    ``field`` names it within the object that holds the rule: ``omega`` of
    a transmit curve, or a dotted path such as ``sigmas.values`` for a
    setup. The CLI reports it as ``config error at <path>.<field>``.
    """

    def __init__(self, message: str, *, field: str):
        super().__init__(message)
        self.field = field


class UnsupportedKindError(FieldError):
    """Raised when an operation is undefined for the transmit kind."""

    def __init__(self, message: str, *, field: str = "kind"):
        super().__init__(message, field=field)


@dataclass(frozen=True)
class TransmitFunction:
    """A parametric transmission curve.

    Exactly the parameters relevant to ``kind`` are meaningful: ``omega``
    for tanh/gudermannian/rational, ``p_exponent`` for signed_power,
    ``x_max``/``levels`` for the uniform quantizer, and ``alpha`` for
    linear.
    """

    kind: str
    omega: float | None = None
    p_exponent: float | None = None
    x_max: float | None = None
    levels: int | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in TRANSMIT_KINDS:
            raise FieldError(f"unknown transmit kind {self.kind!r}; expected one of {TRANSMIT_KINDS}", field="kind")
        if self.kind in BOUNDED_SMOOTH_KINDS:
            if self.omega is None or not (self.omega > 0.0 and np.isfinite(self.omega)):
                raise FieldError(f"{self.kind} requires a positive finite omega, got {self.omega}", field="omega")
        elif self.kind == SIGNED_POWER:
            if self.p_exponent is None or not (0.0 < self.p_exponent < 0.5):
                message = f"signed_power requires p_exponent in (0, 1/2), got {self.p_exponent}"
                raise FieldError(message, field="p_exponent")
        elif self.kind == UNIFORM_QUANTIZER:
            if self.x_max is None or not (self.x_max > 0.0 and np.isfinite(self.x_max)):
                raise FieldError(f"uniform_quantizer requires positive x_max, got {self.x_max}", field="x_max")
            if self.levels is None or self.levels < 3 or self.levels % 2 == 0:
                raise FieldError(f"uniform_quantizer requires odd level count >= 3, got {self.levels}", field="levels")
        elif self.kind == LINEAR:
            if self.alpha is None or not (self.alpha > 0.0 and np.isfinite(self.alpha)):
                raise FieldError(f"linear requires a positive finite alpha, got {self.alpha}", field="alpha")


def tanh_fn(omega: float) -> TransmitFunction:
    return TransmitFunction(TANH, omega=omega)


def gudermannian_fn(omega: float) -> TransmitFunction:
    return TransmitFunction(GUDERMANNIAN, omega=omega)


def rational_fn(omega: float) -> TransmitFunction:
    return TransmitFunction(RATIONAL, omega=omega)


def signed_power_fn(p_exponent: float) -> TransmitFunction:
    return TransmitFunction(SIGNED_POWER, p_exponent=p_exponent)


def uniform_quantizer_fn(x_max: float, levels: int) -> TransmitFunction:
    return TransmitFunction(UNIFORM_QUANTIZER, x_max=x_max, levels=levels)


def linear_fn(alpha: float) -> TransmitFunction:
    return TransmitFunction(LINEAR, alpha=alpha)


def with_omega(f: TransmitFunction, omega: float) -> TransmitFunction:
    """Return a copy of ``f`` with its scale parameter replaced."""
    if f.kind not in BOUNDED_SMOOTH_KINDS:
        raise UnsupportedKindError(f"{f.kind} has no omega parameter")
    return replace(f, omega=omega)


def quantizer_step(f: TransmitFunction) -> float:
    """Delta = 2*x_max/M for the uniform quantizer."""
    if f.kind != UNIFORM_QUANTIZER:
        raise UnsupportedKindError("quantizer_step is defined only for uniform_quantizer")
    return 2.0 * f.x_max / f.levels


def derivative(f: TransmitFunction, x):
    """Evaluate f'(x) in closed form.

    The quantizer has no classical derivative and signed_power blows up at
    the origin, so both reject the respective inputs.
    """
    if f.kind == UNIFORM_QUANTIZER:
        raise UnsupportedKindError("uniform_quantizer has no classical derivative")
    x = np.asarray(x, dtype=np.float64)
    if f.kind == TANH:
        # 1 - tanh^2 rounds to 0 beyond |omega x| ~ 19; omega / cosh^2 stays
        # positive until cosh^2 overflows to inf near |omega x| ~ 355.
        with np.errstate(over="ignore"):
            c = np.cosh(f.omega * x)
            out = f.omega / (c * c)
    elif f.kind == GUDERMANNIAN:
        # cosh overflows to inf beyond |omega x| ~ 710, where the slope is 0.
        with np.errstate(over="ignore"):
            out = (2.0 / np.pi) * f.omega / np.cosh(f.omega * x)
    elif f.kind == RATIONAL:
        out = f.omega / (1.0 + np.abs(f.omega * x)) ** 2
    elif f.kind == LINEAR:
        out = np.broadcast_to(np.float64(f.alpha), x.shape).copy()
    else:
        if np.any(x == 0.0):
            raise UnsupportedKindError("signed_power derivative is undefined at x = 0")
        p = f.p_exponent
        out = p * np.abs(x) ** (p - 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def bound(f: TransmitFunction) -> float | None:
    """sup |f|, or None for the unbounded kinds."""
    if f.kind in BOUNDED_SMOOTH_KINDS:
        return 1.0
    if f.kind == UNIFORM_QUANTIZER:
        k = (f.levels - 1) // 2
        return k * quantizer_step(f)
    return None


def is_differentiable(f: TransmitFunction) -> bool:
    return f.kind in BOUNDED_SMOOTH_KINDS or f.kind == LINEAR


def breakpoints(f: TransmitFunction) -> tuple[float, ...]:
    """x-locations where f has a kink or jump, for piecewise quadrature."""
    if f.kind == UNIFORM_QUANTIZER:
        delta = quantizer_step(f)
        k = (f.levels - 1) // 2
        return tuple((j + 0.5) * delta for j in range(-k - 1, k + 1))
    if f.kind in (SIGNED_POWER, RATIONAL):
        return (0.0,)
    return ()
