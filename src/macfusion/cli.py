"""Batch command-line front end.

``macfusion run <config-or-preset> [--set k=v]... [--workers N] [--out p]``
executes one experiment described by a JSON config and emits an RFC-4180
CSV plus a JSON manifest embedding the fully resolved config, so a run can
be reproduced byte-identically from the manifest alone.
``macfusion presets`` lists the built-in figure-reproduction recipes.

Exit codes: 0 success, 2 config error (diagnostics name the offending
field), 3 numerical failure (diagnostics name the failed operation) or a
run that is out of memory.

The CLI checks only the shape of the JSON: objects and their keys, string
kinds, number types, finiteness and integrality, count ranges, grids,
flags, the seed, output paths, the estimator name and the sweep rules.
Every value rule lives in the type that holds the value (``NoiseModel``,
``TransmitFunction``, ``SigmaSequence``, ``QuadratureSpec``, the setups and
``estimation.check_asymptotic_regime``); its ``FieldError`` is reported as
``config error at <path>.<field>``, before any point runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import detection as det
from . import estimation as est
from . import harness, kernels
from . import noise as noise_mod
from . import transmit as tx
from .numerics import DEFAULT_QUADRATURE, MIN_SCAN_POINTS, NumericsError, QuadratureConvergenceError, QuadratureSpec

ENV_SEED = "MACFUSION_SEED"


class ConfigError(Exception):
    """Invalid experiment configuration; message names the field."""


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"config error at {path}: expected an object, got {type(value).__name__}")
    return value


def _kind(d: dict, path: str):
    """``d``'s ``kind``, which must be a string if it is given (None if not)."""
    kind = d.get("kind")
    if "kind" in d and not isinstance(kind, str):
        raise ConfigError(f"config error at {path}: expected a string, got {kind!r}")
    return kind


def _check_keys(d: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    unknown = set(d) - required - set(optional)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"config error at {path}.{name}: unknown key")
    missing = required - set(d)
    if missing:
        name = sorted(missing)[0]
        raise ConfigError(f"config error at {path}.{name}: required key is missing")


# Largest count (sensors, trials, grid points, levels): beyond 2**53 a float
# no longer holds every integer, and numpy cannot size an array anyway.
_MAX_COUNT = 2**53

# Most quantizer levels: each cell edge is an initial quadrature panel of
# every moment, per sigma and per theta, so memory grows with M before any
# refinement (consistency at M = 1025 peaks near 140 MB).
_MAX_QUANTIZER_LEVELS = 1025


def _check_number(v, loc: str, *, integer=False, minimum=None, maximum=None, positive=False):
    """``v`` as a float, or as an int if ``integer`` (then at most 2**53 in size)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config error at {loc}: expected a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"config error at {loc}: expected a finite number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"config error at {loc}: expected an integer, got {v!r}")
    if integer and abs(v) > _MAX_COUNT:
        raise ConfigError(f"config error at {loc}: must be at most 2**53, got {v!r}")
    if positive and not v > 0:
        raise ConfigError(f"config error at {loc}: must be positive, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"config error at {loc}: must be >= {minimum:g}, got {v!r}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"config error at {loc}: must be at most {maximum:g}, got {v!r}")
    return int(v) if integer else float(v)


# A count of sensors, trials or levels is an integer in [1, 2**53].
_COUNT = dict(integer=True, minimum=1)


def _number(d: dict, key: str, path: str, **checks):
    if key not in d:
        raise ConfigError(f"config error at {path}.{key}: required key is missing")
    return _check_number(d[key], f"{path}.{key}", **checks)


def _flag(cfg: dict, key: str) -> bool:
    value = cfg.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"config error at {key}: expected true or false, got {value!r}")
    return value


def _built(make, where, *args, **kwargs):
    """``make(*args, **kwargs)``: build or check one of the package's config
    types, whose own rules check the values. A ``FieldError`` becomes a config
    error at ``where.<field>``, or at ``where(field)`` if ``where`` is a function."""
    try:
        return make(*args, **kwargs)
    except tx.FieldError as err:
        loc = where(err.field) if callable(where) else f"{where}.{err.field}"
        raise ConfigError(f"config error at {loc}: {err}") from None


def build_noise(d, path="noise") -> noise_mod.NoiseModel:
    d = _require_mapping(d, path)
    _check_keys(d, path, {"kind", "scale"})
    return _built(noise_mod.NoiseModel, path, _kind(d, f"{path}.kind"), _number(d, "scale", path))


def build_transmit(d, path="transmit") -> tx.TransmitFunction:
    """The curve of a transmit config; an unknown kind has no key set to
    check, and the type rejects it. The quantizer's ``levels`` is the key ``M``."""
    d = _require_mapping(d, path)
    kind = _kind(d, f"{path}.kind")
    fields = {}
    if kind in tx.BOUNDED_SMOOTH_KINDS:
        _check_keys(d, path, {"kind"}, {"omega"})
        fields["omega"] = _number(d, "omega", path) if "omega" in d else 1.0
    elif kind == tx.SIGNED_POWER:
        _check_keys(d, path, {"kind", "p_exponent"})
        fields["p_exponent"] = _number(d, "p_exponent", path)
    elif kind == tx.UNIFORM_QUANTIZER:
        _check_keys(d, path, {"kind", "x_max", "M"})
        fields["x_max"] = _number(d, "x_max", path)
        fields["levels"] = _number(d, "M", path, **_COUNT, maximum=_MAX_QUANTIZER_LEVELS)
    elif kind == tx.LINEAR:
        _check_keys(d, path, {"kind", "alpha"})
        # "power" is resolved later against the experiment's power budget.
        fields["alpha"] = 1.0 if d.get("alpha") == "power" else _number(d, "alpha", path)
    return _built(tx.TransmitFunction, lambda field: f"{path}.{'M' if field == 'levels' else field}", kind, **fields)


def _transmit_configs(cfg) -> list[tuple[str, object]]:
    """(path, config) of each transmit curve: ``transmit``, or the ``transmits`` list."""
    if "transmits" not in cfg:
        return [("transmit", cfg.get("transmit"))]
    configs = cfg["transmits"]
    if not isinstance(configs, list) or not configs:
        raise ConfigError("config error at transmits: expected a non-empty list")
    return [(f"transmits[{i}]", d) for i, d in enumerate(configs)]


def build_sigmas(d, path="sigmas") -> est.SigmaSequence:
    d = _require_mapping(d, path)
    if _kind(d, f"{path}.kind") == est.EXPLICIT_LIST:
        _check_keys(d, path, {"kind", "values"})
        fields = {"values": tuple(_values_list(d, "values", f"{path}.values"))}
    else:
        _check_keys(d, path, {"kind", "sigma"})
        fields = {"sigma": _number(d, "sigma", path)}
    return _built(est.SigmaSequence, path, d["kind"], **fields)


def build_quadrature(d, path="quadrature") -> QuadratureSpec:
    if d is None:
        return DEFAULT_QUADRATURE
    d = _require_mapping(d, path)
    _check_keys(d, path, set(), {"rel_tol", "abs_tol", "tail_mass", "max_subdivisions"})
    fields = {key: _number(d, key, path, integer=key == "max_subdivisions") for key in d}
    return _built(QuadratureSpec, path, **fields)


def _grid(d, path, *, positive=False, min_points=2) -> list[float]:
    d = _require_mapping(d, path)
    _check_keys(d, path, {"lo", "hi", "points"})
    lo = _number(d, "lo", path, positive=positive)
    hi = _number(d, "hi", path)
    points = _number(d, "points", path, integer=True, minimum=min_points)
    if not lo < hi:
        raise ConfigError(f"config error at {path}.lo: lo must be smaller than hi")
    return [float(v) for v in np.linspace(lo, hi, points)]


def _values_list(cfg, key, path="", **checks) -> list:
    loc = f"{path or key}"
    values = cfg.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config error at {loc}: expected a non-empty list")
    return [_check_number(v, f"{loc}[{i}]", **checks) for i, v in enumerate(values)]


def _priors(cfg, path="priors") -> tuple[float, float]:
    raw = cfg.get("priors", [0.5, 0.5])
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"config error at {path}: expected [P0, P1]")
    return tuple(_check_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _setup_location(field: str) -> str:
    """Where a setup's field sits in the config: its numbers at
    ``config.<key>`` like every top-level number, its lists and objects
    (``priors``, ``sigmas.values``, ``transmit.kind``) at their own key."""
    return f"config.{field}" if field in ("theta", "L", "total_power", "channel_noise_var") else field


# ---------------------------------------------------------------------------
# experiment kinds: each prepares (header, points, row) for run_experiment
# ---------------------------------------------------------------------------

_COMMON_REQUIRED = {"kind", "master_seed"}
_COMMON_OPTIONAL = {"experiment_id", "output", "quadrature"}
_CHANNEL = {"theta", "noise", "total_power", "channel_noise_var"}
_DEFAULT_SIGMAS = {"kind": "constant", "sigma": 1.0}
_DEFAULT_OMEGA_SEARCH = {"lo": 0.05, "hi": 8.0, "points": 64}
# Largest |theta|: beyond it theta +- the response mesh's probe span is no
# longer resolved in float64, and L * theta**2 (the AF power) overflows.
_THETA_LIMIT = 1e15


def _trials(cfg) -> int:
    return _number(cfg, "trials", "config", **_COUNT)


def _sweep(cfg, setup_type) -> list:
    """The setups of a kind's sweep, each built and checked before any point
    runs: each curve of ``transmits`` (or the one ``transmit``) at each L of
    ``L_values``, or at each omega of ``omega_grid`` with the config's L,
    curve by curve. A detection setup's ``"alpha": "power"`` curve gets the
    gain of ``_power_normalized_linear`` at its own L."""
    if "L_values" in cfg:
        swept = [(L, None) for L in _values_list(cfg, "L_values", **_COUNT)]
    else:
        omegas = _grid(cfg.get("omega_grid"), "omega_grid", positive=True)
        L = _number(cfg, "L", "config", **_COUNT)
        swept = [(L, omega) for omega in omegas]
    curves = [(path, d, build_transmit(d, path)) for path, d in _transmit_configs(cfg)]
    channel = dict(
        theta=_number(cfg, "theta", "config", minimum=-_THETA_LIMIT, maximum=_THETA_LIMIT),
        sigmas=build_sigmas(cfg.get("sigmas", _DEFAULT_SIGMAS)),
        noise=build_noise(cfg.get("noise")),
        total_power=_number(cfg, "total_power", "config"),
        channel_noise_var=_number(cfg, "channel_noise_var", "config"),
    )
    if setup_type is det.DetectionSetup:
        channel["priors"] = _priors(cfg)
    setups = []
    for path, d, f in curves:
        for L, omega in swept:
            transmit = f if omega is None else tx.with_omega(f, omega)
            setup = _built(setup_type, _setup_location, L=L, transmit=transmit, **channel)
            if "priors" in channel and f.kind == tx.LINEAR and d.get("alpha") == "power":
                setup = replace(setup, transmit=_built(_power_normalized_linear, path, setup))
            setups.append(setup)
    return setups


def _power_normalized_linear(setup) -> tx.TransmitFunction:
    """The linear curve whose gain makes the prior-averaged transmit power meet the budget.

    E[x^2] averaged over hypotheses is p1*theta^2 + mean(sigma_i^2)*var(n),
    with ``noise.nominal_variance`` standing in for Cauchy's var(n).
    """
    var_n = noise_mod.nominal_variance(setup.noise)
    with np.errstate(over="ignore"):
        mean_sq = est.sensor_sum(setup.sigmas, setup.L, lambda s: s**2) / setup.L
    power = setup.priors[1] * setup.theta * setup.theta + mean_sq * var_n
    if not 0.0 < power < math.inf:
        raise tx.FieldError(f"the power-normalized gain needs a positive finite mean power, got {power!r}", field="alpha")
    return tx.linear_fn(1.0 / math.sqrt(power))


def _stratified(cfg, setups, trials) -> bool:
    """The ``stratified`` flag. A stratified Pe weighs each hypothesis's
    error rate, so each hypothesis needs a trial."""
    stratified = _flag(cfg, "stratified")
    n0 = det.stratified_h0_trials(setups[0].priors, trials)
    if stratified and n0 in (0, trials):
        message = f"a stratified run of {trials} trials at priors {setups[0].priors} gives H{int(n0 > 0)} no trials"
        raise ConfigError(f"config error at trials: {message}")
    return stratified


def _prepare_asv(cfg, spec):
    """AsV beside L times the variance of the estimates, swept over omega
    (``asv_vs_omega``) or over L (``lvar_vs_L``, where AsV is the same at every L)."""
    setups = _sweep(cfg, est.EstimationSetup)
    _built(est.check_asymptotic_regime, _setup_location, setups[0])
    trials, seed = _trials(cfg), cfg["master_seed"]
    labelled = "transmits" in cfg
    swept = "L" if "L_values" in cfg else "omega"

    def row(stream_id_base, setup):
        asv = est.asymptotic_variance(setup, spec)
        estimates = harness.run_estimation_experiment(setup, trials, seed, stream_id_base=stream_id_base, spec=spec)
        l_var = harness.l_var(estimates, setup.L)
        value = setup.L if swept == "L" else setup.transmit.omega
        return [setup.transmit.kind] * labelled + [value, asv, l_var, trials, l_var * math.sqrt(2.0 / max(trials - 1, 1))]

    return ["function"] * labelled + [swept, "asv", "l_var", "trials", "stderr"], setups, row


def _prepare_consistency(cfg, spec):
    estimator = cfg.get("estimator", "bounded")
    if estimator not in ("bounded", "af"):
        raise ConfigError(f"config error at estimator: expected 'bounded' or 'af', got {estimator!r}")
    setups = _sweep(cfg, est.EstimationSetup)
    trials, seed = _trials(cfg), cfg["master_seed"]

    def row(stream_id_base, setup):
        estimates = harness.run_estimation_experiment(
            setup, trials, seed, estimator=estimator, stream_id_base=stream_id_base, spec=spec
        )
        return [setup.L, harness.median_abs_error(estimates, setup.theta), trials]

    return ["L", "median_abs_error", "trials"], setups, row


def _prepare_af_compare(cfg, spec):
    setups = _sweep(cfg, est.EstimationSetup)
    trials, seed = _trials(cfg), cfg["master_seed"]

    def row(stream_id_base, setup):
        # One draw pass feeds both estimators, so the comparison is paired.
        stats = harness.run_signal_statistics(setup, trials, seed, stream_id_base=stream_id_base)
        bounded, _ = est.build_flat_response(setup, spec=spec).invert(stats["z_targets"])
        mae_af = harness.median_abs_error(stats["af_estimates"], setup.theta)
        return [setup.L, harness.median_abs_error(bounded, setup.theta), mae_af, trials]

    return ["L", "mae_bounded", "mae_af", "trials"], setups, row


def _prepare_theorem3(cfg, spec):
    setups = _sweep(cfg, est.EstimationSetup)
    trials, seed = _trials(cfg), cfg["master_seed"]

    def row(stream_id_base, setup):
        gap = abs(est.mean_response(setup, setup.theta, spec) - est.mean_response(setup, 0.0, spec))
        stats = harness.run_signal_statistics(setup, trials, seed, stream_id_base=stream_id_base)
        af_mae = harness.median_abs_error(stats["af_estimates"], setup.theta)
        return [setup.L, gap, harness.median_abs_error(stats["z_targets"], 0.0), af_mae, trials]

    return ["L", "h_gap", "z_abs_median", "af_mae", "trials"], setups, row


def _prepare_dc_vs_omega(cfg, spec):
    def row(stream_id_base, setup):
        return [setup.transmit.omega, det.deflection(setup, spec)]

    return ["omega", "dc"], _sweep(cfg, det.DetectionSetup), row


def _prepare_pe_vs_omega(cfg, spec):
    setups = _sweep(cfg, det.DetectionSetup)
    trials, seed = _trials(cfg), cfg["master_seed"]
    stratified = _stratified(cfg, setups, trials)

    def row(stream_id_base, setup):
        dc = det.deflection(setup, spec)
        pe, stderr = harness.run_detection_experiment(
            setup, trials, seed, stream_id_base=stream_id_base, stratified=stratified, spec=spec
        )
        return [setup.transmit.omega, dc, pe, stderr, trials]

    return ["omega", "dc", "pe", "stderr", "trials"], setups, row


def _prepare_pe_vs_L(cfg, spec):
    setups = _sweep(cfg, det.DetectionSetup)
    trials, seed = _trials(cfg), cfg["master_seed"]
    stratified = _stratified(cfg, setups, trials)
    search = _grid(cfg.get("omega_search", _DEFAULT_OMEGA_SEARCH), "omega_search", positive=True, min_points=MIN_SCAN_POINTS)

    def row(stream_id_base, setup):
        omega_star = float("nan")
        if setup.transmit.kind in tx.BOUNDED_SMOOTH_KINDS:
            omega_star, _ = det.optimal_omega(setup, search[0], search[-1], len(search), spec)
            setup = replace(setup, transmit=tx.with_omega(setup.transmit, float(omega_star)))
        pe, stderr = harness.run_detection_experiment(
            setup, trials, seed, stream_id_base=stream_id_base, stratified=stratified, spec=spec
        )
        label = setup.transmit.kind if setup.transmit.kind != tx.LINEAR else "linear_af"
        return [label, setup.L, omega_star, pe, stderr, trials]

    return ["function", "L", "omega_star", "pe", "stderr", "trials"], setups, row


def _prepare_duality(cfg, spec):
    f = build_transmit(cfg.get("transmit"))
    xs = np.array(_grid(cfg.get("grid"), "grid"))
    density = det.matched_density(f, spec)
    if f.kind == tx.TANH and f.omega == 1.0:
        reference = 1.0 / (np.pi * np.cosh(xs))
    elif f.kind == tx.LINEAR:
        s = 1.0 / math.sqrt(f.alpha)
        reference = np.exp(-0.5 * (xs / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    else:
        reference = np.full_like(xs, np.nan)

    def row(stream_id_base, point):
        x, r = point
        v = density(x)
        return [x, v, r, abs(v - r)]

    return ["x", "density", "reference", "abs_error"], list(zip(xs, reference)), row


@dataclass(frozen=True)
class ExperimentKind:
    """The config keys of one experiment kind and how it becomes CSV rows.

    ``prepare(cfg, spec)`` validates the kind's values and returns
    ``(header, points, row)``; ``row(stream_id_base, point)`` computes the
    CSV row of one point. Every point is a setup from ``_sweep``, except
    ``duality_check``'s density abscissae. With ``transmits`` set, a
    ``transmits`` list may stand in for the single ``transmit``.
    """

    required: set[str]
    optional: set[str]
    prepare: Callable
    transmits: bool = False


EXPERIMENTS = {
    "asv_vs_omega": ExperimentKind(
        _CHANNEL | {"trials", "L", "transmit", "omega_grid"}, {"sigmas"}, _prepare_asv, transmits=True
    ),
    "lvar_vs_L": ExperimentKind(_CHANNEL | {"trials", "transmit", "L_values"}, {"sigmas"}, _prepare_asv),
    "consistency": ExperimentKind(
        _CHANNEL | {"trials", "transmit", "L_values"}, {"sigmas", "estimator"}, _prepare_consistency
    ),
    "af_compare": ExperimentKind(_CHANNEL | {"trials", "transmit", "L_values"}, {"sigmas"}, _prepare_af_compare),
    "dc_vs_omega": ExperimentKind(_CHANNEL | {"L", "transmit", "omega_grid"}, {"sigmas", "priors"}, _prepare_dc_vs_omega),
    "pe_vs_omega": ExperimentKind(
        _CHANNEL | {"trials", "L", "transmit", "omega_grid"}, {"sigmas", "priors", "stratified"}, _prepare_pe_vs_omega
    ),
    "pe_vs_L": ExperimentKind(
        _CHANNEL | {"trials", "transmit", "L_values"},
        {"sigmas", "priors", "stratified", "omega_search"},
        _prepare_pe_vs_L,
        transmits=True,
    ),
    "theorem3_degeneration": ExperimentKind(
        _CHANNEL | {"trials", "transmit", "L_values", "sigmas"}, set(), _prepare_theorem3
    ),
    "duality_check": ExperimentKind({"transmit", "grid"}, set(), _prepare_duality),
}
EXPERIMENT_KINDS = tuple(EXPERIMENTS)
_SEEDLESS_KINDS = ("duality_check",)


def _check_sweep(cfg: dict, required: set[str]) -> None:
    """Reject what the swept parameter rules out: a transmit curve without
    omega in an omega sweep, an explicit sigma list (one fixed L) in an L
    sweep."""
    if "omega_grid" in required:
        for path, d in _transmit_configs(cfg):
            kind = d.get("kind") if isinstance(d, dict) else None
            if kind in tx.TRANSMIT_KINDS and kind not in tx.BOUNDED_SMOOTH_KINDS:
                raise ConfigError(f"config error at {path}.kind: {cfg['kind']} sweeps omega, and {kind} has no omega")
    if "L_values" in required and "sigmas" in cfg and build_sigmas(cfg["sigmas"]).kind == est.EXPLICIT_LIST:
        raise ConfigError(f"config error at sigmas.kind: {cfg['kind']} sweeps L_values, and explicit_list fixes one L")


def run_experiment(cfg: dict, workers: int = 1) -> tuple[list[str], list[list]]:
    """Check the keys of ``cfg``'s kind and compute its (header, rows).

    Point k draws from stream ids starting at k * 2**32, so the rows are the
    same for every worker count.
    """
    kind = EXPERIMENTS[cfg["kind"]]
    required = kind.required
    if kind.transmits and "transmits" in cfg:
        required = required - {"transmit"} | {"transmits"}
    _check_keys(cfg, "config", _COMMON_REQUIRED | required, _COMMON_OPTIONAL | kind.optional)
    _check_sweep(cfg, required)
    header, points, row = kind.prepare(cfg, build_quadrature(cfg.get("quadrature")))
    stream_id_bases = [k * harness.POINT_STREAM_STRIDE for k in range(len(points))]
    if workers <= 1 or len(points) <= 1:
        return header, list(map(row, stream_id_bases, points))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return header, list(pool.map(row, stream_id_bases, points))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_SQRT10 = 3.1622776601683795
_RHO_C_3DB = 1.9952623149688795  # 10**0.3
_INV_SQRT2 = 0.7071067811865476

PRESETS: dict[str, tuple[str, dict]] = {
    "fig2": (
        "AsV(omega) vs L*var at L=500, tanh, Gaussian sensing noise (sigma_n^2=1, sigma_v^2=1, P_T=10)",
        {
            "kind": "asv_vs_omega",
            "master_seed": 20251,
            "trials": 10000,
            "theta": 1.0,
            "L": 500,
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmit": {"kind": "tanh", "omega": 1.0},
            "total_power": 10.0,
            "channel_noise_var": 1.0,
            "omega_grid": {"lo": 0.3, "hi": 3.0, "points": 10},
        },
    ),
    "fig3": (
        "Finite-sample gap: L*var vs AsV across L={25,50,500}, Laplacian noise, tanh omega=0.75",
        {
            "kind": "lvar_vs_L",
            "master_seed": 20252,
            "trials": 10000,
            "theta": 1.0,
            "noise": {"kind": "laplacian", "scale": _INV_SQRT2},
            "transmit": {"kind": "tanh", "omega": 0.75},
            "total_power": 10.0,
            "channel_noise_var": 1.0,
            "L_values": [25, 50, 500],
        },
    ),
    "fig4": (
        "AsV(omega) for different bounded transmit curves, Gaussian noise, L=500",
        {
            "kind": "asv_vs_omega",
            "master_seed": 20253,
            "trials": 4000,
            "theta": 1.0,
            "L": 500,
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmits": [
                {"kind": "tanh", "omega": 1.0},
                {"kind": "gudermannian", "omega": 1.0},
                {"kind": "rational", "omega": 1.0},
            ],
            "total_power": 10.0,
            "channel_noise_var": 1.0,
            "omega_grid": {"lo": 0.3, "hi": 3.0, "points": 10},
        },
    ),
    "fig5": (
        "D(omega) and Pe(omega) for tanh at rho_s=10 dB, rho_c=3 dB, L=20",
        {
            "kind": "pe_vs_omega",
            "master_seed": 20254,
            "trials": 1000000,
            "theta": _SQRT10,
            "L": 20,
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmit": {"kind": "tanh", "omega": 1.0},
            "total_power": _RHO_C_3DB,
            "channel_noise_var": 1.0,
            "priors": [0.5, 0.5],
            "omega_grid": {"lo": 0.1, "hi": 3.0, "points": 32},
        },
    ),
    "fig6": (
        "Pe vs L for AF-linear/tanh/gudermannian/rational at DC-optimal omega, rho_s=10 dB, rho_c=0 dB",
        {
            "kind": "pe_vs_L",
            "master_seed": 20255,
            "trials": 1000000,
            "theta": _SQRT10,
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmits": [
                {"kind": "linear", "alpha": "power"},
                {"kind": "tanh", "omega": 1.0},
                {"kind": "gudermannian", "omega": 1.0},
                {"kind": "rational", "omega": 1.0},
            ],
            "total_power": 1.0,
            "channel_noise_var": 1.0,
            "priors": [0.5, 0.5],
            "L_values": [5, 10, 20, 40],
            "omega_search": {"lo": 0.05, "hi": 8.0, "points": 64},
        },
    ),
    "theorem3": (
        "Degenerating mean response under sigma_i = sqrt(i) growth vs the AF baseline",
        {
            "kind": "theorem3_degeneration",
            "master_seed": 20256,
            "trials": 1000,
            "theta": 1.0,
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmit": {"kind": "tanh", "omega": 0.75},
            "sigmas": {"kind": "sqrt_growth", "sigma": 1.0},
            "total_power": 10.0,
            "channel_noise_var": 1.0,
            "L_values": [100, 1000, 10000],
        },
    ),
    "cauchy-af": (
        "Bounded-tanh vs AF median absolute error under Cauchy sensing noise",
        {
            "kind": "af_compare",
            "master_seed": 20257,
            "trials": 1000,
            "theta": 1.0,
            "noise": {"kind": "cauchy", "scale": 1.0},
            "transmit": {"kind": "tanh", "omega": 0.75},
            "total_power": 10.0,
            "channel_noise_var": 1.0,
            "L_values": [100, 1000, 10000],
        },
    ),
    "duality": (
        "Matched density of tanh against the normalized sech curve",
        {
            "kind": "duality_check",
            "master_seed": 20258,
            "transmit": {"kind": "tanh", "omega": 1.0},
            "grid": {"lo": -10.0, "hi": 10.0, "points": 201},
        },
    ),
    "consistency": (
        "Bounded-estimator median absolute error vs L under Cauchy noise",
        {
            "kind": "consistency",
            "master_seed": 20259,
            "trials": 1000,
            "theta": 1.0,
            "noise": {"kind": "cauchy", "scale": 1.0},
            "transmit": {"kind": "tanh", "omega": 0.75},
            "total_power": 10.0,
            "channel_noise_var": 1.0,
            "L_values": [100, 1000, 10000],
        },
    ),
}


# ---------------------------------------------------------------------------
# run / presets commands
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)  # RFC-4180: CRLF line endings, minimal quoting
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _apply_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"config error at --set {assignment!r}: expected key=value")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def load_config(source: str, overrides=(), env=None) -> dict:
    """Resolve preset name or JSON path, env seed, then overrides."""
    env = os.environ if env is None else env
    if source in PRESETS:
        cfg = json.loads(json.dumps(PRESETS[source][1]))
        cfg.setdefault("experiment_id", source)
    else:
        if not os.path.exists(source):
            raise ConfigError(f"config error at config: {source!r} is neither a preset nor a file")
        try:
            with open(source, "r", encoding="utf-8") as f:
                cfg = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config error at config: invalid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config error at config: cannot read {source!r} as UTF-8 JSON ({exc})") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config error at config: top level must be an object")
        cfg.setdefault("experiment_id", os.path.splitext(os.path.basename(source))[0])
    if env.get(ENV_SEED):
        try:
            cfg["master_seed"] = int(env[ENV_SEED])
        except ValueError as exc:
            raise ConfigError(f"config error at {ENV_SEED}: expected an integer seed") from exc
    for assignment in overrides:
        _apply_override(cfg, assignment)
    return cfg


def validate_common(cfg: dict) -> None:
    kind = _kind(cfg, "kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"config error at kind: unknown experiment kind {kind!r}; expected one of {list(EXPERIMENT_KINDS)}"
        )
    if kind not in _SEEDLESS_KINDS or "master_seed" in cfg:
        seed = cfg.get("master_seed")
        if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2**64):
            raise ConfigError(f"config error at master_seed: expected an unsigned 64-bit integer, got {seed!r}")
    else:
        cfg["master_seed"] = 0
    if not isinstance(cfg.get("experiment_id", ""), str):
        raise ConfigError("config error at experiment_id: expected a string")


def _check_output(path, loc: str) -> str:
    """``path`` if it is a non-empty string naming a file in an existing directory."""
    if not isinstance(path, str) or not path:
        raise ConfigError(f"config error at {loc}: expected a non-empty file path, got {path!r}")
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"config error at {loc}: {path!r} is not a file in an existing directory")
    return path


def run_config(cfg: dict, workers: int = 1, out_path: str | None = None) -> dict:
    """Execute a validated config; returns the manifest dictionary.

    The CSV goes to ``out_path`` (the ``--out`` option), else to the
    config's ``output``, else to ``<experiment_id>.csv``; every path given
    is checked before the experiment runs.
    """
    validate_common(cfg)
    if "output" in cfg:
        _check_output(cfg["output"], "output")
    if out_path is not None:
        _check_output(out_path, "--out")
    out_path = out_path or cfg.get("output") or _check_output(f"{cfg.get('experiment_id', cfg['kind'])}.csv", "experiment_id")
    start = time.perf_counter()
    header, rows = run_experiment(cfg, workers)
    elapsed = time.perf_counter() - start
    write_csv(out_path, header, rows)
    manifest = {
        "experiment_id": cfg.get("experiment_id", cfg["kind"]),
        "config": cfg,
        "master_seed": cfg["master_seed"],
        "package_version": __version__,
        "kernel_backend": kernels.get_backend(),
        "workers": workers,
        "wall_time_seconds": elapsed,
        "csv_path": out_path,
        "rows": len(rows),
    }
    manifest_path = out_path + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def list_presets() -> str:
    lines = ["Available presets:"]
    for name, (description, _) in PRESETS.items():
        lines.append(f"  {name:12s} {description}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="macfusion", description="Bounded-transmission MAC inference experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config or preset")
    run_p.add_argument("config", help="path to a JSON config, or a preset name")
    run_p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
    run_p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="max parallel sweep points (results are worker-count independent)")
    run_p.add_argument("--out", default=None, help="CSV output path")

    sub.add_parser("presets", help="list built-in experiment presets")

    args = parser.parse_args(argv)
    if args.command == "presets":
        print(list_presets())
        return 0

    try:
        cfg = load_config(args.config, args.overrides)
        manifest = run_config(cfg, workers=max(1, args.workers), out_path=args.out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NumericsError as exc:
        failure = "non-convergence" if isinstance(exc, QuadratureConvergenceError) else "failure"
        print(f"numerical {failure} in {cfg.get('kind')}: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"out of memory in {cfg.get('kind')}: the run needs more memory than the process can get", file=sys.stderr)
        return 3
    print(f"wrote {manifest['csv_path']} ({manifest['rows']} rows) in {manifest['wall_time_seconds']:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
