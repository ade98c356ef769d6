"""End-to-end Monte Carlo engine with full seed provenance.

Experiments consume streams keyed by (master_seed, stream_id); within an
experiment, every trial is drawn from a single stream in the layout of
``kernels.draw_blocks``, so results are bit-identical for a given
configuration and seed regardless of how sweep points are distributed over
workers. Sweep points own disjoint stream-id blocks: ``cli.run_experiment``
gives point k the stream ids from k * POINT_STREAM_STRIDE = k * 2**32. A
sweep point is a setup with one field swapped by ``dataclasses.replace``.

An estimation point returns its per-trial estimates, which ``l_var`` and
``median_abs_error`` reduce to a CSV cell; a detection point keeps counts
and returns (Pe, stderr).
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .detection import DetectionSetup, build_detector, simulate_decisions, summarize_errors
from .estimation import EstimationSetup, af_gain, build_flat_response
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, RngStream

POINT_STREAM_STRIDE = 2**32


def l_var(estimates: np.ndarray, L: int) -> float:
    """L times the sample variance (ddof=1) of the estimates; 0 for one trial."""
    return L * (float(np.var(estimates, ddof=1)) if estimates.size > 1 else 0.0)


def median_abs_error(values: np.ndarray, center: float) -> float:
    """Median of |values - center| in one scratch array; ``values`` is left as it is."""
    scratch = np.subtract(values, center)
    return float(np.median(np.abs(scratch, out=scratch), overwrite_input=True))


def run_estimation_experiment(
    setup: EstimationSetup,
    trials: int,
    master_seed: int,
    *,
    estimator: str = "bounded",
    stream_id_base: int = 0,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Monte Carlo estimates over the full pipeline, one per trial.

    ``estimator`` selects the mean-response inversion ("bounded") or the
    amplify-and-forward baseline ("af"). Both consume identical draws from
    the stream (master_seed, stream_id_base).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if estimator not in ("bounded", "af"):
        raise ValueError(f"unknown estimator {estimator!r}")

    key = "af_estimates" if estimator == "af" else "z_targets"
    statistic = _collect_signal_statistics(setup, trials, master_seed, stream_id_base, (key,))[key]
    if estimator == "af":
        return statistic
    return build_flat_response(setup, spec=spec).invert(statistic)[0]


def _collect_signal_statistics(setup, trials, master_seed, stream_id_base, keys) -> dict:
    """Draw all trials and return the statistics named in ``keys``.

    ``z_targets`` are the normalized received values the bounded estimator
    inverts, ``af_estimates`` the amplify-and-forward estimates. Both come
    from the same realizations, so comparisons are paired, and each is
    written block by block as the trials are drawn. Only the AF estimates
    need the AF gain and the sums of sigma n, so they are computed only
    when asked for.
    """
    sqrt_rho = math.sqrt(setup.rho)
    af = "af_estimates" in keys
    alpha = af_gain(setup)[0] if af else None
    out = {key: np.empty(trials) for key in keys}
    for rows, _, sums in kernels.draw_blocks(setup, trials, RngStream(master_seed, stream_id_base)):
        f_sums, scaled_sums, chan = sums(setup.theta, scaled=af)
        if "z_targets" in out:
            out["z_targets"][rows] = (sqrt_rho * f_sums + chan) / math.sqrt(setup.L) / math.sqrt(setup.total_power)
        if af:
            out["af_estimates"][rows] = setup.theta + scaled_sums / setup.L + chan / (setup.L * alpha)
    return out


def run_signal_statistics(setup, trials, master_seed, stream_id_base: int = 0) -> dict:
    """Normalized received values and AF estimates of the same draws, without any inversion.

    ``af_compare`` inverts the targets itself and compares both estimators
    on the paired draws; the degeneration experiments (``theorem3``) read
    the targets directly, where the mean response flattens and inversion
    would be ill-conditioned by design.
    """
    return _collect_signal_statistics(setup, trials, master_seed, stream_id_base, ("z_targets", "af_estimates"))


def run_detection_experiment(
    setup: DetectionSetup,
    trials: int,
    master_seed: int,
    *,
    stream_id_base: int = 0,
    stratified: bool = False,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Monte Carlo (error probability, standard error) with the detector built once."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    detector = build_detector(setup, spec)
    counts = simulate_decisions(setup, detector, trials, RngStream(master_seed, stream_id_base), stratified=stratified)
    return summarize_errors(setup.priors, *counts, stratified)
