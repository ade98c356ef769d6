"""End-to-end Monte Carlo engine with full seed provenance.

Experiments consume streams keyed by (master_seed, stream_id); within an
experiment, every trial is drawn from a single stream in the layout of
``kernels.draw_blocks``, so results are bit-identical for a given
configuration and seed regardless of how sweep points are distributed over
workers. Sweep points own disjoint stream-id blocks: ``cli.run_experiment``
gives point k the stream ids from k * POINT_STREAM_STRIDE = k * 2**32. A
sweep point is a setup with one field swapped by ``dataclasses.replace``.

Only the estimation outputs grow with the trial count; detection keeps
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .detection import DetectionSetup, build_detector, simulate_decisions, summarize_errors
from .estimation import EstimationSetup, af_gain, build_flat_response
from .numerics import QuadratureSpec, RngStream

POINT_STREAM_STRIDE = 2**32


@dataclass
class TrialSummary:
    """Per-experiment Monte Carlo record with recomputable aggregates."""

    trials: int
    kind: str  # "estimation" or "detection"
    aggregates: dict = field(default_factory=dict)
    clamp_count: int = 0
    estimates: np.ndarray | None = None
    theta: float | None = None
    L: int | None = None
    counts: tuple[np.ndarray, np.ndarray] | None = None  # (trials, errors) per hypothesis
    priors: tuple[float, float] | None = None
    stratified: bool = False


def _estimation_aggregates(estimates: np.ndarray, theta: float, L: int) -> dict:
    var = float(np.var(estimates, ddof=1)) if estimates.size > 1 else 0.0
    # One trial-length scratch array serves both medians, partitioned in place.
    scratch = estimates.copy()
    median = float(np.median(scratch, overwrite_input=True))
    np.abs(np.subtract(estimates, theta, out=scratch), out=scratch)
    return {
        "mean": float(np.mean(estimates)),
        "median": median,
        "variance": var,
        "l_var": L * var,
        "median_abs_error": float(np.median(scratch, overwrite_input=True)),
    }


def recompute_aggregates(summary: TrialSummary) -> dict:
    """Re-derive the aggregate block from the stored estimates or decision counts."""
    if summary.kind == "estimation":
        return _estimation_aggregates(summary.estimates, summary.theta, summary.L)
    pe, stderr = summarize_errors(summary.priors, *summary.counts, summary.stratified)
    return {"pe": pe, "stderr": stderr}


def run_estimation_experiment(
    setup: EstimationSetup,
    trials: int,
    master_seed: int,
    *,
    estimator: str = "bounded",
    stream_id_base: int = 0,
    spec: QuadratureSpec | None = None,
) -> TrialSummary:
    """Monte Carlo estimates over the full pipeline.

    ``estimator`` selects the mean-response inversion ("bounded") or the
    amplify-and-forward baseline ("af"). Both consume identical draws from
    the stream (master_seed, stream_id_base).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if estimator not in ("bounded", "af"):
        raise ValueError(f"unknown estimator {estimator!r}")

    # Keep only the statistic this estimator reads; the inverted estimates
    # replace the targets, so at most two trial-length float arrays are alive.
    estimates = _collect_signal_statistics(setup, trials, master_seed, stream_id_base)[
        "af_estimates" if estimator == "af" else "z_targets"
    ]
    clamp_count = 0
    if estimator == "bounded":
        estimates, clamped = build_flat_response(setup, spec=spec).invert(estimates)
        clamp_count = int(clamped.sum())

    summary = TrialSummary(
        trials=trials,
        kind="estimation",
        clamp_count=clamp_count,
        estimates=estimates,
        theta=setup.theta,
        L=setup.L,
    )
    summary.aggregates = recompute_aggregates(summary)
    return summary


def _collect_signal_statistics(setup, trials, master_seed, stream_id_base) -> dict:
    """Draw all trials and return normalized targets plus AF estimates.

    The two estimators are deliberately fed the same realizations so
    comparisons are paired. Both outputs are written block by block as the
    trials are drawn.
    """
    sqrt_rho = math.sqrt(setup.rho)
    alpha, _ = af_gain(setup)
    z_targets = np.empty(trials)
    af_estimates = np.empty(trials)
    for rows, _, sums in kernels.draw_blocks(setup, trials, RngStream(master_seed, stream_id_base)):
        f_sums, scaled_sums, chan = sums(setup.theta, scaled=True)
        z_targets[rows] = (sqrt_rho * f_sums + chan) / math.sqrt(setup.L) / math.sqrt(setup.total_power)
        af_estimates[rows] = setup.theta + scaled_sums / setup.L + chan / (setup.L * alpha)
    return {"z_targets": z_targets, "af_estimates": af_estimates}


def run_signal_statistics(setup, trials, master_seed, stream_id_base: int = 0) -> dict:
    """Normalized received values and AF estimates without any inversion.

    Used by the degeneration experiments, where the mean response flattens
    and inversion would be ill-conditioned by design.
    """
    return _collect_signal_statistics(setup, trials, master_seed, stream_id_base)


def run_detection_experiment(
    setup: DetectionSetup,
    trials: int,
    master_seed: int,
    *,
    stream_id_base: int = 0,
    stratified: bool = False,
    spec: QuadratureSpec | None = None,
) -> TrialSummary:
    """Monte Carlo error probability with the detector built once."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    detector = build_detector(setup, spec)
    stream = RngStream(master_seed, stream_id_base)
    summary = TrialSummary(
        trials=trials,
        kind="detection",
        counts=simulate_decisions(setup, detector, trials, stream, stratified=stratified),
        priors=setup.priors,
        stratified=stratified,
    )
    summary.aggregates = recompute_aggregates(summary)
    return summary
