"""End-to-end Monte Carlo engine with full seed provenance.

Experiments consume streams keyed by (master_seed, stream_id); within an
experiment, trials are laid out row-major in a single stream (sensors in
ascending index order, then the channel draw), so results are bit-identical
for a given configuration and seed regardless of how sweep points are
distributed over workers. Sweep points own disjoint stream-id blocks:
``cli.run_experiment`` gives point k the stream ids from
k * POINT_STREAM_STRIDE = k * 2**32. A sweep point is a setup with one field
swapped by ``dataclasses.replace``.

Only the per-trial outputs grow with the trial count: the received values
and AF estimates are written block by block as the trials are drawn, and
the draw loop itself holds one draw block and one workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, noise, transmit as tx
from .detection import DetectionSetup, build_detector, simulate_decisions, summarize_errors
from .estimation import EstimationSetup, af_gain, build_flat_response
from .numerics import QuadratureSpec, RngStream, block_elements, pairwise_row_sum, row_blocks

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
    hypotheses: np.ndarray | None = None
    errors: np.ndarray | None = None
    priors: tuple[float, float] | None = None
    stratified: bool = False


def _estimation_aggregates(estimates: np.ndarray, theta: float, L: int) -> dict:
    err = estimates - theta
    var = float(np.var(estimates, ddof=1)) if estimates.size > 1 else 0.0
    return {
        "mean": float(np.mean(estimates)),
        "median": float(np.median(estimates)),
        "variance": var,
        "l_var": L * var,
        "median_abs_error": float(np.median(np.abs(err))),
    }


def recompute_aggregates(summary: TrialSummary) -> dict:
    """Re-derive the aggregate block from stored per-trial outputs."""
    if summary.kind == "estimation":
        return _estimation_aggregates(summary.estimates, summary.theta, summary.L)
    pe, stderr = summarize_errors(summary.priors, summary.hypotheses, summary.errors, summary.stratified)
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
    amplify-and-forward baseline ("af"). Both consume identical draws:
    L sensor uniforms then one channel uniform per trial, row-major in the
    stream (master_seed, stream_id_base).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if estimator not in ("bounded", "af"):
        raise ValueError(f"unknown estimator {estimator!r}")

    stats = _collect_signal_statistics(setup, trials, master_seed, stream_id_base)

    clamp_count = 0
    if estimator == "af":
        estimates = stats["af_estimates"]
    else:
        flat = build_flat_response(setup, spec=spec)
        estimates, clamped = flat.invert(stats["z_targets"])
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
    trials are drawn, so besides them nothing grows with the trial count.
    """
    stream = RngStream(master_seed, stream_id_base)
    sigmas = setup.sigmas.resolve(setup.L)
    code, a, b = tx.kind_params(setup.transmit)
    sqrt_rho = math.sqrt(setup.rho)
    channel = noise.gaussian(math.sqrt(setup.channel_noise_var))
    alpha, _ = af_gain(setup)

    z_targets = np.empty(trials)
    af_estimates = np.empty(trials)
    work = np.empty(block_elements(trials, setup.L + 1))
    for start, count, draw in row_blocks(stream, trials, setup.L + 1):

        def sensor_sums(lo, hi):
            return kernels.span_sums(setup.noise, draw(lo, hi), sigmas[lo:hi], setup.theta, code, a, b, work, scaled=True)

        rows = slice(start, start + count)
        f_sums, scaled_sums = pairwise_row_sum(setup.L, sensor_sums)
        chan = noise.transform_uniforms(channel, draw(setup.L, setup.L + 1)[:, 0])
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
    hypotheses, wrong = simulate_decisions(setup, detector, trials, stream, stratified=stratified)
    summary = TrialSummary(
        trials=trials,
        kind="detection",
        hypotheses=hypotheses,
        errors=wrong,
        priors=setup.priors,
        stratified=stratified,
    )
    summary.aggregates = recompute_aggregates(summary)
    return summary
