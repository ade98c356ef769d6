"""Allocation guard: the hot loops keep their temporaries cache-sized.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of a
call bounds the memory its temporaries took. The budget is a few draw
blocks (``numerics.DRAW_BLOCK_ELEMENTS`` doubles each) on top of the
arrays the call returns; untiled inversion on this mesh peaked at about
126 blocks.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from macfusion import detection as det
from macfusion import estimation as est
from macfusion import harness, noise, numerics, transmit as tx


def _block_bytes():
    return 8 * numerics.DRAW_BLOCK_ELEMENTS


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def rational_mesh():
    """fig4's rational omega=3 point: about 5,000 nodes at L=500."""
    setup = est.EstimationSetup(1.0, 500, est.constant_sigmas(1.0), noise.gaussian(1.0), tx.rational_fn(3.0), 10.0, 1.0)
    flat = est.build_flat_response(setup)
    targets = harness.run_signal_statistics(setup, 400, 3)["z_targets"]
    return flat, targets


def test_inversion_peak_stays_within_a_few_blocks(rational_mesh):
    flat, targets = rational_mesh
    assert flat.nodes.size > 4000
    (thetas, clamped), peak = _traced_peak(lambda: flat.invert(targets))
    outputs = thetas.nbytes + clamped.nbytes
    assert peak - outputs <= 3 * _block_bytes()


def test_inversion_of_many_targets_holds_one_chunk():
    """10**5 targets on a 30-node tanh response (two of them clamped).

    One seed grid serves every target and the kernel solves them
    ``estimation.INVERT_CHUNK`` at a time, so besides the returned thetas
    and clamp mask only one chunk's working set is held; whole-array
    inversion held about 23 target-length arrays (35 blocks here).
    """
    v, w = numerics.fixed_mesh_nodes(np.linspace(1e-6, 1.0 - 1e-6, 3))
    flat = est.FlatResponse(nodes=ndtri(v), weights=w, f=tx.tanh_fn(1.0), limit=float(w.sum()))
    targets = np.random.default_rng(1).uniform(-0.95, 0.95, 10**5) * flat.limit
    targets[:2] = [-1.0, 1.0]
    (thetas, clamped), peak = _traced_peak(lambda: flat.invert(targets))
    assert clamped.sum() == 2
    assert peak - thetas.nbytes - clamped.nbytes <= 3 * _block_bytes()


def test_signal_statistics_hold_nothing_of_sensor_length():
    """Constant sigma at L = 10**6 with 2 trials: each row is drawn span by
    span, the scales stay one zero-stride value, and the AF gain sums a
    broadcast of one term. Materialized scales and their gain temporaries
    peaked at about 46 blocks."""
    setup = est.EstimationSetup(1.0, 10**6, est.constant_sigmas(1.0), noise.gaussian(1.0), tx.tanh_fn(0.75), 10.0, 1.0)
    stats, peak = _traced_peak(lambda: harness.run_signal_statistics(setup, 2, 7))
    assert peak - sum(v.nbytes for v in stats.values()) <= 3 * _block_bytes()


@pytest.mark.parametrize("blocks", [4, 32])
@pytest.mark.parametrize("stratified", [False, True])
def test_decision_loop_peak_stays_within_a_few_blocks(stratified, blocks):
    """fig5's setup (L=20) over ``blocks`` draw blocks of trials.

    Each block is decided as it is drawn and only counts are kept, so
    nothing grows with the trial count.
    """
    setup = det.DetectionSetup(
        theta=math.sqrt(10.0), L=20, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
        transmit=tx.tanh_fn(1.0), total_power=10**0.3, channel_noise_var=1.0,
    )
    detector = det.build_detector(setup)
    trials = blocks * numerics.DRAW_BLOCK_ELEMENTS // (setup.L + 2)
    stream = numerics.RngStream(5, 0)
    (trials_by_h, _), peak = _traced_peak(
        lambda: det.simulate_decisions(setup, detector, trials, stream, stratified=stratified)
    )
    assert trials_by_h.sum() == trials
    assert peak <= 2.5 * _block_bytes()


def test_draw_loops_leave_no_reference_cycles(monkeypatch):
    """With the collector off, the draw loops leave nothing for ``gc.collect``.

    A span closure caught in a reference cycle would hold its draw block
    (and the buffer behind it) until the next GC pass. The second pass, at
    a 128-element budget, draws the Cauchy rows span by span.
    """
    setup = det.DetectionSetup(
        theta=1.0, L=20, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
        transmit=tx.tanh_fn(1.0), total_power=2.0, channel_noise_var=1.0,
    )
    detector = det.build_detector(setup)
    cauchy = est.EstimationSetup(1.0, 300, est.constant_sigmas(1.0), noise.cauchy(1.0), tx.tanh_fn(0.75), 10.0, 1.0)
    calls = [
        lambda: det.simulate_decisions(setup, detector, 6000, numerics.RngStream(5, 0)),
        lambda: det.simulate_decisions(setup, detector, 6000, numerics.RngStream(5, 0), stratified=True),
        lambda: harness.run_signal_statistics(setup, 6000, 5),
        lambda: harness.run_signal_statistics(cauchy, 20, 5),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", 128)
        for call in calls[1:]:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_estimation_point_holds_two_trial_length_arrays():
    """A bounded-estimator point and its median absolute error under Cauchy
    noise (L=20, 2e5 trials).

    The unused AF estimates go before the inversion, the targets as soon as
    the estimates replace them, and the median partitions one scratch
    array, so at most two float64 values per trial (16 B) plus the clamp
    mask are alive at once. Three aggregate temporaries and the kept AF
    estimates peaked at about 49 B per trial.
    """
    setup = est.EstimationSetup(1.0, 20, est.constant_sigmas(1.0), noise.cauchy(1.0), tx.tanh_fn(0.75), 10.0, 1.0)
    trials = 200_000

    def point():
        estimates = harness.run_estimation_experiment(setup, trials, 3)
        return estimates, harness.median_abs_error(estimates, setup.theta)

    (estimates, _), peak = _traced_peak(point)
    assert estimates.size == trials
    assert peak / trials <= 32.0
