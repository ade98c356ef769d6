"""Kernel layer: transmit curves, channel sums and converged inversion."""

import numpy as np
import pytest

from macfusion import estimation as est
from macfusion import harness, kernels, noise, transmit as tx

CASES = [
    tx.tanh_fn(0.75),
    tx.gudermannian_fn(1.2),
    tx.rational_fn(2.0),
    tx.signed_power_fn(0.3),
    tx.uniform_quantizer_fn(x_max=1.0, levels=5),
    tx.linear_fn(1.3),
]


class TestTransmitKernels:
    def test_backend_is_numpy(self):
        assert kernels.get_backend() == "numpy"

    @pytest.mark.parametrize("f", CASES)
    def test_channel_sums_are_row_sums_of_eval_transmit(self, f):
        rng = np.random.default_rng(9)
        x = rng.standard_cauchy(size=(300, 40))
        code, a, b = tx.kind_params(f)
        sums = kernels.channel_sums(code, a, b, x)
        assert np.array_equal(sums, kernels.eval_transmit(code, a, b, x).sum(axis=1))
        assert np.array_equal(kernels.eval_transmit(code, a, b, x[0]), kernels.eval_transmit(code, a, b, x)[0])


def _ten_step_illinois(nodes, weights, code, a, b, targets, grid_x, grid_h):
    """The former inversion: exactly 10 Illinois steps for every target."""
    idx = np.clip(np.searchsorted(grid_h, targets, side="left"), 1, grid_x.size - 1)
    lo_x, hi_x = grid_x[idx - 1], grid_x[idx]
    lo_f, hi_f = grid_h[idx - 1] - targets, grid_h[idx] - targets
    x = 0.5 * (lo_x + hi_x)
    stuck_lo = np.zeros(targets.shape, dtype=np.int64)
    stuck_hi = np.zeros(targets.shape, dtype=np.int64)
    for _ in range(10):
        df = hi_f - lo_f
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(df > 0.0, lo_x - lo_f * (hi_x - lo_x) / np.where(df > 0.0, df, 1.0), 0.5 * (lo_x + hi_x))
        x = np.minimum(np.maximum(x, lo_x), hi_x)
        fx = kernels.eval_transmit(code, a, b, x[:, None] + nodes[None, :]) @ weights - targets
        below = fx < 0.0
        lo_x, lo_f = np.where(below, x, lo_x), np.where(below, fx, lo_f)
        hi_x, hi_f = np.where(below, hi_x, x), np.where(below, hi_f, fx)
        stuck_hi = np.where(below, stuck_hi + 1, 0)
        stuck_lo = np.where(below, 0, stuck_lo + 1)
        hi_f = np.where(stuck_hi >= 2, 0.5 * hi_f, hi_f)
        lo_f = np.where(stuck_lo >= 2, 0.5 * lo_f, lo_f)
    return x


def _grid(flat, targets, size):
    lo, hi, width = -1.0, 1.0, 2.0
    while flat.eval_one(lo) >= targets.min():
        width *= 2.0
        lo -= width
    while flat.eval_one(hi) <= targets.max():
        width *= 2.0
        hi += width
    grid_x = np.linspace(lo, hi, size)
    return grid_x, np.maximum.accumulate(flat.eval(grid_x))


MESHES = {
    "gaussian": (noise.gaussian(1.0), tx.tanh_fn(1.0)),
    "cauchy": (noise.cauchy(1.0), tx.tanh_fn(0.75)),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    model, f = MESHES[request.param]
    setup = est.EstimationSetup(1.0, 200, est.constant_sigmas(1.0), model, f, 10.0, 1.0)
    flat = est.build_flat_response(setup)
    targets = harness.run_signal_statistics(setup, 1500, 17)["z_targets"]
    return flat, np.clip(targets, -flat.limit + est.CLAMP_MARGIN, flat.limit - est.CLAMP_MARGIN)


class TestConvergedInversion:
    def test_residual_within_a_few_ulp(self, mesh):
        flat, targets = mesh
        thetas, _ = flat.invert(targets)
        assert np.max(np.abs(flat.eval(thetas) - targets)) <= 8 * np.finfo(float).eps

    def test_agrees_with_ten_steps_on_the_fine_grid(self, mesh):
        flat, targets = mesh
        grid_x, grid_h = _grid(flat, targets, 2049)
        old = _ten_step_illinois(flat.nodes, flat.weights, flat.code, flat.a, flat.b, targets, grid_x, grid_h)
        assert np.max(np.abs(flat.invert(targets)[0] - old)) <= 1e-13

    def test_margins_and_grid_nodes_terminate(self, mesh, monkeypatch):
        flat, targets = mesh
        margin = flat.limit - est.CLAMP_MARGIN
        grid_x, grid_h = _grid(flat, np.array([-margin, margin]), 257)
        on_nodes = grid_h[1:-1:9]
        hard = np.concatenate([[-margin, margin], on_nodes])
        steps = []
        evaluate = kernels._eval_transmit_np

        def counting(code, a, b, x):
            steps.append(x.shape[0])
            return evaluate(code, a, b, x)

        monkeypatch.setattr(kernels, "_eval_transmit_np", counting)
        thetas = kernels.invert_h_targets(flat.nodes, flat.weights, flat.code, flat.a, flat.b, hard, grid_x, grid_h)
        monkeypatch.undo()
        assert len(steps) < kernels._MAX_ILLINOIS_STEPS // 2
        assert np.all(np.isfinite(thetas))
        assert np.max(np.abs(flat.eval(thetas) - hard)) <= 8 * np.finfo(float).eps
