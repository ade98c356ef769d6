"""Kernel layer: transmit curves, channel sums and converged inversion."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from macfusion import estimation as est
from macfusion import detection as det
from macfusion import harness, kernels, noise, numerics, transmit as tx
from oracles import sample, unbounded_cells

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
        sums = kernels.channel_sums(f, x=x)
        assert np.array_equal(sums, kernels.eval_transmit(f, x=x).sum(axis=1))
        assert np.array_equal(kernels.eval_transmit(f, x=x[0]), kernels.eval_transmit(f, x=x)[0])


def _ten_step_illinois(nodes, weights, f, targets, grid_x, grid_h):
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
        fx = kernels.eval_transmit(f, x=x[:, None] + nodes[None, :]) @ weights - targets
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
        old = _ten_step_illinois(flat.nodes, flat.weights, flat.f, targets, grid_x, grid_h)
        assert np.max(np.abs(flat.invert(targets)[0] - old)) <= 1e-13

    def test_margins_and_grid_nodes_terminate(self, mesh, monkeypatch):
        """Margin targets, targets on grid nodes, and a grid with repeated values.

        Points far beyond saturation all have the response's limit value,
        and one grid point appears twice, so some cells are empty and some
        four-point interpolants unusable; targets sit on those values too.
        """
        flat, targets = mesh
        margin = flat.limit - est.CLAMP_MARGIN
        grid_x, grid_h = _grid(flat, np.array([-margin, margin]), 257)
        far = np.array([1e13, 2e13, 4e13])
        grid_x = np.insert(np.concatenate([-far[::-1], grid_x, far]), 100, grid_x[97])
        grid_h = np.maximum.accumulate(flat.eval(grid_x))
        assert np.count_nonzero(np.diff(grid_h) == 0.0) >= 5
        on_nodes = grid_h[1:-1:9]
        hard = np.concatenate([[-margin, margin], on_nodes, grid_h[[0, 99, 100, -1]]])
        steps = []
        evaluate = kernels.eval_response

        def counting(nodes, weights, f, thetas):
            steps.append(thetas.size)
            return evaluate(nodes, weights, f, thetas)

        monkeypatch.setattr(kernels, "eval_response", counting)
        thetas = kernels.invert_h_targets(flat.nodes, flat.weights, flat.f, targets=hard, grid_x=grid_x, grid_h=grid_h)
        monkeypatch.undo()
        assert len(steps) < kernels._MAX_ILLINOIS_STEPS // 2
        assert np.all(np.isfinite(thetas))
        assert np.max(np.abs(flat.eval(thetas) - hard)) <= 8 * np.finfo(float).eps


@pytest.fixture(scope="module")
def fig4_rational_mesh():
    """The fig4 setup at its largest rational omega, with its targets."""
    setup = est.EstimationSetup(1.0, 500, est.constant_sigmas(1.0), noise.gaussian(1.0), tx.rational_fn(3.0), 10.0, 1.0)
    return est.build_flat_response(setup), harness.run_signal_statistics(setup, 1000, 20253)["z_targets"]


class TestSeededInversion:
    def _kernel_calls(self, flat, targets, monkeypatch):
        """Thetas and the sizes of the kernel's ``eval_response`` calls."""
        calls = []
        evaluate, invert = kernels.eval_response, kernels.invert_h_targets

        def counting(nodes, weights, f, thetas):
            calls.append(thetas.size)
            return evaluate(nodes, weights, f, thetas)

        def inverting(*args, **kwargs):
            monkeypatch.setattr(kernels, "eval_response", counting)
            try:
                return invert(*args, **kwargs)
            finally:
                monkeypatch.setattr(kernels, "eval_response", evaluate)

        monkeypatch.setattr(kernels, "invert_h_targets", inverting)
        thetas, _ = flat.invert(targets)
        monkeypatch.undo()
        return thetas, calls

    def _check_three_evaluations(self, flat, targets, monkeypatch):
        """The seeds of all targets are one call and their Newton points the
        next; most targets then need one false-position step. The former
        start from a linear guess in a 257-point grid cell needed about 5.5
        evaluations per target."""
        thetas, calls = self._kernel_calls(flat, targets, monkeypatch)
        assert calls[0] == targets.size
        assert calls[1] <= targets.size
        assert sum(calls) <= 3.3 * targets.size
        clipped = np.clip(targets, -flat.limit + est.CLAMP_MARGIN, flat.limit - est.CLAMP_MARGIN)
        assert np.max(np.abs(flat.eval(thetas) - clipped)) <= 8 * np.finfo(float).eps

    def test_about_three_evaluations_per_target(self, mesh, monkeypatch):
        self._check_three_evaluations(*mesh, monkeypatch)

    def test_about_three_evaluations_per_target_on_fig4_rational(self, fig4_rational_mesh, monkeypatch):
        self._check_three_evaluations(*fig4_rational_mesh, monkeypatch)


# ---------------------------------------------------------------------------
# One in-place definition per curve, bit-identical to the plain formulas
# ---------------------------------------------------------------------------

_FOUR_OVER_PI = 4.0 / np.pi


def _plain_curve(f, x):
    """The curves as plain allocating expressions, in the kernel's order of operations."""
    if f.kind == tx.TANH:
        return np.tanh(f.omega * x)
    if f.kind == tx.GUDERMANNIAN:
        return _FOUR_OVER_PI * np.arctan(np.tanh(0.5 * f.omega * x))
    if f.kind == tx.RATIONAL:
        t = f.omega * x
        return t / (1.0 + np.abs(t))
    if f.kind == tx.SIGNED_POWER:
        return np.sign(x) * np.abs(x) ** f.p_exponent
    if f.kind == tx.UNIFORM_QUANTIZER:
        step = 2.0 * f.x_max / f.levels
        k = np.clip(np.floor(x / step + 0.5), -(f.levels - 1) / 2.0, (f.levels - 1) / 2.0)
        return k * step
    assert f.kind == tx.LINEAR
    return f.alpha * x


def _plain_transform(model, u):
    s = model.scale
    if model.kind == noise.GAUSSIAN:
        return s * ndtri(u)
    if model.kind == noise.LAPLACIAN:
        centered = u - 0.5
        return -s * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))
    return s * np.tan(np.pi * (u - 0.5))


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


_SUBNORMAL = np.finfo(float).smallest_subnormal
_EDGES = np.array(
    [0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 1e-310, -1e-310, np.finfo(float).tiny, 1e-300, 1.0, -1.0,
     1e308, -1e308, np.finfo(float).max, np.inf, -np.inf, np.nan, -np.nan]
)


def _curve_inputs(f):
    """Edge values, quantizer cell edges with their float neighbours, and noise."""
    edges = []
    if f.kind == tx.UNIFORM_QUANTIZER:
        edges = np.array(tx.breakpoints(f))
        edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    rng = np.random.default_rng(5)
    return np.concatenate([_EDGES, edges, 3.0 * rng.standard_normal(200), rng.standard_cauchy(50)])


CURVES = CASES + [tx.tanh_fn(3.0), tx.rational_fn(0.3), tx.uniform_quantizer_fn(x_max=2.0, levels=7)]


class TestSingleCurveDefinition:
    @pytest.mark.parametrize("f", CURVES, ids=lambda f: f.kind)
    def test_allocating_and_in_place_match_the_plain_formula(self, f):
        x = _curve_inputs(f)
        with np.errstate(all="ignore"):
            plain = _plain_curve(f, x)
            fresh = kernels._curve(f, x)
            work = x.copy()
            in_place = kernels._curve(f, work, out=work)
            public = kernels.eval_transmit(f, x=x)
            sums = kernels.channel_sums(f, x=x[None, :])
        assert in_place is work
        for got in (fresh, in_place, public):
            assert np.array_equal(_bits(got), _bits(plain))
        assert np.array_equal(_bits(sums), _bits(plain[None, :].sum(axis=1)))

    @pytest.mark.parametrize("model", [noise.gaussian(1.3), noise.laplacian(0.7), noise.cauchy(2.0)], ids=lambda m: m.kind)
    def test_noise_transform_matches_the_plain_formula(self, model):
        edges = [_SUBNORMAL, 1e-300, 2.0**-54, 1e-10, 0.25, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                 0.75, 1.0 - 1e-10, 1.0 - 2.0**-53, 0.0, 1.0, np.nan]
        u = np.concatenate([edges, np.random.default_rng(6).random(300)])
        with np.errstate(all="ignore"):
            expected = _bits(_plain_transform(model, u))
            assert np.array_equal(_bits(noise.transform_uniforms(model, u)), expected)
            # ``out`` may be ``u`` itself, as in ``exact_sums``.
            assert noise.transform_uniforms(model, u, out=u) is u
        assert np.array_equal(_bits(u), expected)


class TestCellBounds:
    @pytest.mark.parametrize("f", CURVES + [None], ids=lambda f: "nodes" if f is None else f.kind)
    @pytest.mark.parametrize("model", [noise.gaussian(1.3), noise.laplacian(0.7), noise.cauchy(2.0)], ids=lambda m: m.kind)
    def test_every_uniform_of_a_cell_lies_within_its_bounds(self, model, f):
        """Each value, through the pipeline of ``exact_sums``, lands inside
        the bounds of its row: both closed ends u = k/K and (k+1)/K of every
        cell k in row k; and in the row of its word's top 12 bits, the
        extreme words, the words whose uniform the half step rounds up onto
        the upper end of that cell, and 20,000 drawn words. The ends u = 0
        and 1 themselves are never evaluated. Without a curve the bounds are
        the transform's nodes and their slack. A bounded curve has finite
        bounds everywhere, the end cells included; no bound is NaN."""
        cells = kernels.BRACKET_CELLS
        k = np.arange(cells)
        words = np.concatenate([
            np.array([0, 2**64 - 1], dtype=np.uint64),
            (k[cells // 2 :].astype(np.uint64) << 52) | ((2**41 - 1) << 11),
            numerics.RngStream(8, 0).uniforms(20000),
        ])
        u = np.concatenate([k[1:] / cells, (k[:-1] + 1) / cells, numerics.words_to_uniforms(words)])
        row = np.concatenate([k[1:], k[:-1], (words >> kernels.CELL_SHIFT).astype(np.int64)])
        x = noise.transform_uniforms(model, u)
        if f is None:
            n = kernels.transform_nodes(model)
            with np.errstate(invalid="ignore"):
                slack = kernels.BRACKET_SLACK * np.abs(n) + np.finfo(float).tiny
                bounds = np.stack([n[:-1] - slack[:-1], n[1:] + slack[1:]], axis=1)
        else:
            bounds = kernels.cell_bounds(kernels.transform_nodes(model), f, 0.8, 1.5)
            x = kernels._curve(f, np.add(1.5, np.multiply(0.8, x)))
            if tx.bound(f) is not None:
                assert np.all(np.isfinite(bounds))
        assert not np.any(np.isnan(bounds))
        lo, hi = bounds.T
        assert np.all((lo[row] <= x) & (x <= hi[row]))


class TestCallerArraysUntouched:
    @pytest.mark.parametrize("f", CURVES, ids=lambda f: f.kind)
    def test_eval_transmit_and_channel_sums(self, f):
        x = np.random.default_rng(7).standard_normal((30, 40))
        before = x.copy()
        kernels.eval_transmit(f, x=x)
        kernels.channel_sums(f, x=x)
        kernels.channel_sums(f, x=x[:, 3:17])
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_transform_and_sample(self, kind):
        model = noise.NoiseModel(kind, 1.0)
        block = np.random.default_rng(8).random((50, 22))
        before = block.copy()
        noise.transform_uniforms(model, block)
        noise.transform_uniforms(model, block[:, 1:21])

        words = numerics.RngStream(8, 0).uniforms(500)
        held = words.copy()

        class HeldStream:
            def uniforms(self, count):
                return words[:count]

        sample(model, HeldStream(), 500)
        assert np.array_equal(block, before)
        assert np.array_equal(words, held)


# ---------------------------------------------------------------------------
# Tiled response: the same thetas for every tile size
# ---------------------------------------------------------------------------


class TestTiledResponse:
    def test_inversion_does_not_depend_on_the_tile(self, mesh, monkeypatch):
        """One target per tile, a few per tile, and all targets in one tile.

        Each row's weighted sum is a per-row dot product whose value does not
        depend on how many rows share the tile, so the thetas agree exactly.
        """
        flat, targets = mesh
        reference, _ = flat.invert(targets)
        eps = np.finfo(float).eps
        assert np.max(np.abs(flat.eval(reference) - targets)) <= 8 * eps
        for budget in (7, flat.nodes.size, 3 * flat.nodes.size, targets.size * flat.nodes.size):
            monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
            thetas, _ = flat.invert(targets)
            assert np.array_equal(thetas, reference)
            assert np.max(np.abs(flat.eval(thetas) - targets)) <= 8 * eps

    def test_tiles_stay_within_the_budget(self, mesh, monkeypatch):
        flat, targets = mesh
        budget = 5 * flat.nodes.size + 3
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
        shapes = []
        curve = kernels._curve

        def recording(f, x, out=None):
            shapes.append(x.shape)
            return curve(f, x, out=out)

        monkeypatch.setattr(kernels, "_curve", recording)
        thetas = np.linspace(-3.0, 3.0, 23)
        h = kernels.eval_response(flat.nodes, flat.weights, flat.f, thetas)
        assert [s[0] for s in shapes] == [5, 5, 5, 5, 3]
        assert all(s[0] * s[1] <= budget for s in shapes)
        full = np.array([curve(flat.f, t + flat.nodes) @ flat.weights for t in thetas])
        assert np.max(np.abs(h - full)) <= 4 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Monte Carlo spans: bit-identical to the allocating closures
# ---------------------------------------------------------------------------


def _plain_simulate_decisions(setup, detector, trials, stream, stratified):
    """simulate_decisions with the allocating span closure it replaced."""
    sigmas = setup.sigmas.resolve(setup.L)
    sqrt_rho = np.sqrt(setup.rho)
    sigma_v = np.sqrt(setup.channel_noise_var)
    p0, _ = setup.priors
    n_h0_total = int(round(p0 * trials)) if stratified else 0
    lead = 0 if stratified else 1
    cols = lead + setup.L + 1
    hypotheses = np.empty(trials, dtype=np.uint8)
    y = np.empty(trials)
    for start, count, words in numerics.row_blocks(stream, trials, cols):
        draw = lambda lo, hi: numerics.words_to_uniforms(words(lo, hi))
        rows = slice(start, start + count)
        if stratified:
            hypotheses[rows] = np.arange(start, start + count) >= n_h0_total
        else:
            hypotheses[rows] = draw(0, 1)[:, 0] >= p0
        shift = hypotheses[rows, None] * setup.theta

        def sensor_sums(lo, hi):
            noise_draws = _plain_transform(setup.noise, draw(lead + lo, lead + hi))
            x = np.ascontiguousarray(shift + sigmas[lo:hi] * noise_draws)
            return _plain_curve(setup.transmit, x).sum(axis=1)

        y[rows] = sqrt_rho * numerics.pairwise_row_sum(setup.L, sensor_sums) + sigma_v * ndtri(draw(cols - 1, cols)[:, 0])
    wrong = (det.decide(detector, y) != hypotheses).astype(np.uint8)
    return hypotheses, wrong, y


def _plain_signal_statistics(setup, trials, master_seed):
    """harness._collect_signal_statistics with the allocating span closure it replaced."""
    stream = numerics.RngStream(master_seed, 0)
    sigmas = setup.sigmas.resolve(setup.L)
    alpha = est.af_gain(setup)
    f_sums = np.empty(trials)
    scaled_sums = np.empty(trials)
    chan = np.empty(trials)
    for start, count, words in numerics.row_blocks(stream, trials, setup.L + 1):
        draw = lambda lo, hi: numerics.words_to_uniforms(words(lo, hi))

        def sensor_sums(lo, hi):
            scaled = sigmas[lo:hi] * _plain_transform(setup.noise, draw(lo, hi))
            return np.stack([_plain_curve(setup.transmit, setup.theta + scaled).sum(axis=1), scaled.sum(axis=1)])

        rows = slice(start, start + count)
        f_sums[rows], scaled_sums[rows] = numerics.pairwise_row_sum(setup.L, sensor_sums)
        chan[rows] = np.sqrt(setup.channel_noise_var) * ndtri(draw(setup.L, setup.L + 1)[:, 0])
    z = (np.sqrt(setup.rho) * f_sums + chan) / np.sqrt(setup.L)
    return {
        "z_targets": z / np.sqrt(setup.total_power),
        "af_estimates": setup.theta + scaled_sums / setup.L + chan / (setup.L * alpha),
    }


def _check_decisions(setup, trials, stratified, monkeypatch, detector=None):
    """simulate_decisions counts the outcomes of the allocating closure.

    With the bracket filter on, every received value that reaches
    ``decide`` is the allocating closure's value for that trial, bit for
    bit, and in trial order. With unbounded tables every trial takes the
    exact path, and ``decide`` sees the closure's received values of all
    trials, bit for bit."""
    if detector is None:
        detector = det.GaussianApproxDetector(mean0=0.0, mean1=4.0, var0=3.0, var1=3.5, log_prior_ratio=0.0)
    ref_h, ref_wrong, ref_y = _plain_simulate_decisions(setup, detector, trials, numerics.RngStream(11, 3), stratified)
    decide = det.decide

    def run():
        captured = []
        monkeypatch.setattr(det, "decide", lambda d, y: captured.append(np.array(y)) or decide(d, y))
        counts = det.simulate_decisions(setup, detector, trials, numerics.RngStream(11, 3), stratified=stratified)
        monkeypatch.setattr(det, "decide", decide)
        assert np.array_equal(counts[0], np.bincount(ref_h, minlength=2))
        assert np.array_equal(counts[1], np.bincount(ref_h[ref_wrong == 1], minlength=2))
        return _bits(np.concatenate(captured))  # one decide call per draw block

    remaining = iter(_bits(ref_y).tolist())
    assert all(bits in remaining for bits in run().tolist())
    monkeypatch.setattr(kernels, "cell_bounds", unbounded_cells)
    assert np.array_equal(run(), _bits(ref_y))


SIGMAS = {"constant": est.constant_sigmas(1.0), "sqrt": est.sqrt_growth_sigmas(0.5)}
# (L, element budget): whole rows per block, and rows wider than a block,
# which are drawn and summed span by span.
WIDTHS = {"rows": (30, None), "spans": (300, 128)}
# name -> (curve, detector or None for _check_decisions' own, setup fields,
# trials). Every curve kind, including the unbounded and step-shaped ones;
# a detector with one threshold (equal variances) and one whose H1 region
# is a bounded interval. "ties" sums the integer levels of a unit-step
# quantizer at rho = 1 with a channel far below one ulp of y, so y sits on
# the integers and the threshold y = 3 is met exactly by about one trial in
# thirty. In "channel" the sensors carry almost no power, so y is nearly
# the channel draw and about one trial in two thousand has its channel
# cell across a boundary of the settled regions. "unequal-priors" has
# P0 = 0.3, so the stratified blocks hold unequal numbers of H0 and H1
# trials, and a detector whose threshold carries ln(P1/P0).
DECISION_CASES = {
    **{f.kind: (f, None, {}, 700) for f in CASES},
    "tanh": (tx.tanh_fn(1.0), None, {}, 700),
    "equal-variances": (tx.tanh_fn(1.0), det.GaussianApproxDetector(0.0, 4.0, 3.0, 3.0, 0.0), {}, 700),
    "bounded-h1": (tx.tanh_fn(1.0), det.GaussianApproxDetector(0.0, 4.0, 6.0, 2.0, 0.0), {}, 700),
    "ties": (
        tx.uniform_quantizer_fn(x_max=2.5, levels=5), det.GaussianApproxDetector(0.0, 6.0, 3.0, 3.0, 0.0),
        {"total_power": 30.0, "channel_noise_var": 1e-40}, 700,
    ),
    "channel": (tx.tanh_fn(1.0), det.GaussianApproxDetector(-1.0, 1.0, 1.0, 1.0, 0.0), {"total_power": 1e-6}, 4000),
    "unequal-priors": (
        tx.tanh_fn(1.0), det.GaussianApproxDetector(0.0, 4.0, 3.0, 3.5, math.log(7.0 / 3.0)), {"priors": (0.3, 0.7)}, 700,
    ),
}
# The filter needs whole rows (L = 30), so the cases beyond tanh run at that width only.
WIDTH_CASES = [("rows", case) for case in sorted(DECISION_CASES)] + [("spans", "tanh")]


class TestMonteCarloSpans:
    @pytest.mark.parametrize("width, case", WIDTH_CASES)
    @pytest.mark.parametrize("sigmas", sorted(SIGMAS))
    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    @pytest.mark.parametrize("stratified", [False, True])
    def test_decisions_match_the_allocating_closure(self, kind, sigmas, width, stratified, case, monkeypatch):
        L, budget = WIDTHS[width]
        if budget is not None:
            monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
        transmit, detector, fields, trials = DECISION_CASES[case]
        setup = det.DetectionSetup(**{
            "theta": 1.5, "L": L, "sigmas": SIGMAS[sigmas], "noise": noise.NoiseModel(kind, 1.0), "transmit": transmit,
            "total_power": 2.0, "channel_noise_var": 1.0, **fields,
        })
        _check_decisions(setup, trials, stratified, monkeypatch, detector)

    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("sigmas", sorted(SIGMAS))
    @pytest.mark.parametrize("kind", noise.NOISE_KINDS)
    def test_signal_statistics_match_the_allocating_closure(self, kind, sigmas, width, monkeypatch):
        L, budget = WIDTHS[width]
        if budget is not None:
            monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
        setup = est.EstimationSetup(1.0, L, SIGMAS[sigmas], noise.NoiseModel(kind, 1.0), tx.rational_fn(2.0), 10.0, 1.0)
        got = harness.run_signal_statistics(setup, 500, 13)
        ref = _plain_signal_statistics(setup, 500, 13)
        for key in ("z_targets", "af_estimates"):
            assert np.array_equal(_bits(got[key]), _bits(ref[key]))

    def test_wide_rows_match_the_allocating_closure(self):
        """Cauchy rows wider than a draw block at the real budget: each span
        reuses the one uniform buffer and the one workspace of the call."""
        L = numerics.DRAW_BLOCK_ELEMENTS + 5000
        setup = est.EstimationSetup(1.0, L, SIGMAS["sqrt"], noise.cauchy(1.0), tx.tanh_fn(0.75), 10.0, 1.0)
        got = harness.run_signal_statistics(setup, 3, 17)
        ref = _plain_signal_statistics(setup, 3, 17)
        for key in ("z_targets", "af_estimates"):
            assert np.array_equal(_bits(got[key]), _bits(ref[key]))

    @pytest.mark.parametrize("stratified", [False, True])
    def test_wide_detection_rows_match_the_allocating_closure(self, stratified, monkeypatch):
        """The same wide Cauchy rows through the decision loop, whose lead
        hypothesis column comes before the first sensor span."""
        setup = det.DetectionSetup(
            theta=1.5, L=numerics.DRAW_BLOCK_ELEMENTS + 5000, sigmas=SIGMAS["sqrt"], noise=noise.cauchy(1.0),
            transmit=tx.tanh_fn(0.75), total_power=2.0, channel_noise_var=1.0,
        )
        _check_decisions(setup, 4, stratified, monkeypatch)

    @pytest.mark.parametrize("budget", [numerics.DRAW_BLOCK_ELEMENTS, 4096])
    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("unsettled", ["every-row", "linear"])
    def test_stash_filled_mid_point_matches_the_allocating_closure(self, unsettled, stratified, budget, monkeypatch):
        """The stash of unsettled rows fills and is flushed mid-point: with
        unbounded tables every row is unsettled, and the linear curve at
        L=30 leaves about 2% of them (its end cells stay unbounded). The
        stash holds a 32nd of a block's rows, so both fill it within a few
        blocks. The counts are the allocating closure's, and the values
        reaching ``decide`` are the closure's values of their trials, bit
        for bit and in trial order: all of them with unbounded tables."""
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
        if unsettled == "every-row":
            monkeypatch.setattr(kernels, "cell_bounds", unbounded_cells)
        setup = det.DetectionSetup(
            theta=1.5, L=30, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
            transmit=tx.linear_fn(1.0), total_power=2.0, channel_noise_var=1.0,
        )
        detector = det.build_detector(setup)
        trials = 6000
        ref_h, ref_wrong, ref_y = _plain_simulate_decisions(setup, detector, trials, numerics.RngStream(11, 3), stratified)
        decide = det.decide
        received = []
        monkeypatch.setattr(det, "decide", lambda d, y: received.append(np.array(y)) or decide(d, y))
        trials_by_h, errors_by_h = det.simulate_decisions(setup, detector, trials, numerics.RngStream(11, 3), stratified)
        assert np.array_equal(trials_by_h, np.bincount(ref_h, minlength=2))
        assert np.array_equal(errors_by_h, np.bincount(ref_h[ref_wrong == 1], minlength=2))
        rows_per_block = budget // (setup.L + (1 if stratified else 2))
        full = rows_per_block // 32
        assert len(received) >= 2 and all(y.size == full for y in received[:-1])
        got = _bits(np.concatenate(received))
        if unsettled == "every-row":
            assert np.array_equal(got, _bits(ref_y))
        else:
            assert 0.01 * trials < got.size < 0.03 * trials
            remaining = iter(_bits(ref_y).tolist())
            assert all(bits in remaining for bits in got.tolist())

    @pytest.mark.parametrize("stratified", [False, True])
    def test_narrow_rows_settle_span_by_span(self, stratified, monkeypatch):
        """At L=1 the brackets of a whole block and its channel step do not
        fit the workspace (three or two words per row) together, so
        ``settle`` takes each block in spans of a quarter of it (here two
        spans in each of two or three blocks). It still settles most trials, and the counts
        are the allocating closure's, in both runs of ``_check_decisions``."""
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", 1024)
        left = []
        settle = det._DecisionBracket.settle

        def counting(bracket, h1, decision, *rest):
            settle(bracket, h1, decision, *rest)
            left.append(np.count_nonzero(decision == det._UNSETTLED))

        monkeypatch.setattr(det._DecisionBracket, "settle", counting)
        setup = det.DetectionSetup(
            theta=1.5, L=1, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
            transmit=tx.tanh_fn(1.0), total_power=2.0, channel_noise_var=1.0,
        )
        _check_decisions(setup, 1000, stratified, monkeypatch)
        # The second run has unbounded tables, which settle nothing.
        assert sum(left[: len(left) // 2]) < 0.01 * 1000

    @pytest.mark.parametrize("L, trials", [(30, 1), (30, 2), (40_000, 3)])
    @pytest.mark.parametrize("stratified", [False, True])
    def test_filter_runs_for_every_row_that_fits_a_block(self, L, trials, stratified, monkeypatch):
        """The filter takes every constant-sigma point whose row fits a draw
        block: one or two trials, and rows of more than 2**15 words, one to
        a block. Its scratch (the workspace) then holds one row chunk at
        most (two trials at L=30, not stratified), and with none ``settle``
        leaves every row to the stash. The counts are the allocating
        closure's, in both runs of ``_check_decisions``."""
        cols = L + (1 if stratified else 2)
        assert cols <= numerics.DRAW_BLOCK_ELEMENTS and (trials <= 2 or 2 * cols > numerics.DRAW_BLOCK_ELEMENTS)
        settled = []
        settle = det._DecisionBracket.settle

        def counting(bracket, h1, *rest):
            settled.append(h1.size)
            return settle(bracket, h1, *rest)

        monkeypatch.setattr(det._DecisionBracket, "settle", counting)
        setup = det.DetectionSetup(
            theta=1.5, L=L, sigmas=est.constant_sigmas(1.0), noise=noise.gaussian(1.0),
            transmit=tx.tanh_fn(1.0), total_power=2.0, channel_noise_var=1.0,
        )
        _check_decisions(setup, trials, stratified, monkeypatch)
        assert sum(settled) == 2 * trials
