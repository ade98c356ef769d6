"""Monte Carlo engine: draw accounting, determinism, the statistics a CSV row reads."""

import math

import numpy as np
import pytest

from macfusion import estimation as est
from macfusion import detection as det
from macfusion import cli, harness, kernels, noise, numerics, transmit as tx
from macfusion.numerics import RngStream
from oracles import eval_fn, read_csv, sample, simulate_channel, split_stream, unbounded_cells


class HalfStream:
    """Stub stream whose uniforms are all 0.5, i.e. zero-median draws: the
    word 2**63 makes 0.5 + 2**-54, which ties to even at 0.5."""

    def __init__(self):
        self.counter = 0

    def uniforms(self, count):
        self.counter += count
        return np.full(count, 2**63, dtype=np.uint64)


def _est_setup(**kwargs):
    base = dict(
        theta=1.0,
        L=50,
        sigmas=est.constant_sigmas(1.0),
        noise=noise.gaussian(1.0),
        transmit=tx.tanh_fn(0.75),
        total_power=10.0,
        channel_noise_var=1.0,
    )
    base.update(kwargs)
    return est.EstimationSetup(**base)


def _det_setup(**kwargs):
    base = dict(
        theta=math.sqrt(10.0),
        L=20,
        sigmas=est.constant_sigmas(1.0),
        noise=noise.gaussian(1.0),
        transmit=tx.tanh_fn(1.0),
        total_power=10**0.3,
        channel_noise_var=1.0,
        priors=(0.5, 0.5),
    )
    base.update(kwargs)
    return det.DetectionSetup(**base)


class TestSimulateChannel:
    def test_zero_noise_odd_transmit_gives_zero(self):
        setup = _est_setup(theta=0.0)
        out = simulate_channel(setup, HalfStream())
        assert out.y_L == 0.0 and out.z_L == 0.0

    def test_zero_noise_linear_arithmetic(self):
        """linear alpha=1, theta=1, P_T=L: y_L = sqrt(P_T/L) * L = L."""
        setup = _est_setup(transmit=tx.linear_fn(1.0), L=16, total_power=16.0)
        out = simulate_channel(setup, HalfStream())
        assert out.y_L == pytest.approx(16.0, rel=1e-12)

    def test_normalization_identity_exact(self):
        setup = _est_setup(L=7)
        out = simulate_channel(setup, RngStream(5, 0))
        assert out.z_L * math.sqrt(7) == out.y_L  # exact, by construction

    def test_draw_order_contract(self):
        """Sensor i consumes one draw, the channel one more, per trial."""
        setup = _est_setup(L=33)
        stream = RngStream(6, 0)
        simulate_channel(setup, stream)
        assert stream.counter == 33 + 1
        simulate_channel(setup, stream)
        assert stream.counter == 2 * (33 + 1)

    def test_trial_stream_determinism(self):
        setup = _est_setup()
        a = simulate_channel(setup, split_stream(RngStream(9, 0), 3))
        b = simulate_channel(setup, split_stream(RngStream(9, 0), 3))
        assert a == b

    def test_instantaneous_power_within_cap(self):
        """rho * f(x)^2 <= rho * c^2 over 1e6 heavy-tailed draws."""
        setup = _est_setup(noise=noise.cauchy(1.0))
        c = tx.bound(setup.transmit)
        draws = sample(setup.noise, RngStream(10, 0), 10**6)
        fx = eval_fn(setup.transmit, setup.theta + draws)
        assert np.all(setup.rho * fx**2 <= setup.rho * c**2 * (1 + 1e-15))


class TestEstimationExperiment:
    def test_reproducible_bitwise(self):
        setup = _est_setup()
        a = harness.run_estimation_experiment(setup, 500, 42)
        b = harness.run_estimation_experiment(setup, 500, 42)
        assert np.array_equal(a, b)

    def test_seed_changes_results(self):
        setup = _est_setup()
        a = harness.run_estimation_experiment(setup, 200, 1)
        b = harness.run_estimation_experiment(setup, 200, 2)
        assert not np.array_equal(a, b)

    def test_block_size_does_not_change_draws(self, monkeypatch):
        """Element budgets of part of a row, one row and the whole run agree."""
        setup = _est_setup(L=300)
        trials = 40
        reference = harness.run_estimation_experiment(setup, trials, 42)
        stats = harness.run_signal_statistics(setup, trials, 42)
        for budget in (200, setup.L + 1, trials * (setup.L + 1)):
            monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
            other = harness.run_estimation_experiment(setup, trials, 42)
            other_stats = harness.run_signal_statistics(setup, trials, 42)
            assert np.array_equal(other, reference)
            for key in ("z_targets", "af_estimates"):
                assert np.array_equal(other_stats[key], stats[key])

    def test_large_L_draws_within_the_budget(self, monkeypatch):
        """At L=1e5 no uniform request exceeds the element budget."""
        setup = _est_setup(L=100_000, noise=noise.cauchy(1.0))
        requests = []
        draw = RngStream.uniforms

        def recording(stream, count):
            requests.append(count)
            return draw(stream, count)

        monkeypatch.setattr(RngStream, "uniforms", recording)
        stats = harness.run_signal_statistics(setup, 3, 8)
        assert max(requests) <= numerics.DRAW_BLOCK_ELEMENTS
        assert sum(requests) == 3 * (setup.L + 1)
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", 2**30)
        whole = harness.run_signal_statistics(setup, 3, 8)
        for key in ("z_targets", "af_estimates"):
            assert np.array_equal(stats[key], whole[key])

    def test_af_and_bounded_share_draws(self):
        """Paired comparison: identical streams feed both estimators."""
        setup = _est_setup()
        stats = harness.run_signal_statistics(setup, 50, 42)
        af = harness.run_estimation_experiment(setup, 50, 42, estimator="af")
        assert np.array_equal(af, stats["af_estimates"])

    def test_clamps_surface_in_the_inversion_mask(self):
        """A tiny network with huge channel noise must clamp sometimes."""
        setup = _est_setup(L=2, channel_noise_var=400.0)
        targets = harness.run_signal_statistics(setup, 200, 3)["z_targets"]
        thetas, clamped = est.build_flat_response(setup).invert(targets)
        assert clamped.sum() > 0
        assert np.all(np.isfinite(thetas))
        assert np.array_equal(harness.run_estimation_experiment(setup, 200, 3), thetas)


class TestStatistics:
    @pytest.mark.parametrize("size", [7, 8])
    def test_median_abs_error_is_the_plain_median_and_keeps_its_input(self, size):
        values = numerics.words_to_uniforms(RngStream(3, 0).uniforms(size)) - 0.25
        before = values.copy()
        got = harness.median_abs_error(values, 0.125)
        assert np.array_equal(values, before)
        assert got == float(np.median(np.abs(values - 0.125)))

    def test_l_var(self):
        estimates = np.array([1.0, 2.0, 4.0])
        assert harness.l_var(estimates, 10) == 10 * float(np.var(estimates, ddof=1))
        assert harness.l_var(np.array([3.0]), 10) == 0.0


class TestDetectionExperiment:
    def test_reproducible(self):
        setup = _det_setup()
        a = harness.run_detection_experiment(setup, 1000, 11)
        b = harness.run_detection_experiment(setup, 1000, 11)
        assert a == b

    @pytest.mark.parametrize("stratified", [False, True])
    def test_element_budget_does_not_change_decisions(self, monkeypatch, stratified):
        """Budgets of part of a row, one row and the whole run agree on the
        counts. Whole rows go through the bracket filter, which hands
        ``decide`` only the trials it cannot settle; with unbounded tables
        every trial reaches ``decide``, and the same received values reach
        it under every budget."""
        setup = _det_setup(L=400)
        detector = det.build_detector(setup)
        trials = 60
        cols = setup.L + (1 if stratified else 2)
        decide = det.decide
        for exact in (False, True):
            if exact:
                monkeypatch.setattr(kernels, "cell_bounds", unbounded_cells)
            runs = []
            for budget in (numerics.DRAW_BLOCK_ELEMENTS, 150, cols, trials * cols):
                monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", budget)
                received = []
                monkeypatch.setattr(det, "decide", lambda d, y: received.append(y.copy()) or decide(d, y))
                counts = det.simulate_decisions(setup, detector, trials, RngStream(14, 0), stratified=stratified)
                runs.append((np.concatenate(received), counts))
            for y, (trials_by_h, errors_by_h) in runs[1:]:
                if exact:
                    assert np.array_equal(y, runs[0][0])
                assert np.array_equal(trials_by_h, runs[0][1][0])
                assert np.array_equal(errors_by_h, runs[0][1][1])

    def test_zero_theta_coin_flip(self):
        pe, stderr = harness.run_detection_experiment(_det_setup(theta=0.0), 4000, 13)
        assert abs(pe - 0.5) < 3.0 * stderr + 0.01


# Tiny overrides that give every preset at least two points; no preset
# runs dc_vs_omega, so it gets a config of its own.
TINY = {
    "fig2": ["trials=60", "L=20", 'omega_grid={"lo":0.5,"hi":1.5,"points":3}'],
    "fig3": ["trials=60", "L_values=[20,30]"],
    "fig4": ["trials=40", "L=20", 'omega_grid={"lo":0.5,"hi":1.5,"points":2}'],
    "fig5": ["trials=1000", 'omega_grid={"lo":0.4,"hi":1.2,"points":3}'],
    "fig6": ["trials=1000", "L_values=[5,7]", 'omega_search={"lo":0.2,"hi":4.0,"points":8}'],
    "theorem3": ["trials=40", "L_values=[30,60]"],
    "cauchy-af": ["trials=60", "L_values=[30,40]"],
    "duality": ['grid={"lo":-2.0,"hi":2.0,"points":4}'],
    "consistency": ["trials=60", "L_values=[30,40]"],
}
DC_VS_OMEGA = {
    "kind": "dc_vs_omega",
    "master_seed": 5,
    "theta": 1.0,
    "L": 10,
    "noise": {"kind": "gaussian", "scale": 1.0},
    "transmit": {"kind": "tanh", "omega": 1.0},
    "total_power": 2.0,
    "channel_noise_var": 1.0,
    "omega_grid": {"lo": 0.5, "hi": 2.0, "points": 3},
}
TINY_RUNS = sorted(TINY) + ["dc_vs_omega"]


def _tiny_config(name):
    return cli.load_config(name, TINY[name]) if name in TINY else dict(DC_VS_OMEGA)


class TestRunExperiment:
    def test_tiny_runs_cover_every_kind(self):
        assert {_tiny_config(name)["kind"] for name in TINY_RUNS} == set(cli.EXPERIMENT_KINDS)

    @pytest.mark.parametrize("name", TINY_RUNS)
    def test_worker_count_byte_identical(self, name, tmp_path):
        csvs = []
        for workers in (1, 3):
            out = tmp_path / f"{name}-{workers}.csv"
            cli.run_config(_tiny_config(name), workers=workers, out_path=str(out))
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_equal_points_draw_from_their_own_streams(self, tmp_path):
        """Two equal L values give two different rows."""
        out = tmp_path / "twins.csv"
        cli.run_config(cli.load_config("consistency", ["trials=100", "L_values=[50,50]"]), workers=2, out_path=str(out))
        _, rows = read_csv(str(out))
        assert rows[0][0] == rows[1][0] == "50"
        assert rows[0] != rows[1]
