"""CLI contract: presets, CSV/manifest emission, overrides, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from macfusion import cli, harness, noise
from macfusion import estimation as est
from macfusion import transmit as tx
from oracles import InversionRangeError, read_csv

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_FIG2 = [
    "trials=200",
    "L=40",
    'omega_grid={"lo":0.5,"hi":1.5,"points":3}',
]


POWER_LINEAR = 'transmits=[{"kind":"linear","alpha":"power"}]'


def _run(args):
    return cli.main(args)


class TestPresets:
    def test_listing_contains_required_names(self, capsys):
        assert _run(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "theorem3" in out

    def test_at_least_seven_presets(self):
        assert len(cli.PRESETS) >= 7

    def test_every_preset_config_validates(self):
        for name in cli.PRESETS:
            cfg = cli.load_config(name)
            cli.validate_common(cfg)
            assert cfg["kind"] in cli.EXPERIMENT_KINDS


class TestRun:
    def test_fig2_csv_columns(self, tmp_path):
        out = tmp_path / "fig2.csv"
        args = ["run", "fig2", "--out", str(out), "--workers", "2"]
        for ov in SMALL_FIG2:
            args += ["--set", ov]
        assert _run(args) == 0
        header, rows = read_csv(str(out))
        assert header == ["omega", "asv", "l_var", "trials", "stderr"]
        assert len(rows) == 3
        for row in rows:
            assert float(row[1]) > 0.0 and float(row[2]) > 0.0

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            args = ["run", "fig2", "--out", str(out)]
            for ov in SMALL_FIG2:
                args += ["--set", ov]
            assert _run(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_byte_identical(self, tmp_path):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w8.csv"
        for out, workers in ((a, "1"), (b, "8")):
            args = ["run", "cauchy-af", "--out", str(out), "--workers", workers,
                    "--set", "trials=100", "--set", "L_values=[50,100]"]
            assert _run(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_reproduces_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        args = ["run", "fig2", "--out", str(out)]
        for ov in SMALL_FIG2:
            args += ["--set", ov]
        assert _run(args) == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(manifest["config"]))
        replay_out = tmp_path / "replay.csv"
        assert _run(["run", str(replay_cfg), "--out", str(replay_out)]) == 0
        assert replay_out.read_bytes() == out.read_bytes()

    def test_csv_round_trip_via_own_reader(self, tmp_path):
        out = tmp_path / "d.csv"
        assert _run(["run", "duality", "--out", str(out), "--set", 'grid={"lo":-2,"hi":2,"points":5}']) == 0
        header, rows = read_csv(str(out))
        assert header == ["x", "density", "reference", "abs_error"]
        assert len(rows) == 5
        assert all(len(r) == len(header) for r in rows)

    def test_csv_uses_crlf(self, tmp_path):
        out = tmp_path / "r.csv"
        assert _run(["run", "duality", "--out", str(out), "--set", 'grid={"lo":-1,"hi":1,"points":3}']) == 0
        assert b"\r\n" in out.read_bytes()


PRESET_SMOKE = {
    "fig2": (
        ["trials=100", "L=25", 'omega_grid={"lo":0.5,"hi":1.5,"points":3}'],
        ["omega", "asv", "l_var", "trials", "stderr"],
        3,
    ),
    "fig3": (
        ["trials=100", "L_values=[25,50]"],
        ["L", "asv", "l_var", "trials", "stderr"],
        2,
    ),
    "fig4": (
        ["trials=50", "L=25", 'omega_grid={"lo":0.5,"hi":1.5,"points":2}'],
        ["function", "omega", "asv", "l_var", "trials", "stderr"],
        6,
    ),
    "fig5": (
        ["trials=2000", 'omega_grid={"lo":0.4,"hi":1.2,"points":3}'],
        ["omega", "dc", "pe", "stderr", "trials"],
        3,
    ),
    "fig6": (
        ["trials=2000", "L_values=[5]", 'omega_search={"lo":0.2,"hi":4.0,"points":8}'],
        ["function", "L", "omega_star", "pe", "stderr", "trials"],
        4,
    ),
    "theorem3": (
        ["trials=50", "L_values=[50,100]"],
        ["L", "h_gap", "z_abs_median", "af_mae", "trials"],
        2,
    ),
    "cauchy-af": (
        ["trials=100", "L_values=[50]"],
        ["L", "mae_bounded", "mae_af", "trials"],
        1,
    ),
    "duality": (
        ['grid={"lo":-2.0,"hi":2.0,"points":5}'],
        ["x", "density", "reference", "abs_error"],
        5,
    ),
    "consistency": (
        ["trials=100", "L_values=[50]"],
        ["L", "median_abs_error", "trials"],
        1,
    ),
}


class TestPresetSmoke:
    @pytest.mark.parametrize("name", sorted(PRESET_SMOKE))
    def test_preset_runs_and_emits_expected_columns(self, name, tmp_path):
        overrides, header, n_rows = PRESET_SMOKE[name]
        out = tmp_path / f"{name}.csv"
        args = ["run", name, "--out", str(out)]
        for ov in overrides:
            args += ["--set", ov]
        assert _run(args) == 0
        got_header, rows = read_csv(str(out))
        assert got_header == header
        assert len(rows) == n_rows

    def test_smoke_table_covers_every_preset(self):
        assert set(PRESET_SMOKE) == set(cli.PRESETS)


class TestErrors:
    def test_invalid_noise_kind_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = _run(["run", "fig2", "--out", str(out), "--set", "noise.kind=weibull"])
        assert code == 2
        assert "noise.kind" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        code = _run(["run", "fig2", "--out", str(tmp_path / "x.csv"), "--set", "turbo=true"])
        assert code == 2
        assert "turbo" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, capsys):
        assert _run(["run", "/nonexistent/config.json"]) == 2
        assert "neither a preset nor a file" in capsys.readouterr().err

    def test_non_convergence_exit_3(self, tmp_path, capsys):
        code = _run([
            "run", "fig2", "--out", str(tmp_path / "x.csv"),
            "--set", "trials=50", "--set", "L=10",
            "--set", 'omega_grid={"lo":0.5,"hi":1.0,"points":2}',
            "--set", 'quadrature={"rel_tol":1e-13,"abs_tol":1e-16,"max_subdivisions":2}',
        ])
        assert code == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_mesh_validation_failure_exit_3(self, tmp_path, capsys):
        """signed_power under Cauchy noise: the frozen mesh fails validation."""
        code = _run([
            "run", "consistency", "--out", str(tmp_path / "x.csv"),
            "--set", "trials=20", "--set", "L_values=[20]",
            "--set", 'transmit={"kind":"signed_power","p_exponent":0.3}',
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "numerical failure in consistency" in err
        assert "flat response mesh failed validation" in err

    @pytest.mark.parametrize(
        "error",
        [
            est.MeshValidationError("flat response mesh failed validation at sigma=2.0"),
            InversionRangeError(2.0, 1.0, 30.0),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_every_numerics_error_exit_3(self, tmp_path, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(est, "build_flat_response", failing)
        code = _run(["run", "cauchy-af", "--out", str(tmp_path / "x.csv"), "--set", "trials=20", "--set", "L_values=[20]"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure in af_compare" in err
        assert str(error) in err

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("fig5", 'priors=["a",0.5]', "priors[0]"),
            ("fig5", "priors=[[1],0.5]", "priors[0]"),
            ("consistency", 'sigmas={"kind":"explicit_list","values":[[1]]}', "sigmas.values[0]"),
            ("cauchy-af", "theta=NaN", "config.theta"),
            ("cauchy-af", "theta=Infinity", "config.theta"),
            ("cauchy-af", "L_values=[Infinity]", "L_values[0]"),
            ("cauchy-af", "L_values=[NaN]", "L_values[0]"),
            ("cauchy-af", "L_values=[2.5]", "L_values[0]"),
            ("fig2", "omega_grid.lo=-1", "omega_grid.lo"),
            ("fig6", "omega_search.points=3", "omega_search.points"),
            ("fig5", 'stratified="no"', "stratified"),
        ],
    )
    def test_bad_values_exit_2_naming_the_field(self, tmp_path, capsys, preset, override, field):
        code = _run(["run", preset, "--out", str(tmp_path / "x.csv"), "--set", override])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error at {field}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_seed_rejected(self, tmp_path, capsys):
        code = _run(["run", "fig2", "--out", str(tmp_path / "x.csv"), "--set", "master_seed=-3"])
        assert code == 2
        assert "master_seed" in capsys.readouterr().err


class TestFoundProbes:
    """Configs that used to end in a traceback now exit 2 naming the field, or
    3 naming the failed operation."""

    def _fails(self, tmp_path, capsys, preset, *overrides):
        args = ["run", preset, "--out", str(tmp_path / "x.csv")]
        for ov in overrides:
            args += ["--set", ov]
        code = _run(args)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()
        return code, err

    @pytest.mark.parametrize(
        "preset, overrides, code, prefix",
        [
            ("fig6", [POWER_LINEAR, 'sigmas={"kind":"constant","sigma":1e200}'], 2, "config error at transmits[0].alpha:"),
            (
                "fig6",
                [POWER_LINEAR, 'sigmas={"kind":"constant","sigma":1e-200}', "theta=0"],
                2,
                "config error at transmits[0].alpha:",
            ),
            ("consistency", ['sigmas={"kind":"constant","sigma":1e-200}'], 0, ""),
            ("cauchy-af", ['sigmas={"kind":"constant","sigma":1e-200}'], 3, "numerical failure in af_compare: AF power normalization"),
            (
                "consistency",
                ['sigmas={"kind":"constant","sigma":1e200}'],
                3,
                "numerical failure in consistency: inverting the mean response: no theta above -1e18",
            ),
            ("cauchy-af", ['sigmas={"kind":"constant","sigma":1e200}'], 3, "numerical failure in af_compare: AF power normalization"),
        ],
        ids=["fig6-1e200", "fig6-1e-200", "consistency-1e-200", "cauchy-af-1e-200", "consistency-1e200", "cauchy-af-1e200"],
    )
    def test_degenerate_power_normalization_exits_without_warnings(self, tmp_path, capsys, preset, overrides, code, prefix):
        """A sensor scale whose square underflows to 0 or overflows to inf left
        no positive finite gain: the power-normalized linear curve ended in
        a ZeroDivisionError or a FieldError traceback, and the AF gain in a
        ZeroDivisionError, or in divide-by-zero warnings. The bounded
        estimator of ``consistency`` needs no AF gain: at sigma=1e-200 it
        inverts finite thetas, and at 1e200 the flat response cannot reach
        the targets."""
        if preset == "fig6":
            overrides = ["trials=10", "L_values=[2]"] + overrides
        else:
            overrides = ["trials=10", "L_values=[5]", "theta=0"] + overrides
        out = tmp_path / "x.csv"
        args = ["run", preset, "--out", str(out)]
        for ov in overrides:
            args += ["--set", ov]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _run(args)
        err = capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "Traceback" not in err
        assert got == code
        assert err.startswith(prefix)
        assert out.exists() == (code == 0)
        if code == 0:
            header, rows = read_csv(out)
            assert rows and all(math.isfinite(float(row[header.index("median_abs_error")])) for row in rows)

    def test_huge_theta_exits_2(self, tmp_path, capsys):
        """theta=1e308 overflowed theta**2 in estimation.af_gain."""
        code, err = self._fails(tmp_path, capsys, "cauchy-af", "theta=1e308", "trials=10", "L_values=[10]")
        assert code == 2
        assert "config error at config.theta:" in err

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("fig2", 'transmit={"kind":"linear","alpha":1}', "transmit.kind"),
            ("fig4", 'transmits=[{"kind":"tanh"},{"kind":"uniform_quantizer","x_max":1,"M":3}]', "transmits[1].kind"),
            ("fig5", 'transmit={"kind":"signed_power","p_exponent":0.5}', "transmit.kind"),
        ],
    )
    def test_omega_sweep_of_a_curve_without_omega_exits_2(self, tmp_path, capsys, preset, override, field):
        """fig2 with a linear curve raised UnsupportedKindError in tx.with_omega."""
        code, err = self._fails(tmp_path, capsys, preset, override)
        assert code == 2
        assert f"config error at {field}:" in err

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("fig2", 'sigmas={"kind":"explicit_list","values":[1,1]}', "sigmas.values"),
            ("fig5", 'sigmas={"kind":"explicit_list","values":[1,2]}', "sigmas.values"),
            ("consistency", 'sigmas={"kind":"explicit_list","values":[1,2]}', "sigmas.kind"),
            ("cauchy-af", 'sigmas={"kind":"explicit_list","values":[1]}', "sigmas.kind"),
            ("fig6", 'sigmas={"kind":"explicit_list","values":[1,1,1,1,1]}', "sigmas.kind"),
        ],
    )
    def test_explicit_sigma_list_of_the_wrong_length_exits_2(self, tmp_path, capsys, preset, override, field):
        """A list whose length is not L raised ValueError in SigmaSequence.resolve;
        the kinds that sweep L_values reject an explicit list outright."""
        code, err = self._fails(tmp_path, capsys, preset, override)
        assert code == 2
        assert f"config error at {field}:" in err

    def test_explicit_sigma_list_of_length_L_runs(self, tmp_path):
        values = json.dumps([1.0] * 40)
        out = tmp_path / "x.csv"
        args = ["run", "fig2", "--out", str(out), "--set", f'sigmas={{"kind":"explicit_list","values":{values}}}']
        for ov in SMALL_FIG2:
            args += ["--set", ov]
        assert _run(args) == 0

    def test_vanishing_slope_exits_3(self, tmp_path, capsys):
        """Far out on a saturated curve E[f'] underflows: the AsV has nothing to divide by."""
        code, err = self._fails(tmp_path, capsys, "fig2", "theta=1000", *SMALL_FIG2)
        assert code == 3
        assert "slope" in err

    def test_slope_far_out_on_tanh_stays_positive(self, tmp_path):
        """At theta=30, 1 - tanh^2 rounded the slope to exactly 0 (exit 3);
        omega / cosh^2 keeps it positive, so the AsV is finite."""
        out = tmp_path / "x.csv"
        args = ["run", "fig2", "--out", str(out)]
        for ov in ("theta=30", "trials=20", "L=10", 'omega_grid={"lo":0.5,"hi":1,"points":2}'):
            args += ["--set", ov]
        assert _run(args) == 0
        _, rows = read_csv(str(out))
        assert all(math.isfinite(float(row[1])) and float(row[1]) > 0.0 for row in rows)

    def test_tail_mass_that_shrinks_the_response_range_clamps(self, tmp_path):
        """tail_mass=0.5 leaves the frozen response a range of about +-0.5; a
        target beyond it found no theta below 1e18 (exit 3), and now clamps
        just inside that range."""
        out = tmp_path / "x.csv"
        args = ["run", "fig2", "--out", str(out)]
        for ov in ('quadrature={"tail_mass":0.5}', "trials=20", "L=10", 'omega_grid={"lo":0.5,"hi":1,"points":2}'):
            args += ["--set", ov]
        assert _run(args) == 0

    def test_zero_theta_detection_runs(self, tmp_path):
        """The CLI required theta > 0 for detection although DetectionSetup
        accepts theta = 0 (both hypotheses agree, Pe is the smaller prior)."""
        out = tmp_path / "x.csv"
        args = ["run", "fig5", "--out", str(out)]
        for ov in ("theta=0", "trials=2000", "omega_grid.points=4"):
            args += ["--set", ov]
        assert _run(args) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 4

    @pytest.mark.parametrize(
        "override, field, rule",
        [
            ("theta=-0.5", "config.theta", "theta must be nonnegative"),
            ("priors=[0.5,0.6]", "priors", "priors must be strictly positive and sum to 1"),
            ("priors=[1,0]", "priors", "priors must be strictly positive and sum to 1"),
        ],
    )
    def test_detection_rules_come_from_the_setup(self, tmp_path, capsys, override, field, rule):
        """The theta and priors rules of DetectionSetup, reported at the field."""
        code, err = self._fails(tmp_path, capsys, "fig5", override)
        assert code == 2
        assert f"config error at {field}: {rule}" in err

    @pytest.mark.parametrize("mass", ["1", "2"])
    def test_tail_mass_of_one_or_more_exits_2(self, tmp_path, capsys, mass):
        """tail_mass >= 1 passed validation and raised ValueError in noise.tail_truncation."""
        code, err = self._fails(tmp_path, capsys, "fig2", f'quadrature={{"tail_mass":{mass}}}', *SMALL_FIG2)
        assert code == 2
        assert "config error at quadrature.tail_mass: tail_mass must lie in (0, 1)" in err

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("consistency", 'transmit={"kind":"signed_power","p_exponent":0.7}', "transmit.p_exponent"),
            ("consistency", 'transmit={"kind":"uniform_quantizer","x_max":2,"M":4}', "transmit.M"),
            ("fig5", 'sigmas={"kind":"explicit_list","values":[1,-1]}', "sigmas.values"),
            ("fig2", 'quadrature={"rel_tol":2}', "quadrature.rel_tol"),
            ("fig2", 'quadrature={"tail_mass":2}', "quadrature.tail_mass"),
            ("fig3", 'sigmas={"kind":"constant","sigma":2}', "sigmas.sigma"),
            ("fig3", 'sigmas={"kind":"sqrt_growth","sigma":1}', "sigmas.kind"),
            ("fig2", f'sigmas={{"kind":"explicit_list","values":{[2] * 500}}}', "sigmas.values"),
        ],
    )
    def test_value_errors_name_the_field(self, tmp_path, capsys, preset, override, field):
        """The rule that rejects the value lives in the type that holds it; the
        error named the whole object (``transmit``, ``sigmas``, ``quadrature``)."""
        code, err = self._fails(tmp_path, capsys, preset, override)
        assert code == 2
        assert err.startswith(f"config error at {field}:")

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("fig2", "L=1180591620717411303424", "config.L"),
            ("cauchy-af", "trials=1e308", "config.trials"),
            ("fig5", "omega_grid.points=1e308", "omega_grid.points"),
            ("cauchy-af", "L_values=[100,9007199254740993]", "L_values[1]"),
        ],
    )
    def test_counts_beyond_2_to_the_53_exit_2(self, tmp_path, capsys, preset, override, field):
        """An integer-valued count of 2**70 or 1e308 passed validation and ended
        in numpy's "Maximum allowed dimension exceeded" ValueError."""
        code, err = self._fails(tmp_path, capsys, preset, override)
        assert code == 2
        assert f"config error at {field}: must be at most 2**53" in err

    @pytest.mark.parametrize("levels", [10**9, 10**9 + 1])
    def test_huge_quantizer_level_count_exits_2(self, tmp_path, capsys, monkeypatch, levels):
        """An odd M near 10**9 passed validation, and the quantizer's cell-edge
        tuple alone would take tens of GB; the bound rejects any M above it
        before an edge is built."""

        def no_edges(f):
            raise AssertionError("breakpoints built for a rejected quantizer")

        monkeypatch.setattr(tx, "breakpoints", no_edges)
        transmit = json.dumps({"kind": "uniform_quantizer", "x_max": 2, "M": levels})
        code, err = self._fails(tmp_path, capsys, "fig6", f"transmits=[{transmit}]")
        assert code == 2
        assert "config error at transmits[0].M: must be at most 1025" in err

    @pytest.mark.parametrize(
        "transmit", ['{"kind":"uniform_quantizer","x_max":2,"M":5}', '{"kind":"signed_power","p_exponent":0.3}']
    )
    def test_asymptotic_variance_of_a_curve_without_a_slope_exits_2(self, tmp_path, capsys, transmit):
        """lvar_vs_L with a quantizer or signed power raised UnsupportedKindError
        in estimation.asymptotic_variance (found by the config fuzzer)."""
        code, err = self._fails(tmp_path, capsys, "fig3", f"transmit={transmit}")
        assert code == 2
        assert "config error at transmit.kind: asymptotic variance needs a differentiable transmit curve" in err

    def test_output_that_is_not_a_path_exits_2(self, tmp_path):
        """``output=1`` opened file descriptor 1 (stdout), wrote the CSV there,
        closed it and then ended in a TypeError; run in a child, since the
        old behaviour closes the stdout of whoever runs it."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        args = ["run", "duality", "--set", 'grid={"lo":-1,"hi":1,"points":3}', "--set", "output=1"]
        result = subprocess.run(
            [sys.executable, "-m", "macfusion", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 2
        assert "config error at output: expected a non-empty file path" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("field", ["--out", "output"])
    def test_output_in_a_missing_directory_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch, field):
        """A CSV path in a directory that does not exist ran the whole
        experiment and then ended in FileNotFoundError."""
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg, workers: runs.append(cfg) or (["x"], [[1.0]]))
        path = str(tmp_path / "missing" / "x.csv")
        args = ["run", "duality", "--out", path] if field == "--out" else ["run", "duality", "--set", f"output={path}"]
        code = _run(args)
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error at {field}: {path!r} is not a file in an existing directory" in err
        assert runs == []


class TestMeshValidationMessage:
    def test_names_the_worst_check(self, tmp_path, capsys, monkeypatch):
        """Weights scaled by 1 + 1e-6 fail every pass; the message names sigma, theta and the bound."""
        fixed_mesh_nodes = est.fixed_mesh_nodes

        def perturbed(edges):
            nodes, weights = fixed_mesh_nodes(edges)
            return nodes, weights * (1.0 + 1e-6)

        monkeypatch.setattr(est, "fixed_mesh_nodes", perturbed)
        code = _run(["run", "cauchy-af", "--out", str(tmp_path / "x.csv"), "--set", "trials=20", "--set", "L_values=[20]"])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "flat response mesh failed validation at sigma=1.0" in err
        assert "theta=" in err
        assert "|flat - exact|" in err and "bound" in err


class TestAfCompare:
    def test_single_pass_matches_separate_experiments(self, tmp_path):
        """One draw pass per point gives the bounded and AF errors of separate runs."""
        out = tmp_path / "af.csv"
        cfg = cli.load_config("cauchy-af", ["trials=150", "L_values=[40,300]"])
        cli.run_config(cfg, workers=2, out_path=str(out))
        header, rows = read_csv(str(out))
        assert header == ["L", "mae_bounded", "mae_af", "trials"]
        expected = []
        for k, L in enumerate((40, 300)):
            setup = est.EstimationSetup(
                1.0, L, est.constant_sigmas(1.0), noise.cauchy(1.0), tx.tanh_fn(0.75), 10.0, 1.0
            )
            maes = [
                harness.median_abs_error(
                    harness.run_estimation_experiment(
                        setup, 150, cfg["master_seed"], estimator=estimator, stream_id_base=k * 2**32
                    ),
                    1.0,
                )
                for estimator in ("bounded", "af")
            ]
            expected.append([str(L)] + [f"{mae:.12g}" for mae in maes] + ["150"])
        assert rows == expected


class TestOverridesAndEnv:
    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        args_tail = []
        for ov in SMALL_FIG2:
            args_tail += ["--set", ov]
        monkeypatch.setenv(cli.ENV_SEED, "777")
        assert _run(["run", "fig2", "--out", str(out1)] + args_tail) == 0
        manifest = json.loads((tmp_path / "e1.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 777
        monkeypatch.delenv(cli.ENV_SEED)
        assert _run(["run", "fig2", "--out", str(out2)] + args_tail) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_set_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "777")
        out = tmp_path / "s.csv"
        args = ["run", "fig2", "--out", str(out), "--set", "master_seed=42"]
        for ov in SMALL_FIG2:
            args += ["--set", ov]
        assert _run(args) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 42

    def test_dotted_override_changes_noise(self, tmp_path):
        out = tmp_path / "n.csv"
        args = ["run", "fig2", "--out", str(out), "--set", "noise.kind=laplacian",
                "--set", f"noise.scale={1.0 / math.sqrt(2.0)}"]
        for ov in SMALL_FIG2:
            args += ["--set", ov]
        assert _run(args) == 0
        manifest = json.loads((tmp_path / "n.csv.manifest.json").read_text())
        assert manifest["config"]["noise"]["kind"] == "laplacian"


class TestConfigFile:
    def test_json_config_runs(self, tmp_path):
        cfg = {
            "kind": "dc_vs_omega",
            "master_seed": 5,
            "theta": 1.0,
            "L": 10,
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmit": {"kind": "tanh", "omega": 1.0},
            "total_power": 2.0,
            "channel_noise_var": 1.0,
            "omega_grid": {"lo": 0.5, "hi": 2.0, "points": 4},
        }
        path = tmp_path / "dc.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "dc.csv"
        assert _run(["run", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["omega", "dc"]
        assert len(rows) == 4
        dcs = [float(r[1]) for r in rows]
        assert all(v > 0.0 for v in dcs)

    def test_output_key_respected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(cli.PRESETS["duality"][1])
        cfg["grid"] = {"lo": -1.0, "hi": 1.0, "points": 3}
        cfg["output"] = "from_config.csv"
        path = tmp_path / "d.json"
        path.write_text(json.dumps(cfg))
        assert _run(["run", str(path)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_stratified_flag_wired(self, tmp_path):
        out = tmp_path / "strat.csv"
        args = ["run", "fig5", "--out", str(out), "--set", "trials=2000",
                "--set", "stratified=true", "--set", 'omega_grid={"lo":0.6,"hi":1.0,"points":2}']
        assert _run(args) == 0
        manifest = json.loads((tmp_path / "strat.csv.manifest.json").read_text())
        assert manifest["config"]["stratified"] is True
        header, rows = read_csv(str(out))
        assert header == ["omega", "dc", "pe", "stderr", "trials"]
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)

    def test_seedless_kind_defaults_seed(self, tmp_path):
        cfg = {
            "kind": "duality_check",
            "transmit": {"kind": "tanh", "omega": 1.0},
            "grid": {"lo": -1.0, "hi": 1.0, "points": 3},
        }
        path = tmp_path / "nd.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "nd.csv"
        assert _run(["run", str(path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "nd.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 0

    def test_pe_vs_L_power_alpha(self, tmp_path):
        """The AF-linear candidate resolves its gain from the power budget."""
        cfg = {
            "kind": "pe_vs_L",
            "master_seed": 9,
            "trials": 2000,
            "theta": math.sqrt(10.0),
            "noise": {"kind": "gaussian", "scale": 1.0},
            "transmits": [{"kind": "linear", "alpha": "power"}, {"kind": "tanh", "omega": 1.0}],
            "total_power": 1.0,
            "channel_noise_var": 1.0,
            "L_values": [5, 10],
            "omega_search": {"lo": 0.1, "hi": 4.0, "points": 16},
        }
        path = tmp_path / "pe.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "pe.csv"
        assert _run(["run", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["function", "L", "omega_star", "pe", "stderr", "trials"]
        assert {r[0] for r in rows} == {"linear_af", "tanh"}
