"""CLI contract: presets, CSV/manifest emission, overrides, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from macfusion import cli, harness, kernels, noise
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

    def test_directory_as_config_exit_2(self, tmp_path, capsys):
        assert _run(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at config: cannot read {str(tmp_path)!r}")
        assert "Traceback" not in err

    def test_config_that_is_not_utf8_exit_2(self, tmp_path, capsys):
        """A UTF-16 file with its byte-order mark FF FE."""
        path = tmp_path / "utf16.json"
        path.write_bytes('{"kind": "consistency"}'.encode("utf-16"))
        assert path.read_bytes().startswith(b"\xff\xfe")
        assert _run(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error at config: cannot read {str(path)!r}")
        assert "Traceback" not in err

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
            ("fig6", [POWER_LINEAR, 'sigmas={"kind":"constant","sigma":1e200}'], 2, "config error at sigmas.sigma:"),
            (
                "fig6",
                [POWER_LINEAR, 'sigmas={"kind":"constant","sigma":1e-200}', "theta=0"],
                2,
                "config error at transmits[0].alpha:",
            ),
            ("consistency", ['sigmas={"kind":"constant","sigma":1e-200}'], 0, ""),
            ("cauchy-af", ['sigmas={"kind":"constant","sigma":1e-200}'], 3, "numerical failure in af_compare: AF power normalization"),
            ("consistency", ['sigmas={"kind":"constant","sigma":1e200}'], 2, "config error at sigmas.sigma:"),
            ("cauchy-af", ['sigmas={"kind":"constant","sigma":1e200}'], 2, "config error at sigmas.sigma:"),
        ],
        ids=["fig6-1e200", "fig6-1e-200", "consistency-1e-200", "cauchy-af-1e-200", "consistency-1e200", "cauchy-af-1e200"],
    )
    def test_degenerate_power_normalization_exits_without_warnings(self, tmp_path, capsys, preset, overrides, code, prefix):
        """A sensor scale whose square underflows to 0 or overflows to inf left
        no positive finite gain: the power-normalized linear curve ended in
        a ZeroDivisionError or a FieldError traceback, and the AF gain in a
        ZeroDivisionError, or in divide-by-zero warnings. The bounded
        estimator of ``consistency`` needs no AF gain: at sigma=1e-200 it
        inverts finite thetas. A sensor scale of 1e200 lies beyond a noise
        model's scale range, and the setup rejects it at ``sigmas.sigma``
        (the bounded estimator ended in exit 3: its flat response could
        not reach the targets)."""
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

    def test_huge_power_budget_detects_without_warnings(self, tmp_path):
        """P_T = 1e308 is accepted, but P_T L overflowed in the detector's
        scale: its means were inf, the llr warned, and Pe came out near 1/2.
        The same run at P_T = 1e8 gives Pe 0 and 1e-4."""
        out = tmp_path / "x.csv"
        args = ["run", "fig5", "--out", str(out)]
        for ov in ("trials=20000", 'omega_grid={"lo":0.5,"hi":1.0,"points":2}', "total_power=1e308"):
            args += ["--set", ov]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(args) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        header, rows = read_csv(str(out))
        assert len(rows) == 2
        assert all(float(row[header.index("pe")]) <= 1e-3 for row in rows)

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

    @pytest.mark.parametrize(
        "preset, overrides, hypothesis",
        [
            ("fig5", ["trials=1000", "priors=[0.9995,0.0005]"], "H1"),
            ("fig5", ["trials=1"], "H0"),
            ("fig6", ["trials=1", "L_values=[2]"], "H0"),
        ],
    )
    def test_stratified_run_without_trials_of_a_hypothesis_exits_2(self, tmp_path, capsys, preset, overrides, hypothesis):
        """A stratified run gives H0 round(P0 * trials) trials. At none or all
        of them, the missing hypothesis's error rate was taken as 0, so Pe
        and its stderr read 0 at every point."""
        code, err = self._fails(tmp_path, capsys, preset, "stratified=true", *overrides)
        assert code == 2
        assert err.startswith("config error at trials: ")
        assert f"gives {hypothesis} no trials" in err

    def test_run_out_of_memory_exits_3(self, tmp_path):
        """A trial count whose arrays cannot be allocated ended in numpy's
        _ArrayMemoryError traceback (exit 1). The child caps its address
        space at 3 GiB first, so the 8 TB request fails at once and no
        memory of the host is filled."""
        out = str(tmp_path / "x.csv")
        script = f"""import resource, sys
sys.path.insert(0, {str(SRC)!r})
from macfusion import cli
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
args = ["run", "consistency", "--set", "trials=1000000000000", "--set", "L_values=[5]", "--workers", "1"]
sys.exit(cli.main(args + ["--out", {out!r}]))
"""
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("out of memory in consistency: ")
        assert "Traceback" not in result.stderr
        assert not os.path.exists(out)

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

    # The smallest runs of the three presets: two omegas, or one trial at L = 2 and 3.
    TINY = {
        "fig5": ['omega_grid={"lo":1,"hi":2,"points":2}'],
        "theorem3": ["trials=1", "L_values=[2,3]"],
        "cauchy-af": ["trials=1", "L_values=[2,3]"],
    }

    @pytest.mark.parametrize(
        "preset, kind, scale",
        [
            ("fig5", "cauchy", "1e-300"),
            ("theorem3", "cauchy", "1e-300"),
            ("fig5", "cauchy", "1e300"),
            ("theorem3", "cauchy", "1e308"),
            ("theorem3", "laplacian", "1e308"),
            ("cauchy-af", "gaussian", "1e308"),
        ],
    )
    def test_extreme_noise_scale_exits_2(self, tmp_path, capsys, preset, kind, scale):
        """A Cauchy scale of 1e-300 ended in "-inf + inf in fsum" (its
        squared scale underflows in the density) and one of 1e300 in
        "detector variances must be positive"; scales of 1e308 wrote
        h_gap = nan or raised overflow RuntimeWarnings: their tail
        truncation points overflow. The scale's range rejects them all."""
        noise_cfg = f'noise={{"kind":"{kind}","scale":{scale}}}'
        code, err = self._fails(tmp_path, capsys, preset, noise_cfg, *self.TINY[preset])
        assert code == 2
        assert err.startswith("config error at noise.scale: noise scale must lie in [1e-100, 1e+100]")

    @pytest.mark.parametrize(
        "preset, overrides, field",
        [
            ("consistency", ['sigmas={"kind":"sqrt_growth","sigma":1e300}'], "sigmas.sigma"),
            ("consistency", ['sigmas={"kind":"sqrt_growth","sigma":1e200}'], "sigmas.sigma"),
            # sigma * sqrt(L) = 1e100 * sqrt(4) at the largest sensor.
            ("consistency", ['sigmas={"kind":"sqrt_growth","sigma":1e100}'], "sigmas.sigma"),
            (
                "consistency",
                ['sigmas={"kind":"constant","sigma":1e60}', 'noise={"kind":"cauchy","scale":1e50}'],
                "sigmas.sigma",
            ),
            ("fig2", ["L=3", 'sigmas={"kind":"explicit_list","values":[1,2,1e101]}'], "sigmas.values"),
        ],
        ids=["sqrt-1e300", "sqrt-1e200", "sqrt-1e100", "constant-times-scale", "explicit"],
    )
    def test_sensor_noise_scale_beyond_the_scale_range_exits_2(self, tmp_path, capsys, preset, overrides, field):
        """sigma_i * noise.scale above 1e100 ended in an overflow warning and a
        misleading exit 3 ("no theta above -1e18 brings h below the target");
        the largest sensor scale now has the range of a noise model's scale."""
        size = ['omega_grid={"lo":1,"hi":2,"points":2}'] if preset == "fig2" else ["L_values=[4]"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self._fails(tmp_path, capsys, preset, "trials=5", *size, *overrides)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 2
        assert err.startswith(f"config error at {field}: sigma_i * noise.scale must be at most 1e+100")

    def test_tiny_sensor_noise_scale_still_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        args = ["run", "consistency", "--out", str(out), "--set", "trials=5", "--set", "L_values=[4]"]
        assert _run(args + ["--set", 'sigmas={"kind":"sqrt_growth","sigma":1e-300}']) == 0
        assert out.exists()

    @pytest.mark.parametrize("preset, mass", [("fig5", "1e-310"), ("fig5", "1e-200"), ("theorem3", "1e-200")])
    def test_tail_truncation_beyond_the_float_range_exits_3(self, tmp_path, capsys, preset, mass):
        """Inside the scale's range a small enough tail mass still puts the
        Cauchy truncation point at inf (1e-310) or past the square root of
        the largest float (1e-200)."""
        overrides = ['noise={"kind":"cauchy","scale":1}', f'quadrature={{"tail_mass":{mass}}}', *self.TINY[preset]]
        code, err = self._fails(tmp_path, capsys, preset, *overrides)
        assert code == 3
        assert "tail truncation point" in err and "has no finite square" in err

    @pytest.mark.parametrize("var", ["1e-300", "1e300"])
    def test_channel_noise_variance_beyond_the_scale_range_exits_2(self, tmp_path, capsys, var):
        """Its square root is the scale of the channel's noise model."""
        code, err = self._fails(tmp_path, capsys, "fig5", f"channel_noise_var={var}", *self.TINY["fig5"])
        assert code == 2
        assert err.startswith("config error at config.channel_noise_var: channel_noise_var must lie in")

    @pytest.mark.parametrize(
        "override, field",
        [
            ("kind={}", "kind"),
            ('noise={"kind":{},"scale":1.0}', "noise.kind"),
            ('transmit={"kind":[],"omega":1.0}', "transmit.kind"),
            ('sigmas={"kind":null,"sigma":1.0}', "sigmas.kind"),
        ],
    )
    def test_kind_that_is_not_a_string_exits_2(self, tmp_path, capsys, override, field):
        """A kind of the wrong type is a shape error, like any other wrong type."""
        code, err = self._fails(tmp_path, capsys, "fig5", override, *self.TINY["fig5"])
        assert code == 2
        assert err.startswith(f"config error at {field}: expected a string, got ")


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

    def test_names_the_failing_band(self, tmp_path, capsys, monkeypatch):
        """Under sqrt-growth sigma the first band, sigma = 1 .. 4, fails."""
        fixed_mesh_nodes = est.fixed_mesh_nodes

        def perturbed(edges):
            nodes, weights = fixed_mesh_nodes(edges)
            return nodes, weights * (1.0 + 1e-6)

        monkeypatch.setattr(est, "fixed_mesh_nodes", perturbed)
        args = ["run", "cauchy-af", "--out", str(tmp_path / "x.csv"), "--set", "trials=20", "--set", "L_values=[20]"]
        code = _run(args + ["--set", 'sigmas={"kind":"sqrt_growth","sigma":1.0}'])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "flat response mesh failed validation at sigma in [1.0, 4.0]: worst check at theta=" in err


class TestSigmaBandCost:
    def test_sqrt_growth_consistency_evaluates_few_theta_nodes(self, tmp_path, monkeypatch):
        """One flat-response mesh per sigma band: about 1.6e6 theta-node
        products over the whole run, where one mesh per distinct sigma put
        about 4e5 nodes behind every evaluation at L=1000 (3.3e8 in all)."""
        evaluate, products = kernels.eval_response, []

        def counting(nodes, weights, f, thetas):
            products.append(np.size(thetas) * nodes.size)
            return evaluate(nodes, weights, f, thetas)

        monkeypatch.setattr(kernels, "eval_response", counting)
        args = ["run", "consistency", "--out", str(tmp_path / "x.csv"), "--set", "trials=200"]
        args += ["--set", "L_values=[100,1000]", "--set", 'sigmas={"kind":"sqrt_growth","sigma":1.0}']
        assert _run(args) == 0
        assert 0 < sum(products) <= 2e7


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
