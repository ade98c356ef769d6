#!/usr/bin/env python3
"""The macfusion benchmark: CLI workloads, end-to-end metrics, traced layers.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports macfusion from ``src/``.
A workload is a list of parts, each a preset with ``--set`` overrides. One
sample of a workload runs every part once, each in a fresh child
interpreter that goes through the real CLI path (``cli.load_config`` then
``cli.run_config``): the package memoizes quadratures for the life of a
process, and a CLI user pays the cold cost on every call. Per part the
benchmark

* runs one warm-up child at the preset's own seed, whose timings are
  discarded and whose CSV is checked cell by cell against the pinned
  reference in ``reference.json`` (``csv_identical`` says whether it also
  matched byte for byte);
* then runs children with ``master_seed = --seed`` until ``--seconds``
  have passed. Their CSVs must agree with each other byte for byte, and
  with the reference in every column that does not depend on the seed.

With ``--trace 0`` it reports the medians over samples of ``setup_s``
(summed over the parts of a sample) and of ``peak_rss_mb`` (their
maximum), and ``run_rel`` and ``cpu_rel``: the median ``run_s`` and
``cpu_s`` (summed over the parts) divided by the time of the reference
interpreter of ``calibrate.py``, timed between children (the mean without
the highest and the lowest), because the host's speed drifts by a quarter
within minutes. With ``--trace 1`` it alternates untraced and traced
samples and reports the per-layer metrics of ``tracer.py``.
``--workload all`` (the default) interleaves every workload round-robin,
because this kind of shared machine drifts within minutes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file
with the environment and every sample goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import calibrate
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

# Largest relative difference between a cell and its reference. It lets a
# quadrature refactor move the last of the 12 printed digits but catches a
# wrong estimator.
REL_TOL = 1e-6
# A run must end within 180 s; stop starting children well before.
RUN_BUDGET_S = 170.0
# Least time between two runs of the reference interpreter (calibrate.py),
# which takes about as long as a child's set-up.
REFERENCE_EVERY_S = 3.0


class Part(NamedTuple):
    preset: str
    seed: int  # the preset's own master_seed, at which the reference is pinned
    overrides: dict  # --set overrides on top of the preset
    workers: int
    fixed_columns: tuple  # CSV columns whose values do not depend on the seed
    tiny: dict  # further overrides for the smoke size used by selftest.py


PARTS = {
    # Monte Carlo detection: uniforms, noise transform, channel sums and
    # decisions; the only part that fans points out over threads.
    "detect-mc": Part(
        "fig5", 20254, {"trials": 60000}, 2, ("omega", "dc", "trials"),
        {"trials": 2000, "omega_grid.points": 4},
    ),
    # Estimation by inverting the frozen mean response: the batched
    # inversion kernel and the flat-response mesh build.
    "estimate-invert": Part(
        "fig4", 20253, {"trials": 400, "omega_grid.points": 4}, 1, ("function", "omega", "asv", "trials"),
        {"trials": 40, "omega_grid.points": 3},
    ),
    # sqrt(i)-growth sigmas: thousands of scalar adaptive quadratures in the
    # per-sigma loop of mean_response; little Monte Carlo, no inversion.
    "moment-quad": Part(
        "theorem3", 20256, {"trials": 200, "L_values": [100, 1000, 2000]}, 1, ("L", "h_gap", "trials"),
        {"trials": 20, "L_values": [10, 50]},
    ),
    # Cauchy noise at L up to 1e5: draw blocks of trials x (L+1) doubles set
    # peak memory, and af_compare draws every stream twice.
    "heavy-tail-large-L": Part(
        "cauchy-af", 20257, {"trials": 100, "L_values": [1000, 10000, 100000]}, 1, ("L", "trials"),
        {"trials": 20, "L_values": [100, 1000]},
    ),
}

# The host's speed drifts by up to a quarter over minutes, so a run must be
# long to give a steady median, and the time of a regression check allows
# only two long workloads. The three estimation parts therefore form one
# workload: a sample is the three CLI commands run one after another.
WORKLOADS = {
    "detect-mc": ("detect-mc",),
    "estimation": ("estimate-invert", "moment-quad", "heavy-tail-large-L"),
}

END_TO_END = {"run_rel": "ratio", "setup_s": "s", "cpu_rel": "ratio", "peak_rss_mb": "MB"}
# Medians in seconds that are printed and saved but left out of the result
# line: the host's speed moves them by a quarter within minutes.
ABSOLUTE = ("run_s", "cpu_s", "ref_s")

# Modules whose cumulative import time (python -X importtime) is reported.
IMPORTS = ("numpy", "scipy.special", "scipy.optimize", "macfusion.noise", "macfusion.numerics", "macfusion.cli")


class ChildFailure(Exception):
    """A child run exited nonzero, timed out, or wrote a wrong CSV."""


def overrides(part: Part, seed: int, tiny: bool) -> list[str]:
    values = dict(part.overrides)
    if tiny:
        values.update(part.tiny)
    values["master_seed"] = seed
    return [f"{key}={json.dumps(value)}" for key, value in values.items()]


def child_env() -> dict:
    # The user's environment, BLAS thread settings included: the CPU time
    # of the inversion part depends on them.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(run_dir, tag, part, seed, *, workers=None, trace=False, tiny=False, timeout=120.0) -> dict:
    """Run one part in a fresh interpreter; returns its result record."""
    csv_path = os.path.join(run_dir, tag + ".csv")
    job = {
        "src": SRC,
        "preset": part.preset,
        "overrides": overrides(part, seed, tiny),
        "workers": workers or part.workers,
        "csv": csv_path,
        "trace": trace,
    }
    job["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(job)],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailure(f"{tag}: timed out after {timeout:.0f}s")
    except BaseException:
        # Interrupted or terminated: leave no child behind.
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise ChildFailure(f"{tag}: exit code {proc.returncode}: {tail}")
    try:
        with open(csv_path + ".result.json", encoding="utf-8") as f:
            result = json.load(f)
        result["sha256"] = sha256(csv_path)
    except (OSError, ValueError) as exc:
        raise ChildFailure(f"{tag}: no result: {exc}") from exc
    result["csv"] = csv_path
    return result


def import_times(run_dir) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import macfusion.cli"],
        cwd=run_dir,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise ChildFailure(f"importtime: exit code {proc.returncode}")
    times = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            times[parts[2].strip()] = int(parts[1]) / 1e6
    return times


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def parse_cell(text: str):
    """A CSV cell as stored in the reference: float if numeric, else text."""
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def cell_problem(got: str, ref) -> str | None:
    """Why a cell fails against its reference value, or None."""
    if isinstance(ref, str):
        # Text, or a non-finite number as printed ("nan", "inf").
        return None if got == ref else f"{got!r} where the reference has {ref!r}"
    value = parse_cell(got)
    if isinstance(value, str):
        return f"{got!r} is not a finite number (reference {ref!r})"
    if abs(value - ref) > REL_TOL * max(abs(value), abs(ref)):
        return f"{got!r} differs from the reference {ref!r} by more than {REL_TOL:g} relative"
    return None


def finiteness_problem(got: str, ref) -> str | None:
    """For seed-dependent cells: finite exactly where the reference is."""
    if isinstance(ref, str):
        return cell_problem(got, ref)
    if isinstance(parse_cell(got), str):
        return f"{got!r} is not a finite number (reference {ref!r})"
    return None


def check_csv(path, ref: dict, columns=None) -> list[str]:
    """Problems of a CSV against its reference; [] when it passes.

    ``columns`` limits the value comparison to those columns; every other
    cell must still be finite exactly where the reference is finite.
    """
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    if header != ref["header"]:
        return [f"header {header} differs from the reference {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows where the reference has {len(ref['rows'])}"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
        if len(row) != len(ref_row):
            problems.append(f"row {i + 1}: {len(row)} cells where the reference has {len(ref_row)}")
            continue
        for name, got, want in zip(header, row, ref_row):
            if columns is None or name in columns:
                problem = cell_problem(got, want)
            else:
                problem = finiteness_problem(got, want)
            if problem:
                problems.append(f"row {i + 1}, column {name}: {problem}")
    return problems


def load_references() -> dict:
    """Pinned reference CSVs; stale ones (other overrides) are refused."""
    with open(REFERENCE, encoding="utf-8") as f:
        references = json.load(f)
    for name, part in PARTS.items():
        for size, tiny in (("full", False), ("tiny", True)):
            pinned = references.get(name, {}).get(size)
            if pinned is None or pinned["overrides"] != overrides(part, part.seed, tiny):
                raise ValueError(f"{REFERENCE} has no current {size} reference for {name}; run perfbench/make_reference.py")
    return references


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def layer_unit(metric: str) -> str:
    if ".ns_per_" in metric:
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("ratio", "per_wall", "per_point")):
        return "ratio"
    return "count"


def combine(results: list) -> dict:
    """One sample of a workload from the child results of its parts."""
    sample = {
        "run_s": sum(r["run_s"] for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "import_s": sum(r["import_s"] for r in results),
    }
    if "totals" in results[0]:
        sample["layers"] = tracer.layer_metrics(tracer.merge_totals(r["totals"] for r in results))
    return sample


class Measurement:
    """Samples of a set of workloads, with their correctness record."""

    def __init__(self, names, run_dir, references, deadline):
        self.names = names
        self.run_dir = run_dir
        self.references = references
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.imports = {}
        self.ref_times = []
        self.last_reference = -math.inf
        self.parts = {part: {"warmup": None, "runs": [], "sha256": None} for name in names for part in WORKLOADS[name]}
        self.samples = {name: {"untraced": [], "traced": []} for name in names}

    def attempt(self, part, tag, seed, *, trace=False, pinned=False):
        """One checked child run; returns its record, or None if it failed."""
        self.attempted += 1
        record = self.parts[part]
        reference = self.references[part]["full"]
        try:
            result = run_child(self.run_dir, tag, PARTS[part], seed, trace=trace, timeout=self.deadline - time.monotonic())
            if pinned:
                problems = check_csv(result["csv"], reference)
            else:
                problems = check_csv(result["csv"], reference, PARTS[part].fixed_columns)
                record["sha256"] = record["sha256"] or result["sha256"]
                if result["sha256"] != record["sha256"]:
                    problems.append("CSV differs from an earlier run with the same seed")
            if problems:
                raise ChildFailure(f"{tag}: " + "; ".join(problems[:3]))
        except ChildFailure as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        if not pinned:
            record["runs"].append(result)
        return result

    def reference(self) -> None:
        """Time the reference interpreter of calibrate.py once."""
        self.attempted += 1
        try:
            timeout = max(self.deadline - time.monotonic(), 1.0)
            self.ref_times.append(calibrate.reference_seconds(self.run_dir, timeout=timeout))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
            self.failed += 1
            self.problems.append(f"reference interpreter: {exc}")
        self.last_reference = time.monotonic()

    def sample(self, name, cycle, seed, trace, calibrated):
        """Run every part of a workload once; keep the sample if all passed.

        With ``calibrated``, the reference interpreter is timed before a
        part whenever ``REFERENCE_EVERY_S`` have passed since its last run.
        """
        suffix = "-traced" if trace else ""
        results = []
        for part in WORKLOADS[name]:
            if calibrated and time.monotonic() - self.last_reference >= REFERENCE_EVERY_S:
                self.reference()
            results.append(self.attempt(part, f"{part}-{cycle}{suffix}", seed, trace=trace))
        if None not in results:
            self.samples[name]["traced" if trace else "untraced"].append(combine(results))

    def run(self, seed: int, seconds: float, trace: bool) -> None:
        for part, record in self.parts.items():
            warmup = self.attempt(part, f"{part}-warmup", PARTS[part].seed, pinned=True)
            record["warmup"] = warmup
            record["csv_identical"] = warmup is not None and warmup["sha256"] == self.references[part]["full"]["sha256"]
        if trace:
            self.attempted += 1
            try:
                self.imports = import_times(self.run_dir)
            except (ChildFailure, subprocess.TimeoutExpired) as exc:
                self.failed += 1
                self.problems.append(f"importtime: {exc}")
        start = time.monotonic()
        cycle = 0
        while True:
            cycle_start = time.monotonic()
            # Round-robin: each cycle samples every workload once, so drift
            # of the machine spreads over all of them alike.
            for name in self.names:
                # The end-to-end metrics of a traced run are not reported,
                # so it needs no reference times.
                self.sample(name, cycle, seed, trace=False, calibrated=not trace)
                if trace:
                    self.sample(name, cycle, seed, trace=True, calibrated=False)
            cycle += 1
            # Stop before a cycle that would end more than half a cycle past
            # the measuring time, so that on average the whole time is
            # measured; never start one that could pass the deadline.
            now = time.monotonic()
            cycle_s = now - cycle_start
            if now + cycle_s / 2 > start + seconds * len(self.names) or now + cycle_s > self.deadline:
                break

    def metrics(self, name: str, trace: bool) -> dict:
        """Medians over the samples of one workload, keyed by metric."""
        untraced = self.samples[name]["untraced"]
        if not trace:
            # Times in units of the reference time of the same run: the
            # host's drift cancels, a change to the program does not.
            run_s = statistics.median(s["run_s"] for s in untraced)
            cpu_s = statistics.median(s["cpu_s"] for s in untraced)
            ref_s = trimmed_mean(self.ref_times)
            return {
                "run_rel": run_s / ref_s,
                "setup_s": statistics.median(s["setup_s"] for s in untraced),
                "cpu_rel": cpu_s / ref_s,
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
                "run_s": run_s,
                "cpu_s": cpu_s,
                "ref_s": ref_s,
            }
        traced = self.samples[name]["traced"]
        out = {metric: statistics.median(s["layers"][metric] for s in traced) for metric in traced[0]["layers"]}
        out["cli.import_s"] = statistics.median(s["import_s"] for s in untraced + traced)
        for module in IMPORTS:
            out[f"import.{module}_s"] = self.imports.get(module, 0.0)
        out["trace.overhead_s"] = statistics.median(s["run_s"] for s in traced) - statistics.median(
            s["run_s"] for s in untraced
        )
        return out


def trimmed_mean(values) -> float:
    """Mean without the highest and the lowest value, if there are three.

    The reference interpreter runs only about ten times in a run; over so
    few times this follows the host better than their median does.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 3 else values)


def describe_env(env: dict) -> str:
    blas = env.get("blas", {})
    return (
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
        f"numba importable {env['numba_importable']}, kernel backend {env['kernel_backend']}, "
        f"BLAS {blas.get('name')} {blas.get('version')}, "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, OMP_NUM_THREADS={env['OMP_NUM_THREADS']}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="master_seed of the timed runs")
    parser.add_argument("--seconds", type=float, default=54.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "macfusion", "cli.py")):
        print(f"perfbench: no macfusion sources in {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        references = load_references()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir = os.path.join(OUT, run_id)
    os.makedirs(run_dir)
    measurement = Measurement(names, run_dir, references, time.monotonic() + RUN_BUDGET_S * len(names))
    measurement.run(args.seed, args.seconds, bool(args.trace))

    for problem in measurement.problems:
        print(f"FAILED {problem}")
    missing = [
        name
        for name in names
        if not measurement.samples[name]["untraced"]
        or (args.trace and not measurement.samples[name]["traced"])
        or (not args.trace and not measurement.ref_times)
    ]
    if missing:
        print(f"perfbench: no successful timed run of {', '.join(missing)}", file=sys.stderr)
        return 1

    metrics = {}
    env = None
    for name in names:
        samples = measurement.samples[name]
        values = measurement.metrics(name, bool(args.trace))
        count = len(samples["traced"] if args.trace else samples["untraced"])
        print(f"{name}: medians of {count} samples")
        for part in WORKLOADS[name]:
            record = measurement.parts[part]
            env = env or record["runs"][0]["env"]
            run_s = statistics.median(r["run_s"] for r in record["runs"] if "totals" not in r)
            print(f"  part {part:30s} run_s {run_s:9.4f} s; csv_identical {str(record['csv_identical']).lower()}")
        for metric, value in values.items():
            unit = layer_unit(metric) if args.trace else END_TO_END.get(metric, "s")
            print(f"  {metric:40s} {value:14.6g} {unit}")
            if metric not in ABSOLUTE or args.trace:
                metrics[metric if len(names) == 1 else f"{name}.{metric}"] = {"value": value, "unit": unit}
    print(f"runs: {measurement.failed} failed of {measurement.attempted} attempted")
    print(f"env: {describe_env(env)}")

    results_path = os.path.join(OUT, run_id + ".json")
    with open(results_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "args": vars(args),
                "env": env,
                "workloads": {name: {part: PARTS[part]._asdict() for part in WORKLOADS[name]} for name in names},
                "parts": measurement.parts,
                "samples": measurement.samples,
                "imports": measurement.imports,
                "ref_times": measurement.ref_times,
                "problems": measurement.problems,
                "metrics": metrics,
            },
            f,
            indent=1,
            sort_keys=True,
        )
    print(f"results: {os.path.relpath(results_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": measurement.failed == 0,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
