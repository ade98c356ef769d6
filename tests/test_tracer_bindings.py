"""The benchmark's tracer still finds every function it wraps, and counts
their work.

``perfbench/tracer.py`` patches macfusion's functions at each module that
binds them; a refactor that renames or unbinds one of them would silently
drop its spans from the benchmark. ``instrument`` returns the binding
sites it could not find, so that list must stay empty. Its hooks read the
arguments and results of the wrapped functions, so two small instrumented
runs must also report the exact counts of their work.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_instrument_finds_every_binding_site():
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    script = f"import sys\nsys.path[:0] = {paths!r}\nimport tracer\nprint(tracer.instrument(tracer.Tracer()))\n"
    result = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Per-layer counts that two small runs must produce: fig4 runs 3 curves x 2
# omegas and inverts 40 targets at each point, each trial a row of L=500
# sensor uniforms and one channel uniform; fig5 runs 4 omegas of 2000
# trials each, a row of one hypothesis, 20 sensor and one channel uniform.
COUNT_RUNS = [
    (
        "fig4",
        ["trials=40", "omega_grid.points=2"],
        {
            "harness.experiments": 6,
            "kernels.invert.targets": 240,
            "estimation.inverted": 240,
            "kernels.channel_sums.elems": 6 * 40 * 500,
            "numerics.uniforms.values": 6 * 40 * 501,
        },
    ),
    (
        "fig5",
        ["trials=2000", "omega_grid.points=4"],
        {
            "harness.experiments": 4,
            "detection.simulate.trials": 8000,
            "kernels.channel_sums.elems": 4 * 2000 * 20,
            "numerics.uniforms.values": 4 * 2000 * 22,
        },
    ),
]


def test_instrumented_runs_count_their_work(tmp_path):
    """A changed return type or argument position at a wrapped function
    would zero or skew a per-layer metric; each run's counts must match."""
    paths = [str(ROOT / "perfbench"), str(ROOT / "src")]
    runs = [(preset, overrides, str(tmp_path / f"{preset}.csv")) for preset, overrides, _ in COUNT_RUNS]
    script = f"""import json, sys
sys.path[:0] = {paths!r}
import tracer
from macfusion import cli
recorder = tracer.Tracer()
assert tracer.instrument(recorder) == []
totals = []
for preset, overrides, csv in {runs!r}:
    cli.run_config(cli.load_config(preset, overrides), workers=1, out_path=csv)
    run = tracer.run_totals(recorder.spans(), recorder.counts(), 1)
    totals.append({{**run, **tracer.layer_metrics(run)}})
print(json.dumps(totals))
"""
    result = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    cumulative = json.loads(result.stdout)
    # The recorder accumulates over both runs; the second run's counts are the difference.
    for k, (preset, _, expected) in enumerate(COUNT_RUNS):
        got = {key: cumulative[k].get(key, 0) - (cumulative[k - 1].get(key, 0) if k else 0) for key in expected}
        assert got == expected, preset
