"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` patches macfusion's functions at each module that
binds them; a refactor that renames or unbinds one of them would silently
drop its spans from the benchmark. ``instrument`` returns the binding
sites it could not find, so that list must stay empty.
"""

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
