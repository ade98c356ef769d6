"""A fixed reference run that gauges the host's current speed.

The shared host this benchmark runs on changes speed by a quarter or more
over minutes, and every part of a run (interpreter start, imports, the
program itself) slows down together. ``run.py`` therefore times, between
children, a fresh interpreter that imports numpy, scipy.special and
scipy.optimize, and reports the program's times as multiples of the mean
of these reference times. The reference never imports macfusion, so a
change to the program cannot move it. Its work (starting an interpreter,
loading extension modules, running module code) is the kind of work a
child does before ``run_config``, and over a run its time follows the
child's ``run_config`` time closely, where a numerical loop in the
benchmark's own process did not.

Usage: python3 perfbench/calibrate.py   # prints a few reference times
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_CODE = "import numpy, scipy.special, scipy.optimize"


def reference_seconds(cwd: str | None = None, timeout: float = 60.0) -> float:
    """Seconds from spawning the reference interpreter to the end of its imports.

    The interpreter reads the end from the same monotonic clock, so the
    time does not depend on how soon this process notices that it exited.
    Raises ``subprocess.CalledProcessError``, ``subprocess.TimeoutExpired``
    (after killing and reaping the interpreter) or ``ValueError``.
    """
    spawned = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", f"{REFERENCE_CODE}\nimport time\nprint(repr(time.monotonic()))"],
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        timeout=timeout,
        text=True,
    ).stdout
    return float(out) - spawned


if __name__ == "__main__":
    print(" ".join(f"{reference_seconds():.4f}" for _ in range(10)))
