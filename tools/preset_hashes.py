#!/usr/bin/env python3
"""Run the built-in presets at full size and check their CSV bytes.

Usage:
    python tools/preset_hashes.py [--workers N [N ...]] [--presets NAME [NAME ...]]

Run it from anywhere; it runs ``python -W error::RuntimeWarning -m
macfusion run <preset>`` with ``src/`` of this checkout first on
``PYTHONPATH``, once per preset and worker count, so a numpy overflow or
invalid-value warning fails the run as it fails a test, and compares the
SHA-256 of each CSV with the hash pinned in ``CHANGES.md``: for each
preset, the last ``<preset> <64 hex digits>`` pair in that file, so the
latest entry that re-pins a preset wins. Prints one line per run, with its wall
seconds, and its CPU seconds (user plus system), peak RSS, minor page
faults and voluntary context switches (from ``os.wait4``; at two workers
most of the switches are threads waiting for the GIL), then a table of
each preset's hash with its wall seconds at every worker count and the
total per worker count, so the end-to-end times of all presets come with
the hash check. Exits 0 if every hash matches, 1 on any mismatch and 2 if
a preset has no pinned hash or a run fails (a run that warns included; its
stderr is printed). The full set takes a few minutes per worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHANGES = os.path.join(ROOT, "CHANGES.md")


def pinned_hashes(presets, path=CHANGES) -> dict:
    """The last hash given for each preset in ``path``."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    names = "|".join(re.escape(name) for name in presets)
    return dict(re.findall(rf"(?<![\w-])({names}) ([0-9a-f]{{64}})\b", text))


def run_preset(name: str, workers: int, out_dir: str) -> tuple[str | None, float, float, float, int, int]:
    """(SHA-256 of the CSV or None if the run failed, wall seconds, CPU
    seconds, peak RSS in MB, minor page faults, voluntary context
    switches); the last four come from ``os.wait4``."""
    out = os.path.join(out_dir, f"{name}-w{workers}.csv")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("MACFUSION_SEED", None)
    with tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "macfusion", "run", name, "--workers", str(workers), "--out", out],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        # wait4 reaped the child; its status tells Popen not to wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu_s = usage.ru_utime + usage.ru_stime
        peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if proc.returncode != 0:
            stderr.seek(0)
            sys.stderr.write(stderr.read().decode(errors="replace"))
            return None, elapsed, cpu_s, peak_mb, usage.ru_minflt, usage.ru_nvcsw
    with open(out, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest(), elapsed, cpu_s, peak_mb, usage.ru_minflt, usage.ru_nvcsw


def summary(presets, worker_counts, results) -> list[str]:
    """Table lines: per preset its wall seconds at each worker count and its
    hash, then the total seconds per worker count. ``results`` maps
    (preset, workers) to (digest or None, seconds)."""
    lines = [f"{'preset':12s}" + "".join(f"{f'workers={w}':>12s}" for w in worker_counts) + "  sha256"]
    for name in presets:
        digests = {results[name, w][0] for w in worker_counts}
        digest = digests.pop() if len(digests) == 1 else "differs between worker counts"
        cells = "".join(f"{results[name, w][1]:10.1f} s" for w in worker_counts)
        lines.append(f"{name:12s}{cells}  {digest or '-'}")
    totals = "".join(f"{sum(results[name, w][1] for name in presets):10.1f} s" for w in worker_counts)
    lines.append(f"{'total':12s}{totals}")
    return lines


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    from macfusion.cli import PRESETS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2], help="worker counts to run each preset at")
    parser.add_argument("--presets", nargs="+", choices=list(PRESETS), default=list(PRESETS))
    args = parser.parse_args(argv)

    pinned = pinned_hashes(PRESETS)
    missing = [name for name in args.presets if name not in pinned]
    if missing:
        print(f"no pinned hash in CHANGES.md for: {', '.join(missing)}", file=sys.stderr)
        return 2
    status = 0
    results = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for workers in args.workers:
            for name in args.presets:
                digest, elapsed, cpu_s, peak_mb, faults, switches = run_preset(name, workers, out_dir)
                results[name, workers] = digest, elapsed
                if digest is None:
                    verdict, status = "FAILED RUN", max(status, 2)
                elif digest != pinned[name]:
                    verdict, status = "MISMATCH", max(status, 1)
                else:
                    verdict = "ok"
                print(
                    f"{name:12s} workers={workers}  {elapsed:7.1f} s  {cpu_s:7.1f} s cpu  {peak_mb:6.1f} MB  {faults:8d} minflt  {switches:7d} nvcsw"
                    f"  {digest or '-'}  {verdict}",
                    flush=True,
                )
    print("\n".join(["", *summary(args.presets, args.workers, results), ""]))
    print("all hashes match" if status == 0 else "hash check failed")
    return status


if __name__ == "__main__":
    sys.exit(main())
