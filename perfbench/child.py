"""One timed macfusion run in a fresh interpreter.

Usage: python3 perfbench/child.py '<json job>'

The job names the checkout's source directory, the preset and its
``--set`` overrides, the worker count, the CSV path, whether to trace, and
the parent's monotonic clock reading just before it spawned this process.
The run goes through the real CLI path (``cli.load_config`` then
``cli.run_config``). The result is written as JSON to
``<csv>.result.json``; a traced run also writes its raw spans to
``<csv>.spans.jsonl.gz``.
"""

from __future__ import annotations

import gzip
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment(kernels) -> dict:
    """Library versions and thread settings that the timings depend on."""
    import importlib.util
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_record = {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        blas_record = {"error": repr(exc)}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.get_backend(),
        "blas": blas_record,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(job: dict) -> dict:
    import_start = time.perf_counter()
    from macfusion import cli, kernels

    import_s = time.perf_counter() - import_start
    source = os.path.realpath(cli.__file__)
    if not source.startswith(os.path.realpath(job["src"]) + os.sep):
        raise RuntimeError(f"macfusion imported from {source}, not from {job['src']}")

    cfg = cli.load_config(job["preset"], job["overrides"])
    cli.validate_common(cfg)
    setup_s = time.monotonic() - job["spawned"]

    recorder = None
    if job["trace"]:
        import tracer as tracing

        recorder = tracing.Tracer()
        unbound = tracing.instrument(recorder)

    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    cli.run_config(cfg, workers=job["workers"], out_path=job["csv"])
    run_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(kernels),
    }
    if recorder is not None:
        spans = recorder.spans()
        result["totals"] = tracing.run_totals(spans, recorder.counts(), job["workers"])
        result["unbound_sites"] = unbound
        with gzip.open(job["csv"] + ".spans.jsonl.gz", "wt", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = main(job)
    with open(job["csv"] + ".result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
