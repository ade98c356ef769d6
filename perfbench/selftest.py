#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage: python3 perfbench/selftest.py

1. Self-time arithmetic: spans on two threads, where a root span on one
   thread overlaps a parent on the other, must not be subtracted from
   each other's parents.
2. The correctness gate rejects a changed header, a lost row, a NaN and
   a cell moved by more than the tolerance, and accepts a last-digit move.
3. A smoke run of every workload part at its small size, at 1 and 2 workers
   and traced, through the correctness gate. Tracing must not change a
   byte of the CSV.
4. One short run of ``run.py`` with ``--trace 0`` and ``--trace 1`` prints
   exactly the metrics, with the units, that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import run
import tracer


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_self_time() -> None:
    recorder = tracer.Tracer()
    both_open = threading.Barrier(2)
    b_done = threading.Barrier(2)

    def thread_a():
        parent = recorder.enter("a.parent")
        child = recorder.enter("a.child")
        both_open.wait()
        time.sleep(0.02)
        recorder.exit(child)
        b_done.wait()
        recorder.exit(parent)

    def thread_b():
        both_open.wait()
        root = recorder.enter("b.root")
        child = recorder.enter("b.child")
        time.sleep(0.03)
        recorder.exit(child)
        recorder.exit(root)
        b_done.wait()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        require(not thread.is_alive(), "tracer test thread did not finish")

    spans = {name: (sid, start, end, parent, ident) for sid, name, start, end, parent, ident in recorder.spans()}
    dur = {name: end - start for name, (_, start, end, _, _) in spans.items()}
    require(spans["b.root"][3] is None, "a root span on a second thread got a parent from the first")
    require(spans["b.child"][3] == spans["b.root"][0], "child span lost its parent")
    require(spans["a.parent"][4] != spans["b.root"][4], "spans of two threads share a thread id")
    stats = tracer.span_stats(recorder.spans())
    for parent, child in (("a.parent", "a.child"), ("b.root", "b.child")):
        want = dur[parent] - dur[child]
        require(abs(stats[parent]["self_s"] - want) < 1e-9, f"self time of {parent} is {stats[parent]['self_s']}, want {want}")

    # A CLI span on thread 1 with one child, and worker roots on threads 2
    # and 3 that overlap it and each other.
    synthetic = [
        (1, "cli.run", 0.0, 10.0, None, 1),
        (2, "harness.experiment", 1.0, 3.0, 1, 1),
        (3, "harness.experiment", 2.0, 6.0, None, 2),
        (4, "detection.simulate", 2.5, 5.0, 3, 2),
        (5, "harness.experiment", 5.0, 9.0, None, 3),
    ]
    stats = tracer.span_stats(synthetic)
    require(stats["cli.run"]["self_s"] == 8.0, "cli.run self time took a child from another thread")
    require(stats["harness.experiment"]["self_s"] == 2.0 + 1.5 + 4.0, "worker self times wrong")
    layers = tracer.layer_metrics(tracer.run_totals(synthetic, {}, workers=2))
    require(layers["cli.self_s"] == 2.0, f"cli.self_s is {layers['cli.self_s']}, want 2.0 (outside every layer span)")
    require(layers["cli.worker_busy_ratio"] == 0.5, f"worker_busy_ratio is {layers['cli.worker_busy_ratio']}, want 0.5")
    print("self-time arithmetic: ok")


def check_gate(tmp: str, reference: dict) -> None:
    path = os.path.join(tmp, "gate.csv")

    def problems(header, rows):
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows([header, *rows])
        return run.check_csv(path, reference)

    header = reference["header"]
    rows = [[cell if isinstance(cell, str) else repr(cell) for cell in row] for row in reference["rows"]]
    column = next(i for i, cell in enumerate(reference["rows"][0]) if not isinstance(cell, str) and cell != 0.0)
    value = reference["rows"][0][column]

    def moved(factor):
        changed = [row[:] for row in rows]
        changed[0][column] = repr(value * factor)
        return changed

    nan_row = [row[:] for row in rows]
    nan_row[0][column] = "nan"
    require(problems(header, rows) == [], "the reference itself fails the gate")
    require(problems(header, moved(1 + 1e-9)) == [], "a last-digit move failed the gate")
    require(problems(header, moved(1 + 1e-5)) != [], "a 1e-5 relative change passed the gate")
    require(problems(header, nan_row) != [], "a NaN passed the gate")
    require(problems(header, rows[:-1]) != [], "a lost row passed the gate")
    require(problems([*header[:-1], "other"], rows) != [], "a changed header passed the gate")
    print("correctness gate: ok")


def smoke(tmp: str, references: dict) -> None:
    for name, part in run.PARTS.items():
        reference = references[name]["tiny"]
        shas = set()
        for tag, workers, trace in (("w1", 1, False), ("w2", 2, False), ("traced", None, True)):
            result = run.run_child(tmp, f"{name}-{tag}", part, part.seed, workers=workers, trace=trace, tiny=True)
            problems = run.check_csv(result["csv"], reference)
            require(problems == [], f"{name} ({tag}): {problems[:3]}")
            shas.add(result["sha256"])
        require(len(shas) == 1, f"{name}: CSV bytes differ between 1 and 2 workers or under tracing")
        identical = result["sha256"] == reference["sha256"]
        layers = tracer.layer_metrics(result["totals"])
        require(layers["harness.experiments"] > 0, f"{name}: the traced run recorded no experiment")
        require(not result["unbound_sites"], f"{name}: binding sites missing: {result['unbound_sites']}")
        print(f"smoke {name}: ok (csv_identical {str(identical).lower()})")


def check_contract() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workload = bench["workloads"][-1]["name"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload]
        command += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        require(proc.returncode == 0, f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-300:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
        require(result["correct"] and result["failed"] == 0, f"run.py --trace {trace} was not correct")
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        want = {metric["name"]: metric["unit"] for metric in bench[section]}
        require(got == want, f"--trace {trace} metrics differ from BENCHMARK.json {section}: {set(got) ^ set(want)}")
    print("output contract: ok")


def main() -> int:
    check_self_time()
    references = run.load_references()
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        check_gate(tmp, references["detect-mc"]["full"])
        smoke(tmp, references)
    check_contract()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
