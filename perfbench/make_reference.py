#!/usr/bin/env python3
"""Pin the reference CSVs of the benchmark workloads.

Usage: python3 perfbench/make_reference.py

Runs every workload part of ``run.py``, at full and at smoke size, at the
preset's own seed with 1 and with 2 workers. The two CSVs must be byte
identical; the result is written to ``perfbench/reference.json`` as the
CSV's SHA-256 plus its parsed cells. Only rerun this when a change to the
program is meant to change its output, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def main() -> int:
    references = {}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, part in run.PARTS.items():
            references[name] = {}
            for size, tiny in (("full", False), ("tiny", True)):
                shas = set()
                for workers in (1, 2):
                    result = run.run_child(tmp, f"{name}-{size}-{workers}", part, part.seed, workers=workers, tiny=tiny)
                    shas.add(result["sha256"])
                if len(shas) != 1:
                    print(f"{name} ({size}): CSV depends on the worker count", file=sys.stderr)
                    return 1
                header, rows = run.read_csv(result["csv"])
                references[name][size] = {
                    "overrides": run.overrides(part, part.seed, tiny),
                    "sha256": result["sha256"],
                    "workers_checked": [1, 2],
                    "header": header,
                    "rows": [[run.parse_cell(cell) for cell in row] for row in rows],
                }
                print(f"{name} ({size}): {result['sha256']} at 1 and 2 workers")
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(references, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
