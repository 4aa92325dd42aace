#!/usr/bin/env python3
"""Correctness smoke over the repository benchmark (CI-blocking).

Runs ``perfbench/run.py --seed 1 --seconds 1 --trace 0`` for every
workload listed in ``BENCHMARK.json`` and fails unless each run's last
stdout line (its JSON result) reads ``"correct": true`` and
``"failed": 0``. The benchmark's own output checks decide correctness
(cells validated, digests repeatable, store rows, service answers);
timings are printed but never gated.

Usage, from anywhere::

    python tools/perfbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def check(workload: str) -> bool:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    print(f"[perfbench-smoke] $ {' '.join(cmd[1:])}", flush=True)
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = (proc.returncode == 0 and isinstance(result, dict)
          and result.get("correct") is True and result.get("failed") == 0)
    if ok:
        metrics = {name: m["value"]
                   for name, m in result["metrics"].items()}
        print(f"[perfbench-smoke] {workload}: correct, failed 0 "
              f"(attempted {result['attempted']}; untimed gate) {metrics}")
    else:
        print(f"[perfbench-smoke] {workload}: FAILED "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    return ok


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    results = [check(w["name"]) for w in spec["workloads"]]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
