#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload paper_matrix --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload's untraced, traced and call-counting
phases and reports the per-layer metrics (and writes a Chrome trace to
``.perfbench_out/``). Report lines go to stdout; the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("paper_matrix", "wss_sweep", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        outcome = workload.traced(args.seed)
    else:
        outcome = workload.timed(args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for line in outcome.lines:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(outcome.json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
