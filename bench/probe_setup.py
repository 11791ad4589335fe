"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times the import of ``qtoda.cli`` and the building of one workload's
inputs, sampling the reference computation during both and three times
after, and prints the times and the median reference as one JSON line.

    python3 bench/probe_setup.py --workload equiv-A5 --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import workloads


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    importing, building = workloads.Clock(sample=True), workloads.Clock(sample=True)
    try:
        with importing:
            workloads.import_qtoda()
    except workloads.SetupError as exc:
        print(f"probe_setup: {exc}", file=sys.stderr)
        return 2
    with building:
        items = workloads.build_items(args.workload, args.seed)
    samples = importing.samples + building.samples + [workloads.reference_seconds() for _ in range(3)]
    print(json.dumps({"import_s": importing.seconds, "inputs_s": building.seconds,
                      "reference_s": statistics.median(samples), "items": len(items)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
