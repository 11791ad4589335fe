"""Record ``digests.json``: the output and Hamiltonian digests of every
verdict in every workload pool.

Run it only at a commit whose outputs are known to be right; the
benchmark then fails any verdict whose digest differs.

    python3 bench/record_digests.py
"""

from __future__ import annotations

import json

import workloads


def main() -> int:
    workloads.import_qtoda()
    recorded: dict[str, str] = {}
    for name, wl in workloads.WORKLOADS.items():
        for item in wl.pool():
            outcome = workloads.run_item(item)
            if item.check in ("equivalence", "commute"):
                recorded[f"output/{item.key}"] = outcome.stdout_sha256
            reason = workloads.judge(item, outcome, recorded)
            if reason:
                raise SystemExit(f"{name}: {item.key} failed: {reason}")
            recorded.update(workloads.item_digests(item))
        print(f"{name}: {len(recorded)} digests so far", flush=True)
    with open(workloads.DIGEST_FILE, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
