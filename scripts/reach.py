"""Reach record: wall time and peak memory of all-words sweeps.

Usage:
    python scripts/reach.py --label NAME [--timeout S] [--out DIR] [--cells LIST]

Runs each cell of the grid in a fresh interpreter on this checkout's
``src``, one cell after another: ``python -m qtoda.cli verify --check
CHECK --type T --rank N --all-words``, or for a ``naturality`` cell,
which has no CLI command, a library script that checks the ensemble
naturality at every (seed, vertex) of the rank's words and prints one
JSON line.  It writes
``DIR/BENCH_<NAME>.json`` (DIR defaults to the repository root) with the
machine, the Python version, the commit and per cell: the exit code, the
wall time, the peak RSS of the sweep's process and the sha256 of its
stdout.  A cell still running after ``--timeout`` seconds is killed and
recorded with status "timeout", never dropped.  ``--cells`` replaces the
grid, e.g. ``equivalence:A2,commute:C2,naturality:A2``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GRID = (
    [("equivalence", "A", n) for n in (5, 6, 7)]
    + [("equivalence", "C", n) for n in (4, 5, 6)]
    + [("commute", "A", n) for n in (5, 6)]
    + [("commute", "C", n) for n in (4, 5)]
    + [("naturality", "A", n) for n in (5, 6, 7)]
    + [("naturality", "C", n) for n in (4, 5, 6)]
)
POLL_S = 0.005
# argv: TYPE RANK; exit 1 when some (seed, vertex) is not natural
NATURALITY_SCRIPT = """
import json, sys
from qtoda.cluster import check_ensemble_naturality, seed_from_word
from qtoda.words import enumerate_double_coxeter
kind, rank = sys.argv[1], int(sys.argv[2])
pairs = natural = 0
for word in enumerate_double_coxeter(rank):
    seed = seed_from_word(kind, word)
    for k in seed.labels:
        pairs += 1
        natural += check_ensemble_naturality(seed, k)
print(json.dumps({"check": "naturality", "type": kind, "rank": rank, "pairs": pairs, "natural": natural}))
sys.exit(0 if natural == pairs else 1)
"""


def parse_cells(text: str) -> list[tuple[str, str, int]]:
    """``equivalence:A2,commute:C2`` -> [("equivalence", "A", 2), ...]."""
    cells = []
    for part in filter(None, text.split(",")):
        check, _, cell = part.strip().partition(":")
        if not check or cell[:1] not in ("A", "C") or not cell[1:].isdigit():
            raise argparse.ArgumentTypeError(f"takes CHECK:TYPE+RANK entries such as commute:C4, got {part!r}")
        cells.append((check, cell[0], int(cell[1:])))
    return cells


def run_cell(check: str, kind: str, rank: int, timeout: float) -> dict:
    """One sweep in a fresh interpreter, timed and measured by its own
    rusage; killed and marked "timeout" once it runs past ``timeout``."""
    if check == "naturality":
        argv = [sys.executable, "-c", NATURALITY_SCRIPT, kind, str(rank)]
    else:
        argv = [sys.executable, "-m", "qtoda.cli", "verify", "--check", check,
                "--type", kind, "--rank", str(rank), "--all-words"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start >= timeout:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    code = proc.returncode
    return {
        "check": check,
        "type": kind,
        "rank": rank,
        "status": "timeout" if timed_out else {0: "ok", 1: "failed"}.get(code, "error"),
        "exit_code": None if timed_out else code,
        "wall_s": round(wall, 3),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 2),  # ru_maxrss is in KiB on Linux
        "stdout_sha256": None if timed_out else digest,
    }


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": model or platform.processor() or None,
        "cpu_count": os.cpu_count(),
    }


def source() -> dict:
    """The commit, whether src/ differs from it, and a hash of src/."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(status) if status is not None else None,
        "source_sha256": h.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--timeout", type=float, default=300.0, help="seconds per cell (default 300)")
    p.add_argument("--out", type=Path, default=ROOT, help="output directory (default: repository root)")
    p.add_argument("--cells", type=parse_cells, default=None, help="replace the grid, e.g. commute:C4,naturality:A5")
    args = p.parse_args(argv)
    origin = source()  # before the sweeps, which run this source
    cells = []
    for check, kind, rank in args.cells or GRID:
        cell = run_cell(check, kind, rank, args.timeout)
        print(f"{check} {kind}{rank}: {cell['status']} {cell['wall_s']} s "
              f"{cell['peak_rss_mib']} MiB", file=sys.stderr)
        cells.append(cell)
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": machine(),
        **origin,
        "timeout_s": args.timeout,
        "cells": cells,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
