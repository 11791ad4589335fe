"""Reach record: wall time and peak memory of all-words sweeps.

Usage:
    python scripts/reach.py --label NAME [--timeout S] [--out DIR] [--cells LIST]

Runs each cell of the grid ``RUNS`` (3) times, each run in a fresh
interpreter on this checkout's ``src``, one cell after another:
``python -m qtoda.cli verify --check CHECK --type T --rank N
--all-words`` (with ``--depth D`` for a ``mutation-equiv`` cell written
``@D``), or for a ``naturality`` cell, which has no CLI command, a
library script that checks the ensemble naturality at every (seed,
vertex) of the rank's words and prints one JSON line.  It writes
``DIR/BENCH_<NAME>.json`` (DIR defaults to the repository root) with the
machine, the Python version, the commit and per cell: the exit code, the
median wall time with each run's in ``wall_s_runs`` (the shared host's
speed swings by tens of percent, so one run says little), the largest
peak RSS of the sweep's process over the runs and the sha256 of its
stdout.  A run that times out or fails is not followed by another, and
a cell whose runs end differently or print different bytes is marked
"error".  The peak is the sweep's own: a short launcher registers an
atexit hook that writes ``VmHWM`` from ``/proc/self/status``, which
starts afresh when the interpreter is exec'd, to a file of its own, so
stdout keeps its bytes.  Where that file is not written (no ``/proc``,
or a killed sweep) the peak is the child's ``ru_maxrss``, which on
Linux starts at the RSS of this script; ``peak_rss_from`` names the
source.  A cell still running after ``--timeout`` seconds is killed and
recorded with status "timeout", never dropped.  ``--cells`` replaces
the grid, e.g. ``equivalence:A2,commute:C2,naturality:A2,mutation-equiv:C4@12``;
each cell records its ``depth``, null where the CLI default is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# (check, type, rank, depth); a depth of None leaves the CLI's default
GRID = (
    [("equivalence", "A", n, None) for n in (5, 6, 7)]
    + [("equivalence", "C", n, None) for n in (4, 5, 6)]
    + [("commute", "A", n, None) for n in (5, 6)]
    + [("commute", "C", n, None) for n in (4, 5)]
    + [("naturality", "A", n, None) for n in (5, 6, 7)]
    + [("naturality", "C", n, None) for n in (4, 5, 6)]
    + [("mutation-equiv", "A", n, None) for n in (4, 5)]
    + [("mutation-equiv", "C", 4, 12)]
)
POLL_S = 0.005
RUNS = 3  # per cell; the record keeps the median wall time
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


PROC_STATUS = "/proc/self/status"
# argv: STATUS PEAK (-m MODULE | -c CODE) ARGS...; runs the sweep as
# ``python -m MODULE ARGS`` or ``python -c CODE ARGS`` would, and at exit
# copies the VmHWM figure (in kB) from STATUS into the file PEAK
LAUNCHER = """
import atexit, runpy, sys
status, peak, mode, target, *args = sys.argv[1:]

def record_peak():
    try:
        with open(status) as fh:
            hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    except OSError:
        return
    if hwm:
        with open(peak, "w") as fh:
            fh.write(hwm[0])

atexit.register(record_peak)
if mode == "-m":
    sys.argv = [target, *args]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.argv = ["-c", *args]
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def parse_cells(text: str) -> list[tuple[str, str, int, int | None]]:
    """``equivalence:A2,mutation-equiv:C4@12`` ->
    [("equivalence", "A", 2, None), ("mutation-equiv", "C", 4, 12)];
    only a ``mutation-equiv`` cell takes a depth."""
    cells = []
    for part in filter(None, text.split(",")):
        check, _, cell = part.strip().partition(":")
        cell, at, depth = cell.partition("@")
        if (not check or cell[:1] not in ("A", "C") or not cell[1:].isdigit()
                or at and (check != "mutation-equiv" or not depth.isdigit())):
            raise argparse.ArgumentTypeError(
                f"takes CHECK:TYPE+RANK entries such as commute:C4, and mutation-equiv:C4@DEPTH, got {part!r}")
        cells.append((check, cell[0], int(cell[1:]), int(depth) if at else None))
    return cells


def run_cell(check: str, kind: str, rank: int, timeout: float, depth: int | None = None) -> dict:
    """One sweep in a fresh interpreter, timed, with its own peak RSS;
    killed and marked "timeout" once it runs past ``timeout``.  A depth
    is passed to the CLI as ``--depth``."""
    if check == "naturality":
        target = ["-c", NATURALITY_SCRIPT, kind, str(rank)]
    else:
        target = ["-m", "qtoda.cli", "verify", "--check", check,
                  "--type", kind, "--rank", str(rank), "--all-words"]
        if depth is not None:
            target += ["--depth", str(depth)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryDirectory() as tmp:
        peak_file = Path(tmp) / "vmhwm"
        argv = [sys.executable, "-c", LAUNCHER, PROC_STATUS, str(peak_file), *target]
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
        hwm = peak_file.read_text() if peak_file.exists() else ""
    code = proc.returncode
    # VmHWM and ru_maxrss are both in KiB on Linux
    peak_kib, peak_from = (int(hwm), "VmHWM") if hwm else (usage.ru_maxrss, "ru_maxrss")
    return {
        "check": check,
        "type": kind,
        "rank": rank,
        "depth": depth,
        "status": "timeout" if timed_out else {0: "ok", 1: "failed"}.get(code, "error"),
        "exit_code": None if timed_out else code,
        "wall_s": round(wall, 3),
        "peak_rss_mib": round(peak_kib / 1024, 2),
        "peak_rss_from": peak_from,
        "stdout_sha256": None if timed_out else digest,
    }


def run_cell_median(check: str, kind: str, rank: int, timeout: float, depth: int | None = None) -> dict:
    """The cell run up to ``RUNS`` times: the median wall time, each run's
    in ``wall_s_runs``, and the largest peak.  A run that times out or
    fails ends the cell, and runs that end differently or print different
    bytes mark it "error"."""
    done = []
    while len(done) < RUNS:
        done.append(run_cell(check, kind, rank, timeout, depth))
        if done[-1]["status"] != "ok":
            break
    cell = dict(done[0])
    walls = [r["wall_s"] for r in done]
    cell["wall_s"] = round(statistics.median(walls), 3)
    cell["wall_s_runs"] = walls
    peak = max(done, key=lambda r: r["peak_rss_mib"])
    cell["peak_rss_mib"], cell["peak_rss_from"] = peak["peak_rss_mib"], peak["peak_rss_from"]
    if any(len({r[k] for r in done}) > 1 for k in ("status", "stdout_sha256")):
        cell["status"] = "error"
    return cell


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
    p.add_argument("--cells", type=parse_cells, default=None,
                   help="replace the grid, e.g. commute:C4,naturality:A5,mutation-equiv:C4@12")
    args = p.parse_args(argv)
    origin = source()  # before the sweeps, which run this source
    cells = []
    for check, kind, rank, depth in args.cells or GRID:
        cell = run_cell_median(check, kind, rank, args.timeout, depth)
        at = "" if depth is None else f"@{depth}"
        print(f"{check} {kind}{rank}{at}: {cell['status']} {cell['wall_s']} s "
              f"{cell['peak_rss_mib']} MiB", file=sys.stderr)
        cells.append(cell)
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": machine(),
        **origin,
        "timeout_s": args.timeout,
        "runs": RUNS,
        "cells": cells,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
