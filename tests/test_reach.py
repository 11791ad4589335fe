"""scripts/reach.py on a small grid: one record per cell, timeouts kept."""

import argparse
import hashlib
import importlib.util
import json
import subprocess
import re
import sys
from pathlib import Path

import pytest

from qtoda.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_records_every_cell(tmp_path, capsys):
    cells = "equivalence:A2,commute:C2,naturality:A2,mutation-equiv:A3"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "small", "--out", str(tmp_path), "--cells", cells, "--timeout", "120"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_small.json").read_text())
    assert record["label"] == "small" and record["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert record["timeout_s"] == 120
    assert {"cpu_count", "machine"} <= set(record["machine"])
    assert "commit" in record and len(record["source_sha256"]) == 64
    assert [(c["check"], c["type"], c["rank"], c["depth"]) for c in record["cells"]] == [
        ("equivalence", "A", 2, None), ("commute", "C", 2, None), ("naturality", "A", 2, None), ("mutation-equiv", "A", 3, None)
    ]
    # the sweep's own high-water mark, where the system keeps one
    peak_from = "VmHWM" if Path("/proc/self/status").exists() else "ru_maxrss"
    assert record["runs"] == 3
    for cell in record["cells"]:
        assert cell["status"] == "ok" and cell["exit_code"] == 0
        assert cell["wall_s"] > 0 and cell["peak_rss_mib"] > 0 and cell["peak_rss_from"] == peak_from
        # the median of three runs
        assert len(cell["wall_s_runs"]) == 3 and cell["wall_s"] == sorted(cell["wall_s_runs"])[1]
        if cell["check"] == "naturality":
            # the library script's one line: 3 words of 4 vertices, all natural
            line = '{"check": "naturality", "type": "A", "rank": 2, "pairs": 12, "natural": 12}\n'
            assert cell["stdout_sha256"] == hashlib.sha256(line.encode()).hexdigest()
            continue
        # the digest is of the sweep's stdout, as the CLI prints it in process
        argv = ["verify", "--check", cell["check"], "--type", cell["type"], "--rank", str(cell["rank"]), "--all-words"]
        assert main(argv) == 0
        assert cell["stdout_sha256"] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_reach_records_a_timeout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "cut", "--out", str(tmp_path), "--cells", "commute:A4", "--timeout", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (cell,) = json.loads((tmp_path / "BENCH_cut.json").read_text())["cells"]
    assert cell["status"] == "timeout" and cell["exit_code"] is None and cell["stdout_sha256"] is None
    # a cell that timed out is not run again
    assert len(cell["wall_s_runs"]) == 1
    # a killed sweep runs no exit hook
    assert cell["peak_rss_from"] == "ru_maxrss"


def test_reach_runs_a_cell_until_it_stops_being_ok(monkeypatch):
    reach = load_reach()
    script = []

    def fake_run_cell(check, kind, rank, timeout, depth=None):
        status, wall, peak, digest = script.pop(0)
        return {"status": status, "wall_s": wall, "peak_rss_mib": peak, "peak_rss_from": "VmHWM", "stdout_sha256": digest}

    monkeypatch.setattr(reach, "run_cell", fake_run_cell)
    assert reach.RUNS == 3
    script[:] = [("ok", 3.0, 20.0, "x"), ("ok", 1.0, 25.0, "x"), ("ok", 2.0, 21.0, "x")]
    cell = reach.run_cell_median("commute", "A", 2, 10)
    assert (cell["status"], cell["wall_s"], cell["wall_s_runs"], cell["peak_rss_mib"]) == ("ok", 2.0, [3.0, 1.0, 2.0], 25.0)
    # a failed run is not repeated, and neither is anything after it
    script[:] = [("ok", 3.0, 20.0, "x"), ("failed", 1.0, 25.0, "x"), ("ok", 2.0, 21.0, "x")]
    cell = reach.run_cell_median("commute", "A", 2, 10)
    assert cell["wall_s_runs"] == [3.0, 1.0] and cell["status"] == "error" and len(script) == 1
    script[:] = [("failed", 4.0, 20.0, "y")]
    cell = reach.run_cell_median("commute", "A", 2, 10)
    assert (cell["status"], cell["wall_s_runs"]) == ("failed", [4.0])
    # runs that print different bytes are an error
    script[:] = [("ok", 3.0, 20.0, "x"), ("ok", 1.0, 25.0, "x"), ("ok", 2.0, 21.0, "z")]
    assert reach.run_cell_median("commute", "A", 2, 10)["status"] == "error"


def test_peak_is_read_from_the_status_file(tmp_path, monkeypatch):
    reach = load_reach()
    status = tmp_path / "status"
    status.write_text("Name:\tpython3\nVmPeak:\t  99999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   12000 kB\n")
    monkeypatch.setattr(reach, "PROC_STATUS", str(status))
    cell = reach.run_cell("equivalence", "A", 2, 120)
    assert cell["status"] == "ok" and cell["peak_rss_from"] == "VmHWM"
    assert cell["peak_rss_mib"] == round(12345 / 1024, 2)


def test_peak_falls_back_to_rusage_without_a_status_file(tmp_path, monkeypatch):
    reach = load_reach()
    monkeypatch.setattr(reach, "PROC_STATUS", str(tmp_path / "absent"))
    cell = reach.run_cell("naturality", "A", 2, 120)
    assert cell["status"] == "ok" and cell["peak_rss_from"] == "ru_maxrss" and cell["peak_rss_mib"] > 0
    # the launcher leaves stdout as the sweep prints it
    line = '{"check": "naturality", "type": "A", "rank": 2, "pairs": 12, "natural": 12}\n'
    assert cell["stdout_sha256"] == hashlib.sha256(line.encode()).hexdigest()


def test_reach_rejects_a_malformed_cell(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "bad", "--out", str(tmp_path), "--cells", "commute:B4"],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0 and "commute:B4" in proc.stderr
    assert not (tmp_path / "BENCH_bad.json").exists()


def test_cells_parse_with_a_depth_on_mutation_equiv_only():
    reach = load_reach()
    assert reach.parse_cells("mutation-equiv:C4@12,naturality:A3,mutation-equiv:A4") == [
        ("mutation-equiv", "C", 4, 12), ("naturality", "A", 3, None), ("mutation-equiv", "A", 4, None)
    ]
    # the grid's C4 search runs at the depth that reaches every word
    assert ("mutation-equiv", "C", 4, 12) in reach.GRID
    for part in ("commute:A4@3", "naturality:A2@1", "equivalence:C3@6", "mutation-equiv:C4@", "mutation-equiv:C4@x",
                 "mutation-equiv:C@4", "mutation-equiv:@12"):
        with pytest.raises(argparse.ArgumentTypeError, match=re.escape(repr(part))):
            reach.parse_cells(part)


def test_reach_rejects_a_depth_on_another_check(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "bad", "--out", str(tmp_path), "--cells", "naturality:A2@3"],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0 and "naturality:A2@3" in proc.stderr
    assert not (tmp_path / "BENCH_bad.json").exists()


def test_reach_records_the_depth_it_ran(tmp_path, capsys):
    # A3 at depth 2 leaves words unreached, so the sweep exits 1 where the
    # default depth 6 passes: the depth reached the CLI
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "deep", "--out", str(tmp_path), "--cells", "mutation-equiv:A3@2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "mutation-equiv A3@2: failed" in proc.stderr
    (cell,) = json.loads((tmp_path / "BENCH_deep.json").read_text())["cells"]
    assert (cell["check"], cell["type"], cell["rank"], cell["depth"]) == ("mutation-equiv", "A", 3, 2)
    assert cell["status"] == "failed" and cell["exit_code"] == 1 and len(cell["wall_s_runs"]) == 1
    argv = ["verify", "--check", "mutation-equiv", "--type", "A", "--rank", "3", "--all-words", "--depth", "2"]
    assert main(argv) == 1
    assert cell["stdout_sha256"] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
