"""scripts/reach.py on a small grid: one record per cell, timeouts kept."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from qtoda.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_reach_records_every_cell(tmp_path, capsys):
    cells = "equivalence:A2,commute:C2,naturality:A2"
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
    assert [(c["check"], c["type"], c["rank"]) for c in record["cells"]] == [
        ("equivalence", "A", 2), ("commute", "C", 2), ("naturality", "A", 2)
    ]
    for cell in record["cells"]:
        assert cell["status"] == "ok" and cell["exit_code"] == 0
        assert cell["wall_s"] > 0 and cell["peak_rss_mib"] > 0
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


def test_reach_rejects_a_malformed_cell(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--label", "bad", "--out", str(tmp_path), "--cells", "commute:B4"],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0 and "commute:B4" in proc.stderr
    assert not (tmp_path / "BENCH_bad.json").exists()
