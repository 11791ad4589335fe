"""Tests of the benchmark itself, on truncated inputs so they stay fast."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def qtoda_imported():
    workloads.import_qtoda()


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(tmp_path, trace, section):
    out = io.StringIO()
    result = bench.run("equiv-A5", 7, 0.01, trace, limit=2, setup_samples=1, out_dir=tmp_path, stream=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"metric {m['name']} = ") and f" {m['unit']}" in line for line in lines
        ), m["name"]
    assert any(line.startswith("metric fail_ratio = 0.0 ratio") for line in lines)
    if trace:
        spans = json.loads((tmp_path / "spans-equiv-A5-seed7.json").read_text())["spans"]
        assert spans and all(len(row) == 6 for row in spans)


def test_wrong_expected_verdict_counts_as_failed():
    first = workloads.build_items("equiv-A5", 7)[0]
    result = bench.run(
        "equiv-A5", 7, 0.01, False, limit=2, setup_samples=1,
        expected_override={first.key: False}, stream=io.StringIO(),
    )
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_raising_verdict_counts_as_failed(monkeypatch):
    monkeypatch.setenv("QTODA_MAX_FAMILIES", "1")
    item = workloads.build_items("equiv-A5", 7)[0]
    outcome = workloads.run_item(item)
    assert workloads.judge(item, outcome, {}).startswith("raised RuntimeError")


def test_digest_mismatch_fails_the_verdict():
    item = workloads.build_items("equiv-A5", 7)[0]
    outcome = workloads.run_item(item)
    recorded = workloads.load_digests()
    computed = workloads.item_digests(item)
    assert workloads.judge(item, outcome, recorded) == workloads.compare_digests(computed, recorded) == ""
    for key in (f"output/{item.key}", f"lax/A5/{item.letters}"):
        wrong = {**recorded, key: "0" * 64}
        reason = workloads.judge(item, outcome, wrong) or workloads.compare_digests(computed, wrong)
        assert reason == f"digest mismatch at {key}"


def _traced(name, limit):
    tracer = Tracer()
    outcomes, _, wall = bench.run_pass(name, 7, 0, limit, tracer)
    recorded = workloads.load_digests()
    pool = {it.key: it for it in workloads.WORKLOADS[name].pool()}
    assert not any(workloads.judge(pool[o.key], o, recorded) for o in outcomes)
    return tracer, wall


def test_self_times_sum_to_at_most_the_wall_time():
    from qtoda import correspondence, network, torus

    originals = (network.path_families, torus.TorusElement.__mul__, torus.TorusContext.pairing)
    tracer, wall = _traced("equiv-C4", 1)
    assert 0 < tracer.total_self_s() <= wall
    assert sum(v for k, v in tracer.metrics().items() if k.endswith("_s")) <= wall
    assert correspondence.path_families is network.path_families is originals[0]
    assert (torus.TorusElement.__mul__, torus.TorusContext.pairing) == originals[1:]


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        metrics = {}
        for name in ("equiv-A5", "cluster-A3"):
            tracer, _ = _traced(name, 3)
            metrics[name] = {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}
        counts.append(metrics)
    assert counts[0] == counts[1]
    assert counts[0]["equiv-A5"]["torus.mul_calls"] > 0
    assert counts[0]["cluster-A3"]["cluster.canonical_key_calls"] > 0


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "equiv-A5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
