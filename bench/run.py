"""Verifier benchmark: verdicts per second, per-verdict latency, set-up
time and memory of qtoda's checks, with every verdict checked.

    python3 bench/run.py --workload equiv-A5 --seed 1 --seconds 15 --trace 0

All four workloads, one after another:

    for w in equiv-A5 equiv-C4 commute-A4C3 cluster-A3; do
        python3 bench/run.py --workload $w --seed 1 --seconds 15 --trace 0; done

A pass gives every distinct verdict of the workload once, in an order
drawn from the seed, in a fresh interpreter with ``--jobs 1`` and after
an untimed warm-up on a lower rank.  Passes run one after another until
their timed phases add up to ``--seconds``; the last pass is finished,
so every verdict is sampled equally often.  A fresh interpreter per pass
keeps inputs from repeating inside a process, where a memo cache would
serve them.  After the timed phases (untimed) each verdict is judged
against its known answer and its recorded output digest, and the Lax and
network Hamiltonians or cluster seeds behind it are hashed and compared
with ``digests.json``.  A wrong, raising or mismatching verdict counts in
``failed``.

Times are reported at a nominal host speed: a fixed reference
computation is timed before and after every verdict and every 50 ms
during it, and each verdict's time is scaled by ``REFERENCE_NOMINAL_S``
over the mean of those (see ``workloads.reference_seconds``).  The shared host's speed swings by tens
of percent within seconds, which raw times cannot absorb.  The raw
figures are printed in the record line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs exactly
one pass in this process with every layer's public functions wrapped,
prints per-layer self times and counts, and measures the tracing
overhead against an untraced pass of the same order in a fresh
interpreter.  The last line of stdout is the result as JSON; the lines
before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SPEC_FILE = workloads.ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many verdicts of a pass beyond it
PASS_TIMEOUT_S = 150


def _child(script: str, *args) -> dict:
    """Run a bench script in a fresh interpreter; its last line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=workloads.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(map(str, args))} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(name: str, seed: int, pass_no: int, limit: int | None = None, tracer: Tracer | None = None):
    """One pass in this process: warm up, then each verdict once.  With a
    tracer the pass is traced; without one the reference is sampled during
    each verdict.  Returns the outcomes, the reference times taken before
    the first verdict and after each one, and the wall time."""
    items = workloads.build_items(name, seed, pass_no)[:limit]
    for item in workloads.WORKLOADS[name].warmup():
        workloads.run_item(item)
    workloads.reference_seconds()
    outcomes, refs = [], [workloads.reference_seconds()]
    with tracer if tracer is not None else contextlib.nullcontext():
        start = perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.verdict = i
            outcomes.append(workloads.run_item(item, sample=tracer is None))
            refs.append(workloads.reference_seconds())
        wall = perf_counter() - start
    return outcomes, refs, wall


def child_pass(name: str, seed: int, pass_no: int, limit: int | None) -> dict:
    # a child pass runs its whole pool; --seconds is required but unused there
    args = ["--workload", name, "--seed", seed, "--seconds", 1, "--pass", pass_no]
    if limit is not None:
        args += ["--limit", limit]
    res = _child("run.py", *args)
    res["outcomes"] = [workloads.Outcome(**o) for o in res["outcomes"]]
    return res


def scaled_times(outcomes, refs) -> list[float]:
    """Verdict times at the nominal host speed: each raw time times
    REFERENCE_NOMINAL_S over the mean reference time before, during and
    after the verdict."""
    nominal = workloads.REFERENCE_NOMINAL_S
    return [
        o.seconds * nominal / statistics.mean([refs[i], *o.samples, refs[i + 1]])
        for i, o in enumerate(outcomes)
    ]


def tail(times: list[float], pool: int) -> tuple[float, float]:
    """(value, percentile): the highest percentile that keeps TAIL_BEYOND
    verdicts of one pass beyond it, read off all the run's samples.  The
    percentile depends only on the pool, so it stays fixed between
    commits however many passes a run makes."""
    ordered = sorted(times)
    if pool <= TAIL_BEYOND:
        return ordered[-1], 100.0
    keep = pool - TAIL_BEYOND
    idx = -(-len(ordered) * keep // pool) - 1  # nearest rank, in integers
    return ordered[idx], 100.0 * keep / pool


def digest_failures(items, recorded: dict[str, str], source: dict, out_dir: Path) -> dict[str, str]:
    """Item key -> reason ('' when fine) from the Hamiltonians or seeds
    behind each item, compared with the recorded digests.

    The digests are a pure function of the source, so they are computed
    once per source tree and Python version and kept in ``out_dir``;
    every run compares them with ``digests.json`` again.
    """
    path = out_dir / f"digests-{source['source_sha256'][:16]}-py{platform.python_version()}.json"
    cache = json.loads(path.read_text()) if path.exists() else {}
    reasons, fresh = {}, False
    for item in items:
        if item.key not in cache:
            try:
                cache[item.key] = workloads.item_digests(item)
            except Exception as exc:  # a raising check fails the verdict, not the run
                reasons[item.key] = f"digest computation raised {exc!r}"
                continue
            fresh = True
        reasons[item.key] = workloads.compare_digests(cache[item.key], recorded)
    if fresh:
        out_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, sort_keys=True))
        tmp.replace(path)
    return reasons


def source_record() -> dict:
    """Commit (when the checkout is a git repository) and a hash of src/."""
    commit = "unknown"
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=workloads.ROOT)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        h.update(str(path.relative_to(workloads.SRC)).encode())
        h.update(path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def run(name: str, seed: int, seconds: float, trace: bool, *, limit: int | None = None,
        setup_samples: int = SETUP_SAMPLES, out_dir: Path | None = None, expected_override=None,
        stream=sys.stdout) -> dict:
    """One benchmark run; prints the report and returns the result object.

    ``limit`` truncates every pass and ``expected_override`` maps an item
    key to a wrong known answer; both exist for the benchmark's tests.
    """
    workloads.import_qtoda()
    spec = json.loads(SPEC_FILE.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setups = [_child("probe_setup.py", "--workload", name, "--seed", seed) for _ in range(setup_samples)]
    items = {it.key: it for it in workloads.WORKLOADS[name].pool()}
    for key, expected in (expected_override or {}).items():
        items[key].expected = expected
    pool = min(len(items), limit or len(items))

    tracer = None
    if trace:
        tracer = Tracer()
        outcomes, refs, wall = run_pass(name, seed, 0, limit, tracer)
        passes = [{"outcomes": outcomes, "refs": refs, "wall_s": wall}]
        untraced = child_pass(name, seed, 0, limit)
    else:
        passes = []
        while not passes or sum(p["wall_s"] for p in passes) < seconds:
            passes.append(child_pass(name, seed, len(passes), limit))
    outcomes = [o for p in passes for o in p["outcomes"]]
    wall = sum(p["wall_s"] for p in passes)
    times = [t for p in passes for t in scaled_times(p["outcomes"], p["refs"])]
    raw_times = [o.seconds for o in outcomes]

    out_dir = out_dir or workloads.ROOT / ".bench_out"
    source = source_record()
    recorded = workloads.load_digests()
    reasons = digest_failures([items[k] for k in sorted({o.key for o in outcomes})], recorded, source, out_dir)
    failures = []
    for o in outcomes:
        reason = workloads.judge(items[o.key], o, recorded) or reasons[o.key]
        if reason:
            failures.append(f"{o.key}: {reason}")
    attempted, failed = len(outcomes), len(failures)
    tail_value, tail_pct = tail(times, pool)
    setup_scale = [workloads.REFERENCE_NOMINAL_S / s["reference_s"] for s in setups]

    def say(line):
        print(line, file=stream)

    record = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source,
        "passes": len(passes),
        "pool": pool,
        "verdict_samples": attempted,
        "setup_samples": len(setups),
        "timed_wall_s": wall,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "tail_percentile": tail_pct,
        "tail_beyond": sum(t > tail_value for t in times),
        "reference_nominal_s": workloads.REFERENCE_NOMINAL_S,
        "reference_median_s": statistics.median(x for p in passes for x in p["refs"]),
        "raw": {
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
            "verdicts_per_s": attempted / sum(raw_times),
            "verdict_s.p50": statistics.median(raw_times),
            "verdict_s.tail": tail(raw_times, pool)[0],
        },
    }
    say("record " + json.dumps(record, sort_keys=True))
    for line in failures:
        say(f"FAILED {line}")
    say(f"metric fail_ratio = {failed / attempted} ratio  ({failed} of {attempted} verdicts failed)")

    if tracer is None:
        values = {
            "setup_s": statistics.median((s["import_s"] + s["inputs_s"]) * k for s, k in zip(setups, setup_scale)),
            "verdicts_per_s": attempted / sum(times),
            "verdict_s.p50": statistics.median(times),
            "verdict_s.tail": tail_value,
            "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
        }
    else:
        # layer times at the nominal host speed, by the pass's median reference
        scale = workloads.REFERENCE_NOMINAL_S / statistics.median(refs)
        untraced_scale = workloads.REFERENCE_NOMINAL_S / statistics.median(untraced["refs"])
        values = {k: v * scale if k.endswith("_s") else v for k, v in tracer.metrics().items()}
        values["setup.import_s"] = statistics.median(s["import_s"] * k for s, k in zip(setups, setup_scale))
        values["setup.inputs_s"] = statistics.median(s["inputs_s"] * k for s, k in zip(setups, setup_scale))
        values["trace.overhead_s"] = (sum(o.seconds for o in outcomes) * scale
                                      - sum(o.seconds for o in untraced["outcomes"]) * untraced_scale)
        say(f"trace: traced pass {wall} s, untraced pass {untraced['wall_s']} s, "
            f"self times sum {tracer.total_self_s()} s, {len(tracer.spans)} spans (raw times)")
        spans_path = out_dir / f"spans-{name}-seed{seed}.json"
        tracer.write(spans_path)
        say(f"trace: spans written to {spans_path}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        extra = ""
        if k == "verdict_s.tail":
            extra = f"  (p{tail_pct:.1f} of {attempted} samples, {record['tail_beyond']} beyond)"
        say(f"metric {k} = {m['value']} {m['unit']}{extra}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    say(json.dumps(result))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed seconds to fill with passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pass", dest="pass_no", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--limit", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        workloads.import_qtoda()
    except workloads.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.pass_no is not None:
        # one untraced pass, reported raw to the parent run
        outcomes, refs, wall = run_pass(args.workload, args.seed, args.pass_no, args.limit)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"wall_s": wall, "peak_rss_mib": rss, "refs": refs,
                          "outcomes": [dataclasses.asdict(o) for o in outcomes]}))
        return 0
    run(args.workload, args.seed, args.seconds, bool(args.trace), limit=args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
