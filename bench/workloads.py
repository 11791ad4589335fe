"""Workloads of the verifier benchmark: inputs, verdicts and their checks.

Every workload is a pool of distinct verdicts.  A pass gives each verdict
of the pool exactly once, in an order drawn from the seed, in one fresh
process: repeating an input inside a process would reward a cross-call
memo cache that a real ``--all-words`` sweep cannot use.  Verdicts on
``verify`` go through ``qtoda.cli.main`` with stdout captured; the
ensemble-naturality check has no CLI command and is called from the
library.

This module imports nothing from qtoda at import time, so that the
set-up probe can time that import.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


# The reference computation's time on an uncontended core of the 2-core
# x86-64 host where the benchmark was defined (Python 3.11.7).  Timings
# are reported at this host speed; see ``reference_seconds``.
REFERENCE_NOMINAL_S = 0.0004
SAMPLE_INTERVAL_S = 0.05


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python computation of the kind qtoda's
    kernel does: Fraction products summed in a dict keyed by tuples.

    The host this benchmark runs on is shared, and its speed swings by
    tens of percent within seconds.  The benchmark times this reference
    before and after every verdict and every SAMPLE_INTERVAL_S during it,
    and scales the verdict's time by ``REFERENCE_NOMINAL_S`` over their
    mean, which cancels the swings.  It does not depend on qtoda, so a
    change to qtoda moves the scaled times as it moves the raw ones.  The
    collector is off while it runs, so qtoda's heap does not enter it.
    """
    from fractions import Fraction  # not at module level: the set-up probe times that import

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = {}
        for i in range(100):
            key = (i % 7, i % 5, i % 3)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times one verdict.  With ``sample`` set it also times the reference
    every SAMPLE_INTERVAL_S from a SIGALRM handler, keeps those samples
    and takes the time they cost out of the verdict's time."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.samples: list[float] = []
        self.spent = 0.0
        self.seconds = 0.0

    def _tick(self, signum, frame):
        if "fractions" not in sys.modules:
            return  # too early in an import of qtoda; importing it here would move its cost
        start = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - start

    def __enter__(self):
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = perf_counter() - self._start - self.spent
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)


class SetupError(Exception):
    """The checkout has no qtoda source to benchmark."""


def import_qtoda():
    """Import qtoda.cli from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qtoda" / "__init__.py").is_file():
        raise SetupError(f"no qtoda package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qtoda.cli

    origin = Path(qtoda.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"qtoda was imported from {origin}, not from {SRC}")
    return qtoda.cli


@dataclass
class Item:
    """One verdict: a ``verify`` CLI call, or one naturality check."""

    check: str  # equivalence, commute, mutation-equiv or naturality
    kind: str
    rank: int
    word: object = None  # DoubleWord; None for a mutation-equiv sweep
    vertex: int | None = None  # naturality only
    seed: object = None  # cluster Seed, naturality only
    # Every verdict in these workloads is true: equivalence and
    # commutation on every word (criteria 03-05), naturality and
    # mutation-equivalence at rank 3 (criterion 09, and the paper).
    expected: bool = True

    @property
    def letters(self) -> str:
        return ",".join(str(x) for x in self.word.letters) if self.word else ""

    @property
    def key(self) -> str:
        base = f"{self.check}/{self.kind}{self.rank}"
        if self.word is not None:
            base += f"/{self.letters}"
        if self.vertex is not None:
            base += f"/{self.vertex}"
        return base

    def argv(self) -> list[str]:
        argv = ["verify", "--check", self.check, "--type", self.kind, "--rank", str(self.rank)]
        if self.word is not None:
            # "--word -1,..." would parse as a flag, hence the "=" form
            argv.append(f"--word={self.letters}")
        return argv + ["--jobs", "1"]


@dataclass
class Outcome:
    """What one verdict did, before it is judged."""

    key: str
    seconds: float
    samples: list[float]  # reference times sampled during the verdict
    error: str = ""  # repr of a raised exception
    code: int | None = None  # CLI exit code
    value: object = None  # the verdict: payload["ok"], or the naturality result
    stdout_sha256: str = ""
    payload: dict | None = None  # kept for mutation-equiv, whose paths are replayed


def run_item(item: Item, sample: bool = False) -> Outcome:
    """Give one verdict; only the call itself is timed."""
    clock = Clock(sample)
    if item.check == "naturality":
        cluster = sys.modules["qtoda.cluster"]
        try:
            with clock:
                value = cluster.check_ensemble_naturality(item.seed, item.vertex)
        except Exception as exc:  # a raising verdict is a failed verdict
            return Outcome(item.key, clock.seconds, clock.samples, error=repr(exc))
        return Outcome(item.key, clock.seconds, clock.samples, value=value)

    cli = sys.modules["qtoda.cli"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item.argv())
    except (Exception, SystemExit) as exc:
        return Outcome(item.key, clock.seconds, clock.samples, error=repr(exc))
    stdout = out.getvalue()
    outcome = Outcome(item.key, clock.seconds, clock.samples, code=code,
                      stdout_sha256=hashlib.sha256(stdout.encode()).hexdigest())
    try:
        payload = json.loads(stdout)
    except ValueError:
        outcome.error = f"stdout is not JSON: {err.getvalue().strip()[:200]!r}"
        return outcome
    outcome.value = payload.get("ok")
    if item.check == "mutation-equiv":
        outcome.payload = payload
    return outcome


def judge(item: Item, outcome: Outcome, recorded: dict[str, str]) -> str:
    """'' when the verdict matches its known answer and its recorded
    output digest; otherwise the reason it failed."""
    if outcome.error:
        return f"raised {outcome.error}"
    if item.check == "naturality":
        return "" if outcome.value is item.expected else f"naturality {outcome.value}, expected {item.expected}"
    want = 0 if item.expected else 1
    if outcome.code != want:
        return f"exit {outcome.code}, expected {want}"
    if outcome.value is not item.expected:
        return f"ok={outcome.value}, expected {item.expected}"
    if item.check == "mutation-equiv":
        return replay_paths(item, outcome.payload)
    if recorded.get(f"output/{item.key}") != outcome.stdout_sha256:
        return f"digest mismatch at output/{item.key}"
    return ""


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    name: str
    pool: object  # () -> list[Item], the distinct verdicts of a pass
    warmup: object  # () -> list[Item], untimed lower-rank verdicts


def _words(rank):
    from qtoda.words import enumerate_double_coxeter

    return enumerate_double_coxeter(rank)


def _verify_items(check, kind, rank):
    return [Item(check, kind, rank, w) for w in _words(rank)]


def _naturality_items(kind, rank):
    from qtoda.cluster import seed_from_word

    items = []
    for w in _words(rank):
        seed = seed_from_word(kind, w)
        items += [Item("naturality", kind, rank, w, k, seed) for k in seed.labels]
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "equiv-A5",
            lambda: _verify_items("equivalence", "A", 5),
            lambda: _verify_items("equivalence", "A", 2)[:1],
        ),
        Workload(
            "equiv-C4",
            lambda: _verify_items("equivalence", "C", 4),
            lambda: _verify_items("equivalence", "C", 2)[:1],
        ),
        Workload(
            "commute-A4C3",
            lambda: _verify_items("commute", "A", 4) + _verify_items("commute", "C", 3),
            lambda: _verify_items("commute", "A", 2)[:1] + _verify_items("commute", "C", 2)[:1],
        ),
        Workload(
            "cluster-A3",
            lambda: _naturality_items("A", 3) + [Item("mutation-equiv", k, 3) for k in ("A", "C")],
            lambda: _naturality_items("A", 2)[:1] + [Item("mutation-equiv", "A", 2)],
        ),
    )
}


def build_items(name: str, seed: int, pass_no: int = 0) -> list[Item]:
    """One pass: the whole pool, in an order drawn from the seed."""
    pool = WORKLOADS[name].pool()
    return random.Random(f"{name}/{seed}/{pass_no}").sample(pool, len(pool))


# ---------------------------------------------------------------------------
# digests, checked after the timed phase


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def item_digests(item: Item) -> dict[str, str]:
    """Digests of what the item's verdict rests on, beyond its output.

    For a word: its Lax and network Hamiltonians, each hashed as the
    canonical ``serialize.element_to_dict`` JSON, so that a kernel bug
    that keeps both routes equal but wrong still shows.  For the cluster
    checks: the JSON of the mutated seed, or of every seed searched.
    """
    from qtoda import lax, serialize
    from qtoda.cluster import mutate_seed, seed_from_word
    from qtoda.network import build_network, network_hamiltonian
    from qtoda.words import index_vector_of, quiver_vector_of

    if item.check == "naturality":
        mutated = mutate_seed(item.seed, item.vertex)
        return {f"mutated-seed/{item.key}": _sha(serialize.seed_to_dict(mutated))}
    if item.check == "mutation-equiv":
        seeds = [serialize.seed_to_dict(seed_from_word(item.kind, w)) for w in _words(item.rank)]
        return {f"seeds/{item.key}": _sha(seeds)}
    n, word = item.rank, item.word
    net = build_network(item.kind, word)
    network = [network_hamiltonian(net, i) for i in range(1, n + 1)]
    qvec = quiver_vector_of(word)
    if item.kind == "A":
        ctx, kvec = lax.lax_context(n + 1), index_vector_of(qvec)
    else:
        ctx, kvec = lax.lax_context(n), tuple(qvec) + (0,)
    hams = lax.lax_hamiltonians(ctx, kvec, item.kind)
    tag = f"{item.kind}{n}/{item.letters}"
    return {
        f"network/{tag}": _sha([serialize.element_to_dict(h) for h in network]),
        f"lax/{tag}": _sha([serialize.element_to_dict(h) for h in hams]),
    }


def compare_digests(computed: dict[str, str], recorded: dict[str, str]) -> str:
    for key, value in computed.items():
        if recorded.get(key) != value:
            return f"digest mismatch at {key}"
    return ""


def replay_paths(item: Item, payload: dict) -> str:
    """Check each mutation-equiv witness by replaying it; '' when all hold.
    Paths are replayed, not hashed: a faster search may find another
    path that is just as valid."""
    from qtoda.cluster import mutate_seed, mutate_swap, seed_from_word

    words = _words(item.rank)
    if len(payload["reports"]) != len(words) - 1:
        return f"{len(payload['reports'])} reports, expected {len(words) - 1}"
    base = seed_from_word(item.kind, words[0])
    by_letters = {tuple(w.letters): w for w in words}
    for rep in payload["reports"]:
        if not rep["reachable"]:
            continue
        seed = base
        for tag, v in rep["path"]:
            seed = mutate_swap(seed, v)[0] if tag == "tau" else mutate_seed(seed, v)
        if not seed.is_isomorphic(seed_from_word(item.kind, by_letters[tuple(rep["word"])])):
            return f"path {rep['path']} does not reach {rep['word']}"
    return ""


def load_digests() -> dict[str, str]:
    with open(DIGEST_FILE) as fh:
        return json.load(fh)
