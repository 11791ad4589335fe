"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of each qtoda layer where callers look
them up: every ``qtoda`` module attribute bound to the original function
(``from .network import path_families`` binds a second name inside
``qtoda.correspondence``), and methods and dunders on their class.  Each
wrapped call is a span with a name, start, end, parent and verdict id.
Self times (span minus the child spans inside it) and counts are
accumulated as the spans close; the spans themselves stay in memory and
are written out at the end of the run.  Hot inner calls (the torus
pairing, ``local_lax``, ``mutate_seed``) are counted, not spanned.
Nothing is wrapped unless a ``Tracer`` is installed, so untraced runs
pay no cost.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (metric, module, attribute, class or None, mode)
#   mode "span": timed span, self time goes to the metric
#   mode "gen": generator; each step that produces an item is a span
#   mode "count": call count only, no span (hot inner calls)
LAYERS = (
    ("words.enumerate", "qtoda.words", "enumerate_double_coxeter", None, "span"),
    ("network.build", "qtoda.network", "build_network", None, "span"),
    ("network.paths", "qtoda.network", "enumerate_labeled_paths", None, "span"),
    ("network.families", "qtoda.network", "path_families", None, "gen"),
    ("correspondence.label_algebra", "qtoda.correspondence", "label_algebra", None, "span"),
    ("correspondence.label_hamiltonian", "qtoda.correspondence", "label_hamiltonian", None, "span"),
    ("correspondence.weight_map", "qtoda.correspondence", "build_weight_map", None, "span"),
    ("correspondence.verify", "qtoda.correspondence", "verify_equivalence_A", None, "span"),
    ("correspondence.verify", "qtoda.correspondence", "verify_equivalence_C", None, "span"),
    ("lax.monodromy", "qtoda.lax", "monodromy", None, "span"),
    ("lax.monodromy", "qtoda.lax", "double_monodromy", None, "span"),
    ("lax.hamiltonians", "qtoda.lax", "lax_hamiltonians", None, "span"),
    ("lax.local", "qtoda.lax", "local_lax", None, "count"),
    ("torus.mul", "qtoda.torus", "__mul__", "TorusElement", "span"),
    ("torus.add", "qtoda.torus", "__add__", "TorusElement", "span"),
    ("torus.eq", "qtoda.torus", "__eq__", "TorusElement", "span"),
    ("torus.apply", "qtoda.torus", "apply", "MonomialMap", "span"),
    ("torus.pairing", "qtoda.torus", "pairing", "TorusContext", "count"),
    ("torus.commutes", "qtoda.torus", "commutes", None, "span"),
    ("cluster.naturality", "qtoda.cluster", "check_ensemble_naturality", None, "span"),
    ("cluster.search", "qtoda.cluster", "mutation_equivalent", None, "span"),
    ("cluster.mutate", "qtoda.cluster", "mutate_seed", None, "count"),
    ("cluster.canonical_key", "qtoda.cluster", "canonical_key", "Seed", "span"),
    ("cli", "qtoda.cli", "main", None, "span"),
    ("serialize.dumps", "qtoda.serialize", "dumps", None, "span"),
)

# results whose size is tracked: metric -> function of the result
_SIZES = {
    "network.paths": ("network.strands", len),
    "correspondence.label_algebra": ("correspondence.labels", lambda alg: len(alg.labels)),
    "serialize.dumps": ("serialize.bytes", len),
}
_PEAK_TERMS = {"torus.mul", "torus.add", "torus.apply"}


class Tracer:
    """Collects spans and per-layer aggregates while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, verdict)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.peak_terms = 0
        self.verdict = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end):
        self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((frame[0], name, start, end, parent, self.verdict))

    def _note(self, name, result):
        size = _SIZES.get(name)
        if size is not None:
            self.sizes[size[0]] += size[1](result)
        if name in _PEAK_TERMS:
            self.peak_terms = max(self.peak_terms, len(getattr(result, "terms", ())))

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            frame, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, parent, start, perf_counter())
            self._note(name, result)
            return result

        return wrapper

    def _gen(self, name, fn):
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            try:
                while True:
                    frame, parent = self._enter()
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, frame, parent, start, perf_counter())
                    self.sizes[name] += 1
                    yield item
            finally:
                getattr(inner, "close", lambda: None)()

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every layer function where qtoda code looks it up.  A
        function that no longer exists is skipped; its metrics read 0."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qtoda" or k.startswith("qtoda.")]
        make = {"span": self._span, "gen": self._gen, "count": self._count}
        for name, modname, attr, clsname, mode in LAYERS:
            owner = sys.modules.get(modname)
            if clsname is not None:
                cls = getattr(owner, clsname, None)
                orig = vars(cls).get(attr) if cls is not None else None
                if orig is not None:
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, make[mode](name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = make[mode](name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and counts, by the benchmark's names."""
        s, c, z = self.self_s, self.calls, self.sizes
        return {
            "network.build_s": s["network.build"],
            "network.paths_s": s["network.paths"],
            "network.strands": z["network.strands"],
            "network.families_s": s["network.families"],
            "network.families": z["network.families"],
            "correspondence.label_algebra_s": s["correspondence.label_algebra"],
            "correspondence.labels": z["correspondence.labels"],
            "correspondence.label_hamiltonian_s": s["correspondence.label_hamiltonian"],
            "correspondence.weight_map_s": s["correspondence.weight_map"],
            "correspondence.verify_self_s": s["correspondence.verify"],
            "lax.monodromy_s": s["lax.monodromy"],
            "lax.hamiltonians_s": s["lax.hamiltonians"],
            "lax.local_calls": c["lax.local"],
            "torus.mul_calls": c["torus.mul"],
            "torus.mul_s": s["torus.mul"],
            "torus.add_calls": c["torus.add"],
            "torus.add_s": s["torus.add"],
            "torus.pairing_calls": c["torus.pairing"],
            "torus.apply_s": s["torus.apply"],
            "torus.eq_s": s["torus.eq"],
            "torus.commutes_s": s["torus.commutes"],
            "torus.peak_terms": self.peak_terms,
            "cluster.naturality_s": s["cluster.naturality"],
            "cluster.search_s": s["cluster.search"],
            "cluster.mutate_calls": c["cluster.mutate"],
            "cluster.canonical_key_calls": c["cluster.canonical_key"],
            "cluster.canonical_key_s": s["cluster.canonical_key"],
            "cli.self_s": s["cli"],
            "serialize.dumps_s": s["serialize.dumps"],
            "serialize.bytes": z["serialize.bytes"],
        }

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write(self, path: Path):
        """Spans as rows [id, name, start_ns, end_ns, parent, verdict]."""
        names = sorted({row[1] for row in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((row[2] for row in self.spans), default=0.0)
        rows = [
            [i, index[n], round((a - t0) * 1e9), round((b - t0) * 1e9), p, v]
            for i, n, a, b, p, v in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["id", "name", "start_ns", "end_ns", "parent", "verdict"], "spans": rows}, fh, separators=(",", ":"))
