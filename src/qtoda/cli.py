"""Command-line front end.

Subcommands: words, network, quiver, hamiltonians, verify, mutate.
Exit codes of the ``qtoda`` command: 0 all passed, 1 verification
failure, 2 usage error (bad flag values such as ``--rank 0``, ``--jobs 0``,
``--depth -1``, ``--word=a``, a ``--seq`` move other than ``tau:K``/``mu:K``
or one at no vertex of the seed, an ``--index`` outside 1..count of the
Hamiltonians, a ``--word`` or ``--qvec`` on ``verify --check
mutation-equiv`` or ``rtt``, which run on no chosen word, included), 3
resource limit exceeded (``QTODA_MAX_FAMILIES``), 4 internal error (a
fault of the program, not of its input), each reported as one line on
stderr.  A stdout closed by its reader (``qtoda ... | head -1``) ends
the command quietly, with no stderr line: where the platform has
SIGPIPE, the signal's default action ends it
(status 141 in a POSIX shell).  ``main`` returns codes 0-2 and lets any
other exception, such as the RuntimeError of an exceeded limit, reach
its caller; ``console`` is the command's entry point and turns an
exceeded limit into code 3 and any other exception into code 4.

Importing this module loads the verifier path that every command shares
(``torus``, ``words``, ``network``, ``lax``, ``correspondence`` and
``serialize``) and nothing else of weight: ``quiver``, ``mutate`` and
``verify --check mutation-equiv`` import the cluster layer, a ``--jobs``
sweep over more than one word imports the process pool, and
``--seed-manifest`` imports the fixture manifest, each when it runs.
"""

from __future__ import annotations

import argparse
import re
import signal
import sys
from dataclasses import dataclass
from itertools import combinations

from . import lax as laxmod
from . import serialize
from .correspondence import (
    _rtt_witness,
    commutator_witness,
    lax_params,
    lax_strand_table,
    verify_equivalence_A,
    verify_equivalence_C,
    verify_weight_map,
)
from .network import (
    build_network,
    classical_matrix,
    fold_hamiltonians,
    matrix_product,
    reference_chip_matrices,
    strand_table,
)
from .torus import commutes
from .words import (
    DoubleWord,
    enumerate_double_coxeter,
    quiver_vector_of,
    word_of_quiver_vector,
)


@dataclass
class RunConfig:
    command: str
    kind: str = "A"
    rank: int = 2
    word: tuple[int, ...] | None = None
    qvec: tuple[int, ...] | None = None
    all_words: bool = False
    fmt: str = "text"
    route: str = "lax"
    check: str = "commute"
    index: int | None = None
    depth: int = 6
    jobs: int = 1
    sequence: tuple[tuple[str, int], ...] = ()


_MOVE = re.compile(r"(tau|mu):([+-]?\d+)")


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise SystemExit2(f"{flag} takes comma separated integers, got {text!r}") from None


def _parse_seq(text: str) -> tuple[tuple[str, int], ...]:
    """``tau:1,mu:-2`` -> (("tau", 1), ("mu", -2))."""
    moves = []
    for part in filter(None, text.split(",")):
        m = _MOVE.fullmatch(part.strip())
        if m is None:
            raise SystemExit2(f"--seq takes tau:K or mu:K moves, comma separated, got {part!r}")
        moves.append((m[1], int(m[2])))
    return tuple(moves)


def _select_words(cfg: RunConfig) -> list[DoubleWord]:
    selectors = sum(x is not None for x in (cfg.word, cfg.qvec)) + cfg.all_words
    if selectors != 1:
        raise SystemExit2("exactly one of --word, --qvec, --all-words is required")
    if cfg.all_words:
        return enumerate_double_coxeter(cfg.rank)
    try:
        if cfg.word is not None:
            return [DoubleWord(cfg.rank, cfg.word)]
        return [word_of_quiver_vector(cfg.rank, cfg.qvec)]
    except ValueError as exc:
        flag = "--word" if cfg.word is not None else "--qvec"
        raise SystemExit2(f"{flag}: {exc}") from None


def _one_word(cfg: RunConfig) -> DoubleWord:
    words = _select_words(cfg)
    if len(words) != 1:
        raise SystemExit2(f"{cfg.command} takes one word; --all-words selects {len(words)}")
    return words[0]


class SystemExit2(Exception):
    pass


def _emit(payload, cfg: RunConfig, latex_fn=None, text_fn=None):
    if cfg.fmt == "json":
        print(serialize.dumps(payload))
    elif cfg.fmt == "latex" and latex_fn is not None:
        print(latex_fn())
    elif text_fn is not None:
        print(text_fn())
    else:
        print(serialize.dumps(payload))


def cmd_words(cfg: RunConfig) -> int:
    words = enumerate_double_coxeter(cfg.rank)
    payload = {
        "schema_version": serialize.SCHEMA_VERSION,
        "rank": cfg.rank,
        "count": len(words),
        "words": [list(w.letters) for w in words],
        "quiver_vectors": [list(quiver_vector_of(w)) for w in words],
    }
    _emit(payload, cfg, text_fn=lambda: "\n".join(
        f"{list(w.letters)}  Q={list(quiver_vector_of(w))}" for w in words
    ))
    return 0


def cmd_network(cfg: RunConfig) -> int:
    word = _one_word(cfg)
    net = build_network(cfg.kind, word)
    if cfg.fmt == "dot":
        print(serialize.network_to_dot(net))
    else:
        print(serialize.dumps(serialize.network_to_dict(net)))
    return 0


def cmd_quiver(cfg: RunConfig) -> int:
    from .cluster import seed_from_word

    word = _one_word(cfg)
    seed = seed_from_word(cfg.kind, word)
    if cfg.fmt == "dot":
        print(serialize.seed_to_dot(seed))
    else:
        print(serialize.dumps(serialize.seed_to_dict(seed)))
    return 0


def _indices(cfg: RunConfig, count: int) -> list[int]:
    """The Hamiltonian indices to print: ``--index`` if given, else all."""
    if cfg.index is None:
        return list(range(1, count + 1))
    if not 1 <= cfg.index <= count:
        raise SystemExit2(f"--index must be between 1 and {count}, got {cfg.index}")
    return [cfg.index]


def cmd_hamiltonians(cfg: RunConfig) -> int:
    # on the lax/recursive routes of type A, --rank counts the chain
    # sites, one more than the network rank of the underlying word
    if cfg.route != "network" and cfg.kind == "A":
        if cfg.rank < 2:
            raise SystemExit2(f"--rank must be at least 2 on the {cfg.route} route of type A, got {cfg.rank}")
        if cfg.qvec is not None and len(cfg.qvec) != cfg.rank - 2:
            raise SystemExit2(
                f"--qvec: --rank {cfg.rank} on the {cfg.route} route of type A takes the quiver "
                f"vector of the rank-{cfg.rank - 1} word, {cfg.rank - 2} entries; got {len(cfg.qvec)}"
            )
        cfg = RunConfig(**{**cfg.__dict__, "rank": cfg.rank - 1})
    word = _one_word(cfg)
    out = {}
    if cfg.route == "network":
        net = build_network(cfg.kind, word)
        indices = _indices(cfg, net.num_rows)
        hams = fold_hamiltonians(net, indices, strand_table(net))
        for i in indices:
            out[f"H_{i}"] = hams[i]
    else:
        ctx, kvec = lax_params(cfg.kind, word)
        count = len(kvec) + 1 if cfg.kind == "A" else 2 * len(kvec) + 1
        indices = _indices(cfg, count)
        if cfg.route == "lax":
            hams = laxmod.lax_hamiltonians(ctx, kvec, cfg.kind)
            for i in indices:
                out[f"H_{i}"] = hams[i - 1]
        else:
            hams = laxmod.recursive_hamiltonians(ctx, kvec, cfg.kind, indices)
            for i in indices:
                out[f"H_{i}"] = hams[i]
    payload = {
        "schema_version": serialize.SCHEMA_VERSION,
        "type": cfg.kind,
        "word": list(word.letters),
        "route": cfg.route,
        "hamiltonians": {k: serialize.element_to_dict(v) for k, v in out.items()},
    }
    _emit(
        payload,
        cfg,
        latex_fn=lambda: "\n".join(
            f"{k} = {serialize.element_to_latex(v)}" for k, v in out.items()
        ),
        text_fn=lambda: "\n".join(f"{k} = {v!r}" for k, v in out.items()),
    )
    return 0


def _check_one_word(args) -> dict:
    kind, check, letters = args
    word = DoubleWord(len(letters) // 2, tuple(letters))
    if check == "equivalence":
        rep = verify_equivalence_A(word) if kind == "A" else verify_equivalence_C(word)
        return rep
    net = build_network(kind, word)
    if check == "alpha":
        return verify_weight_map(net)
    if check == "commute":
        hs = fold_hamiltonians(net, range(1, word.n + 1), lax_strand_table(net))
        # one packed pass over every pair; only a failing word is split into pairs
        bad = [] if commutes(*hs.values()) else [
            [a, b] for a, b in combinations(hs, 2) if not commutes(hs[a], hs[b])
        ]
        report = {"word": list(letters), "ok": not bad, "noncommuting_pairs": bad}
        if bad:
            # per failing pair, the least term of its commutator
            report["witnesses"] = [
                {"pair": [a, b], **commutator_witness(hs[a], hs[b])} for a, b in bad
            ]
        return report
    if check == "oracle":
        got = classical_matrix(net)
        ref = matrix_product(reference_chip_matrices(net))
        ok = all(
            got[i][j] == ref[i][j]
            for i in range(len(got))
            for j in range(len(got))
        )
        return {"word": list(letters), "ok": ok}
    raise ValueError(f"unknown check {check!r}")


def cmd_verify(cfg: RunConfig) -> int:
    # neither check runs on a chosen word: a selector would be ignored, and
    # rtt runs on no word at all, so --all-words would be ignored there too
    runs_on = {"rtt": "fixed index vectors", "mutation-equiv": "every word"}.get(cfg.check)
    selectors = [("--word", cfg.word), ("--qvec", cfg.qvec)]
    if cfg.check == "rtt":
        selectors.append(("--all-words", cfg.all_words or None))
    for flag, value in selectors:
        if runs_on and value is not None:
            raise SystemExit2(f"{flag} does not apply to --check {cfg.check}, which runs on {runs_on} of --rank")
    if cfg.check == "rtt":
        n = max(cfg.rank, 2)
        ctx = laxmod.lax_context(n)
        cases = [
            ({"site": i, "k": k, "barred": barred}, laxmod.local_lax(ctx, i, k, barred))
            for i in (1, 2)
            for k in (-1, 0, 1)
            for barred in (False, True)
        ]
        inner = (0,) * (n - 2)
        for kv in [(0,) + inner + (1,), (0,) * n, (-1,) + inner + (1,)]:
            cases.append(({"monodromy": list(kv)}, laxmod.monodromy(ctx, kv)))
        reports = []
        for head, m in cases:
            witness = _rtt_witness(m)
            report = {**head, "ok": witness is None}
            if witness is not None:
                # only a failing matrix gets the field, so passing output keeps its bytes
                report["first_diff"] = witness
            reports.append(report)
        ok = all(r["ok"] for r in reports)
        print(serialize.dumps({"check": "rtt", "ok": ok, "reports": reports}))
        return 0 if ok else 1
    if cfg.check == "mutation-equiv":
        from .cluster import mutation_equivalent, seed_from_word

        words = enumerate_double_coxeter(cfg.rank)
        seeds = [seed_from_word(cfg.kind, w) for w in words]
        paths = mutation_equivalent(seeds[0], seeds[1:], cfg.depth)
        reports = [
            {"word": list(w.letters), "reachable": path is not None, "path": path}
            for w, path in zip(words[1:], paths)
        ]
        ok = all(r["reachable"] for r in reports)
        print(serialize.dumps({"check": "mutation-equiv", "ok": ok, "reports": reports}))
        return 0 if ok else 1

    words = _select_words(cfg)
    tasks = [(cfg.kind, cfg.check, list(w.letters)) for w in words]
    # the pool forks all its workers up front: no more than there are words
    workers = min(cfg.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_check_one_word, tasks))
    else:
        reports = [_check_one_word(t) for t in tasks]
    ok = all(r["ok"] for r in reports)
    print(
        serialize.dumps(
            {"check": cfg.check, "type": cfg.kind, "ok": ok, "reports": reports}
        )
    )
    return 0 if ok else 1


def cmd_mutate(cfg: RunConfig) -> int:
    from .cluster import mutate_seed, mutate_swap, seed_from_word

    word = _one_word(cfg)
    seed = seed_from_word(cfg.kind, word)
    applied = []
    for tag, v in cfg.sequence:
        try:
            if tag == "tau":
                seed, _ = mutate_swap(seed, v)
            else:
                seed = mutate_seed(seed, v)
        except ValueError as exc:
            # tau:K mutates at -K: name the move as typed
            raise SystemExit2(f"--seq move {tag}:{v} cannot be applied: {exc}") from None
        applied.append([tag, v])
    if cfg.fmt == "dot":
        print(serialize.seed_to_dot(seed))
    else:
        payload = serialize.seed_to_dict(seed)
        payload["applied"] = applied
        print(serialize.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qtoda",
        description="Exact q-Toda systems: chip networks, cluster quivers, Lax matrices.",
    )
    p.add_argument("--seed-manifest", action="store_true", help="dump fixture values with provenance tags and exit")
    sub = p.add_subparsers(dest="command")
    # the flags every subcommand takes, built once and shared
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", dest="kind", choices=("A", "C"), default="A")
    common.add_argument("--rank", type=int, required=True)
    common.add_argument("--word", type=str, default=None, help="comma separated letters")
    common.add_argument("--qvec", type=str, default=None, help="quiver vector, descending")
    common.add_argument("--all-words", action="store_true")
    common.add_argument("--format", dest="fmt", choices=("json", "latex", "dot", "text"), default="json")
    common.add_argument("--jobs", type=int, default=1)

    sub.add_parser("words", help="enumerate canonical double Coxeter words", parents=[common])
    sub.add_parser("network", help="build a network; emit DOT or JSON", parents=[common])
    sub.add_parser("quiver", help="cluster seed of a word; emit DOT or JSON", parents=[common])
    sp = sub.add_parser("hamiltonians", help="compute Hamiltonians", parents=[common])
    sp.add_argument("--route", choices=("network", "lax", "recursive"), default="lax")
    sp.add_argument("--index", type=int, default=None)
    sp = sub.add_parser("verify", help="run verification suites", parents=[common])
    sp.add_argument(
        "--check",
        choices=("commute", "equivalence", "rtt", "alpha", "mutation-equiv", "oracle"),
        required=True,
    )
    sp.add_argument("--depth", type=int, default=6)
    sp = sub.add_parser("mutate", help="apply a mutation sequence to a seed", parents=[common])
    sp.add_argument("--seq", type=str, required=True, help="e.g. tau:1,mu:-2")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_manifest:
        from .fixtures import seed_manifest

        print(serialize.dumps(seed_manifest()))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    handlers = {
        "words": cmd_words,
        "network": cmd_network,
        "quiver": cmd_quiver,
        "hamiltonians": cmd_hamiltonians,
        "verify": cmd_verify,
        "mutate": cmd_mutate,
    }
    try:
        cfg = RunConfig(
            command=args.command,
            kind=getattr(args, "kind", "A"),
            rank=getattr(args, "rank", 2),
            word=_parse_ints(args.word, "--word") if getattr(args, "word", None) else None,
            qvec=_parse_ints(args.qvec, "--qvec") if getattr(args, "qvec", None) is not None else None,
            all_words=getattr(args, "all_words", False),
            fmt=getattr(args, "fmt", "json"),
            route=getattr(args, "route", "lax"),
            check=getattr(args, "check", "commute"),
            index=getattr(args, "index", None),
            depth=getattr(args, "depth", 6),
            jobs=getattr(args, "jobs", 1),
            sequence=_parse_seq(getattr(args, "seq", "")),
        )
        for flag, value, least in (
            ("--rank", cfg.rank, 1),
            ("--jobs", cfg.jobs, 1),
            ("--depth", cfg.depth, 0),
        ):
            if value < least:
                raise SystemExit2(f"{flag} must be at least {least}, got {value}")
        return handlers[cfg.command](cfg)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def console(argv=None) -> int:
    """Entry point of the ``qtoda`` command: ``main``, with an exceeded
    resource limit reported as one stderr line and exit code 3, and any
    other exception as one line and exit code 4.  A closed stdout ends
    the process by the default SIGPIPE action, where there is one."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        return main(argv)
    except Exception as exc:
        if getattr(exc, "limit", None) is not None:
            print(f"resource limit exceeded: {exc}", file=sys.stderr)
            return 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(console())
