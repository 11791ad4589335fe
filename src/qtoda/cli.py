"""Command-line front end.

Subcommands: words, network, quiver, hamiltonians, verify, mutate.
Exit codes of the ``qtoda`` command: 0 all passed, 1 verification
failure, 2 usage error (bad flag values such as ``--rank 0``, ``--jobs 0``,
``--depth -1``, ``--word=a``, a ``QTODA_MAX_FAMILIES`` that is not a
whole number >= 0, a ``--seq`` move other than ``tau:K``/``mu:K``
or one at no vertex of the seed, an ``--index`` outside 1..count of the
Hamiltonians, and a word selector that a command would ignore included:
``--word``, ``--qvec`` or ``--all-words`` on ``words`` or ``verify
--check rtt``, ``--word`` or ``--qvec`` on ``verify --check
mutation-equiv``, and a ``--format`` the subcommand does not emit:
``words`` emits json or text, ``network``, ``quiver`` and ``mutate``
json or dot, ``hamiltonians`` json, latex or text, ``verify`` json), 3
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
The parser is built once per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import re
import signal
import sys
from functools import cache
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
    family_cap,
    fold_hamiltonians,
    matrix_product,
    reference_chip_matrices,
    strand_table,
)
from .torus import commutator, commutes
from .words import (
    DoubleWord,
    enumerate_double_coxeter,
    quiver_vector_of,
    word_of_quiver_vector,
)


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


def _select_words(args: argparse.Namespace) -> list[DoubleWord]:
    selectors = sum(x is not None for x in (args.word, args.qvec)) + args.all_words
    if selectors != 1:
        raise SystemExit2("exactly one of --word, --qvec, --all-words is required")
    if args.all_words:
        return enumerate_double_coxeter(args.rank)
    try:
        if args.word is not None:
            return [DoubleWord(args.rank, args.word)]
        return [word_of_quiver_vector(args.rank, args.qvec)]
    except ValueError as exc:
        flag = "--word" if args.word is not None else "--qvec"
        raise SystemExit2(f"{flag}: {exc}") from None


def _one_word(args: argparse.Namespace) -> DoubleWord:
    words = _select_words(args)
    if len(words) != 1:
        raise SystemExit2(f"{args.command} takes one word; --all-words selects {len(words)}")
    return words[0]


class SystemExit2(Exception):
    pass


# the --format values each subcommand emits; the parser offers all four
# to every subcommand, and ``main`` refuses the others
_FORMATS = {
    "words": ("json", "text"),
    "network": ("json", "dot"),
    "quiver": ("json", "dot"),
    "hamiltonians": ("json", "latex", "text"),
    "verify": ("json",),
    "mutate": ("json", "dot"),
}


def _emit(payload, args: argparse.Namespace, text_fn, latex_fn=None):
    if args.fmt == "json":
        print(serialize.dumps(payload))
    elif args.fmt == "latex":
        print(latex_fn())
    else:
        print(text_fn())


def _refuse_selectors(args: argparse.Namespace, where: str, all_words: bool) -> None:
    """A usage error for a word selector that ``where``, a command that
    picks its own words of --rank, would ignore: ``--word``, ``--qvec``,
    and ``--all-words`` too if ``all_words``."""
    selectors = [("--word", args.word), ("--qvec", args.qvec)]
    if all_words:
        selectors.append(("--all-words", args.all_words or None))
    for flag, value in selectors:
        if value is not None:
            raise SystemExit2(f"{flag} does not apply to {where} of --rank")


def cmd_words(args: argparse.Namespace) -> int:
    _refuse_selectors(args, "words, which lists every word", all_words=True)
    words = enumerate_double_coxeter(args.rank)
    payload = {
        "schema_version": serialize.SCHEMA_VERSION,
        "rank": args.rank,
        "count": len(words),
        "words": [list(w.letters) for w in words],
        "quiver_vectors": [list(quiver_vector_of(w)) for w in words],
    }
    _emit(payload, args, text_fn=lambda: "\n".join(
        f"{list(w.letters)}  Q={list(quiver_vector_of(w))}" for w in words
    ))
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    word = _one_word(args)
    net = build_network(args.kind, word)
    if args.fmt == "dot":
        print(serialize.network_to_dot(net))
    else:
        print(serialize.dumps(serialize.network_to_dict(net)))
    return 0


def cmd_quiver(args: argparse.Namespace) -> int:
    from .cluster import seed_from_word

    word = _one_word(args)
    seed = seed_from_word(args.kind, word)
    if args.fmt == "dot":
        print(serialize.seed_to_dot(seed))
    else:
        print(serialize.dumps(serialize.seed_to_dict(seed)))
    return 0


def _indices(args: argparse.Namespace, count: int) -> list[int]:
    """The Hamiltonian indices to print: ``--index`` if given, else all."""
    if args.index is None:
        return list(range(1, count + 1))
    if not 1 <= args.index <= count:
        raise SystemExit2(f"--index must be between 1 and {count}, got {args.index}")
    return [args.index]


def cmd_hamiltonians(args: argparse.Namespace) -> int:
    # on the lax/recursive routes of type A, --rank counts the chain
    # sites, one more than the network rank of the underlying word
    if args.route != "network" and args.kind == "A":
        if args.rank < 2:
            raise SystemExit2(f"--rank must be at least 2 on the {args.route} route of type A, got {args.rank}")
        if args.qvec is not None and len(args.qvec) != args.rank - 2:
            raise SystemExit2(
                f"--qvec: --rank {args.rank} on the {args.route} route of type A takes the quiver "
                f"vector of the rank-{args.rank - 1} word, {args.rank - 2} entries; got {len(args.qvec)}"
            )
        args = argparse.Namespace(**{**vars(args), "rank": args.rank - 1})
    word = _one_word(args)
    out = {}
    if args.route == "network":
        net = build_network(args.kind, word)
        indices = _indices(args, net.num_rows)
        hams = fold_hamiltonians(net, indices, strand_table(net))
        for i in indices:
            out[f"H_{i}"] = hams[i]
    else:
        ctx, kvec = lax_params(args.kind, word)
        count = len(kvec) + 1 if args.kind == "A" else 2 * len(kvec) + 1
        indices = _indices(args, count)
        if args.route == "lax":
            hams = laxmod.lax_hamiltonians(ctx, kvec, args.kind, indices)
            for i, h in zip(indices, hams):
                out[f"H_{i}"] = h
        else:
            hams = laxmod.recursive_hamiltonians(ctx, kvec, args.kind, indices)
            for i in indices:
                out[f"H_{i}"] = hams[i]
    payload = {
        "schema_version": serialize.SCHEMA_VERSION,
        "type": args.kind,
        "word": list(word.letters),
        "route": args.route,
        "hamiltonians": {k: serialize.element_to_dict(v) for k, v in out.items()},
    }
    _emit(
        payload,
        args,
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
        return verify_equivalence_A(word) if kind == "A" else verify_equivalence_C(word)
    net = build_network(kind, word)
    if check == "alpha":
        return verify_weight_map(net)
    if check == "commute":
        hs = fold_hamiltonians(net, range(1, word.n + 1), lax_strand_table(net))
        # one packed pass over every pair; only a failing word builds the
        # commutator of each pair, once
        comms = {} if commutes(*hs.values()) else {
            (a, b): c for a, b in combinations(hs, 2) if (c := commutator(hs[a], hs[b]))
        }
        report = {"word": list(letters), "ok": not comms, "noncommuting_pairs": [[a, b] for a, b in comms]}
        if comms:
            # per failing pair, the least term of its commutator
            report["witnesses"] = [{"pair": [a, b], **commutator_witness(c)} for (a, b), c in comms.items()]
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


def cmd_verify(args: argparse.Namespace) -> int:
    # neither check runs on a chosen word: a selector would be ignored, and
    # rtt runs on no word at all, so --all-words would be ignored there too
    runs_on = {"rtt": "fixed index vectors", "mutation-equiv": "every word"}.get(args.check)
    if runs_on:
        _refuse_selectors(args, f"--check {args.check}, which runs on {runs_on}", all_words=args.check == "rtt")
    if args.check == "rtt":
        n = max(args.rank, 2)
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
    if args.check == "mutation-equiv":
        from .cluster import mutation_equivalent, seed_from_word

        words = enumerate_double_coxeter(args.rank)
        seeds = [seed_from_word(args.kind, w) for w in words]
        paths = mutation_equivalent(seeds[0], seeds[1:], args.depth)
        reports = [
            {"word": list(w.letters), "reachable": path is not None, "path": path}
            for w, path in zip(words[1:], paths)
        ]
        ok = all(r["reachable"] for r in reports)
        print(serialize.dumps({"check": "mutation-equiv", "ok": ok, "reports": reports}))
        return 0 if ok else 1

    words = _select_words(args)
    tasks = [(args.kind, args.check, list(w.letters)) for w in words]
    # the pool forks all its workers up front: no more than there are words
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_check_one_word, tasks))
    else:
        reports = [_check_one_word(t) for t in tasks]
    ok = all(r["ok"] for r in reports)
    print(serialize.dumps({"check": args.check, "type": args.kind, "ok": ok, "reports": reports}))
    return 0 if ok else 1


def cmd_mutate(args: argparse.Namespace) -> int:
    from .cluster import mutate_seed, mutate_swap, seed_from_word

    word = _one_word(args)
    seed = seed_from_word(args.kind, word)
    applied = []
    for tag, v in args.seq:
        try:
            if tag == "tau":
                seed, _ = mutate_swap(seed, v)
            else:
                seed = mutate_seed(seed, v)
        except ValueError as exc:
            # tau:K mutates at -K: name the move as typed
            raise SystemExit2(f"--seq move {tag}:{v} cannot be applied: {exc}") from None
        applied.append([tag, v])
    if args.fmt == "dot":
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


# a parse keeps no state in the parser: each call gets a new namespace
_parser = cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
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
        # parsed in place; every default is the parser's
        args.word = _parse_ints(args.word, "--word") if args.word else None
        if args.qvec is not None:
            args.qvec = _parse_ints(args.qvec, "--qvec")
        if args.command == "mutate":
            args.seq = _parse_seq(args.seq)
        if args.fmt not in _FORMATS[args.command]:
            emits = "|".join(_FORMATS[args.command])
            raise SystemExit2(f"--format {args.fmt} does not apply to {args.command}, which emits {emits}")
        # --depth is a flag of verify alone
        for flag, name, least in (("--rank", "rank", 1), ("--jobs", "jobs", 1), ("--depth", "depth", 0)):
            value = vars(args).get(name)
            if value is not None and value < least:
                raise SystemExit2(f"{flag} must be at least {least}, got {value}")
        try:
            family_cap()
        except ValueError as exc:
            raise SystemExit2(str(exc)) from None
        return handlers[args.command](args)
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
