import concurrent.futures
import json
import os
import signal
import subprocess
import sys
from itertools import combinations, product

import pytest

from qtoda import cli
from qtoda import lax as laxmod
from qtoda.cli import console, main
from qtoda.correspondence import _rtt_witness
from qtoda.network import FAMILY_CAP_ENV


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_words_json(capsys):
    code, out = run(capsys, "words", "--type", "A", "--rank", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    assert len(payload["words"]) == 9


def test_network_dot_and_json(capsys):
    code, out = run(capsys, "network", "--type", "C", "--rank", "2", "--qvec", "0", "--format", "dot")
    assert code == 0 and "digraph" in out
    code, out = run(capsys, "network", "--type", "C", "--rank", "2", "--qvec", "0")
    assert code == 0
    assert json.loads(out)["type"] == "C"


def test_quiver_json(capsys):
    code, out = run(capsys, "quiver", "--type", "A", "--rank", "2", "--qvec", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert len(payload["labels"]) == 4


def test_hamiltonians_latex_contains_stated_terms(capsys):
    code, out = run(
        capsys,
        "hamiltonians", "--route", "lax", "--type", "A", "--rank", "3",
        "--qvec", "0", "--format", "latex",
    )
    assert code == 0
    h2 = next(line for line in out.splitlines() if line.startswith("H_2"))
    for frag in (
        "w_{1}^{-1} w_{2} w_{3}",
        "w_{3} D_{1} D_{2}^{-1}",
        "w_{1} D_{2} D_{3}^{-1}",
    ):
        assert frag in h2
    assert len(h2.split(" + ")) == 5


def test_route_agreement_modulo_shift(capsys):
    code, out = run(
        capsys,
        "verify", "--check", "equivalence", "--type", "A", "--rank", "2", "--all-words",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_exit_codes(capsys):
    code, _ = run(capsys, "verify", "--check", "oracle", "--type", "A", "--rank", "2", "--all-words")
    assert code == 0
    code, _ = run(capsys, "verify", "--check", "rtt", "--type", "A", "--rank", "2")
    assert code == 0
    # rtt runs on no word, so --all-words is refused like --word and --qvec
    code, _ = run(capsys, "verify", "--check", "rtt", "--type", "A", "--rank", "2", "--all-words")
    assert code == 2


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_rtt_check_at_every_rank(capsys, rank):
    # the monodromy checks use index vectors of the context's length
    code, out = run(capsys, "verify", "--check", "rtt", "--rank", str(rank))
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    n = max(rank, 2)
    inner = [0] * (n - 2)
    assert [r["monodromy"] for r in payload["reports"] if "monodromy" in r] == [
        [0] + inner + [1],
        [0] * n,
        [-1] + inner + [1],
    ]


def test_verify_alpha_parallel(capsys):
    code, out = run(
        capsys,
        "verify", "--check", "alpha", "--type", "A", "--rank", "2", "--all-words",
        "--jobs", "2",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_mutation_equiv_check(capsys):
    code, out = run(capsys, "verify", "--check", "mutation-equiv", "--type", "A", "--rank", "2", "--all-words")
    assert code == 0


@pytest.mark.parametrize(
    "check, selector",
    [
        (["--check", "mutation-equiv", "--type", "A", "--rank", "3"], "--word=-1,-2,-3,1,2,3"),
        (["--check", "mutation-equiv", "--type", "A", "--rank", "3"], "--qvec=0,0"),
        (["--check", "rtt", "--rank", "2"], "--qvec=0"),
        (["--check", "rtt", "--rank", "2"], "--word=-1,-2,1,2"),
        (["--check", "rtt", "--rank", "2"], "--all-words"),
    ],
)
def test_word_selectors_are_refused_by_checks_without_a_word(capsys, check, selector):
    # neither check runs on a chosen word, so a selector is a usage error,
    # not silently ignored
    assert main(["verify", *check, selector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = selector.split("=")[0]
    assert captured.err.count("\n") == 1 and flag in captured.err
    # without it the check runs as before
    assert main(["verify", *check]) == 0


def test_mutate_sequence(capsys):
    code, out = run(capsys, "mutate", "--type", "A", "--rank", "2", "--qvec", "0", "--seq", "tau:2")
    assert code == 0
    assert json.loads(out)["applied"] == [["tau", 2]]


@pytest.mark.parametrize(
    "route, kind, rank, count",
    [
        ("network", "A", "2", 3),
        ("network", "C", "2", 4),
        ("lax", "A", "3", 4),
        ("recursive", "A", "3", 4),
        ("lax", "C", "2", 5),
        ("recursive", "C", "2", 5),
    ],
)
def test_hamiltonian_index_is_checked(capsys, route, kind, rank, count):
    base = ["hamiltonians", "--route", route, "--type", kind, "--rank", rank, "--qvec", "0"]
    for bad in (0, count + 1, -1):
        assert main(base + ["--index", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --index must be between 1 and {count}, got {bad}\n"
    code, out = run(capsys, *base)
    every = json.loads(out)["hamiltonians"]
    assert code == 0 and sorted(every) == [f"H_{i}" for i in range(1, count + 1)]
    for i in (1, count):
        code, out = run(capsys, *base, "--index", str(i))
        assert code == 0
        assert json.loads(out)["hamiltonians"] == {f"H_{i}": every[f"H_{i}"]}


@pytest.mark.parametrize("kind, rank", [("A", 2), ("A", 3), ("A", 4), ("C", 2), ("C", 3)])
def test_lax_and_recursive_routes_print_the_same_hamiltonians(capsys, kind, rank):
    # every word of the rank; on these routes a type A --rank counts chain
    # sites, so its word has one rank less
    entries = rank - 2 if kind == "A" else rank - 1
    for q in product((-1, 0, 1), repeat=entries):
        blocks = {}
        for route in ("lax", "recursive"):
            argv = ("hamiltonians", "--route", route, "--type", kind, "--rank", str(rank), "--qvec=" + ",".join(map(str, q)))
            code, out = run(capsys, *argv)
            assert code == 0, argv
            blocks[route] = json.loads(out)["hamiltonians"]
        assert blocks["lax"] == blocks["recursive"], (kind, rank, q)


def test_a_closed_stdout_ends_the_command_quietly():
    # the reader takes one line of a 600 kB listing and closes the pipe,
    # so a later write of the command meets a closed stdout
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtoda.cli", "words", "--rank", "9", "--format", "text"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.readline().startswith(b"[")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 4
    assert err == b""
    if hasattr(signal, "SIGPIPE"):
        assert proc.returncode == -signal.SIGPIPE


def test_mutate_error_names_the_typed_move(capsys):
    assert main(["mutate", "--rank", "2", "--qvec", "0", "--seq", "tau:2,tau:9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --seq move tau:9 cannot be applied: no vertex -9 to mutate at\n"


def test_usage_errors():
    assert main(["hamiltonians", "--rank", "2"]) == 2  # no selector
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--rank", "2"])  # missing --check
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("mutate", "--rank", "2", "--qvec", "0", "--seq", "foo"),
        ("mutate", "--rank", "2", "--qvec", "0", "--seq", "tau:x"),
        ("mutate", "--rank", "2", "--qvec", "0", "--seq", "zz:1"),
        ("mutate", "--rank", "2", "--qvec", "0", "--seq", "mu:9"),
        ("mutate", "--rank", "2", "--qvec", "0", "--seq", "tau:2,mu:"),
        ("network", "--rank", "2", "--word=a"),
        ("quiver", "--rank", "2", "--qvec", "1,x"),
    ],
)
def test_malformed_selectors_and_moves_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


def test_cli_import_does_not_load_sympy():
    code = "import sys, qtoda.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout == "False\n"


def test_cli_import_loads_the_verifier_path_and_defers_the_rest():
    # what only some commands run is imported by those commands; what
    # every verify run needs is loaded at import, so no cost moves into a verdict
    deferred = ("multiprocessing", "concurrent.futures", "qtoda.cluster", "qtoda.fixtures")
    loaded = ("qtoda.torus", "qtoda.network", "qtoda.lax", "qtoda.correspondence", "qtoda.serialize")
    code = f"import sys, qtoda.cli; print([m in sys.modules for m in {deferred + loaded!r}])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout == f"{[False] * len(deferred) + [True] * len(loaded)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("quiver", "--rank", "3", "--qvec", "1,0"),
        ("mutate", "--rank", "3", "--qvec", "1,0", "--seq", "tau:1,mu:-2"),
        ("verify", "--check", "mutation-equiv", "--type", "C", "--rank", "2"),
        ("--seed-manifest",),
        ("verify", "--check", "equivalence", "--type", "A", "--rank", "2", "--all-words", "--jobs", "2"),
    ],
)
def test_deferred_imports_run_in_a_fresh_process(capsys, argv):
    # each of these commands imports what it runs on its own
    proc = subprocess.run(
        [sys.executable, "-m", "qtoda.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    code, out = run(capsys, *argv)
    assert code == 0 and proc.stdout == out


def test_seed_manifest(capsys):
    code, out = run(capsys, "--seed-manifest")
    assert code == 0
    payload = json.loads(out)
    names = {f["name"] for f in payload["fixtures"]}
    assert "rank3_lax_lists" in names
    assert all("provenance" in f for f in payload["fixtures"])


def test_json_output_is_byte_stable(capsys):
    _, out1 = run(capsys, "words", "--type", "A", "--rank", "4")
    _, out2 = run(capsys, "words", "--type", "A", "--rank", "4")
    assert out1 == out2
    _, h1 = run(capsys, "hamiltonians", "--route", "lax", "--type", "C", "--rank", "2", "--qvec", "1")
    _, h2 = run(capsys, "hamiltonians", "--route", "lax", "--type", "C", "--rank", "2", "--qvec", "1")
    assert h1 == h2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--check", "equivalence", "--rank", "0", "--all-words"), "--rank"),
        (("words", "--rank", "-1"), "--rank"),
        (("verify", "--check", "alpha", "--rank", "2", "--all-words", "--jobs", "0"), "--jobs"),
        (("verify", "--check", "alpha", "--rank", "2", "--all-words", "--jobs", "-3"), "--jobs"),
    ],
)
def test_flag_values_below_one_are_usage_errors(capsys, argv, flag):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {flag} must be at least 1, got {argv[argv.index(flag) + 1]}\n"


def test_negative_depth_is_a_usage_error(capsys):
    # not a failed search: the seeds were never compared
    argv = ["verify", "--check", "mutation-equiv", "--type", "A", "--rank", "2", "--depth", "-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --depth must be at least 0, got -3\n"
    code, out = run(capsys, *argv[:-1], "0")
    assert code in (0, 1) and json.loads(out)["check"] == "mutation-equiv"


def test_jobs_never_exceed_the_word_count(capsys, monkeypatch):
    # a recorder in place of the pool: it starts no process
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # cmd_verify imports the pool class when it needs one, so the patch goes to its home
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    code, out = run(capsys, "verify", "--check", "alpha", "--rank", "2", "--qvec", "0", "--jobs", "64")
    assert code == 0 and len(json.loads(out)["reports"]) == 1
    assert started == []  # one word runs in process
    code, out = run(capsys, "verify", "--check", "alpha", "--rank", "2", "--all-words", "--jobs", "64")
    words = len(json.loads(out)["reports"])
    assert code == 0 and words > 1
    assert started == [words]
    code, out = run(capsys, "verify", "--check", "alpha", "--rank", "2", "--all-words", "--jobs", "2")
    assert code == 0 and started == [words, 2]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_family_cap_is_a_resource_limit(capsys, monkeypatch, jobs):
    monkeypatch.setenv(FAMILY_CAP_ENV, "1")
    argv = ["verify", "--check", "equivalence", "--type", "A", "--rank", "2", "--all-words", "--jobs", jobs]
    with pytest.raises(RuntimeError, match=FAMILY_CAP_ENV):
        main(argv)  # library callers see the error itself
    capsys.readouterr()
    assert console(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource limit exceeded: family enumeration exceeded {FAMILY_CAP_ENV}=1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--check", "commute", "--type", "A", "--rank", "3", "--all-words"),
        ("hamiltonians", "--route", "network", "--type", "C", "--rank", "2", "--qvec", "1"),
    ],
)
def test_family_cap_stops_commute_and_network_route(capsys, monkeypatch, argv):
    # both fold every size from one family search; the cap still counts
    # the families of each size
    monkeypatch.setenv(FAMILY_CAP_ENV, "1")
    assert console(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource limit exceeded: family enumeration exceeded {FAMILY_CAP_ENV}=1\n"


def test_noncommuting_pair_reports_its_commutator_witness(capsys, monkeypatch):
    # H_2 perturbed by one generator: every pair with H_2 fails, and each
    # witness is the least term of a*b - b*a
    folded = []

    def perturbed(net, sizes, table):
        hs = fold_hamiltonians(net, sizes, table)
        hs[2] = hs[2] + table.target.generator(0) - table.target.monomial(table.target.basis_vec(4), 1, 2)
        folded.append(hs)
        return hs

    fold_hamiltonians = cli.fold_hamiltonians
    argv = ["verify", "--check", "commute", "--type", "A", "--rank", "3", "--qvec", "1,0"]
    code, out = run(capsys, *argv)
    clean = json.loads(out)["reports"][0]
    assert code == 0 and "witnesses" not in clean
    monkeypatch.setattr(cli, "fold_hamiltonians", perturbed)
    code, out = run(capsys, *argv)
    (rep,) = json.loads(out)["reports"]
    assert code == 1 and not rep["ok"]
    assert rep["noncommuting_pairs"] == [[1, 2], [2, 3]]
    (hs,) = folded
    assert [w["pair"] for w in rep["witnesses"]] == rep["noncommuting_pairs"]
    for w in rep["witnesses"]:
        a, b = (hs[i] for i in w["pair"])
        oracle = a * b - b * a
        vec = min(oracle.terms)
        assert w["exponents"] == list(vec)
        assert w["coeff"] == [[str(q), c] for q, c in sorted(oracle.terms[vec].items())]
        assert w["coeff"]


def test_console_passes_other_codes_through(capsys):
    assert console(["words", "--type", "A", "--rank", "2"]) == 0
    assert console(["words", "--rank", "0"]) == 2


def test_internal_faults_are_not_usage_errors(capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise ValueError("z-support [9] outside the predicted window")

    monkeypatch.setattr(cli.laxmod, "lax_hamiltonians", fault)
    argv = ["hamiltonians", "--route", "lax", "--type", "A", "--rank", "3", "--qvec", "0"]
    with pytest.raises(ValueError, match="predicted window"):
        main(argv)  # library callers see the error itself
    capsys.readouterr()
    assert console(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: z-support [9] outside the predicted window\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("network", "--rank", "2", "--all-words"), "network takes one word; --all-words selects 3"),
        (("hamiltonians", "--route", "network", "--rank", "2", "--all-words"), "hamiltonians takes one word; --all-words selects 3"),
        (("hamiltonians", "--route", "lax", "--rank", "1", "--all-words"), "--rank must be at least 2 on the lax route of type A, got 1"),
        (("network", "--rank", "2", "--word=1,-1,2,-2"), "--word: word must be unmixed: negative letters first"),
        (("quiver", "--rank", "3", "--qvec", "1,2"), "--qvec: quiver vector entries must be -1, 0 or 1"),
        (
            ("hamiltonians", "--route", "lax", "--type", "A", "--rank", "4", "--qvec", "0,0,0"),
            "--qvec: --rank 4 on the lax route of type A takes the quiver vector of the rank-3 word, 2 entries; got 3",
        ),
        (
            ("hamiltonians", "--route", "recursive", "--type", "A", "--rank", "2", "--qvec", "1"),
            "--qvec: --rank 2 on the recursive route of type A takes the quiver vector of the rank-1 word, 0 entries; got 1",
        ),
    ],
)
def test_bad_selections_are_usage_errors(capsys, argv, message):
    assert console(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def _reference_parser():
    """The parser as it was built before the subcommands shared one
    parent parser: the seven common flags added to each subcommand anew."""
    import argparse

    p = argparse.ArgumentParser(
        prog="qtoda",
        description="Exact q-Toda systems: chip networks, cluster quivers, Lax matrices.",
    )
    p.add_argument("--seed-manifest", action="store_true", help="dump fixture values with provenance tags and exit")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--type", dest="kind", choices=("A", "C"), default="A")
        sp.add_argument("--rank", type=int, required=True)
        sp.add_argument("--word", type=str, default=None, help="comma separated letters")
        sp.add_argument("--qvec", type=str, default=None, help="quiver vector, descending")
        sp.add_argument("--all-words", action="store_true")
        sp.add_argument("--format", dest="fmt", choices=("json", "latex", "dot", "text"), default="json")
        sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("words", help="enumerate canonical double Coxeter words")
    common(sp)
    sp = sub.add_parser("network", help="build a network; emit DOT or JSON")
    common(sp)
    sp = sub.add_parser("quiver", help="cluster seed of a word; emit DOT or JSON")
    common(sp)
    sp = sub.add_parser("hamiltonians", help="compute Hamiltonians")
    common(sp)
    sp.add_argument("--route", choices=("network", "lax", "recursive"), default="lax")
    sp.add_argument("--index", type=int, default=None)
    sp = sub.add_parser("verify", help="run verification suites")
    common(sp)
    sp.add_argument(
        "--check",
        choices=("commute", "equivalence", "rtt", "alpha", "mutation-equiv", "oracle"),
        required=True,
    )
    sp.add_argument("--depth", type=int, default=6)
    sp = sub.add_parser("mutate", help="apply a mutation sequence to a seed")
    common(sp)
    sp.add_argument("--seq", type=str, required=True, help="e.g. tau:1,mu:-2")
    return p


SUBCOMMANDS = ("words", "network", "quiver", "hamiltonians", "verify", "mutate")


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_parser_help_matches_the_reference(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    new, ref = cli.build_parser(), _reference_parser()
    assert new.format_help() == ref.format_help()
    assert new.format_usage() == ref.format_usage()
    new_subs, ref_subs = _subparsers(new), _subparsers(ref)
    assert tuple(new_subs) == tuple(ref_subs) == SUBCOMMANDS
    for name in SUBCOMMANDS:
        assert new_subs[name].format_help() == ref_subs[name].format_help(), name


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("--seed-manifest",),
        ("words", "--rank", "3"),
        ("network", "--type", "C", "--rank", "2", "--qvec", "0", "--format", "dot"),
        ("quiver", "--rank", "3", "--word=-1,-2,1,2", "--jobs", "2"),
        ("hamiltonians", "--route", "network", "--type", "C", "--rank", "3", "--all-words", "--index", "2"),
        ("verify", "--check", "commute", "--type", "A", "--rank", "4", "--all-words", "--jobs", "2"),
        ("verify", "--check", "mutation-equiv", "--rank", "3", "--depth", "8", "--format", "text"),
        ("mutate", "--rank", "3", "--qvec", "1,0", "--seq", "tau:1,mu:-2"),
    ],
)
def test_parser_namespaces_match_the_reference(argv):
    assert vars(cli.build_parser().parse_args(list(argv))) == vars(_reference_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        ("words",),
        ("verify", "--rank", "3", "--all-words"),
        ("verify", "--check", "nope", "--rank", "3"),
        ("mutate", "--rank", "3", "--type", "B"),
        ("hamiltonians", "--rank", "x"),
    ],
)
def test_parser_rejects_what_the_reference_rejects(capsys, argv):
    errors = []
    for parser in (cli.build_parser(), _reference_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(list(argv))
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1] and errors[0][0] == 2


@pytest.mark.parametrize(
    "kind,rank,qvec,index,central",
    [
        ("C", 3, "1,-1", 1, False),
        ("C", 3, "0,0", 3, False),
        ("A", 4, "-1,0,1", 4, False),
        ("A", 4, "0,1,0", 2, True),
    ],
)
def test_failing_word_reports_the_oracle_pairs_and_witnesses(capsys, monkeypatch, kind, rank, qvec, index, central):
    # one Hamiltonian perturbed: by a generator, which breaks some of its
    # pairs, or by a central unit term, which breaks none.  The report
    # must name exactly the pairs whose a*b - b*a is nonzero.
    folded = []
    fold_hamiltonians = cli.fold_hamiltonians

    def perturbed(net, sizes, table):
        hs = fold_hamiltonians(net, sizes, table)
        ctx = table.target
        extra = ctx.one().q_shift(1, 3) if central else ctx.monomial(ctx.basis_vec(1), 1, -2)
        hs[index] = hs[index] + extra
        folded.append(hs)
        return hs

    monkeypatch.setattr(cli, "fold_hamiltonians", perturbed)
    code, out = run(capsys, "verify", "--check", "commute", "--type", kind, "--rank", str(rank), f"--qvec={qvec}")
    (rep,) = json.loads(out)["reports"]
    (hs,) = folded
    pairs = [[a, b] for a, b in combinations(hs, 2) if not (hs[a] * hs[b] - hs[b] * hs[a]).is_zero()]
    assert rep["noncommuting_pairs"] == pairs
    assert rep["ok"] == (not pairs) and code == (1 if pairs else 0)
    assert bool(pairs) != central
    if central:
        assert "witnesses" not in rep
        return
    assert [w["pair"] for w in rep["witnesses"]] == pairs
    for w, (a, b) in zip(rep["witnesses"], pairs):
        oracle = hs[a] * hs[b] - hs[b] * hs[a]
        vec = min(oracle.terms)
        assert w["exponents"] == list(vec)
        assert w["coeff"] == [[str(q), c] for q, c in sorted(oracle.terms[vec].items())]


def test_failing_rtt_report_names_its_first_differing_cell(capsys, monkeypatch):
    real = laxmod.monodromy

    def broken(ctx, kv):
        # a unit added to the (1,1) entry of one monodromy breaks RTT
        t = real(ctx, kv)
        if kv != (0, 0):
            return t
        return laxmod.LaxMatrix(ctx, ((t[0, 0] + t[0, 0].ctx.one(), t[0, 1]), (t[1, 0], t[1, 1])))

    monkeypatch.setattr(laxmod, "monodromy", broken)
    code, out = run(capsys, "verify", "--check", "rtt", "--rank", "2")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    failing = [r for r in payload["reports"] if not r["ok"]]
    assert [r.get("monodromy") for r in failing] == [[0, 0]]
    assert failing[0]["first_diff"] == _rtt_witness(broken(laxmod.lax_context(2), (0, 0)))
    assert set(failing[0]["first_diff"]) == {"cell", "exponents", "lhs_coeff", "rhs_coeff"}
    # passing reports carry no witness field
    assert all("first_diff" not in r for r in payload["reports"] if r["ok"])
