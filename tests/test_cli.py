import json
import os
import subprocess
import sys

import pytest

from qtoda import cli
from qtoda.cli import console, main
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
    code, _ = run(capsys, "verify", "--check", "rtt", "--type", "A", "--rank", "2", "--all-words")
    assert code == 0


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
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
