"""scripts/hamiltonian_tables.py: one LaTeX line per Lax Hamiltonian."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtoda import lax as laxmod
from qtoda.correspondence import lax_params
from qtoda.serialize import element_to_latex
from qtoda.words import enumerate_double_coxeter

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "hamiltonian_tables.py"


@pytest.mark.parametrize("kind", ["A", "C"])
def test_tables_print_every_lax_hamiltonian(kind):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(SCRIPT), kind, "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expect = []
    for word in enumerate_double_coxeter(2):
        # the Lax side the equivalence check pairs with the word's network
        ctx, kvec = lax_params(kind, word)
        expect.append(f"% word {list(word.letters)}, k = {list(kvec)}")
        for i, h in enumerate(laxmod.lax_hamiltonians(ctx, kvec, kind), start=1):
            expect.append(f"H_{{{i}}} &= {element_to_latex(h)} \\\\")
        expect.append("")
    assert proc.stdout.splitlines() == expect
    # type A pads the quiver vector (1,) of the first word to (0, 1, 0)
    # on n+1 sites, type C appends one zero on n sites
    assert expect[0] == "% word [-2, -1, 1, 2], k = " + ("[0, 1, 0]" if kind == "A" else "[1, 0]")
    # 3 words, each with n+2 = 4 lines (type A, on n+1 sites) or 2n+1 = 5 (type C)
    assert sum(line.startswith("H_") for line in expect) == 3 * (4 if kind == "A" else 5)
