"""Emit LaTeX tables of the Hamiltonians for every word of a rank.

Usage: python scripts/hamiltonian_tables.py [A|C] [rank]
"""

import sys

from qtoda import lax as laxmod
from qtoda.correspondence import lax_params
from qtoda.serialize import element_to_latex
from qtoda.words import enumerate_double_coxeter


def main():
    kind = sys.argv[1] if len(sys.argv) > 1 else "A"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    for word in enumerate_double_coxeter(n):
        ctx, kvec = lax_params(kind, word)
        hams = laxmod.lax_hamiltonians(ctx, kvec, kind)
        print(f"% word {list(word.letters)}, k = {list(kvec)}")
        for i, h in enumerate(hams, start=1):
            print(f"H_{{{i}}} &= {element_to_latex(h)} \\\\")
        print()


if __name__ == "__main__":
    main()
