"""Exact q-Toda systems of types A and C.

Two independent constructions of the same commuting Hamiltonians: as
quantized non-intersecting path sums on directed chip networks, and as
z-coefficients of 2x2 Lax monodromies, together with the cluster-quiver
structure tying the two together.
"""

from .torus import (
    MonomialMap,
    TorusContext,
    TorusElement,
    commutator,
    commutes,
)
from .words import (
    DoubleWord,
    enumerate_double_coxeter,
    index_vector_of,
    quiver_vector_of,
    standard_word,
    word_of_quiver_vector,
)

__all__ = [
    "DoubleWord",
    "MonomialMap",
    "TorusContext",
    "TorusElement",
    "commutator",
    "commutes",
    "enumerate_double_coxeter",
    "index_vector_of",
    "quiver_vector_of",
    "standard_word",
    "word_of_quiver_vector",
]
