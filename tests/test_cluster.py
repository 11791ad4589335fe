
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoda.cluster import (
    Seed,
    a_assignment,
    amalgamate,
    amalgamate_pairs,
    check_ensemble_naturality,
    disk_seed_from_word,
    ensemble_map,
    ensemble_substitution,
    mutate_A_classical,
    mutate_seed,
    mutate_swap,
    mutate_X_classical,
    mutation_equivalent,
    quantum_mutate,
    seed_from_word,
    standard_exchange_matrix,
)
from qtoda.serialize import seed_to_dot
from qtoda.torus import RationalLaurent
from qtoda.words import enumerate_double_coxeter, standard_word, word_of_quiver_vector


def qseed(kind, n, q):
    return seed_from_word(kind, word_of_quiver_vector(n, q))


# -- quiver extraction --------------------------------------------------------


@pytest.mark.parametrize("kind", ["A", "C"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_word_gives_cartan_block_matrix(kind, n):
    s = seed_from_word(kind, standard_word(n))
    labels, eps = standard_exchange_matrix(kind, n)
    for i in labels:
        for j in labels:
            assert s.entry(i, j) == eps.get((i, j), Fraction(0)), (i, j)


def test_rank2_type_a_block_patterns():
    # quiver-block reading of the three words; arrows as drawn
    s1 = qseed("A", 2, (1,))
    assert s1.entry(1, -2) == 2 and s1.entry(-2, -1) == 1 and s1.entry(2, 1) == 1
    sm = qseed("A", 2, (-1,))
    assert sm.entry(2, -1) == 2 and sm.entry(-1, -2) == 1 and sm.entry(1, 2) == 1
    s0 = qseed("A", 2, (0,))
    assert s0.entry(1, -2) == 1 and s0.entry(2, -1) == 1


def test_rank2_type_c_top_block_weights():
    # doubled drawn weights: w(-2,2) = 4 for every word, and the
    # long-root dressing of the off-diagonal arrows
    for q in [(-1,), (0,), (1,)]:
        s = qseed("C", 2, q)
        assert s.weight(-2, 2) == 4
    assert qseed("C", 2, (1,)).weight(1, -2) == 4
    assert qseed("C", 2, (-1,)).weight(2, -1) == 4


def test_vertex_count_and_integrality():
    for kind in ("A", "C"):
        for n in (1, 2, 3, 4):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                assert len(s.labels) == 2 * n
                assert s.is_integral()


def test_disk_amalgamation_reproduces_cylinder():
    for kind in ("A", "C"):
        for n in (1, 2, 3):
            for w in enumerate_double_coxeter(n):
                disk = disk_seed_from_word(kind, w)
                pairs = [(("L", k), ("R", k)) for k in range(1, n + 1)]
                glued = amalgamate_pairs(disk, pairs, list(range(1, n + 1)))
                cyl = seed_from_word(kind, w)
                for i in cyl.labels:
                    for j in cyl.labels:
                        assert glued.entry(i, j) == cyl.entry(i, j)


def test_amalgamate_two_seeds():
    s1 = Seed(("a", "f"), {("a", "f"): Fraction(1), ("f", "a"): Fraction(-1)}, {"a": 1, "f": 1}, frozenset(["f"]))
    s2 = Seed(("b", "g"), {("g", "b"): Fraction(2), ("b", "g"): Fraction(-2)}, {"b": 1, "g": 1}, frozenset(["g"]))
    # empty glue: disjoint union, block structure
    u = amalgamate(s1, s2, [])
    assert u.entry("a", "b") == 0 and u.entry("a", "f") == 1
    # glue f with g: entries add on the shared vertex
    g = amalgamate(s1, s2, [("f", "g")])
    assert g.entry("a", "f") == 1 and g.entry("f", "b") == 2
    assert "f" not in g.frozen
    with pytest.raises(ValueError):
        amalgamate(s1, s2, [("a", "g")])


# -- mutation -----------------------------------------------------------------


def test_sign_flip_example():
    s = Seed((1, 2), {(1, 2): Fraction(2), (2, 1): Fraction(-2)}, {1: 1, 2: 1})
    m = mutate_seed(s, 1)
    assert m.entry(1, 2) == -2 and m.entry(2, 1) == 2


def test_second_branch_example():
    # rank 3 chain 1 -> 2 -> 3, mutate at the middle
    eps = {(1, 2): Fraction(1), (2, 1): Fraction(-1), (2, 3): Fraction(1), (3, 2): Fraction(-1)}
    s = Seed((1, 2, 3), eps, {1: 1, 2: 1, 3: 1})
    m = mutate_seed(s, 2)
    assert m.entry(1, 3) == 1


def test_frozen_mutation_rejected():
    s = Seed((1, 2), {(1, 2): Fraction(1), (2, 1): Fraction(-1)}, {1: 1, 2: 1}, frozenset([2]))
    with pytest.raises(ValueError):
        mutate_seed(s, 2)


def test_mutation_at_unknown_vertex_rejected():
    s = qseed("A", 2, (0,))
    for k in (9, 0, "1"):
        with pytest.raises(ValueError, match="no vertex"):
            mutate_seed(s, k)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutation_involution_randomized(data):
    m = data.draw(st.integers(min_value=2, max_value=4))
    d = {i: data.draw(st.sampled_from([1, 2])) for i in range(m)}
    eps = {}
    for i in range(m):
        for j in range(i + 1, m):
            v = data.draw(st.integers(min_value=-2, max_value=2))
            if v:
                val = Fraction(v)
                back = Fraction(-v * d[j], d[i])
                if back.denominator != 1:
                    continue
                eps[(i, j)] = val
                eps[(j, i)] = back
    s = Seed(tuple(range(m)), eps, d)
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    assert mutate_seed(mutate_seed(s, k), k).eps == s.eps


def test_mutation_preserves_symmetrizability():
    s = qseed("C", 3, (1, -1))
    for k in s.labels:
        mutate_seed(s, k)  # Seed constructor validates skew-symmetrizability


def test_swap_fixes_other_indices():
    s = qseed("A", 2, (0,))
    t, applied = mutate_swap(s, 2)
    assert applied == {2: -2, -2: 2}
    assert set(t.labels) == set(s.labels)


def test_signed_moves_shift_the_quiver_vector():
    # tau at the top index carries Q=0 to Q=1 exactly, and Q=-1 to Q=0;
    # iterating leaves the three-seed family, so the move is not an
    # involution on it
    for kind in ("A", "C"):
        s0, s1, sm = (qseed(kind, 2, (q,)) for q in (0, 1, -1))
        assert mutate_swap(s0, 2)[0].eps == s1.eps
        assert mutate_swap(sm, 2)[0].eps == s0.eps
        twice = mutate_swap(mutate_swap(s0, 2)[0], 2)[0]
        assert not twice.is_isomorphic(s0)


def test_mutation_equivalence_searches():
    s0 = qseed("A", 2, (0,))
    assert mutation_equivalent(s0, s0, 3) == []
    seeds = [qseed("A", 2, (q,)) for q in (-1, 0, 1)]
    for a, b in combinations(seeds, 2):
        assert mutation_equivalent(a, b, 4) is not None
    seeds3 = [seed_from_word("A", w) for w in enumerate_double_coxeter(3)]
    for b in seeds3[1:]:
        assert mutation_equivalent(seeds3[0], b, 6) is not None


def test_mutation_equivalence_not_found_is_none():
    s = qseed("A", 2, (0,))
    other = Seed(s.labels, {}, s.d)  # arrowless quiver is unreachable
    assert mutation_equivalent(s, other, 2) is None


# -- ensemble map and classical mutations --------------------------------------


def test_ensemble_map_trivial_and_column_read():
    s = Seed((1,), {}, {1: 1})
    m = ensemble_map(s)
    assert m.images[0][1] == (0,)
    s2 = qseed("A", 2, (0,))
    m2 = ensemble_map(s2)
    i = s2.labels.index(1)  # X at positive vertex 1
    col = tuple(int(s2.entry(j, 1)) for j in s2.labels)
    assert m2.images[i][1] == col


def test_ensemble_naturality_on_rank2_seeds():
    for q in [(-1,), (0,), (1,)]:
        s = qseed("A", 2, q)
        for k in s.labels:
            assert check_ensemble_naturality(s, k)


def test_ensemble_naturality_matches_sympy_oracle():
    # every (seed, vertex) of types A and C at ranks 2-3; the oracle
    # feeds sympy symbols through the same operator-only functions
    pairs = 0
    for kind in ("A", "C"):
        for n in (2, 3):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                a_sym = {l: sympy.Symbol(f"a_{l}", positive=True) for l in s.labels}
                for k in s.labels:
                    lhs = mutate_X_classical(ensemble_substitution(s, a_sym), s, k)
                    rhs = ensemble_substitution(mutate_seed(s, k), mutate_A_classical(a_sym, s, k))
                    oracle = all(sympy.simplify(lhs[i] - rhs[i]) == 0 for i in s.labels)
                    assert oracle
                    assert check_ensemble_naturality(s, k) is oracle, (kind, w, k)
                    # negative control: the right-hand side read off the
                    # unmutated seed
                    a_vals = a_assignment(s)
                    lhs = mutate_X_classical(ensemble_substitution(s, a_vals), s, k)
                    rhs = ensemble_substitution(s, mutate_A_classical(a_vals, s, k))
                    assert not all(lhs[i] == rhs[i] for i in s.labels), (kind, w, k)
                    pairs += 1
    assert pairs == 132
    # no arrows: every ensemble image is the field's one, not the int 1,
    # so mutating at it gives no float 1.0
    s = Seed((1, 2), {}, {1: 1, 2: 1})
    images = ensemble_substitution(s, a_assignment(s))
    assert all(isinstance(v, RationalLaurent) for v in images.values())
    assert check_ensemble_naturality(s, 1)


def test_classical_x_mutation_branches():
    s = qseed("A", 2, (0,))
    xs = {l: sympy.Symbol(f"x{i}", positive=True) for i, l in enumerate(s.labels)}
    out = mutate_X_classical(xs, s, 1)
    assert sympy.simplify(out[1] - 1 / xs[1]) == 0
    # an index not connected to k stays put
    far = next(l for l in s.labels if s.entry(1, l) == 0 and l != 1)
    assert out[far] == xs[far]


def test_classical_double_mutation_restores():
    s = qseed("A", 2, (0,))
    xs = {l: sympy.Symbol(f"x{i}", positive=True) for i, l in enumerate(s.labels)}
    k = 1
    once = mutate_X_classical(xs, s, k)
    back = mutate_X_classical(once, mutate_seed(s, k), k)
    for l in s.labels:
        assert sympy.simplify(back[l] - xs[l]) == 0
    a_vals = {l: sympy.Symbol(f"a{i}", positive=True) for i, l in enumerate(s.labels)}
    once_a = mutate_A_classical(a_vals, s, k)
    back_a = mutate_A_classical(once_a, mutate_seed(s, k), k)
    for l in s.labels:
        assert sympy.simplify(back_a[l] - a_vals[l]) == 0


# -- quantum mutation -----------------------------------------------------------


def test_quantum_mutation_shapes():
    s = qseed("A", 2, (0,))
    f = quantum_mutate(s, 1, 1)
    assert f.factors == ()
    assert f.monomial_vec[s.labels.index(1)] == -1
    far = next(l for l in s.labels if s.entry(1, l) == 0 and l != 1)
    g = quantum_mutate(s, 1, far)
    assert g.factors == ()
    h = quantum_mutate(s, 1, -1)  # eps(1, -1) = -2: two plain binomials
    assert len(h.factors) == 2
    assert [f.exponent for f in h.factors] == [1, 1]
    assert [f.qpow for f in h.factors] == [Fraction(1), Fraction(3)]


def test_quantum_mutation_specializes_to_classical():
    for q in [(-1,), (0,), (1,)]:
        s = qseed("A", 2, q)
        names = {f"X[{l}]": sympy.Symbol(f"x_{i}", positive=True) for i, l in enumerate(s.labels)}
        xvals = {l: names[f"X[{l}]"] for l in s.labels}
        for k in s.labels:
            cls = mutate_X_classical(xvals, s, k)
            for i in s.labels:
                fe = quantum_mutate(s, k, i)
                assert sympy.simplify(fe.specialize_classical(names) - cls[i]) == 0


def test_seed_dot_emitter():
    dot = seed_to_dot(qseed("C", 2, (0,)))
    assert "digraph" in dot and '"4"' in dot or "label=\"4\"" in dot
