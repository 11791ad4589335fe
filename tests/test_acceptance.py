"""Acceptance criteria, one test per criterion.

Every check is exact symbolic equality (zero tolerance); runtime bounds
are asserted where stated.  Criterion 7's boundary-invariance clause is
checked modulo a w-fixing monomial gauge, solved for exactly; as a
literal algebra identity it does not hold in this presentation (see the
witness in test_lax).
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

from qtoda import lax as laxmod
from qtoda.cluster import (
    Seed,
    check_ensemble_naturality,
    mutate_seed,
    mutation_equivalent,
    seed_from_word,
    standard_exchange_matrix,
)
from qtoda.correspondence import (
    label_algebra,
    label_hamiltonian,
    verify_equivalence_A,
    verify_equivalence_C,
    verify_weight_map,
)
from qtoda.fixtures import RANK2_LABEL_HAMILTONIANS, RANK2_WORDS, RANK3_LAX_LISTS
from qtoda.network import (
    build_network,
    classical_matrix,
    matrix_product,
    reference_chip_matrices,
)
from qtoda.torus import MonomialMap, TorusElement, commutes
from qtoda.words import DoubleWord, enumerate_double_coxeter


def identity_map(ctx):
    return MonomialMap(ctx, ctx, tuple((Fraction(0), ctx.basis_vec(i)) for i in range(ctx.rank)))


def zpoly(ctx, coeffs):
    """sum_d coeffs[d] z^(d/2), with d a doubled z-degree and coeffs[d]
    an element of ctx, as an element of the spectral context."""
    sctx = laxmod.spectral_context(ctx)
    return TorusElement.sum(
        sctx, [TorusElement(sctx, {v + (d, 0): c for v, c in el.terms.items()}) for d, el in coeffs.items()]
    )


def _report(name: str, ok: bool, extra: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {state}{' - ' + extra if extra else ''}")
    assert ok, f"{name} failed {extra}"


def test_criterion_01_word_census():
    t0 = time.time()
    for n in range(1, 9):
        words = enumerate_double_coxeter(n)
        assert len(words) == 3 ** (n - 1)
        assert len({w.letters for w in words}) == len(words)
    got2 = {w.letters for w in enumerate_double_coxeter(2)}
    assert got2 == set(RANK2_WORDS.values())
    elapsed = time.time() - t0
    _report("01 word census", elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_stated_value_golden_tests():
    t0 = time.time()
    # network side: label Hamiltonians term-for-term
    for q, lists in RANK2_LABEL_HAMILTONIANS.items():
        net = build_network("A", DoubleWord(2, RANK2_WORDS[q]))
        alg = label_algebra(net)
        for i, families in lists.items():
            expect = alg.ctx.zero()
            for fam in families:
                term = alg.ctx.one()
                for lab in fam:
                    term = term * alg.generator(lab)
                expect = expect + term
            assert label_hamiltonian(alg, i) == expect, (q, i)
    # Lax side: H_2, H_3 of the rank-3 chain
    ctx = laxmod.lax_context(3)
    name_idx = {nm: i for i, nm in enumerate(ctx.names)}
    for kvec, lists in RANK3_LAX_LISTS.items():
        hams = laxmod.lax_hamiltonians(ctx, kvec, "A")
        for i, terms in lists.items():
            expect = ctx.zero()
            for term in terms:
                expect = expect + ctx.plain_product(
                    [(name_idx[nm], e) for nm, e in term]
                )
            assert hams[i - 1] == expect, (kvec, i)
    elapsed = time.time() - t0
    _report("02 golden lists", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_03_equivalence_suite_A():
    t0 = time.time()
    for n in (2, 3):
        for w in enumerate_double_coxeter(n):
            rep = verify_equivalence_A(w)
            assert rep["ok"], (n, w.letters, rep)
    mid = time.time() - t0
    assert mid < 30.0
    for w in enumerate_double_coxeter(4):
        rep = verify_equivalence_A(w)
        assert rep["ok"], (4, w.letters, rep)
    elapsed = time.time() - t0
    _report("03 type A equivalence (n=2,3 + n=4)", elapsed < 600.0, f"{elapsed:.1f}s")


def test_criterion_04_equivalence_suite_C():
    t0 = time.time()
    for n in (2, 3):
        for w in enumerate_double_coxeter(n):
            rep = verify_equivalence_C(w, subnetworks=True)
            assert rep["ok"], (n, w.letters, rep)
    elapsed = time.time() - t0
    _report("04 type C equivalence + subnetworks", elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_05_commutativity():
    t0 = time.time()
    for n in (1, 2, 3, 4):
        ctx = laxmod.lax_context(n + 1)
        for mid in product((-1, 0, 1), repeat=n - 1):
            kv = (0,) + mid + (0,)
            hs = laxmod.lax_hamiltonians(ctx, kv, "A", normalized=False)
            for a, b in combinations(range(len(hs)), 2):
                assert commutes(hs[a], hs[b]), ("A", n, kv, a, b)
    for n in (1, 2, 3):
        ctx = laxmod.lax_context(n)
        for mid in product((-1, 0, 1), repeat=n - 1):
            kv = mid + (0,)
            hs = laxmod.lax_hamiltonians(ctx, kv, "C", normalized=False)
            for a, b in combinations(range(len(hs)), 2):
                assert commutes(hs[a], hs[b]), ("C", n, kv, a, b)
    elapsed = time.time() - t0
    _report("05 commuting Hamiltonians", True, f"{elapsed:.1f}s")


def test_criterion_06_rtt():
    ctx = laxmod.lax_context(2)
    for i in (1, 2):
        for k in (-1, 0, 1):
            assert laxmod.check_rtt(laxmod.local_lax(ctx, i, k))
            assert laxmod.check_rtt(laxmod.local_lax(ctx, i, k, barred=True))
    for kv in product((-1, 0, 1), repeat=2):
        assert laxmod.check_rtt(laxmod.monodromy(ctx, kv)), kv
    t = laxmod.monodromy(ctx, (0, 1))
    terms = laxmod.z_coefficients(t[0, 0], ctx)
    d0 = sorted(terms)[0]
    terms[d0] = -terms[d0]
    bad = laxmod.LaxMatrix(ctx, ((zpoly(ctx, terms), t[0, 1]), (t[1, 0], t[1, 1])))
    assert not laxmod.check_rtt(bad)
    _report("06 RTT relation + negative control", True)


def test_criterion_07_recursion_oracles():
    t0 = time.time()
    for m in (1, 2, 3, 4):
        ctx = laxmod.lax_context(m)
        for kv in product((-1, 0, 1), repeat=m):
            direct = laxmod.lax_hamiltonians(ctx, kv, "A", normalized=False)
            for i in range(1, m + 2):
                assert laxmod.hamiltonian_recursive_A(ctx, kv, i) == direct[i - 1]
    for m in (1, 2, 3):
        ctx = laxmod.lax_context(m)
        for kv in product((-1, 0, 1), repeat=m):
            direct = laxmod.lax_hamiltonians(ctx, kv, "C", normalized=False)
            for i in range(1, 2 * m + 2):
                assert laxmod.hamiltonian_recursive_C(ctx, kv, i) == direct[i - 1]
    elapsed = time.time() - t0
    _report("07a recursion oracles", True, f"{elapsed:.1f}s")


def test_criterion_07_reflection_symmetry():
    for m in (1, 2, 3, 4):
        ctx = laxmod.lax_context(m)
        for kv in product((-1, 0, 1), repeat=m):
            hs = laxmod.lax_hamiltonians(ctx, kv, "A")
            neg = laxmod.lax_hamiltonians(ctx, tuple(-k for k in kv), "A")
            for i in range(1, m + 2):
                assert hs[i - 1] == laxmod.bar_w(neg[m + 1 - i])
    _report("07b index reflection symmetry", True)


def _flip_first_term(el: TorusElement) -> TorusElement:
    """The element with the sign of its least Weyl term flipped."""
    terms = dict(el.terms)
    vec = min(terms)
    terms[vec] = {qp: -c for qp, c in terms[vec].items()}
    return TorusElement(el.ctx, terms)


def test_criterion_07_boundary_invariance_propositions():
    # Invariance modulo gauge: for each index vector k, one w-fixing
    # monomial gauge D_i -> q^(p_i) E(sum_j a_ij w_j + D_i), a symmetric,
    # carries every Hamiltonian of k_z (boundary entries zeroed) onto the
    # matching Hamiltonian of k.  It is the identity exactly when the two
    # lists are equal; the literal identity fails whenever zeroing changes
    # k, since the corner D-term keeps its w^(-k) boundary dressing.
    # Negative control: a target with one term's sign flipped has no gauge.
    failures = []
    gauged = []

    def check(kind, ctx, kv, kz):
        h = laxmod.lax_hamiltonians(ctx, kv, kind, normalized=False)
        hz = laxmod.lax_hamiltonians(ctx, kz, kind, normalized=False)
        phi = laxmod.boundary_gauge(ctx, hz, h)
        if phi is None or (phi == identity_map(ctx)) != (hz == h):
            failures.append((kind, kv))
            return
        if hz != h:
            gauged.append((kind, kv, laxmod.gauge_parts(phi)))
        bad = h[:1] + [_flip_first_term(h[1])] + h[2:]
        assert laxmod.boundary_gauge(ctx, hz, bad) is None, (kind, kv)

    for m in (2, 3):
        ctx = laxmod.lax_context(m)
        for kv in product((-1, 0, 1), repeat=m):
            kz = (0,) + kv[1:-1] + (0,)
            check("A", ctx, kv, kz)
    for m in (1, 2):
        ctx = laxmod.lax_context(m)
        for kv in product((-1, 0, 1), repeat=m):
            kz = kv[:-1] + (0,)
            check("C", ctx, kv, kz)
    extra = f"{len(gauged)} non-identity gauges"
    if gauged:
        kind, kv, (a, p) = gauged[0]
        extra += f", e.g. {kind} {kv}: a={a}, p=({', '.join(map(str, p))})"
    if failures:
        extra += f"; no gauge for {len(failures)}, e.g. {failures[0]}"
    _report("07c boundary invariance modulo gauge", not failures, extra)


def test_criterion_08_transfer_matrix_oracle():
    t0 = time.time()
    for kind in ("A", "C"):
        for n in (1, 2, 3, 4):
            for w in enumerate_double_coxeter(n):
                net = build_network(kind, w)
                got = classical_matrix(net)
                ref = matrix_product(reference_chip_matrices(net))
                size = len(got)
                assert all(
                    got[i][j] == ref[i][j] for i in range(size) for j in range(size)
                ), (kind, n, w.letters)
    elapsed = time.time() - t0
    _report("08 transfer-matrix oracle", True, f"{elapsed:.1f}s")


def test_criterion_09_cluster_suite():
    t0 = time.time()
    from qtoda.words import standard_word

    for kind in ("A", "C"):
        for n in (1, 2, 3, 4):
            s = seed_from_word(kind, standard_word(n))
            labels, eps = standard_exchange_matrix(kind, n)
            for i in labels:
                for j in labels:
                    assert s.entry(i, j) == eps.get((i, j), Fraction(0))
    rng = random.Random(20260810)
    count = 0
    while count < 1000:
        m = rng.randint(2, 5)
        d = {i: rng.choice([1, 1, 2]) for i in range(m)}
        eps = {}
        for i in range(m):
            for j in range(i + 1, m):
                v = rng.randint(-2, 2)
                if v:
                    back = Fraction(-v * d[j], d[i])
                    if back.denominator != 1:
                        continue
                    eps[(i, j)] = Fraction(v)
                    eps[(j, i)] = back
        s = Seed(tuple(range(m)), eps, d)
        k = rng.randrange(m)
        assert mutate_seed(mutate_seed(s, k), k).eps == s.eps
        count += 1
    for n in (2, 3):
        for w in enumerate_double_coxeter(n):
            s = seed_from_word("A", w)
            for k in s.labels:
                assert check_ensemble_naturality(s, k), (n, w.letters, k)
    for n in (2, 3):
        seeds = [seed_from_word("A", w) for w in enumerate_double_coxeter(n)]
        for a, b in combinations(seeds, 2):
            assert mutation_equivalent(a, b, 6) is not None
    elapsed = time.time() - t0
    _report("09 cluster suite", True, f"{elapsed:.1f}s")


def test_criterion_10_weight_map_table():
    t0 = time.time()
    allowed = {Fraction(x) for x in (-4, -2, 0, 2, 4)}
    for n in (1, 2, 3, 4):
        for w in enumerate_double_coxeter(n):
            net = build_network("A", w)
            rep = verify_weight_map(net)
            assert rep["ok"], (n, w.letters, rep["failures"][:2])
            alg = label_algebra(net)
            m = len(alg.labels)
            for a in range(m):
                for b in range(m):
                    assert 2 * alg.ctx.skew[a][b] in allowed
    elapsed = time.time() - t0
    _report("10 weight-map q-factor table", True, f"{elapsed:.1f}s")
