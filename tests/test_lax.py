import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoda import lax as laxmod
from qtoda.lax import (
    LaxMatrix,
    _contract,
    _site_terms,
    _walk,
    bar_w,
    boundary_gauge,
    check_rtt,
    d_index,
    double_monodromy,
    extract_hamiltonians,
    gauge_parts,
    hamiltonian_recursive_A,
    hamiltonian_recursive_C,
    lax_context,
    lax_hamiltonians,
    local_lax,
    monodromy,
    monodromy_entry,
    normalized_hamiltonians,
    spectral_context,
    w_index,
    z_coefficients,
)
from qtoda.torus import MonomialMap, TorusElement, _nonzero, _pairing_row, commutes


def all_kvecs(m):
    return list(product((-1, 0, 1), repeat=m))


def identity_map(ctx):
    return MonomialMap(ctx, ctx, tuple((Fraction(0), ctx.basis_vec(i)) for i in range(ctx.rank)))


def zpoly(ctx, coeffs):
    """sum_d coeffs[d] z^(d/2), with d a doubled z-degree and coeffs[d]
    an element of ctx, as an element of the spectral context."""
    sctx = spectral_context(ctx)
    return TorusElement.sum(
        sctx, [TorusElement(sctx, {v + (d, 0): c for v, c in el.terms.items()}) for d, el in coeffs.items()]
    )


def z_inverted(el):
    """z -> 1/z: the z-exponent of every term negated."""
    return el.flipped([el.ctx.rank - 2], negate_q=False)


def inverted_transpose(t, scale):
    """scale * [T(1/z)]^T for a Lax matrix T."""
    return LaxMatrix(t.ctx, tuple(tuple(z_inverted(t[j, i]).q_shift(0, scale) for j in range(2)) for i in range(2)))


def z_support(el, ctx):
    return sorted(z_coefficients(el, ctx))


def test_local_lax_displayed_entries():
    ctx = lax_context(1)
    L = local_lax(ctx, 1, 0)
    w = ctx.generator(w_index(ctx, 1))
    winv = ctx.generator(w_index(ctx, 1), -1)
    assert L[0, 0] == zpoly(ctx, {1: winv, -1: -w})
    assert L[1, 1].is_zero()
    Lm = local_lax(ctx, 1, -1)
    assert Lm[1, 1] == zpoly(ctx, {0: w})
    Lp = local_lax(ctx, 1, 1)
    assert Lp[1, 1] == zpoly(ctx, {0: -winv})
    with pytest.raises(ValueError):
        local_lax(ctx, 1, 2)


def matrix_site_terms(ctx, site, k, sign):
    """The terms of each cell of ``local_lax``, unpacked from the matrix,
    each vector as its nonzero entries: the oracle of the closed-form
    ``_site_terms``."""
    m = local_lax(ctx, site, k)
    return {
        (i, j): [
            (e, [(t, x) for t, x in enumerate(a) if x], key, c, [(t, sign * x) for t, x in _pairing_row(ctx.rows, a)])
            for e, el in z_coefficients(m[i, j], ctx).items()
            for a, coeffs in el._terms.items()
            for key, c in coeffs.items()
        ]
        for i in range(2)
        for j in range(2)
    }


def test_site_terms_match_the_local_matrices():
    # every site, every k and both walk sides at ranks 1-6
    for n in range(1, 7):
        ctx = lax_context(n)
        for site in range(1, n + 1):
            for k in (-1, 0, 1):
                for sign in (-1, 1):
                    assert _site_terms(ctx, site, k, sign) == matrix_site_terms(ctx, site, k, sign), (n, site, k, sign)
    with pytest.raises(ValueError):
        _site_terms(lax_context(2), 1, 2, 1)


def test_lax_hamiltonians_reject_support_outside_the_window(monkeypatch):
    # a nonzero coefficient outside the window is an error; one that
    # cancels to zero there is not
    ctx = lax_context(1)
    parts = laxmod._entry_parts(ctx, (0,), "A")
    monkeypatch.setattr(laxmod, "_entry_parts", lambda *a: {**parts, 7: {ctx.unit_vec(): {0: 0}}})
    assert lax_hamiltonians(ctx, (0,), "A") == normalized_hamiltonians(monodromy_entry(ctx, (0,), "A"), (0,), "A")
    monkeypatch.setattr(laxmod, "_entry_parts", lambda *a: {**parts, 7: {ctx.unit_vec(): {0: 1}}})
    with pytest.raises(ValueError, match=r"z-support \[7\] outside"):
        lax_hamiltonians(ctx, (0,), "A")


def test_barred_identity():
    ctx = lax_context(2)
    for i in (1, 2):
        for k in (-1, 0, 1):
            lhs = local_lax(ctx, i, -k, barred=True)
            rhs = inverted_transpose(local_lax(ctx, i, k), -1)
            assert lhs == rhs


def test_z_coefficients_reject_w_and_other_contexts():
    ctx = lax_context(1)
    sctx = spectral_context(ctx)
    assert z_coefficients(zpoly(ctx, {3: ctx.one()}), ctx) == {3: ctx.one()}
    with pytest.raises(ValueError, match="depends on w"):
        z_coefficients(sctx.generator(sctx.index("w")), ctx)
    with pytest.raises(ValueError, match="spectral context"):
        z_coefficients(ctx.one(), ctx)
    with pytest.raises(ValueError, match="spectral context"):
        z_coefficients(spectral_context(lax_context(2)).one(), ctx)


def test_rank1_monodromy_is_single_factor():
    ctx = lax_context(1)
    assert monodromy(ctx, (0,)) == local_lax(ctx, 1, 0)


def test_rank2_monodromy_entry():
    ctx = lax_context(2)
    t = monodromy(ctx, (0, 0))
    e = z_coefficients(t[0, 0], ctx)
    w1, w2 = (ctx.generator(w_index(ctx, i)) for i in (1, 2))
    mid = (
        ctx.plain_product([(w_index(ctx, 1), 1), (w_index(ctx, 2), -1)])
        + ctx.plain_product([(w_index(ctx, 1), -1), (w_index(ctx, 2), 1)])
        + ctx.plain_product([(d_index(ctx, 1), 1), (d_index(ctx, 2), -1)])
    )
    assert e.get(2, ctx.zero()) == ctx.plain_product([(w_index(ctx, 1), -1), (w_index(ctx, 2), -1)])
    assert e.get(0, ctx.zero()) == -mid
    assert e.get(-2, ctx.zero()) == w1 * w2


def test_extraction_window_and_boundaries():
    ctx = lax_context(1)
    hs = lax_hamiltonians(ctx, (0,), "A", normalized=False)
    assert hs[0] == -ctx.generator(w_index(ctx, 1))
    assert hs[1] == ctx.generator(w_index(ctx, 1), -1)
    bad = zpoly(ctx, {5: ctx.one()})
    with pytest.raises(ValueError):
        extract_hamiltonians(bad, (0,), "A")
    with pytest.raises(ValueError):
        extract_hamiltonians(bad, (0,), "X")


def test_z_window_support():
    for m in (1, 2, 3):
        ctx = lax_context(m)
        for kv in all_kvecs(m):
            t = monodromy(ctx, kv)
            lo = sum(k - 1 for k in kv)
            assert min(z_support(t[0, 0], ctx)) == lo
            assert max(z_support(t[0, 0], ctx)) == lo + 2 * m
            dt = double_monodromy(ctx, kv)
            assert min(z_support(dt[0, 0], ctx)) >= -2 * m
            assert max(z_support(dt[0, 0], ctx)) <= 2 * m


def test_double_monodromy_transpose_route_asserted():
    # the slow route, (-1)^n [T(1/z)]^T T(z), is the oracle for the
    # barred-matrix product
    for n in (1, 2, 3):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            t = monodromy(ctx, kv)
            alt = inverted_transpose(t, (-1) ** n) * t
            assert double_monodromy(ctx, kv) == alt, kv


def test_monodromy_entry_matches_full_products():
    # the full 2x2 products are the oracle for the row/column route
    for n in (1, 2, 3, 4):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            assert monodromy_entry(ctx, kv, "A") == monodromy(ctx, kv)[0, 0], kv
            assert monodromy_entry(ctx, kv, "C") == double_monodromy(ctx, kv)[0, 0], kv
    with pytest.raises(ValueError):
        monodromy_entry(lax_context(2), (0, 0), "B")
    with pytest.raises(ValueError):
        monodromy_entry(lax_context(2), (0,), "A")


def test_lax_hamiltonians_match_the_two_step_route():
    # signs applied once per coefficient against extracting from the
    # signed (1,1) entry, then normalizing
    for n in (1, 2, 3, 4):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            for kind in ("A", "C"):
                entry = monodromy_entry(ctx, kv, kind)
                assert lax_hamiltonians(ctx, kv, kind) == normalized_hamiltonians(entry, kv, kind), (kind, kv)
                raw = extract_hamiltonians(entry, kv, kind)
                assert lax_hamiltonians(ctx, kv, kind, normalized=False) == raw, (kind, kv)


def test_type_c_entry_matches_inverted_column_products():
    # each unordered z-pair taken once against the full z-inverted
    # products of the first column of T, and the double monodromy
    for n in (1, 2, 3, 4):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            t = monodromy(ctx, kv)
            x, y = t[0, 0], t[1, 0]
            ref = (z_inverted(x) * x + z_inverted(y) * y).q_shift(0, (-1) ** n)
            got = monodromy_entry(ctx, kv, "C")
            assert got == ref, kv
            assert got == double_monodromy(ctx, kv)[0, 0], kv


def test_path_sum_matches_full_products_at_rank5():
    # type A on every index vector; type C, whose double monodromy costs
    # about 0.1 s at this rank, on a seeded sample and the constant vectors
    ctx = lax_context(5)
    for kv in all_kvecs(5):
        assert monodromy_entry(ctx, kv, "A") == monodromy(ctx, kv)[0, 0], kv
    kvecs = random.Random(5).sample(all_kvecs(5), 10) + [(0,) * 5, (1,) * 5, (-1,) * 5]
    for kv in kvecs:
        assert monodromy_entry(ctx, kv, "C") == double_monodromy(ctx, kv)[0, 0], kv


# -- the walk and the contraction on entries with several q-keys per term ------
# The Lax columns of every index vector tried (types A and C, ranks 4-6)
# carry one q-power per (z-degree, vector), so these entries are drawn.
# A walk or a contraction that flips the sign of every pairing still gives
# the same (1,1) entry on every index vector tried, so only these tests,
# which compare single steps, tell the two signs apart.

WALK_CTX = lax_context(2)
WALK_SPECTRAL = spectral_context(WALK_CTX)
_qpow = st.sampled_from([Fraction(x, 2) for x in range(-3, 4)])
_coeffs = st.dictionaries(_qpow, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
_vecs = st.tuples(*[st.integers(-2, 2)] * WALK_CTX.rank)


@st.composite
def z_entries(draw):
    """An element of the spectral context of WALK_CTX whose terms may
    carry several q-powers, and one vector may sit at several z-degrees."""
    vecs = draw(st.lists(_vecs, min_size=1, max_size=3))
    terms = {}
    for e in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        picked = draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3, unique=True))
        terms.update({v + (e, 0): draw(_coeffs) for v in picked})
    return TorusElement(WALK_SPECTRAL, terms)


def as_state(x: TorusElement) -> dict:
    m = WALK_CTX.rank
    return {(u[m], u[:m]): dict(c) for u, c in x._terms.items()}


def from_parts(parts: dict) -> TorusElement:
    return TorusElement._make(WALK_SPECTRAL, _nonzero({u + (e, 0): c for e, t in parts.items() for u, c in t.items()}))


def _by_degree(state: dict) -> dict:
    parts = {}
    for (e, u), c in state.items():
        parts.setdefault(e, {})[u] = c
    return parts


@settings(max_examples=60, deadline=None)
@given(x=z_entries(), y=z_entries())
def test_contraction_matches_inverted_products(x, y):
    # each term with itself, each unordered pair once, both orders
    parts = {}
    _contract(WALK_CTX, as_state(x), parts)
    _contract(WALK_CTX, as_state(y), parts)
    assert from_parts(parts) == z_inverted(x) * x + z_inverted(y) * y


@settings(max_examples=60, deadline=None)
@given(
    x=z_entries(),
    y=z_entries(),
    site=st.sampled_from([1, 2]),
    k=st.sampled_from([-1, 0, 1]),
)
def test_walk_step_matches_row_and_column_products(x, y, site, k):
    # a row extended on the right, a column extended on the left
    m = local_lax(WALK_CTX, site, k)
    states = [as_state(x), as_state(y)]
    row = _walk(WALK_CTX, states, site, k, (0, 1), right=True)
    col = _walk(WALK_CTX, states, site, k, (0, 1), right=False)
    for j in range(2):
        assert from_parts(_by_degree(row[j])) == x * m[0, j] + y * m[1, j]
        assert from_parts(_by_degree(col[j])) == m[j, 0] * x + m[j, 1] * y


def test_lax_context_is_shared_per_rank():
    assert lax_context(3) is lax_context(3)
    assert lax_context(2) is not lax_context(3)
    # the spectral context: z and w central, den and pairing rows kept
    sctx = spectral_context(lax_context(3))
    assert sctx is spectral_context(lax_context(3))
    assert sctx.names == lax_context(3).names + ("z", "w")
    assert sctx.den == lax_context(3).den and sctx.rows == lax_context(3).rows + ({}, {})


def test_recursion_A_equals_direct_up_to_rank3():
    for m in (1, 2, 3):
        ctx = lax_context(m)
        for kv in all_kvecs(m):
            direct = lax_hamiltonians(ctx, kv, "A", normalized=False)
            for i in range(1, m + 2):
                assert hamiltonian_recursive_A(ctx, kv, i) == direct[i - 1]
            assert hamiltonian_recursive_A(ctx, kv, 0).is_zero()
            assert hamiltonian_recursive_A(ctx, kv, m + 2).is_zero()


def test_recursion_C_equals_direct_up_to_rank2():
    for m in (1, 2):
        ctx = lax_context(m)
        for kv in all_kvecs(m):
            direct = lax_hamiltonians(ctx, kv, "C", normalized=False)
            for i in range(1, 2 * m + 2):
                assert hamiltonian_recursive_C(ctx, kv, i) == direct[i - 1]


def test_index_reflection_symmetry():
    for m in (1, 2, 3):
        ctx = lax_context(m)
        for kv in all_kvecs(m):
            hs = lax_hamiltonians(ctx, kv, "A")
            neg = lax_hamiltonians(ctx, tuple(-k for k in kv), "A")
            for i in range(1, m + 2):
                assert hs[i - 1] == bar_w(neg[m + 1 - i])


def test_commuting_hamiltonians_rank3():
    ctx = lax_context(3)
    for kv in all_kvecs(3):
        hs = lax_hamiltonians(ctx, kv, "A", normalized=False)
        for a, b in combinations(range(len(hs)), 2):
            assert commutes(hs[a], hs[b])


def test_commuting_type_c_rank2():
    ctx = lax_context(2)
    for kv in all_kvecs(2):
        hs = lax_hamiltonians(ctx, kv, "C", normalized=False)
        for a, b in combinations(range(len(hs)), 2):
            assert commutes(hs[a], hs[b])


def test_rtt_local_and_monodromy():
    ctx = lax_context(2)
    for i in (1, 2):
        for k in (-1, 0, 1):
            assert check_rtt(local_lax(ctx, i, k))
            assert check_rtt(local_lax(ctx, i, k, barred=True))
    assert check_rtt(monodromy(ctx, (0, 1)))


def test_rtt_negative_control():
    ctx = lax_context(2)
    t = monodromy(ctx, (0, 1))
    e11 = t[0, 0]
    terms = z_coefficients(e11, ctx)
    d0 = sorted(terms)[0]
    terms[d0] = -terms[d0]
    bad = LaxMatrix(ctx, ((zpoly(ctx, terms), t[0, 1]), (t[1, 0], t[1, 1])))
    assert not check_rtt(bad)


def test_boundary_invariance_defect_witness():
    # the quoted invariance propositions fail in this presentation: the
    # corner D-term keeps its w-dressing.  Frozen witnesses.
    ctx = lax_context(2)
    h = lax_hamiltonians(ctx, (-1, -1), "A", normalized=False)[1]
    hz = lax_hamiltonians(ctx, (0, 0), "A", normalized=False)[1]
    diff = h - hz
    assert not diff.is_zero()
    assert ctx.plain_product(
        [(w_index(ctx, 1), 1), (w_index(ctx, 2), 1), (d_index(ctx, 1), 1), (d_index(ctx, 2), -1)]
    ).q_shift(0, -1).terms.keys() <= diff.terms.keys()


def test_boundary_gauge_witness():
    # the same witness is gauge equivalent: one w-fixing monomial map
    # carries every Hamiltonian of k = (0,0) onto that of k = (-1,-1)
    ctx = lax_context(2)
    h = lax_hamiltonians(ctx, (-1, -1), "A", normalized=False)
    hz = lax_hamiltonians(ctx, (0, 0), "A", normalized=False)
    phi = boundary_gauge(ctx, hz, h)
    assert phi is not None and phi.is_homomorphism()
    assert phi != identity_map(ctx)
    assert [phi.apply(x) for x in hz] == h
    a, _ = gauge_parts(phi)
    assert a == tuple(zip(*a))
    for i in (1, 2):
        assert phi.apply(ctx.generator(w_index(ctx, i))) == ctx.generator(w_index(ctx, i))


def test_cleared_r_matrix_is_polynomial():
    from qtoda.lax import cleared_r_matrix

    ctx = lax_context(1)
    r = cleared_r_matrix(ctx)
    for i in range(4):
        for j in range(4):
            for vec in r[i][j].terms:
                dz, dw = vec[-2:]
                assert dz >= 0 and dw >= 0 and not any(vec[:-2])
    # corners are q z - w / q
    corner = r[0][0].terms
    assert {vec[-2:] for vec in corner} == {(2, 0), (0, 2)}
