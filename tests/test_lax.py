import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoda import lax as laxmod
from qtoda.correspondence import _rtt_witness
from qtoda.lax import (
    LaxMatrix,
    _contract_columns,
    _entry_parts,
    _normal_sign,
    _site_terms,
    _walk,
    boundary_gauge,
    d_index,
    gauge_parts,
    lax_context,
    lax_hamiltonians,
    local_lax,
    monodromy,
    recursive_hamiltonians,
    spectral_context,
    w_index,
)
from qtoda.torus import MonomialMap, TorusElement, _nonzero, _pairing_row, _vec_add, commutes


def z_coefficients(el: TorusElement, ctx) -> dict[int, TorusElement]:
    """The coefficients of ``el``, an element of ``spectral_context(ctx)``
    free of w, as elements of ``ctx`` keyed by doubled z-degree."""
    sctx = spectral_context(ctx)
    if el.ctx is not sctx and el.ctx != sctx:
        raise ValueError("element is not over the spectral context")
    m = ctx.rank
    parts: dict[int, dict] = {}
    for vec, coeffs in el._terms.items():
        if vec[m + 1]:
            raise ValueError("element depends on w")
        parts.setdefault(vec[m], {})[vec[:m]] = coeffs
    return {e: TorusElement._make(ctx, terms) for e, terms in parts.items()}


def flipped(a: TorusElement, indices) -> TorusElement:
    """Basis map E(a) -> E(a') negating the listed exponents, and q."""
    idx = set(indices)
    # a bijection on exponent vectors and on q-powers: nothing merges
    return TorusElement._make(
        a.ctx,
        {
            tuple(-x if i in idx else x for i, x in enumerate(vec)): {
                -k: c for k, c in coeffs.items()
            }
            for vec, coeffs in a._terms.items()
        },
    )


def bar_w(a: TorusElement) -> TorusElement:
    """The symmetry w_i -> w_i^-1 (with q -> 1/q, making it a ring map)."""
    n = a.ctx.rank // 2
    return flipped(a, range(n))


def double_monodromy(ctx, kvec) -> LaxMatrix:
    """Lbar_1^(-k_1) ... Lbar_n^(-k_n) L_n^(k_n) ... L_1^(k_1), the full
    product whose (1,1) entry holds the type C Hamiltonians.

    This equals (-1)^n [T(1/z)]^T T(z) with T = monodromy(ctx, kvec), the
    identity behind the type C expansion; the tests below check it.
    """
    n = ctx.rank // 2
    if len(kvec) != n:
        raise ValueError("index vector length must match the context rank")
    acc = None
    for site, k in zip(range(1, n + 1), reversed(kvec)):
        m = local_lax(ctx, site, -k, barred=True)
        acc = m if acc is None else acc * m
    return acc * monodromy(ctx, kvec)


def check_rtt(t: LaxMatrix) -> bool:
    """R(z/w) T1(z) T2(w) = T2(w) T1(z) R(z/w), denominators cleared.

    T1 = T (x) 1 and T2 = 1 (x) T, as 4x4 matrices over the spectral
    context, with T2 read at w.
    """
    lhs, rhs = laxmod._rtt_sides(t)
    return lhs == rhs


# Several oracles read the same full products at ranks 1-4, so those are
# built once and kept until this module's tests end; rank 5 products are
# each read once and not kept.
_PRODUCTS: dict = {}


@pytest.fixture(autouse=True, scope="module")
def _release_products():
    yield
    _PRODUCTS.clear()


def full_product(kind: str, kvec) -> LaxMatrix:
    """``monodromy`` (type A) or ``double_monodromy`` (type C) of
    ``kvec`` over ``lax_context(len(kvec))``."""
    got = _PRODUCTS.get((kind, kvec))
    if got is None:
        got = (monodromy if kind == "A" else double_monodromy)(lax_context(len(kvec)), kvec)
        if len(kvec) <= 4:
            _PRODUCTS[kind, kvec] = got
    return got


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
    z = el.ctx.rank - 2
    return TorusElement(el.ctx, {v[:z] + (-v[z],) + v[z + 1 :]: c for v, c in el.terms.items()})


def inverted_transpose(t, scale):
    """scale * [T(1/z)]^T for a Lax matrix T."""
    return LaxMatrix(t.ctx, tuple(tuple(z_inverted(t[j, i]).q_shift(0, scale) for j in range(2)) for i in range(2)))


def z_support(el, ctx):
    return sorted(z_coefficients(el, ctx))


def signed_window(ctx, kvec, kind, entry=None):
    """The oracle of ``lax_hamiltonians``: H_1, H_2, ... as the signed
    window coefficients of the (1,1) entry of the full product, by default
    ``monodromy`` (type A) or ``double_monodromy`` (type C).  Type A reads
    z^(sigma_n + i - 1) with sign (-1)^(n+1-i), i = 1..n+1; type C reads
    z^(-n + i - 1) with sign (-1)^(i-1), i = 1..2n+1.  Asserts that the
    entry has no z-support outside that window."""
    n = len(kvec)
    if entry is None:
        assert ctx is lax_context(n)
        entry = full_product(kind, kvec)[0, 0]
    if kind == "A":
        lo, signs = sum(k - 1 for k in kvec), [(-1) ** (n + 1 - i) for i in range(1, n + 2)]
    else:
        lo, signs = -2 * n, [(-1) ** (i - 1) for i in range(1, 2 * n + 2)]
    window = [lo + 2 * j for j in range(len(signs))]
    coeffs = z_coefficients(entry, ctx)
    assert set(coeffs) <= set(window), (kind, kvec, sorted(coeffs))
    return [coeffs.get(d, ctx.zero()).q_shift(0, sign) for d, sign in zip(window, signs)]


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


def reference_local_lax(ctx, i, k, barred=False) -> LaxMatrix:
    """The site matrix for k in {-1,0,1} from its displayed closed form,
    with s = (k-1)/2 (doubled: k-1), each monomial a plain product of
    w, D and z; the barred family swaps w,D with their inverses:

        [ w^-1 z^(s+1) - w z^s      w^-k D^-1 z^(s+1) ]
        [ -w^-k D z^s               -k w^-k           ]

    The oracle of ``local_lax`` and, unpacked, of ``_site_terms``."""
    if k not in (-1, 0, 1):
        raise ValueError("local index must be -1, 0 or 1")
    wi, di = w_index(ctx, i), d_index(ctx, i)
    sctx = spectral_context(ctx)
    zi = ctx.rank
    sgn = -1 if barred else 1

    def mono(z2, wexp, dexp, coeff=1):
        return sctx.plain_product([(wi, sgn * wexp), (di, sgn * dexp), (zi, z2)]).q_shift(0, coeff)

    s2 = k - 1  # doubled s
    e11 = mono(s2 + 2, -1, 0) + mono(s2, 1, 0, -1)
    e12 = mono(s2 + 2, -k, -1)
    e21 = mono(s2, -k, 1, -1)
    e22 = mono(0, -k, 0, -k)  # zero for k = 0
    return LaxMatrix(ctx, ((e11, e12), (e21, e22)))


def matrix_site_terms(ctx, site, k):
    """The terms of each cell of ``reference_local_lax``, unpacked from
    the matrix, each vector as its nonzero entries: the oracle of
    ``_site_terms``."""
    m = reference_local_lax(ctx, site, k)
    return {
        (i, j): [
            (e, [(t, x) for t, x in enumerate(a) if x], key, c, _pairing_row(ctx.rows, a))
            for e, el in z_coefficients(m[i, j], ctx).items()
            for a, coeffs in el._terms.items()
            for key, c in coeffs.items()
        ]
        for i in range(2)
        for j in range(2)
    }


def test_site_terms_match_the_local_matrices():
    # every site, every k and both families at ranks 1-6
    for n in range(1, 7):
        ctx = lax_context(n)
        for site in range(1, n + 1):
            for k in (-1, 0, 1):
                assert _site_terms(ctx, site, k) == matrix_site_terms(ctx, site, k), (n, site, k)
                for barred in (False, True):
                    assert local_lax(ctx, site, k, barred) == reference_local_lax(ctx, site, k, barred), (n, site, k, barred)
    with pytest.raises(ValueError):
        _site_terms(lax_context(2), 1, 2)
    with pytest.raises(ValueError):
        local_lax(lax_context(2), 1, 2)


def test_lax_hamiltonians_reject_support_outside_the_window(monkeypatch):
    # a nonzero coefficient outside the window is an error; an empty term
    # map there is not
    ctx = lax_context(1)
    signs = {d: _normal_sign("A", 1, i) for i, d in enumerate(laxmod._window((0,), "A"), 1)}
    parts, reads = laxmod._entry_parts(ctx, (0,), "A", signs)
    assert reads == {}
    monkeypatch.setattr(laxmod, "_entry_parts", lambda *a: ({**parts, 7: {}}, {}))
    assert lax_hamiltonians(ctx, (0,), "A") == signed_window(ctx, (0,), "A")
    monkeypatch.setattr(laxmod, "_entry_parts", lambda *a: ({**parts, 7: {ctx.unit_vec(): {0: 1}}}, {}))
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
    # the (1,1) entry is w^-1 z^(1/2) - w z^(-1/2); H_1 strips the sign of -w
    hs = lax_hamiltonians(ctx, (0,), "A")
    assert hs == [ctx.generator(w_index(ctx, 1)), ctx.generator(w_index(ctx, 1), -1)]
    with pytest.raises(ValueError):
        lax_hamiltonians(ctx, (0,), "X")
    with pytest.raises(ValueError):
        lax_hamiltonians(ctx, (0, 0), "A")


def test_z_window_support():
    for m in (1, 2, 3):
        ctx = lax_context(m)
        for kv in all_kvecs(m):
            t = full_product("A", kv)
            lo = sum(k - 1 for k in kv)
            assert min(z_support(t[0, 0], ctx)) == lo
            assert max(z_support(t[0, 0], ctx)) == lo + 2 * m
            dt = full_product("C", kv)
            assert min(z_support(dt[0, 0], ctx)) >= -2 * m
            assert max(z_support(dt[0, 0], ctx)) <= 2 * m


def test_double_monodromy_transpose_route_asserted():
    # the slow route, (-1)^n [T(1/z)]^T T(z), is the oracle for the
    # barred-matrix product
    for n in (1, 2, 3):
        for kv in all_kvecs(n):
            t = full_product("A", kv)
            alt = inverted_transpose(t, (-1) ** n) * t
            assert full_product("C", kv) == alt, kv


def test_monodromy_entry_matches_full_products():
    # the signed window coefficients of the (1,1) entry of the full 2x2
    # products are the oracle for the path sum and its signs
    for n in (1, 2, 3, 4):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            for kind in ("A", "C"):
                assert lax_hamiltonians(ctx, kv, kind) == signed_window(ctx, kv, kind), (kind, kv)
    with pytest.raises(ValueError):
        lax_hamiltonians(lax_context(2), (0, 0), "B")
    with pytest.raises(ValueError):
        lax_hamiltonians(lax_context(2), (0,), "A")


def test_requested_indices_match_the_full_list():
    # each single index, H_2..H_{n+1} (what the type C verdict reads) and
    # every index in a shuffled order, against the default full list
    rng = random.Random(32)
    for n in (1, 2, 3, 4):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            for kind in ("A", "C"):
                full = lax_hamiltonians(ctx, kv, kind)
                for i in range(1, len(full) + 1):
                    assert lax_hamiltonians(ctx, kv, kind, [i]) == [full[i - 1]], (kind, kv, i)
                assert lax_hamiltonians(ctx, kv, kind, range(2, n + 2)) == full[1 : n + 1], (kind, kv)
                order = rng.sample(range(1, len(full) + 1), len(full))
                assert lax_hamiltonians(ctx, kv, kind, order) == [full[i - 1] for i in order], (kind, kv, order)
    ctx = lax_context(2)
    assert lax_hamiltonians(ctx, (0, 1), "C", []) == []
    for kind, count in (("A", 3), ("C", 5)):
        for i in (0, count + 1):
            with pytest.raises(ValueError, match=rf"no H_{i}: the indices run over 1\.\.{count}"):
                lax_hamiltonians(ctx, (0, 1), kind, [1, i])


def test_a_wrong_sign_at_one_degree_is_seen():
    # negative control: both kinds write each degree times the sign they
    # are handed; one flipped sign spoils exactly that coefficient
    n = 2
    ctx = lax_context(n)
    for kind, kv in product(("A", "C"), all_kvecs(n)):
        window = laxmod._window(kv, kind)
        outer = (-1) ** n if kind == "C" else 1
        signs = {d: outer * _normal_sign(kind, n, i) for i, d in enumerate(window, 1)}
        oracle = signed_window(ctx, kv, kind)

        def closed(entry):
            parts, _ = entry
            return [TorusElement._make(ctx, parts.get(d, {})) for d in window]

        assert closed(_entry_parts(ctx, kv, kind, signs)) == oracle, (kind, kv)
        for j, d in enumerate(window):
            got = closed(_entry_parts(ctx, kv, kind, {**signs, d: -signs[d]}))
            assert [g == o for g, o in zip(got, oracle)] == [h != j or o.is_zero() for h, o in enumerate(oracle)], (kind, kv, d)


def test_type_c_entry_matches_inverted_column_products():
    # each unordered z-pair taken once against the full z-inverted
    # products of the first column of T, and the double monodromy
    for n in (1, 2, 3, 4):
        ctx = lax_context(n)
        for kv in all_kvecs(n):
            t = full_product("A", kv)
            x, y = t[0, 0], t[1, 0]
            ref = (z_inverted(x) * x + z_inverted(y) * y).q_shift(0, (-1) ** n)
            assert ref == full_product("C", kv)[0, 0], kv
            assert lax_hamiltonians(ctx, kv, "C") == signed_window(ctx, kv, "C", ref), kv


def test_path_sum_matches_full_products_at_rank5():
    # type A on every index vector; type C, whose double monodromy costs
    # about 0.1 s at this rank, on a seeded sample and the constant vectors
    ctx = lax_context(5)
    for kv in all_kvecs(5):
        assert lax_hamiltonians(ctx, kv, "A") == signed_window(ctx, kv, "A"), kv
    kvecs = random.Random(5).sample(all_kvecs(5), 10) + [(0,) * 5, (1,) * 5, (-1,) * 5]
    for kv in kvecs:
        assert lax_hamiltonians(ctx, kv, "C") == signed_window(ctx, kv, "C"), kv


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


def contract_both_orders(ctx, col: dict, parts: dict) -> None:
    """Add x(1/z) x(z) for the column entry ``col`` into ``parts`` (per
    doubled z-degree, a term map), over the flat terms c q^k E(u) z^e of
    ``col``: each term with itself once, each unordered pair once, both
    orders from one shift, every degree written and none signed.  The
    oracle of ``_contract_columns``."""
    rows = ctx.rows
    terms = [
        (e, u, k, c, _pairing_row(rows, u))
        for (e, u), coeffs in col.items()
        for k, c in coeffs.items()
    ]
    zero = parts.setdefault(0, {})
    for s, (e, u, k1, c1, r) in enumerate(terms):
        tgt = zero.setdefault(_vec_add(u, u), {})
        tgt[2 * k1] = tgt.get(2 * k1, 0) + c1 * c1
        for f, v, k2, c2, _ in terms[s + 1:]:
            shift = 0
            for t, x in r:
                shift += x * v[t]
            vec = _vec_add(u, v)
            k, c = k1 + k2, c1 * c2
            up = parts.setdefault(f - e, {}).setdefault(vec, {})
            up[k + shift] = up.get(k + shift, 0) + c
            down = parts.setdefault(e - f, {}).setdefault(vec, {})
            down[k - shift] = down.get(k - shift, 0) + c


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
    contract_both_orders(WALK_CTX, as_state(x), parts)
    contract_both_orders(WALK_CTX, as_state(y), parts)
    assert from_parts(parts) == z_inverted(x) * x + z_inverted(y) * y


_DEGREES = range(-6, 7)  # every z-degree difference of two z_entries terms


@settings(max_examples=60, deadline=None)
@given(
    x=z_entries(),
    y=z_entries(),
    window=st.sets(st.sampled_from(_DEGREES)),
    signs=st.dictionaries(st.sampled_from(_DEGREES), st.sampled_from([-1, 1])),
)
def test_grouped_contraction_matches_the_oracle(x, y, window, signs):
    # with every degree asked for: the oracle and the z-inverted products
    every = dict.fromkeys(_DEGREES, 1)
    oracle = {}
    contract_both_orders(WALK_CTX, as_state(x), oracle)
    contract_both_orders(WALK_CTX, as_state(y), oracle)
    got = _contract_columns(WALK_CTX, [as_state(x), as_state(y)], every, set(every))
    assert from_parts(got) == from_parts(oracle) == z_inverted(x) * x + z_inverted(y) * y
    # the maps come back without zero coefficients, where sums cancel too
    assert got == {d: _nonzero(t) for d, t in got.items()}
    # with some degrees asked for, each with a sign: those degrees, signed,
    # and every degree outside the window, unsigned
    window |= set(signs)
    got = _contract_columns(WALK_CTX, [as_state(x), as_state(y)], signs, window)
    assert got == {d: _nonzero(t) for d, t in got.items()}
    kept = {
        d: {u: {k: signs.get(d, 1) * c for k, c in coeffs.items()} for u, coeffs in terms.items()}
        for d, terms in oracle.items()
        if d in signs or d not in window
    }
    assert from_parts(got) == from_parts(kept)


def test_a_same_degree_pair_needs_both_orders():
    # negative control: x = E(u) z^(1/2) + 2 E(v) z^(1/2) - E(u) z^(-1/2),
    # with den*<u,v> != 0; the pair (u, v) at one degree enters z^0 as
    # E(u)E(v) and as E(v)E(u), and dropping the second order is seen
    u, v = WALK_CTX.basis_vec(w_index(WALK_CTX, 1)), WALK_CTX.basis_vec(d_index(WALK_CTX, 1))
    shift = sum(x * v[t] for t, x in _pairing_row(WALK_CTX.rows, u))
    assert shift
    x = TorusElement(WALK_SPECTRAL, {u + (1, 0): {0: 1}, v + (1, 0): {0: 2}, u + (-1, 0): {0: -1}})
    every = dict.fromkeys(_DEGREES, 1)
    got = _contract_columns(WALK_CTX, [as_state(x)], every, set(every))
    assert from_parts(got) == z_inverted(x) * x
    # the second order E(v)E(u) adds 1 * 2 at key -shift
    dropped = {d: {w: dict(c) for w, c in t.items()} for d, t in got.items()}
    dropped[0][_vec_add(u, v)][-shift] -= 2
    assert from_parts(dropped) != z_inverted(x) * x


def test_a_sum_that_cancels_leaves_no_zero():
    # one z-degree group a, b, t: the pair (a, b) lands on t's own square,
    # E(2u) at key 0, with -1, and t's term itself then brings it to 0
    u, w = WALK_CTX.basis_vec(w_index(WALK_CTX, 1)), WALK_CTX.basis_vec(d_index(WALK_CTX, 1))
    a, b = tuple(x - y for x, y in zip(u, w)), _vec_add(u, w)
    shift = sum(x * b[t] for t, x in _pairing_row(WALK_CTX.rows, a))
    assert shift
    col = {(1, a): {-shift: 1}, (1, b): {0: -1}, (1, u): {0: 1}}
    oracle = {}
    contract_both_orders(WALK_CTX, col, oracle)
    assert oracle[0][_vec_add(u, u)] == {0: 0, -2 * shift: -1}
    every = dict.fromkeys(_DEGREES, 1)
    got = _contract_columns(WALK_CTX, [col], every, set(every))
    assert got[0][_vec_add(u, u)] == {-2 * shift: -1}
    assert got == {d: _nonzero(t) for d, t in oracle.items()}


@settings(max_examples=60, deadline=None)
@given(
    x=z_entries(),
    y=z_entries(),
    site=st.sampled_from([1, 2]),
    k=st.sampled_from([-1, 0, 1]),
)
def test_walk_step_matches_column_products(x, y, site, k):
    # a column extended on the left, against the displayed closed form
    m = reference_local_lax(WALK_CTX, site, k)
    col = _walk(WALK_CTX, [as_state(x), as_state(y)], site, k, (0, 1))
    for j in range(2):
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
            direct = lax_hamiltonians(ctx, kv, "A")
            rec = recursive_hamiltonians(ctx, kv, "A", range(m + 3))
            for i in range(1, m + 2):
                assert rec[i] == direct[i - 1]
            assert rec[0].is_zero() and rec[m + 2].is_zero()


def test_recursion_C_equals_direct_up_to_rank2():
    for m in (1, 2):
        ctx = lax_context(m)
        for kv in all_kvecs(m):
            direct = lax_hamiltonians(ctx, kv, "C")
            rec = recursive_hamiltonians(ctx, kv, "C", range(2 * m + 3))
            for i in range(1, 2 * m + 2):
                assert rec[i] == direct[i - 1]
            assert rec[0].is_zero() and rec[2 * m + 2].is_zero()


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
        hs = lax_hamiltonians(ctx, kv, "A")
        for a, b in combinations(range(len(hs)), 2):
            assert commutes(hs[a], hs[b])


def test_commuting_type_c_rank2():
    ctx = lax_context(2)
    for kv in all_kvecs(2):
        hs = lax_hamiltonians(ctx, kv, "C")
        for a, b in combinations(range(len(hs)), 2):
            assert commutes(hs[a], hs[b])


def test_rtt_local_and_monodromy():
    ctx = lax_context(2)
    for i in (1, 2):
        for k in (-1, 0, 1):
            assert check_rtt(local_lax(ctx, i, k))
            assert check_rtt(local_lax(ctx, i, k, barred=True))
    assert check_rtt(monodromy(ctx, (0, 1)))


@pytest.mark.parametrize("n", [2, 3])
def test_passing_rtt_matrices_have_no_witness(n):
    ctx = lax_context(n)
    mats = [local_lax(ctx, i, k, barred) for i in (1, 2) for k in (-1, 0, 1) for barred in (False, True)]
    mats += [full_product("A", kv) for kv in all_kvecs(n)]
    for m in mats:
        assert check_rtt(m) and _rtt_witness(m) is None


def test_rtt_negative_control():
    ctx = lax_context(2)
    t = monodromy(ctx, (0, 1))
    e11 = t[0, 0]
    terms = z_coefficients(e11, ctx)
    d0 = sorted(terms)[0]
    terms[d0] = -terms[d0]
    bad = LaxMatrix(ctx, ((zpoly(ctx, terms), t[0, 1]), (t[1, 0], t[1, 1])))
    assert not check_rtt(bad)
    # the witness: the first differing cell, row-major, and the least
    # exponent vector of its difference, with both sides' coefficients
    witness = _rtt_witness(bad)
    lhs, rhs = laxmod._rtt_sides(bad)
    cells = [(a, b) for a in range(4) for b in range(4)]
    first = next(c for c in cells if lhs[c[0]][c[1]] != rhs[c[0]][c[1]])
    assert witness["cell"] == list(first)
    i, j = first
    vec = min((lhs[i][j] - rhs[i][j]).terms)
    assert witness["exponents"] == list(vec)
    assert witness == {
        "cell": [0, 1],
        "exponents": [0, 0, -1, 0, 1, 3],
        "lhs_coeff": [["-1", -1], ["1", -1]],
        "rhs_coeff": [["-1", -3], ["1", 1]],
    }


def test_boundary_invariance_defect_witness():
    # the quoted invariance propositions fail in this presentation: the
    # corner D-term keeps its w-dressing.  Frozen witnesses.
    ctx = lax_context(2)
    h = lax_hamiltonians(ctx, (-1, -1), "A")[1]
    hz = lax_hamiltonians(ctx, (0, 0), "A")[1]
    diff = h - hz
    assert not diff.is_zero()
    assert ctx.plain_product(
        [(w_index(ctx, 1), 1), (w_index(ctx, 2), 1), (d_index(ctx, 1), 1), (d_index(ctx, 2), -1)]
    ).q_shift(0, -1).terms.keys() <= diff.terms.keys()


def test_boundary_gauge_witness():
    # the same witness is gauge equivalent: one w-fixing monomial map
    # carries every Hamiltonian of k = (0,0) onto that of k = (-1,-1)
    ctx = lax_context(2)
    h = lax_hamiltonians(ctx, (-1, -1), "A")
    hz = lax_hamiltonians(ctx, (0, 0), "A")
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
