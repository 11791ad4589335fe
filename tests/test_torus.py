import sys
from array import array
from fractions import Fraction
from itertools import combinations

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtoda.torus import (
    MonomialMap,
    TorusContext,
    TorusElement,
    _TermCode,
    _encoded_commutator,
    _nonzero,
    _pairing_row,
    _product,
    _vec_add,
    classical_context,
    commutator,
    commutes,
)


# -- the commutative (q -> 1) layer: the classical limit, its Poisson
# bracket and rational functions, oracles for the tests of this and
# other files


def specialize_classical(a: TorusElement) -> TorusElement:
    """Set q = 1.  A ring homomorphism onto the commutative Laurent ring,
    the torus over ``classical_context(a.ctx.names)``."""
    out = {}
    for vec, coeffs in a._terms.items():
        c = sum(coeffs.values())
        if c:
            out[vec] = {0: c}
    return TorusElement._make(classical_context(a.ctx.names), out)


def poisson_bracket(f: TorusElement, g: TorusElement, bracket) -> TorusElement:
    """Log-canonical bracket {x^a, x^b} = (sum B_ij a_i b_j) x^(a+b) of
    two elements over one zero-skew context, coefficients under q^0."""
    f._check(g)
    if any(f.ctx.rows):
        raise ValueError("poisson bracket needs a zero-skew context")
    m = f.ctx.rank
    for i in range(m):
        for j in range(m):
            if bracket[i][j] != -bracket[j][i]:
                raise ValueError("bracket matrix is not skew-symmetric")
    out = {}
    for a, ca in f._terms.items():
        for b, cb in g._terms.items():
            w = Fraction(0)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    if bj and bracket[i][j]:
                        w += Fraction(bracket[i][j]) * ai * bj
            if w:
                v = _vec_add(a, b)
                out[v] = out.get(v, Fraction(0)) + w * ca[0] * cb[0]
    return TorusElement(f.ctx, {v: {0: c} for v, c in out.items()})


class RationalLaurent:
    """Exact rational function num/den of two elements over a zero-skew
    context (``classical_context``).

    Fractions are never reduced.  The Laurent ring is a domain, so
    a/b == c/d exactly when a*d == c*b, and equality needs no gcd.
    Ints are accepted on either side of ``+``, ``*`` and ``/``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: TorusElement, den: TorusElement | None = None):
        if den is None:
            den = num.ctx.one()
        if den.is_zero():
            raise ZeroDivisionError("RationalLaurent with zero denominator")
        self.num = num
        self.den = den

    def _coerce(self, other) -> "RationalLaurent":
        if isinstance(other, RationalLaurent):
            return other
        if isinstance(other, int):
            ctx = self.num.ctx
            return RationalLaurent(ctx.monomial(ctx.unit_vec(), coeff=other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __add__(self, other) -> "RationalLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalLaurent(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __mul__(self, other) -> "RationalLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalLaurent(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalLaurent(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, e: int) -> "RationalLaurent":
        if e == 0:
            return self._coerce(1)
        out = self
        for _ in range(abs(e) - 1):
            out = RationalLaurent(out.num * self.num, out.den * self.den)
        return out if e > 0 else RationalLaurent(out.den, out.num)

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"


def ctx2(omega=Fraction(1)):
    return TorusContext(
        ("X_1", "X_2"),
        ((Fraction(0), omega), (-omega, Fraction(0))),
    )


def lax1():
    # w, D with D w = q w D
    return TorusContext(
        ("w", "D"),
        ((Fraction(0), Fraction(-1, 2)), (Fraction(1, 2), Fraction(0))),
    )


def test_generator_commutation():
    ctx = ctx2(Fraction(3, 2))
    x, y = ctx.generator(0), ctx.generator(1)
    assert x * y == (y * x).q_shift(2 * Fraction(3, 2))


def test_unit_and_zero():
    ctx = ctx2()
    a = ctx.weyl([(0, 2), (1, -1)])
    assert a * ctx.one() == a
    assert (a + ctx.zero()) == a
    assert (a - a).is_zero()


def test_weyl_order_independent():
    ctx = ctx2(Fraction(2))
    letters = [(0, 1), (1, 1), (0, -2)]
    assert ctx.weyl(letters) == ctx.weyl(list(reversed(letters)))


def test_plain_product_balancing():
    ctx = lax1()
    dw = ctx.plain_product([(1, 1), (0, 1)])  # D then w
    wd = ctx.plain_product([(0, 1), (1, 1)])  # w then D
    assert dw == ctx.weyl([(0, 1), (1, 1)]).q_shift(Fraction(1, 2))
    assert wd == ctx.weyl([(0, 1), (1, 1)]).q_shift(Fraction(-1, 2))
    # D w = q w D
    assert ctx.generator(1) * ctx.generator(0) == (
        ctx.generator(0) * ctx.generator(1)
    ).q_shift(1)


def test_context_mismatch_raises():
    a = ctx2().one()
    b = ctx2(Fraction(2)).one()
    with pytest.raises(ValueError):
        a * b


def test_commutes_predicate():
    ctx = ctx2(Fraction(1))
    x, y = ctx.generator(0), ctx.generator(1)
    assert commutes(x, x)
    assert not commutes(x, y)


def test_commutator_of_noncommuting_generators():
    # negative control: xy - yx = (q - q^-1) E(1,1) when s_12 = 1
    ctx = ctx2(Fraction(1))
    x, y = ctx.generator(0), ctx.generator(1)
    c = commutator(x, y)
    assert not c.is_zero()
    assert c == x * y - y * x
    assert c == TorusElement(ctx, {(1, 1): {Fraction(1): 1, Fraction(-1): -1}})
    assert commutator(y, x) == -c
    assert commutator(x, x).is_zero() and commutator(ctx.one(), y).is_zero()
    with pytest.raises(ValueError):
        commutator(x, ctx2(Fraction(2)).generator(1))


def test_context_validation_and_grid():
    f = Fraction
    with pytest.raises(ValueError, match="shape"):
        TorusContext(("a", "b"), ((f(0), f(1)),))
    with pytest.raises(ValueError, match="diagonal"):
        TorusContext(("a", "b"), ((f(1), f(0)), (f(0), f(0))))
    with pytest.raises(ValueError, match="skew-symmetric"):
        TorusContext(("a", "b"), ((f(0), f(1)), (f(1), f(0))))
    with pytest.raises(ValueError, match="skew-symmetric"):
        TorusContext(("a", "b"), ((f(0), f(1, 2)), (f(0), f(0))))
    ctx = TorusContext(
        ("a", "b", "c"),
        ((f(0), f(1, 2), f(1, 3)), (f(-1, 2), f(0), f(0)), (f(-1, 3), f(0), f(0))),
    )
    assert ctx.den == 6
    assert ctx.rows == ({1: 3, 2: 2}, {0: -3}, {0: -2})
    assert ctx.pairing((1, 0, 0), (0, 1, 1)) == f(5, 6)
    assert ctx == TorusContext(ctx.names, ctx.skew)


def _fraction_grid(skew):
    """The grid rule on Fractions: den grows by the part of each entry's
    denominator it lacks, and rows are den*s entry by entry."""
    den = 1
    for row in skew:
        for x in row:
            if x:
                den *= (x * den).denominator
    return den, tuple({j: int(x * den) for j, x in enumerate(row) if x} for row in skew)


@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=12)),
        min_size=6,
        max_size=6,
    )
)
def test_context_grid_matches_the_fraction_rule(upper):
    # den is the lcm of the denominators, and rows are found on ints
    skew = [[0] * 4 for _ in range(4)]
    cells = iter(upper)
    for i in range(4):
        for j in range(i + 1, 4):
            x = next(cells)
            skew[i][j], skew[j][i] = x, -x
    ctx = TorusContext(("a", "b", "c", "d"), tuple(map(tuple, skew)))
    assert (ctx.den, ctx.rows) == _fraction_grid(ctx.skew)
    assert all(type(x) is int for row in ctx.rows for x in row.values())


def inverse_monomial(m: TorusElement) -> TorusElement:
    """Inverse of a single Weyl term q^r E(a), which is q^-r E(-a)."""
    assert m.is_monomial()
    ((vec, coeffs),) = m.terms.items()
    ((qp, c),) = coeffs.items()
    assert c in (1, -1)
    return m.ctx.monomial(tuple(-x for x in vec), -qp, c)


def test_monomial_inverse():
    ctx = ctx2(Fraction(1))
    m = ctx.monomial((2, -1), qpow=Fraction(1, 2))
    assert m * inverse_monomial(m) == ctx.one()


small_exp = st.integers(min_value=-2, max_value=2)


def element_strategy(ctx):
    term = st.tuples(
        st.tuples(small_exp, small_exp),
        st.integers(min_value=-3, max_value=3),
    )
    return st.lists(term, min_size=0, max_size=4).map(
        lambda items: sum(
            (ctx.monomial(vec, coeff=c) for vec, c in items if c),
            ctx.zero(),
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity(data):
    ctx = ctx2(Fraction(1, 2))
    a = data.draw(element_strategy(ctx))
    b = data.draw(element_strategy(ctx))
    c = data.draw(element_strategy(ctx))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_specialization_is_ring_hom(data):
    ctx = ctx2(Fraction(1))
    a = data.draw(element_strategy(ctx))
    b = data.draw(element_strategy(ctx))
    lhs = specialize_classical(a * b)
    rhs = specialize_classical(a) * specialize_classical(b)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(va=st.tuples(small_exp, small_exp), vb=st.tuples(small_exp, small_exp))
def test_weyl_commutation_identity(va, vb):
    ctx = ctx2(Fraction(1, 2))
    a, b = ctx.monomial(va), ctx.monomial(vb)
    shift = 2 * ctx.pairing(va, vb)
    assert a * b == (b * a).q_shift(shift)


def test_monomial_commutator_specializes_to_zero():
    ctx = ctx2(Fraction(1))
    a = ctx.monomial((1, 2))
    b = ctx.monomial((-1, 1))
    assert specialize_classical(a * b - b * a).is_zero()


def ctx3_half():
    half = Fraction(1, 2)
    s = ((0, half, -1), (-half, 0, Fraction(3, 2)), (1, Fraction(-3, 2), 0))
    return TorusContext(("X_1", "X_2", "X_3"), tuple(tuple(map(Fraction, r)) for r in s))


def element3_strategy(ctx):
    term = st.tuples(
        st.tuples(small_exp, small_exp, small_exp),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-3, max_value=3),
    )
    return st.lists(term, max_size=4).map(
        lambda items: TorusElement.sum(
            ctx, (ctx.monomial(v, Fraction(k, 2), c) for v, k, c in items)
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutator_has_the_poisson_bracket_as_classical_limit(data):
    # lim_{q->1} [a, b] / (q - q^-1) = {a|q=1, b|q=1}: per vector, the
    # limit of sum_k c_k q^k / (q - q^-1) is sum_k k c_k / 2
    ctx = ctx3_half()
    a = data.draw(element3_strategy(ctx))
    b = data.draw(element3_strategy(ctx))
    fa, fb = specialize_classical(a), specialize_classical(b)
    # over the zero-skew context on the same names
    assert fa.ctx == classical_context(ctx.names) == fb.ctx
    limit = TorusElement(
        fa.ctx,
        {
            v: {0: sum(k * c for k, c in coeffs.items()) / 2}
            for v, coeffs in commutator(a, b).terms.items()
        },
    )
    assert poisson_bracket(fa, fb, ctx.skew) == limit


# -- poisson bracket ---------------------------------------------------------


def _bracket_matrix(entries):
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


def test_poisson_stated_weight_brackets():
    # variables (c_1, t_1): {c, t} = 2 c t and {t, t} = 0
    ctx = classical_context(("c_1", "t_1"))
    c = ctx.monomial((1, 0))
    t = ctx.monomial((0, 1))
    b = _bracket_matrix([[0, 2], [-2, 0]])
    assert poisson_bracket(c, t, b) == ctx.monomial((1, 1), coeff=2)
    assert poisson_bracket(t, t, b).is_zero()


def test_poisson_skew_and_errors():
    ctx = classical_context(("x", "y"))
    f = ctx.monomial((1, 2)) + ctx.monomial((0, -1), coeff=3)
    b = _bracket_matrix([[0, 1], [-1, 0]])
    assert poisson_bracket(f, f, b).is_zero()
    with pytest.raises(ValueError):
        poisson_bracket(f, f, _bracket_matrix([[0, 1], [1, 0]]))


@settings(max_examples=30, deadline=None)
@given(
    va=st.tuples(small_exp, small_exp),
    vb=st.tuples(small_exp, small_exp),
    vc=st.tuples(small_exp, small_exp),
)
def test_poisson_jacobi(va, vb, vc):
    ctx = classical_context(("x", "y"))
    b = _bracket_matrix([[0, Fraction(3, 2)], [Fraction(-3, 2), 0]])
    f, g, h = (ctx.monomial(v) for v in (va, vb, vc))
    total = (
        poisson_bracket(f, poisson_bracket(g, h, b), b)
        + poisson_bracket(g, poisson_bracket(h, f, b), b)
        + poisson_bracket(h, poisson_bracket(f, g, b), b)
    )
    assert total.is_zero()


# -- rational functions over the commutative layer ---------------------------


def _classical(ctx, t):
    """The commutative Laurent polynomial {vec: coefficient} over ctx."""
    return TorusElement(ctx, {v: {0: c} for v, c in t.items()})


def _at_q0(el):
    """{vec: coefficient} of an element whose coefficients sit under q^0."""
    out = {}
    for v, coeffs in el.terms.items():
        assert set(coeffs) == {0}
        out[v] = coeffs[0]
    return out


def _xy():
    ctx = classical_context(("x", "y"))
    one = RationalLaurent(ctx.one())
    x = RationalLaurent(ctx.generator(0))
    y = RationalLaurent(ctx.generator(1))
    return ctx, one, x, y


def test_rational_equality_cross_multiplies_unreduced_fractions():
    _, _, x, y = _xy()
    q = (x * x + (-1)) / (x + (-1))
    assert q == x + 1
    assert q.den == (x + (-1)).num  # stored as given, never reduced
    assert q != x
    assert (x * y) / (y * y) == x / y
    assert x / x == 1 and 1 == x / x


def test_rational_zero_denominator_raises():
    ctx, one, x, _ = _xy()
    with pytest.raises(ZeroDivisionError):
        RationalLaurent(one.num, ctx.zero())
    with pytest.raises(ZeroDivisionError):
        x / (x + (-1) * x)
    with pytest.raises(ZeroDivisionError):
        1 / (x * 0)
    with pytest.raises(ZeroDivisionError):
        (x * 0) ** -1


def test_rational_accepts_ints_on_both_sides():
    _, one, x, _ = _xy()
    assert 1 + x == x + 1 == x + one
    assert 3 * x == x * 3 == x + x + x
    assert (2 / x) * x == 2
    assert (x / 2) * 2 == x
    assert (2 * x) / x == 2


def test_rational_integer_powers():
    _, one, x, y = _xy()
    assert x ** 0 == 1
    assert (x / y) ** -2 == (y * y) / (x * x)
    assert (1 + x) ** -1 * (1 + x) == 1
    assert ((1 + x) ** 3) * ((1 + x) ** -3) == one


_coeffs = st.integers(min_value=-3, max_value=3)
_laurent = st.dictionaries(st.tuples(small_exp, small_exp), _coeffs, max_size=4)


@settings(max_examples=60, deadline=None)
@given(f=_laurent, g=_laurent, h=_laurent)
def test_rational_division_round_trip(f, g, h):
    ctx = classical_context(("x", "y"))
    f, g, h = (RationalLaurent(_classical(ctx, t)) for t in (f, g, h))
    if g.num.is_zero():
        with pytest.raises(ZeroDivisionError):
            f / g
        return
    assert (f / g) * g == f
    assert f / g + h == (f + h * g) / g


def test_commutative_coefficients_keep_their_kind():
    ctx = classical_context(("x", "y"))
    ints = _classical(ctx, {(1, 0): 2, (0, 1): -3})
    assert all(type(c) is int for c in _at_q0(ints).values())
    assert all(type(c) is int for c in _at_q0(ints * ints + ints).values())
    assert type(_at_q0(ctx.one())[(0, 0)]) is int
    fracs = _classical(ctx, {(1, 0): Fraction(2), (0, 1): Fraction(1, 3)})
    assert all(type(c) is Fraction for c in _at_q0(fracs).values())
    assert type(_at_q0(ctx.monomial((0, 0), coeff=Fraction(2)))[(0, 0)]) is Fraction
    # ints and Fractions mix exactly and compare by value
    mixed = ints + fracs
    assert _at_q0(mixed) == {(1, 0): 4, (0, 1): Fraction(-8, 3)}
    assert type(_at_q0(mixed)[(1, 0)]) is Fraction
    assert ints == _classical(ctx, {(1, 0): Fraction(2), (0, 1): Fraction(-3)})
    assert _at_q0(ints * fracs)[(2, 0)] == 4
    # a float is read as the exact Fraction of its binary value
    half = _classical(ctx, {(0, 0): 0.5, (1, 1): 0.1})
    assert _at_q0(half)[(0, 0)] == Fraction(1, 2) and type(_at_q0(half)[(0, 0)]) is Fraction
    assert _at_q0(half)[(1, 1)] == Fraction(0.1) != Fraction(1, 10)
    assert type(_at_q0(ctx.monomial((0, 0), coeff=0.5))[(0, 0)]) is Fraction
    assert _classical(ctx, {(0, 0): 0, (1, 0): Fraction(0), (0, 1): 0.0}).is_zero()


def _frac_add(f, g):
    out = {}
    for t in (f, g):
        for v, c in t.items():
            out[v] = out.get(v, Fraction(0)) + Fraction(c)
    return {v: c for v, c in out.items() if c}


def _frac_mul(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            v = (a[0] + b[0], a[1] + b[1])
            out[v] = out.get(v, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {v: c for v, c in out.items() if c}


_mixed_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_mixed_laurent = st.dictionaries(st.tuples(small_exp, small_exp), _mixed_coeffs, max_size=4)


def _as_fractions(ctx, t):
    return _classical(ctx, {v: Fraction(c) for v, c in t.items()})


@settings(max_examples=100, deadline=None)
@given(f=_mixed_laurent, g=_mixed_laurent)
def test_commutative_ring_ops_match_fraction_reference(f, g):
    ctx = classical_context(("x", "y"))
    F, G = _classical(ctx, f), _classical(ctx, g)
    assert _at_q0(F + G) == _frac_add(f, g)
    assert _at_q0(F * G) == _frac_mul(f, g)
    assert _at_q0(F - G) == _frac_add(f, {v: -c for v, c in g.items()})
    assert F + G == _as_fractions(ctx, f) + _as_fractions(ctx, g)
    if all(type(c) is int for c in (*f.values(), *g.values())):
        assert all(type(c) is int for c in _at_q0(F * G + F).values())


@settings(max_examples=60, deadline=None)
@given(f=_mixed_laurent, g=_mixed_laurent, h=_mixed_laurent, k=_mixed_laurent)
def test_rational_equality_matches_fraction_reference(f, g, h, k):
    ctx = classical_context(("x", "y"))
    if not _frac_add(g, {}) or not _frac_add(k, {}):
        return

    def rat(num, den, conv):
        return RationalLaurent(conv(ctx, num), conv(ctx, den))

    lhs, rhs = rat(f, g, _classical), rat(h, k, _classical)
    ref_lhs, ref_rhs = rat(f, g, _as_fractions), rat(h, k, _as_fractions)
    # the Fraction-coefficient verdict, and the cross-multiplication by hand
    verdict = _frac_mul(f, k) == _frac_mul(h, g)
    assert (lhs == rhs) is (ref_lhs == ref_rhs) is verdict
    # an equal pair that is not written the same way
    if _frac_add(h, {}):
        assert lhs == rat(_frac_mul(f, h), _frac_mul(g, h), _as_fractions)


# -- monomial maps -----------------------------------------------------------


def identity_map(ctx):
    return MonomialMap(ctx, ctx, tuple((Fraction(0), ctx.basis_vec(i)) for i in range(ctx.rank)))


def test_identity_map():
    ctx = ctx2(Fraction(1))
    m = identity_map(ctx)
    el = ctx.monomial((2, -1), qpow=Fraction(1, 2), coeff=-3)
    assert m.apply(el) == el
    assert m.is_homomorphism()


def test_map_flags_broken_commutation():
    src = ctx2(Fraction(1))
    tgt = ctx2(Fraction(2))
    m = MonomialMap(
        src, tgt, ((Fraction(0), (1, 0)), (Fraction(0), (0, 1)))
    )
    assert not m.is_homomorphism()
    ((i, j, s, t),) = m.failing_pairs()
    assert (s, t) == (Fraction(1), Fraction(2))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_homomorphic_map_respects_products(data):
    src = ctx2(Fraction(1))
    tgt = TorusContext(
        ("a", "b", "c"),
        (
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0)),
        ),
    )
    m = MonomialMap(
        src, tgt, ((Fraction(1, 2), (1, 0, 2)), (Fraction(0), (0, 1, -1)))
    )
    assert m.is_homomorphism()
    a = data.draw(element_strategy(src))
    b = data.draw(element_strategy(src))
    assert m.apply(a * b) == m.apply(a) * m.apply(b)
    assert m.apply(a + b) == m.apply(a) + m.apply(b)


# -- kernel oracle -------------------------------------------------------------
# The kernel keys q-exponents by den * exponent.  The reference below keeps
# Fraction exponents and the plain loops of the Fraction-keyed kernel, with
# the pairing read straight off the skew matrix.


def _ref_terms(el):
    return {vec: dict(coeffs) for vec, coeffs in el.terms.items()}


def _ref_clean(terms):
    out = {}
    for vec, coeffs in terms.items():
        kept = {qp: c for qp, c in coeffs.items() if c != 0}
        if kept:
            out[vec] = kept
    return out


def _ref_add(a, b):
    out = {v: dict(c) for v, c in a.items()}
    for vec, coeffs in b.items():
        acc = out.setdefault(vec, {})
        for qp, c in coeffs.items():
            acc[qp] = acc.get(qp, 0) + c
    return _ref_clean(out)


def _ref_scale(a, qpow, scale):
    return _ref_clean(
        {v: {qp + qpow: c * scale for qp, c in coeffs.items()} for v, coeffs in a.items()}
    )


def _ref_mul(ctx, a, b):
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            shift = sum(
                (ctx.skew[i][j] * x * y for i, x in enumerate(va) for j, y in enumerate(vb)),
                Fraction(0),
            )
            acc = out.setdefault(tuple(x + y for x, y in zip(va, vb)), {})
            for qa, xa in ca.items():
                for qb, xb in cb.items():
                    qp = qa + qb + shift
                    acc[qp] = acc.get(qp, 0) + xa * xb
    return _ref_clean(out)


def _ref_apply(m, a):
    out = {}
    for vec, coeffs in a.items():
        qshift = Fraction(0)
        tv = [0] * m.target.rank
        for i, e in enumerate(vec):
            p, v = m.images[i]
            qshift += e * p
            for j, x in enumerate(v):
                tv[j] += e * x
        acc = out.setdefault(tuple(tv), {})
        for qp, c in coeffs.items():
            acc[qp + qshift] = acc.get(qp + qshift, 0) + c
    return _ref_clean(out)


# skew denominators 1 and 2; 1/3 and -2/3 lie off both grids
ORACLE_CONTEXTS = (
    ctx2(Fraction(1)),
    ctx2(Fraction(3, 2)),
    TorusContext(
        ("a", "b", "c"),
        (
            (Fraction(0), Fraction(1), Fraction(-1, 2)),
            (Fraction(-1), Fraction(0), Fraction(2)),
            (Fraction(1, 2), Fraction(-2), Fraction(0)),
        ),
    ),
)
oracle_qpow = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(-2, 3)]
)


def raw_terms(ctx):
    vec = st.tuples(*[small_exp] * ctx.rank)
    coeffs = st.dictionaries(oracle_qpow, st.integers(min_value=-3, max_value=3), max_size=3)
    return st.dictionaries(vec, coeffs, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_matches_fraction_reference(data):
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    ra = data.draw(raw_terms(ctx))
    rb = data.draw(raw_terms(ctx))
    a, b = TorusElement(ctx, ra), TorusElement(ctx, rb)
    ra, rb = _ref_clean(ra), _ref_clean(rb)
    assert _ref_terms(a) == ra and _ref_terms(b) == rb
    assert _ref_terms(a * b) == _ref_mul(ctx, ra, rb)
    assert _ref_terms(a + b) == _ref_add(ra, rb)
    assert _ref_terms(a - b) == _ref_add(ra, _ref_scale(rb, 0, -1))
    qpow = data.draw(oracle_qpow)
    scale = data.draw(st.integers(min_value=-2, max_value=2))
    assert _ref_terms(a.q_shift(qpow, scale)) == _ref_scale(ra, qpow, scale)
    # products of off-grid and on-grid terms, re-associated
    c = TorusElement(ctx, data.draw(raw_terms(ctx)))
    assert (a * b) * c == a * (b * c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_commutator_matches_both_products(data):
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    ra = data.draw(raw_terms(ctx))
    rb = data.draw(raw_terms(ctx))
    a, b = TorusElement(ctx, ra), TorusElement(ctx, rb)
    ra, rb = _ref_clean(ra), _ref_clean(rb)
    c = commutator(a, b)
    assert c == a * b - b * a
    ref = _ref_add(_ref_mul(ctx, ra, rb), _ref_scale(_ref_mul(ctx, rb, ra), 0, -1))
    assert _ref_terms(c) == ref
    assert commutes(a, b) == (not ref)
    # a central part (the unit term) and the element itself drop out
    assert commutator(a + ctx.one(), b) == c
    assert commutator(a, a).is_zero()


def sized_terms(ctx, min_size, max_size):
    """Raw terms with exactly min_size..max_size nonzero exponent vectors."""
    vec = st.tuples(*[small_exp] * ctx.rank)
    nonzero = st.integers(min_value=-3, max_value=3).filter(bool)
    coeffs = st.dictionaries(oracle_qpow, nonzero, min_size=1, max_size=3)
    return st.dictionaries(vec, coeffs, min_size=min_size, max_size=max_size)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_builds_pairing_rows_on_either_side(data):
    # a has more terms than b, so a*b builds rows for b and b*a for b too,
    # from the left: both branches of the smaller-side choice run
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    rb = data.draw(sized_terms(ctx, 1, 3))
    ra = data.draw(sized_terms(ctx, len(rb) + 1, 5))
    a, b = TorusElement(ctx, ra), TorusElement(ctx, rb)
    assert len(a.terms) > len(b.terms)
    assert _ref_terms(a * b) == _ref_mul(ctx, ra, rb)
    assert _ref_terms(b * a) == _ref_mul(ctx, rb, ra)
    assert a.q_shift(0, 1) is a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monomial_product_matches_the_general_product(data):
    # c q^k E(a), c a unit or not, on either side of an element whose
    # terms carry several q-powers and negative coefficients
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    vec = data.draw(st.tuples(*[small_exp] * ctx.rank))
    qpow = data.draw(oracle_qpow)
    c = data.draw(st.sampled_from([1, -1, 2, -3]))
    rb = data.draw(raw_terms(ctx))
    m, b = ctx.monomial(vec, qpow, c), TorusElement(ctx, rb)
    assert m.is_monomial()
    left, right = m * b, b * m
    assert left == _product(m, b) and right == _product(b, m)
    rm, rb = {vec: {qpow: c}}, _ref_clean(rb)
    assert _ref_terms(left) == _ref_mul(ctx, rm, rb)
    assert _ref_terms(right) == _ref_mul(ctx, rb, rm)
    # a bijection on terms: as many terms, each with as many q-powers
    assert sorted(map(len, left._terms.values())) == sorted(map(len, b._terms.values()))


def both_orders(a: TorusElement, b: TorusElement) -> tuple[TorusElement, TorusElement]:
    """(ab, ba) in one pass over term pairs.

    E(u)E(v) = q^<u,v> E(u+v) and E(v)E(u) = q^-<u,v> E(u+v), so each
    pair's pairing is computed once and feeds both products.  The same rule
    gives both orders of each unordered pair in ``lax._contract``.
    """
    a._check(b)
    rows = a.ctx.rows
    ab: dict = {}
    ba: dict = {}
    for u, cu in a._terms.items():
        r_items = _pairing_row(rows, u)
        for v, cv in b._terms.items():
            shift = 0
            for j, x in r_items:
                shift += x * v[j]
            vec = _vec_add(u, v)
            acc = ab.get(vec)
            if acc is None:
                ab[vec] = acc = {}
                ba[vec] = rev = {}
            else:
                rev = ba[vec]
            for qa, xa in cu.items():
                for qb, xb in cv.items():
                    k, c = qa + qb, xa * xb
                    acc[k + shift] = acc.get(k + shift, 0) + c
                    rev[k - shift] = rev.get(k - shift, 0) + c
    return TorusElement._make(a.ctx, _nonzero(ab)), TorusElement._make(a.ctx, _nonzero(ba))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_both_orders_matches_both_products(data):
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    ra = data.draw(raw_terms(ctx))
    rb = data.draw(raw_terms(ctx))
    a, b = TorusElement(ctx, ra), TorusElement(ctx, rb)
    ra, rb = _ref_clean(ra), _ref_clean(rb)
    ab, ba = both_orders(a, b)
    assert ab == a * b and ba == b * a
    assert _ref_terms(ab) == _ref_mul(ctx, ra, rb)
    assert _ref_terms(ba) == _ref_mul(ctx, rb, ra)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_matches_folded_add_and_reference(data):
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    raws = data.draw(st.lists(raw_terms(ctx), max_size=5))
    items = [TorusElement(ctx, r) for r in raws]
    folded = ctx.zero()
    ref = {}
    for el, r in zip(items, raws):
        folded = folded + el
        ref = _ref_add(ref, _ref_clean(r))
    total = TorusElement.sum(ctx, items)
    assert total == folded
    assert _ref_terms(total) == ref


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_fraction_reference(data):
    src = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    tgt = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    images = tuple(
        (data.draw(oracle_qpow), data.draw(st.tuples(*[small_exp] * tgt.rank)))
        for _ in range(src.rank)
    )
    m = MonomialMap(src, tgt, images)
    raw = data.draw(raw_terms(src))
    assert _ref_terms(m.apply(TorusElement(src, raw))) == _ref_apply(m, _ref_clean(raw))


def test_off_grid_keys_meet_on_grid_keys():
    # q^(1/3) q^(2/3) lands on the grid of an integer-skew torus
    ctx = ctx2(Fraction(1))
    a = ctx.monomial((1, 0), qpow=Fraction(1, 3))
    b = ctx.monomial((0, 0), qpow=Fraction(2, 3))
    assert a * b == ctx.monomial((1, 0), qpow=1)
    assert a * b - ctx.monomial((1, 0), qpow=1) == ctx.zero()
    assert (a * b).terms[(1, 0)] == {Fraction(1): 1}


# ---------------------------------------------------------------------------
# the packed commute kernel against commutator()


def _unpack_key(code, rank, key):
    """The tests' own reading of key(u) + key(v): its fields, each
    u_i + v_i + 2*exp_bound, and nothing left over."""
    raw = key.to_bytes(rank * code.width, sys.byteorder)  # raises if key is too wide
    return tuple(f - 2 * code.exp_bound for f in memoryview(raw).cast(FIELD_FORMATS[code.width]))


def _unpack_value(code, value):
    """The tests' own reading of a summed value: {q-key: coefficient}, one
    balanced digit of qbits bits per q-key, digit d at q-key
    d + 2*q_low - shift_bound.  Read in one pass as base-2 text, with
    every digit lifted by 2^(qbits-1) so that none is negative."""
    bits = code.qbits
    n = value.bit_length() // bits + 2
    lift = ((1 << bits * n) - 1) // ((1 << bits) - 1) << (bits - 1)
    text = format(value + lift, "b").zfill(bits * n)
    assert len(text) == bits * n
    out = {}
    for d in range(n):
        x = int(text[bits * (n - d - 1) : bits * (n - d)], 2) - (1 << (bits - 1))
        if x:
            out[d + 2 * code.q_low - code.shift_bound] = x
    return out


def _unpacked_commutator(els):
    """Per pair (i, j), the encoded kernel's ab - ba read back as a term
    map."""
    code = _TermCode.of(els)
    encoded = [code.encode(el) for el in els]
    out = {}
    for i, j in combinations(range(len(els)), 2):
        out[i, j] = {
            _unpack_key(code, els[0].ctx.rank, key): _unpack_value(code, value)
            for key, value in _encoded_commutator(code, encoded[i], encoded[j]).items()
            if value
        }
    return out


def _check_against_commutator(els):
    pairs = list(combinations(range(len(els)), 2))
    oracle = {(i, j): commutator(els[i], els[j]) for i, j in pairs}
    assert commutes(*els) == all(c.is_zero() for c in oracle.values())
    for (i, j), c in oracle.items():
        assert commutes(els[i], els[j]) == c.is_zero()
    return oracle


coefficient = st.integers(min_value=-5, max_value=5).filter(bool)
fraction_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
# unsigned array formats by item size, to read packed fields back
FIELD_FORMATS = {array(f).itemsize: f for f in "BHIQ"}


def on_grid_qpow(ctx, bound=3):
    return st.integers(min_value=-bound * ctx.den, max_value=bound * ctx.den).map(lambda k: Fraction(k, ctx.den))


def element(ctx, exp=small_exp, qpow=None, min_terms=0, max_terms=4, coeff=coefficient):
    """Elements with multi-q coefficient maps and non-unit coefficients of
    either sign."""
    vec = st.tuples(*[exp] * ctx.rank)
    coeffs = st.dictionaries(qpow if qpow is not None else on_grid_qpow(ctx), coeff, min_size=1, max_size=3)
    return st.dictionaries(vec, coeffs, min_size=min_terms, max_size=max_terms).map(lambda t: TorusElement(ctx, t))


@st.composite
def elements(draw, qpow=None, coeff=coefficient):
    """2-4 elements: polynomials in one element x, which commute, each
    perturbed by a random element with some probability, which mostly
    does not."""
    ctx = draw(st.sampled_from(ORACLE_CONTEXTS))
    x = draw(element(ctx, qpow=qpow, max_terms=3, coeff=coeff))
    els = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        el = ctx.zero()
        power = ctx.one()
        for c in draw(st.lists(coeff, min_size=1, max_size=3)):
            el = el + power.q_shift(draw(on_grid_qpow(ctx, 1)), c)
            power = power * x
        if draw(st.booleans()):
            el = el + draw(element(ctx, qpow=qpow, max_terms=2, coeff=coeff))
        els.append(el)
    return els


@settings(max_examples=100, deadline=None)
@given(elements())
def test_commutes_matches_pairwise_commutators(els):
    oracle = _check_against_commutator(els)
    for pair, terms in _unpacked_commutator(els).items():
        assert terms == oracle[pair]._terms


@settings(max_examples=40, deadline=None)
@given(elements(qpow=oracle_qpow))
def test_commutes_with_off_grid_keys_matches_pairwise_commutators(els):
    _check_against_commutator(els)


@settings(max_examples=40, deadline=None)
@given(elements(coeff=fraction_coefficient))
def test_commutes_with_fraction_coefficients_matches_pairwise_commutators(els):
    # a Fraction coefficient is not encoded: such elements take the
    # pairwise route, and its answers are the commutator's
    if any(type(c) is not int for el in els for cs in el._terms.values() for c in cs.values()):
        assert _TermCode.of(els) is None
    _check_against_commutator(els)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutes_on_wide_fields(data):
    # exponents past 7 widen the pairing fields of ctx2(1) to 2 bytes
    ctx = data.draw(st.sampled_from(ORACLE_CONTEXTS))
    big = st.integers(min_value=-12, max_value=12)
    wide = element(ctx, exp=big, qpow=on_grid_qpow(ctx, 20), min_terms=1, max_terms=3)
    els = data.draw(st.lists(wide, min_size=2, max_size=4))
    code = _TermCode.of(els)
    assume(code is not None and code.exp_bound >= 8)
    assert code.width >= 2
    oracle = _check_against_commutator(els)
    for pair, terms in _unpacked_commutator(els).items():
        assert terms == oracle[pair]._terms


# field widths in bytes; at e = 1000 the values would pass _MAX_VALUE_BITS
EXTREME_WIDTH = {1: 1, 3: 1, 7: 1, 8: 2, 1000: None}


@pytest.mark.parametrize("e,k", [(1, 0), (3, 5), (7, -9), (8, 4), (1000, 2**40)])
def test_layout_holds_its_extreme_sums(e, k):
    # u = (e, -e) and v = (e, e) reach the pairing bound: den<u,v> =
    # e*e - (-e)*e = 2e^2 = e^2 * sum_ij |den s_ij|; e = 7 is the last
    # bound whose pairings fit one byte, 2*98 + 1 < 2^8
    ctx = ctx2(Fraction(1))
    a = ctx.monomial((e, -e), k, -3)
    b = ctx.monomial((e, e), k, 2)
    # a + b = (2e, 0) takes a key field up to 4e, a + d = (0, -2e) one down to 0
    d = ctx.monomial((-e, -e), k + 1, 5) + ctx.monomial((0, 0), k)
    assert not commutes(a, b) and not commutes(a, d) and commutes(a, a * a, a.q_shift(1, 4))
    code = _TermCode.of([a, b])
    if EXTREME_WIDTH[e] is None:
        assert code is None and _TermCode.of([a, d]) is None
        return
    assert (code.exp_bound, code.q_low, code.shift_bound, code.width) == (e, k, 2 * e * e, EXTREME_WIDTH[e])
    assert _unpacked_commutator([a, b])[0, 1] == commutator(a, b)._terms
    assert _unpacked_commutator([a, d])[0, 1] == commutator(a, d)._terms != {}


@pytest.mark.parametrize("sign", [1, -1])
def test_value_holds_a_digit_of_l1_a_times_l1_b(sign):
    # a = (3 - 4 q^2) E(1,0), b = 9 E(0,1), den<u,v> = 1: q^1 collects
    # 3*9 from q^(0+1) and -(-4)*9 from q^(2-1), 63 = L1(a) * L1(b), the
    # widest digit that qbits = 7 holds
    ctx = ctx2(Fraction(1))
    a = TorusElement(ctx, {(1, 0): {Fraction(0): 3, Fraction(2): -4}})
    b = ctx.monomial((0, 1), 0, 9 * sign)
    code = _TermCode.of([a, b])
    assert code.qbits == 7
    assert commutator(a, b)._terms[(1, 1)][1] == 63 * sign
    assert _unpacked_commutator([a, b])[0, 1] == commutator(a, b)._terms
    assert not commutes(a, b)


def test_layout_raises_rather_than_wraps():
    ctx = ctx2(Fraction(1))
    code = _TermCode.of([ctx.monomial((2, -2)), ctx.monomial((0, 1))])
    assert (code.exp_bound, code.width) == (2, 1)
    key = {vec: code.encode(ctx.monomial(vec))[0][0][1] for vec in ((2, -2), (-2, 2), (0, 0))}
    assert key[(2, -2)] + key[(-2, 2)] == 2 * key[(0, 0)]
    # past exp_bound is refused even where the field would still fit its
    # byte: the width was chosen for key sums within 4 * exp_bound
    for vec in ((3, 0), (0, -3)):
        with pytest.raises(OverflowError):
            code.encode(ctx.monomial(vec))


def test_off_grid_keys_and_huge_pairings_take_the_commutator_route():
    ctx = ctx2(Fraction(1))
    a, b = ctx.monomial((1, 0), Fraction(1, 3)), ctx.monomial((0, 1))
    assert _TermCode.of([a, b]) is None and not commutes(a, b)
    # values past _MAX_VALUE_BITS: a wide q-key span, a large pairing
    # bound, and a bound past 8-byte fields
    for e, k in ((1, 2**20), (200, 0), (2**32, 0)):
        a, b = ctx.monomial((e, 0), k), ctx.monomial((0, e))
        assert _TermCode.of([a, b]) is None and not commutes(a, b) and commutes(a, a * a)


def test_commutes_of_many_elements_checks_contexts():
    ctx = ctx2(Fraction(1))
    x, y = ctx.generator(0), ctx.generator(1)
    other = ctx2(Fraction(2)).generator(0)
    assert commutes() and commutes(x) and commutes(x, x * x, x.q_shift(1, 3))
    assert not commutes(x, x * x, y)
    with pytest.raises(ValueError, match="context mismatch"):
        commutes(x, x * x, other)
    with pytest.raises(ValueError, match="context mismatch"):
        commutes(other, x)


def test_commute_check_rejects_a_coefficient_off_by_one(capsys, monkeypatch):
    # negative control on real Hamiltonians: C3 word 0 with 1 added to the
    # coefficient of H_2's least term, which pairs nonzero with others
    import json

    from qtoda import cli
    from qtoda.correspondence import commutator_witness
    from qtoda.words import enumerate_double_coxeter

    fold, folded = cli.fold_hamiltonians, []

    def off_by_one(net, sizes, table):
        hs = fold(net, sizes, table)
        hs[2] = hs[2] + hs[2].ctx.monomial(min(hs[2]._terms))
        folded.append(hs)
        return hs

    word = enumerate_double_coxeter(3)[0]
    argv = ["verify", "--check", "commute", "--type", "C", "--rank", "3", "--word=" + ",".join(map(str, word.letters))]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "fold_hamiltonians", off_by_one)
    assert cli.main(argv) == 1
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    (hs,) = folded
    assert not commutes(*hs.values())
    bad = [[a, b] for a, b in combinations(hs, 2) if not commutator(hs[a], hs[b]).is_zero()]
    assert bad and all(2 in pair for pair in bad)
    assert not rep["ok"] and rep["noncommuting_pairs"] == bad
    assert rep["witnesses"] == [
        json.loads(json.dumps({"pair": [a, b], **commutator_witness(commutator(hs[a], hs[b]))})) for a, b in bad
    ]
