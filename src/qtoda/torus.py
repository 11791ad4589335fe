"""Exact arithmetic for quantum torus algebras.

A quantum torus on generators X_1, ..., X_m is presented by relations

    X_i X_j = q^(2 s_ij) X_j X_i

with ``s`` a skew-symmetric matrix of exact rationals.  Every element is
stored on the Weyl-ordered basis E(a), a in Z^m, characterised by

    E(a) E(b) = q^<a,b> E(a+b),        <a,b> = sum_ij s_ij a_i b_j,

so E(e_i) = X_i, E(0) = 1, and E(a) equals the q-balanced average of any
product presentation of the same monomial.  Coefficients are integers
times rational powers of q; zero is the empty term map.  All values are
immutable after construction and all operations are pure functions.

q-exponents are stored as integers on the context's grid (1/den)Z, with
den the lcm of the skew denominators: q^r is kept under the key den*r.
Pairings of integer vectors lie on that grid, so products and sums of
on-grid terms add plain ints.  A q-power off the grid, which only a
caller can supply, keeps a ``Fraction`` key; ints and integral Fractions
hash and compare equal, so both kinds of key share one code path.
``Fraction`` q-exponents appear only at the API and JSON boundary:
``TorusElement.terms`` is the read view keyed by them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Sequence

Vec = tuple[int, ...]
QPow = Fraction
Coeff = dict[QPow, int]
QKey = int | Fraction  # den * q-exponent


def _vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(map(operator.add, a, b))


def _grid_key(x: Fraction) -> QKey:
    """An integral Fraction as int, any other as itself."""
    return x.numerator if x.denominator == 1 else x


def _pairing_row(rows: tuple[dict[int, int], ...], a: Vec) -> list[tuple[int, int]]:
    """Nonzero entries (j, r_j) of r = den * (a s), so den*<a,b> = sum_j r_j b_j."""
    r: dict[int, int] = {}
    for i, ai in enumerate(a):
        if ai:
            for j, s in rows[i].items():
                r[j] = r.get(j, 0) + ai * s
    return [(j, x) for j, x in r.items() if x]


def _nonzero(terms: dict[Vec, dict[QKey, int]]) -> dict[Vec, dict[QKey, int]]:
    """Drop zero coefficients, then empty coefficient maps."""
    out = {}
    for vec, coeffs in terms.items():
        if all(coeffs.values()):
            out[vec] = coeffs
        else:
            kept = {k: c for k, c in coeffs.items() if c}
            if kept:
                out[vec] = kept
    return out


@dataclass(frozen=True)
class TorusContext:
    """Presentation data: generator names and the skew matrix s.

    Derived: ``den``, the lcm of the skew denominators, and ``rows``, the
    nonzero entries of den*s as one {j: int} map per row.
    """

    names: tuple[str, ...]
    skew: tuple[tuple[Fraction, ...], ...]
    den: int = field(init=False, compare=False, repr=False)
    rows: tuple[dict[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = len(self.names)
        if len(self.skew) != m or any(len(row) != m for row in self.skew):
            raise ValueError("skew matrix shape does not match generator count")
        # den is the lcm of the entries' denominators, found on ints
        den = 1
        for row in self.skew:
            for x in row:
                if x:
                    den = lcm(den, x.denominator)
        rows = tuple(
            {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
            for row in self.skew
        )
        for i, row in enumerate(rows):
            if i in row:
                raise ValueError("skew matrix has nonzero diagonal")
            if any(rows[j].get(i, 0) != -s for j, s in row.items()):
                raise ValueError("skew matrix is not skew-symmetric")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def pairing(self, a: Vec, b: Vec) -> Fraction:
        """<a,b> = sum s_ij a_i b_j over the nonzero entries."""
        total = 0
        for i, ai in enumerate(a):
            if ai:
                for j, s in self.rows[i].items():
                    total += s * ai * b[j]
        return Fraction(total, self.den)

    def _qkey(self, qpow: QPow | int) -> QKey:
        """Storage key den*qpow of q^qpow."""
        if isinstance(qpow, int):
            return qpow * self.den
        return _grid_key(Fraction(qpow) * self.den)

    # -- element constructors -------------------------------------------

    def zero(self) -> "TorusElement":
        return TorusElement._make(self, {})

    def one(self) -> "TorusElement":
        return self.monomial(self.unit_vec())

    def unit_vec(self) -> Vec:
        return (0,) * self.rank

    def basis_vec(self, i: int, power: int = 1) -> Vec:
        v = [0] * self.rank
        v[i] = power
        return tuple(v)

    def generator(self, i: int, power: int = 1) -> "TorusElement":
        return self.monomial(self.basis_vec(i, power))

    def monomial(self, vec: Sequence[int], qpow: QPow | int = 0, coeff: int = 1) -> "TorusElement":
        if coeff == 0:
            return self.zero()
        return TorusElement._make(self, {tuple(vec): {self._qkey(qpow): coeff}})

    def weyl(self, letters: Iterable[tuple[int, int]]) -> "TorusElement":
        """Weyl-ordered monomial E(sum power*e_index); order independent."""
        v = [0] * self.rank
        for i, power in letters:
            v[i] += power
        return self.monomial(tuple(v))

    def plain_product(self, letters: Iterable[tuple[int, int]], qpow: QPow | int = 0) -> "TorusElement":
        """Left-to-right product of generator powers, as one Weyl term.

        X_{i1}^{m1} ... X_{ir}^{mr} = q^C E(sum m e_i) with the balancing
        constant C = sum_{s<t} s(i_s, i_t) m_s m_t.
        """
        letters = list(letters)
        c = self._qkey(qpow)
        for s in range(len(letters)):
            i, mi = letters[s]
            row = self.rows[i]
            for t in range(s + 1, len(letters)):
                j, mj = letters[t]
                c += row.get(j, 0) * mi * mj
        v = [0] * self.rank
        for i, power in letters:
            v[i] += power
        return TorusElement._make(self, {tuple(v): {c: 1}})


class _FractionTerms(Mapping):
    """Read-only view of a term map with its q-exponents as Fractions."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict[Vec, dict[QKey, int]], den: int):
        self._terms = terms
        self._den = den

    def __getitem__(self, vec) -> Coeff:
        return {Fraction(k, self._den): c for k, c in self._terms[vec].items()}

    def __contains__(self, vec) -> bool:
        return vec in self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)


class TorusElement:
    """Noncommutative Laurent polynomial on the Weyl basis of a context."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: TorusContext, terms: Mapping[Vec, Mapping[QPow, int]]):
        clean: dict[Vec, dict[QKey, int]] = {}
        for vec, coeffs in terms.items():
            kept = {ctx._qkey(qp): c for qp, c in coeffs.items() if c != 0}
            if kept:
                clean[tuple(vec)] = kept
        self.ctx = ctx
        self._terms = clean

    @classmethod
    def _make(cls, ctx: TorusContext, terms: dict[Vec, dict[QKey, int]]) -> "TorusElement":
        """Adopt a term map keyed by den*q-exponent, with no zero
        coefficient and no empty coefficient map, without checking it."""
        el = object.__new__(cls)
        el.ctx = ctx
        el._terms = terms
        return el

    @property
    def terms(self) -> Mapping[Vec, Coeff]:
        """Exponent vector -> {q-exponent (Fraction): coefficient}."""
        return _FractionTerms(self._terms, self.ctx.den)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1 and all(len(c) == 1 for c in self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusElement)
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self._terms == other._terms
        )

    def __hash__(self):
        raise TypeError("TorusElement is not hashable")

    # -- ring operations --------------------------------------------------

    def _check(self, other: "TorusElement"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("context mismatch")

    @classmethod
    def sum(cls, ctx: TorusContext, items: Iterable["TorusElement"]) -> "TorusElement":
        """Sum of elements over ctx in one pass; zero for no items."""
        out: dict[Vec, dict[QKey, int]] = {}
        for el in items:
            if el.ctx is not ctx and el.ctx != ctx:
                raise ValueError("context mismatch")
            for vec, coeffs in el._terms.items():
                acc = out.get(vec)
                if acc is None:
                    out[vec] = dict(coeffs)
                    continue
                for k, c in coeffs.items():
                    acc[k] = acc.get(k, 0) + c
        return cls._make(ctx, _nonzero(out))

    def __add__(self, other: "TorusElement") -> "TorusElement":
        return TorusElement.sum(self.ctx, (self, other))

    def __neg__(self) -> "TorusElement":
        return TorusElement._make(
            self.ctx,
            {v: {k: -c for k, c in coeffs.items()} for v, coeffs in self._terms.items()},
        )

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return TorusElement.sum(self.ctx, (self, -other))

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        self._check(other)
        if self.is_monomial():
            return _monomial_product(self, other, 1)
        if other.is_monomial():
            return _monomial_product(other, self, -1)
        return _product(self, other)

    def q_shift(self, qpow: QPow | int, scale: int = 1) -> "TorusElement":
        """Multiply by the central scalar ``scale * q^qpow``."""
        if not scale:
            return self.ctx.zero()
        if scale == 1 and not qpow:
            return self  # elements are immutable
        shift = self.ctx._qkey(qpow)
        return TorusElement._make(
            self.ctx,
            {
                v: {k + shift: c * scale for k, c in coeffs.items()}
                for v, coeffs in self._terms.items()
            },
        )

    def flipped(self, indices: Iterable[int], negate_q: bool = True) -> "TorusElement":
        """Basis map E(a) -> E(a') negating the listed exponents (and q)."""
        idx = set(indices)
        sign = -1 if negate_q else 1
        # a bijection on exponent vectors and on q-powers: nothing merges
        return TorusElement._make(
            self.ctx,
            {
                tuple(-x if i in idx else x for i, x in enumerate(vec)): {
                    sign * k: c for k, c in coeffs.items()
                }
                for vec, coeffs in self._terms.items()
            },
        )

    # -- views -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Vec, list[tuple[QPow, int]]]]:
        terms = self.terms
        return [(vec, sorted(terms[vec].items())) for vec in sorted(self._terms)]

    def coefficient(self, vec: Sequence[int]) -> Coeff:
        vec = tuple(vec)
        return self.terms[vec] if vec in self._terms else {}

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for vec, coeffs in self.sorted_terms():
            mono = " ".join(
                f"{self.ctx.names[i]}^{e}" if e != 1 else self.ctx.names[i]
                for i, e in enumerate(vec)
                if e
            ) or "1"
            for qp, c in coeffs:
                qs = "" if qp == 0 else f" q^{qp}"
                bits.append(f"{c}{qs} {mono}")
        return " + ".join(bits)


def _product(a: TorusElement, b: TorusElement) -> TorusElement:
    """The general product a * b, term pair by term pair."""
    rows = a.ctx.rows
    # build pairing rows on the side with fewer terms: den*<u,v> is
    # sum_j r(u)_j v_j, and also -sum_j r(v)_j u_j
    outer, inner, flip = a._terms, b._terms, False
    if len(inner) < len(outer):
        outer, inner, flip = inner, outer, True
    out: dict[Vec, dict[QKey, int]] = {}
    for u, ca in outer.items():
        r_items = _pairing_row(rows, u)
        if flip:
            r_items = [(j, -x) for j, x in r_items]
        for v, cb in inner.items():
            shift = 0
            for j, x in r_items:
                shift += x * v[j]
            vec = _vec_add(u, v)
            acc = out.get(vec)
            if acc is None:
                out[vec] = acc = {}
            for qa, xa in ca.items():
                qa += shift
                for qb, xb in cb.items():
                    k = qa + qb
                    acc[k] = acc.get(k, 0) + xa * xb
    return TorusElement._make(a.ctx, _nonzero(out))


def _monomial_product(m: TorusElement, b: TorusElement, side: int) -> TorusElement:
    """m * b for side 1, b * m for side -1, with m = c q^k E(a) one term.

    E(a) E(v) = q^<a,v> E(a + v) and E(v) E(a) = q^-<a,v> E(a + v): each
    term of b moves to its own vector a + v, and its q-keys all shift by
    the same amount, with c != 0 as a factor.  The product is a bijection
    on terms, so nothing merges and no coefficient vanishes.
    """
    ((a, ca),) = m._terms.items()
    ((k, c),) = ca.items()
    r = _pairing_row(m.ctx.rows, a)
    if side < 0:
        r = [(j, -x) for j, x in r]
    nz = [(j, x) for j, x in enumerate(a) if x]
    out: dict[Vec, dict[QKey, int]] = {}
    for v, cv in b._terms.items():
        shift = k
        for j, x in r:
            shift += x * v[j]
        vec = list(v)
        for j, x in nz:
            vec[j] += x
        out[tuple(vec)] = {q + shift: c * x for q, x in cv.items()}
    return TorusElement._make(m.ctx, out)


def commutator(a: TorusElement, b: TorusElement) -> TorusElement:
    """ab - ba in one pass over term pairs.

    E(u)E(v) - E(v)E(u) = (q^<u,v> - q^-<u,v>) E(u+v), so a pair with
    <u,v> = 0 contributes nothing, and neither does a u with u s = 0;
    neither product is built.
    """
    a._check(b)
    rows = a.ctx.rows
    out: dict[Vec, dict[QKey, int]] = {}
    for u, cu in a._terms.items():
        r_items = _pairing_row(rows, u)
        if not r_items:
            continue
        for v, cv in b._terms.items():
            shift = 0
            for j, x in r_items:
                shift += x * v[j]
            if not shift:
                continue
            vec = _vec_add(u, v)
            acc = out.get(vec)
            if acc is None:
                out[vec] = acc = {}
            for qa, xa in cu.items():
                for qb, xb in cv.items():
                    k, c = qa + qb, xa * xb
                    acc[k + shift] = acc.get(k + shift, 0) + c
                    acc[k - shift] = acc.get(k - shift, 0) - c
    return TorusElement._make(a.ctx, _nonzero(out))


def commutes(*elements: TorusElement) -> bool:
    """True iff every two of the elements commute: ab - ba = 0 exactly.

    ``commutes(a, b)`` is ``commutator(a, b).is_zero()``.  Each element's
    terms are packed once, and each pair is one flat pass over term pairs
    on int keys (see ``_KeyLayout``): no commutator element is built.
    Elements with off-grid q-keys go through ``commutator`` pair by pair.
    """
    for el in elements[1:]:
        elements[0]._check(el)
    if len(elements) < 2:
        return True
    if any(type(k) is not int for el in elements for cs in el._terms.values() for k in cs):
        return all(commutator(a, b).is_zero() for a, b in combinations(elements, 2))
    _, packed = _pack_terms(elements)
    return all(not any(_packed_commutator(a, b).values()) for a, b in combinations(packed, 2))


class _KeyLayout:
    """One int key per (exponent vector u, q-key k) in balanced fields.

        key = k + sum_i u_i 2^(qbits + i*vbits)

    Each field holds a signed digit d with |d| < 2^(width-1), which the
    key's residue mod 2^width fixes, so two keys are equal iff all their
    fields are.  The widths hold any sum of two packed terms, with a q
    shift of at most ``shift_bound`` added: |u_i + v_i| <= 2*exp_bound and
    |k_a + k_b +- s| <= 2*q_bound + shift_bound.  So keys of products add
    as ints and are never unpacked.  ``pack`` raises on a term outside
    the bounds, never wraps it.
    """

    __slots__ = ("exp_bound", "q_bound", "shift_bound", "qbits", "vbits")

    def __init__(self, exp_bound: int, q_bound: int, shift_bound: int):
        self.exp_bound, self.q_bound, self.shift_bound = exp_bound, q_bound, shift_bound
        self.vbits = (2 * exp_bound).bit_length() + 1
        self.qbits = (2 * q_bound + shift_bound).bit_length() + 1

    def pack(self, vec: Vec, qkey: int) -> int:
        if abs(qkey) > self.q_bound or max(map(abs, vec), default=0) > self.exp_bound:
            raise OverflowError(f"term {vec}, q-key {qkey} does not fit the key layout")
        key, at = qkey, self.qbits
        for x in vec:
            key += x << at
            at += self.vbits
        return key


def _pack_terms(elements: Sequence[TorusElement]) -> tuple[_KeyLayout, list[list[tuple]]]:
    """One layout for all the elements' terms, and per element its
    non-central terms as (pairing row, vector, [(key, coefficient)]).

    A term u with u s = 0 pairs to zero with every v, so it is dropped:
    den<u,v> = sum_j r(u)_j v_j = -sum_j r(v)_j u_j.
    """
    rows = elements[0].ctx.rows
    exp_bound = q_bound = row_bound = 0
    staged = []
    for el in elements:
        terms = []
        for u, cu in el._terms.items():
            r = _pairing_row(rows, u)
            if r:
                terms.append((r, u, cu))
                exp_bound = max(exp_bound, max(map(abs, u)))
                q_bound = max(q_bound, max(map(abs, cu)))
                row_bound = max(row_bound, sum(abs(x) for _, x in r))
        staged.append(terms)
    # |den<u,v>| <= |r(u)|_1 * max_j |v_j|
    layout = _KeyLayout(exp_bound, q_bound, row_bound * exp_bound)
    pack = layout.pack
    return layout, [
        [(r, u, [(pack(u, k), c) for k, c in cu.items()]) for r, u, cu in terms]
        for terms in staged
    ]


def _packed_commutator(pa: list[tuple], pb: list[tuple]) -> dict[int, int]:
    """ab - ba of two packed elements as {key: coefficient}, zero sums
    kept: E(u)E(v) - E(v)E(u) = (q^s - q^-s) E(u+v) with s = den<u,v>,
    and s lands in the key's lowest field, the q-key's."""
    out: dict[int, int] = {}
    get = out.get
    for r, _, ku in pa:
        for _, v, kv in pb:
            s = 0
            for j, x in r:
                s += x * v[j]
            if not s:
                continue
            for pu, cu in ku:
                for pv, cv in kv:
                    k, c = pu + pv, cu * cv
                    out[k + s] = get(k + s, 0) + c
                    out[k - s] = get(k - s, 0) - c
    return out


# ---------------------------------------------------------------------------
# commutative (q -> 1) layer


class CommutativeLaurent:
    """Laurent polynomial with exact rational coefficients.

    An ``int`` coefficient stays an ``int``; any other (a ``Fraction``,
    or a float, read exactly) is kept as a ``Fraction``.  The two kinds
    mix exactly under ``+`` and ``*`` and compare equal by value.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: TorusContext, terms: Mapping[Vec, int | Fraction]):
        self.ctx = ctx
        self.terms = {
            tuple(v): c if type(c) is int else Fraction(c)
            for v, c in terms.items()
            if c != 0
        }

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CommutativeLaurent)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("CommutativeLaurent is not hashable")

    def __add__(self, other: "CommutativeLaurent") -> "CommutativeLaurent":
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out.get(v, 0) + c
        return CommutativeLaurent(self.ctx, out)

    def __neg__(self) -> "CommutativeLaurent":
        return CommutativeLaurent(self.ctx, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other: "CommutativeLaurent") -> "CommutativeLaurent":
        return self + (-other)

    def __mul__(self, other: "CommutativeLaurent") -> "CommutativeLaurent":
        out: dict[Vec, int | Fraction] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                v = _vec_add(a, b)
                out[v] = out.get(v, 0) + ca * cb
        return CommutativeLaurent(self.ctx, out)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for vec in sorted(self.terms):
            mono = " ".join(
                f"{self.ctx.names[i]}^{e}" if e != 1 else self.ctx.names[i]
                for i, e in enumerate(vec)
                if e
            ) or "1"
            bits.append(f"{self.terms[vec]} {mono}")
        return " + ".join(bits)


def classical_context(names: Sequence[str]) -> TorusContext:
    """Context carrier for commutative Laurent polynomials."""
    m = len(names)
    zero = tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(m))
    return TorusContext(tuple(names), zero)


def classical_monomial(ctx: TorusContext, vec: Sequence[int], coeff=1) -> CommutativeLaurent:
    return CommutativeLaurent(ctx, {tuple(vec): coeff})


class RationalLaurent:
    """Exact rational function num/den of two commutative Laurent polynomials.

    Fractions are never reduced.  The Laurent ring is a domain, so
    a/b == c/d exactly when a*d == c*b, and equality needs no gcd.
    Ints are accepted on either side of ``+``, ``*`` and ``/``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: CommutativeLaurent, den: CommutativeLaurent | None = None):
        if den is None:
            den = classical_monomial(num.ctx, num.ctx.unit_vec())
        if den.is_zero():
            raise ZeroDivisionError("RationalLaurent with zero denominator")
        self.num = num
        self.den = den

    def _coerce(self, other) -> "RationalLaurent":
        if isinstance(other, RationalLaurent):
            return other
        if isinstance(other, int):
            ctx = self.num.ctx
            return RationalLaurent(classical_monomial(ctx, ctx.unit_vec(), other))
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
        out = self._coerce(1)
        for _ in range(abs(e)):
            out = RationalLaurent(out.num * self.num, out.den * self.den)
        return out if e >= 0 else RationalLaurent(out.den, out.num)

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"


def specialize_classical(a: TorusElement) -> CommutativeLaurent:
    """Set q = 1.  A ring homomorphism onto the commutative Laurent ring."""
    out: dict[Vec, Fraction] = {}
    for vec, coeffs in a._terms.items():
        out[vec] = Fraction(sum(coeffs.values()))
    return CommutativeLaurent(a.ctx, out)


def poisson_bracket(
    f: CommutativeLaurent,
    g: CommutativeLaurent,
    bracket: Sequence[Sequence[Fraction]],
) -> CommutativeLaurent:
    """Log-canonical bracket {x^a, x^b} = (sum B_ij a_i b_j) x^(a+b)."""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    m = f.ctx.rank
    for i in range(m):
        for j in range(m):
            if bracket[i][j] != -bracket[j][i]:
                raise ValueError("bracket matrix is not skew-symmetric")
    out: dict[Vec, Fraction] = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            w = Fraction(0)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    if bj and bracket[i][j]:
                        w += Fraction(bracket[i][j]) * ai * bj
            if w:
                v = _vec_add(a, b)
                out[v] = out.get(v, Fraction(0)) + w * ca * cb
    return CommutativeLaurent(f.ctx, out)


# ---------------------------------------------------------------------------
# monomial maps between tori


@dataclass(frozen=True)
class MonomialMap:
    """Generator-wise substitution X_i -> q^(p_i) E(v_i) into a target torus.

    Extends linearly on the Weyl basis: E(a) maps to q^(sum a_i p_i)
    E(sum a_i v_i).  This sends balanced monomials to balanced monomials;
    it is an algebra homomorphism exactly when every commutation pairing
    is preserved (see ``failing_pairs``).

    Derived: ``key_scale``, the factor target.den / source.den between
    the two grids' q-keys, and ``lifts``, per generator the target q-key
    of q^(p_i) and the nonzero entries (j, x) of v_i.
    """

    source: TorusContext
    target: TorusContext
    images: tuple[tuple[QPow, Vec], ...]
    key_scale: QKey = field(init=False, compare=False, repr=False)
    lifts: tuple[tuple[QKey, tuple[tuple[int, int], ...]], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if len(self.images) != self.source.rank:
            raise ValueError("one image per source generator required")
        for _, v in self.images:
            if len(v) != self.target.rank:
                raise ValueError("image vector has wrong length")
        lifts = tuple(
            (self.target._qkey(p), tuple((j, x) for j, x in enumerate(v) if x))
            for p, v in self.images
        )
        object.__setattr__(self, "key_scale", _grid_key(Fraction(self.target.den, self.source.den)))
        object.__setattr__(self, "lifts", lifts)

    def apply(self, a: TorusElement) -> TorusElement:
        if a.ctx is not self.source and a.ctx != self.source:
            raise ValueError("element not over the source context")
        scale, lifts = self.key_scale, self.lifts
        m = self.target.rank
        out: dict[Vec, dict[QKey, int]] = {}
        for vec, coeffs in a._terms.items():
            shift = 0
            tv = [0] * m
            for i, e in enumerate(vec):
                if e:
                    p, v = lifts[i]
                    shift += e * p
                    for j, x in v:
                        tv[j] += e * x
            key = tuple(tv)
            acc = out.get(key)
            if acc is None:
                out[key] = acc = {}
            for k, c in coeffs.items():
                nk = k * scale + shift
                acc[nk] = acc.get(nk, 0) + c
        return TorusElement._make(self.target, _nonzero(out))

    def failing_pairs(self) -> list[tuple[int, int, Fraction, Fraction]]:
        """Generator pairs whose commutation q-factor is not preserved."""
        bad = []
        m = self.source.rank
        for i in range(m):
            for j in range(i + 1, m):
                src = self.source.skew[i][j]
                tgt = self.target.pairing(self.images[i][1], self.images[j][1])
                if src != tgt:
                    bad.append((i, j, src, tgt))
        return bad

    def is_homomorphism(self) -> bool:
        return not self.failing_pairs()
