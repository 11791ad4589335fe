"""Exact arithmetic for quantum torus algebras.

A quantum torus on generators X_1, ..., X_m is presented by relations

    X_i X_j = q^(2 s_ij) X_j X_i

with ``s`` a skew-symmetric matrix of exact rationals.  Every element is
stored on the Weyl-ordered basis E(a), a in Z^m, characterised by

    E(a) E(b) = q^<a,b> E(a+b),        <a,b> = sum_ij s_ij a_i b_j,

so E(e_i) = X_i, E(0) = 1, and E(a) equals the q-balanced average of any
product presentation of the same monomial.  Coefficients are exact
rationals times rational powers of q: an ``int`` stays an ``int``, and
the constructors read any other number as its exact ``Fraction``.  Zero
is the empty term map.  All values are immutable after construction and
all operations are pure functions.

With zero skew (``classical_context``) the torus is the commutative
Laurent ring, the q -> 1 limit: ``specialize_classical`` lands there,
each coefficient under q^0, and ``poisson_bracket`` and
``RationalLaurent`` work on it.

q-exponents are stored as integers on the context's grid (1/den)Z, with
den the lcm of the skew denominators: q^r is kept under the key den*r.
Pairings of integer vectors lie on that grid, so products and sums of
on-grid terms add plain ints.  A q-power off the grid, which only a
caller can supply, keeps a ``Fraction`` key; ints and integral Fractions
hash and compare equal, so both kinds of key share one code path.
``Fraction`` q-exponents appear only at the API and JSON boundary:
``TorusElement.terms`` is the read view keyed by them.

``commutes`` goes one step further and writes each term as two ints: a
key, its exponent vector packed into fields, and a value, its whole
q-polynomial as a numeral in base 2^B whose digits are the coefficients.
A pair of terms adds one product of values under the sum of their keys;
B is chosen so that no digit of such a sum can outgrow its place, so a
sum is 0 exactly when every coefficient it holds is (see ``_TermCode``).
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import lcm
from typing import Iterable, Mapping, Sequence

Vec = tuple[int, ...]
QPow = Fraction
Coeff = dict[QPow, int | Fraction]
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

    def monomial(
        self, vec: Sequence[int], qpow: QPow | int = 0, coeff: int | Fraction = 1
    ) -> "TorusElement":
        if coeff == 0:
            return self.zero()
        if type(coeff) is not int:
            coeff = Fraction(coeff)
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

    def __init__(self, ctx: TorusContext, terms: Mapping[Vec, Mapping[QPow, int | Fraction]]):
        clean: dict[Vec, dict[QKey, int]] = {}
        for vec, coeffs in terms.items():
            kept = {
                ctx._qkey(qp): c if type(c) is int else Fraction(c)
                for qp, c in coeffs.items()
                if c != 0
            }
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
        t = self._terms
        return len(t) == 1 and len(next(iter(t.values()))) == 1

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
    skewed = any(rows)  # over a zero-skew context every pairing row is empty
    # build pairing rows on the side with fewer terms: den*<u,v> is
    # sum_j r(u)_j v_j, and also -sum_j r(v)_j u_j
    outer, inner, flip = a._terms, b._terms, False
    if len(inner) < len(outer):
        outer, inner, flip = inner, outer, True
    out: dict[Vec, dict[QKey, int]] = {}
    for u, ca in outer.items():
        r_items = _pairing_row(rows, u) if skewed else ()
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
    rows = m.ctx.rows
    r = _pairing_row(rows, a) if any(rows) else ()  # empty on a zero skew
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

    ``commutes(a, b)`` is ``commutator(a, b).is_zero()``, but no
    commutator element is built.  Each element's terms are encoded once
    (see ``_TermCode``): a term becomes a key, its exponent vector packed
    into one int, and a value, its whole q-polynomial as one int.  Each
    pair of elements is then one pass over term pairs with one dict update
    per pair of non-commuting terms; the pair commutes iff every value the
    pass sums is 0.  Elements with an off-grid q-key, or whose bounds would
    make the ints too wide (``_TermCode.of``), go through ``commutator``
    pair by pair.
    """
    for el in elements[1:]:
        elements[0]._check(el)
    if len(elements) < 2:
        return True
    code = _TermCode.of(elements)
    if code is None:
        return all(commutator(a, b).is_zero() for a, b in combinations(elements, 2))
    encoded = [code.encode(el, scale) for el, scale in zip(elements, code.scales)]
    return all(not any(_encoded_commutator(code, a, b).values()) for a, b in combinations(encoded, 2))


# unsigned array formats by item size in bytes, the widths a term code's fields take
_FIELD_FORMATS = {array(f).itemsize: f for f in "BHIQ"}
# values grow with the q-key span and the pairing bound, not with the
# number of terms: past this many bits the pairwise route is cheaper
_MAX_VALUE_BITS = 1 << 16


class _TermCode:
    """Bounds and one field width under which ``commutes`` writes terms
    of a set of elements as exact ints.

    - ``key(u)`` reads the fields u_i + exp_bound, ``width`` bytes each,
      as one unsigned int.  A field of key(u) + key(v) holds u_i + v_i +
      2*exp_bound, in [0, 4*exp_bound], so it never carries: the sum of
      two keys fixes u + v.
    - A term's q-polynomial sum_k c_k q^(k/den) is the value
      alpha * 2^shift with alpha = sum_k c_k 2^(qbits*(k - k0)), k0 its
      least q-key and shift = qbits*(k0 - q_low): a numeral in base
      2^qbits with signed digits.  An element with Fraction coefficients
      is first scaled by the lcm of their denominators, its entry in
      ``scales`` (None for an element of int coefficients); scaling does
      not change whether two elements commute.
    - E(u)E(v) - E(v)E(u) = (q^s - q^-s) E(u+v) with s = den<u,v>, so a
      term pair adds alpha_u alpha_v 2^(shift_u + shift_v) (2^(qbits
      (shift_bound + s)) - 2^(qbits (shift_bound - s))) under key(u) +
      key(v): the numeral of its commutator terms, q-key k at digit
      k - 2*q_low + shift_bound.  Each digit of a sum over term pairs is
      a commutator coefficient, at most L1(a)*L1(b) in size, L1 the sum
      of an element's absolute coefficients; qbits makes that below
      2^(qbits-1), so a sum is 0 iff all its digits are.
    - |den<u,v>| <= shift_bound = exp_bound^2 * sum_ij |den s_ij|, so every
      shift is >= 0, and the pairings of u with every term of an element
      fit one packed int, s + 2^(8*width-1) per field (see ``encode``).
    """

    __slots__ = ("exp_bound", "shift_bound", "q_low", "qbits", "width", "scales", "_entries")

    @classmethod
    def of(cls, elements: Sequence[TorusElement]) -> "_TermCode | None":
        """The code of the elements, or None when there is nothing to
        encode (no generators or no terms), a q-key is off the grid, a
        bound outgrows 8-byte fields or a value would pass
        ``_MAX_VALUE_BITS``."""
        ctx = elements[0].ctx
        cmaps = [cs for el in elements for cs in el._terms.values()]
        if not ctx.rank or not cmaps or set(map(type, chain.from_iterable(cmaps))) - {int}:
            return None
        code = object.__new__(cls)
        code._entries = [(i, j, x) for i, row in enumerate(ctx.rows) for j, x in row.items()]
        vecs = [u for el in elements for u in el._terms]
        eb = max(max(map(max, vecs)), -min(map(min, vecs)))
        code.exp_bound = eb
        code.shift_bound = eb * eb * sum(abs(x) for _, _, x in code._entries)
        code.q_low = min(map(min, cmaps))
        need = max(4 * eb, 2 * code.shift_bound + 1)
        code.width = next((w for w in sorted(_FIELD_FORMATS) if need < 1 << 8 * w), None)
        code.scales, l1s = [], []
        for el in elements:
            l1 = sum(map(abs, chain.from_iterable(map(dict.values, el._terms.values()))))
            scale = None
            if type(l1) is not int:
                scale = lcm(*(c.denominator for cs in el._terms.values() for c in cs.values()))
                l1 = int(l1 * scale)
            code.scales.append(scale)
            l1s.append(l1)
        l1s.sort()
        code.qbits = (l1s[-1] * l1s[-2]).bit_length() + 1
        # the digits a summed value spans: both q-key ranges and +-shift_bound
        digits = 2 * (max(map(max, cmaps)) - code.q_low) + 2 * code.shift_bound + 1
        if code.width is None or code.qbits * digits > _MAX_VALUE_BITS:
            return None
        return code

    def encode(self, el: TorusElement, scale: int | None = None) -> tuple[list[tuple], list[int], int]:
        """The element's terms as (u, key(u), alpha, shift), the packed
        pairings of each generator with them, and their bias.

        Column i is sum_v den<e_i, v> 2^(8*width*t(v)), t(v) the term's
        place, so sum_i u_i column_i + bias holds den<u,v> + 2^(8*width-1)
        in v's field.  Raises OverflowError on an exponent past the code's
        bound, rather than wrap.
        """
        terms = el._terms
        if scale is not None:
            terms = {u: {k: int(c * scale) for k, c in cs.items()} for u, cs in terms.items()}
        vecs = list(terms)
        n, w, eb, qbits, q_low = len(vecs), self.width, self.exp_bound, self.qbits, self.q_low
        m = el.ctx.rank
        fmt = _FIELD_FORMATS[w]
        fields = array(fmt, map(operator.add, chain.from_iterable(vecs), repeat(eb)))
        if fields and max(fields) > 2 * eb:
            raise OverflowError(f"an exponent of {el!r} exceeds the bound {eb}")
        buf, step, order = fields.tobytes(), m * w, sys.byteorder
        keys = [int.from_bytes(buf[at : at + step], order) for at in range(0, n * step, step)]
        values = []
        for cs in terms.values():
            if len(cs) == 1:
                for k, c in cs.items():
                    values.append((c, qbits * (k - q_low)))
            else:
                k0 = min(cs)
                values.append(
                    (sum(c << qbits * (k - k0) for k, c in cs.items()), qbits * (k0 - q_low))
                )
        ones = int.from_bytes(array(fmt, repeat(1, n)).tobytes(), order)
        cols = [int.from_bytes(fields[j::m].tobytes(), order) - eb * ones for j in range(m)]
        columns = [0] * m
        for i, j, x in self._entries:
            columns[i] += x * cols[j]
        encoded = [(u, k, a, e) for u, k, (a, e) in zip(vecs, keys, values)]
        return encoded, columns, ones << 8 * w - 1


def _encoded_commutator(code: _TermCode, ea: tuple, eb: tuple) -> dict[int, int]:
    """ab - ba of two encoded elements as {key(u + v): value}, zero sums
    kept.  Per term u of a, one packed int holds den<u,v> for every term v
    of b; a v with den<u,v> = 0 is skipped, and every other adds once."""
    (a_terms, _, _), (b_terms, columns, bias) = ea, eb
    out: dict[int, int] = {}
    get = out.get
    qbits, mid = code.qbits, code.qbits * code.shift_bound
    nbytes, fmt, order = len(b_terms) * code.width, _FIELD_FORMATS[code.width], sys.byteorder
    half = 1 << 8 * code.width - 1
    for u, ku, au, eu in a_terms:
        packed = bias
        for x, col in zip(u, columns):
            if x:
                packed += x * col
        if packed == bias:
            continue  # u pairs to 0 with every term of b
        eu += mid
        pairings = memoryview(packed.to_bytes(nbytes, order)).cast(fmt)
        for s, (_, kv, av, ev) in zip(pairings, b_terms):
            if s != half:
                k = ku + kv
                p = au * av
                e = eu + ev
                s = (s - half) * qbits
                out[k] = get(k, 0) + (p << e + s) - (p << e - s)
    return out


# ---------------------------------------------------------------------------
# the commutative (q -> 1) torus: zero skew, coefficients under q^0


def classical_context(names: Sequence[str]) -> TorusContext:
    """Zero-skew context: its elements are commutative Laurent polynomials."""
    m = len(names)
    zero = tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(m))
    return TorusContext(tuple(names), zero)


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


def specialize_classical(a: TorusElement) -> TorusElement:
    """Set q = 1.  A ring homomorphism onto the commutative Laurent ring,
    the torus over ``classical_context(a.ctx.names)``."""
    out: dict[Vec, dict[QKey, int]] = {}
    for vec, coeffs in a._terms.items():
        c = sum(coeffs.values())
        if c:
            out[vec] = {0: c}
    return TorusElement._make(classical_context(a.ctx.names), out)


def poisson_bracket(
    f: TorusElement,
    g: TorusElement,
    bracket: Sequence[Sequence[Fraction]],
) -> TorusElement:
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
    out: dict[Vec, Fraction] = {}
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
