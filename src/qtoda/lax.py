"""2x2 trigonometric Lax matrices and their commuting Hamiltonians.

The coefficient algebra has generators w_1..w_n, D_1..D_n with w's and
D's separately commuting and D_i w_i = q w_i D_i.  Matrix entries are
elements of the spectral context (``spectral_context``): the same torus
with central generators z and w appended, whose exponents are doubled
powers, so half-integer powers of the spectral variables stay integral.
The (1,1) entry of an ordered product of local matrices expands into
Hamiltonians as coefficients of z-powers (``z_coefficients``); RTT is
the one check that uses w.

The verifiers read that entry as a path sum (``monodromy_entry``): a
walk over the sites extends each partial product by one monomial of the
next local matrix and updates its exponent vector and q-key with one
pairing, E(A) E(a) = q^<A,a> E(A + a), so no Laurent product is built.
Each site's monomials, with their q-keys and pairing rows, are ints read
off the closed form of ``local_lax`` (``_site_terms``); no site matrix
is built.  Type C contracts the first column of T with itself, taking
each term with itself once and each unordered pair of terms once for
both orders.  ``lax_hamiltonians`` signs each coefficient as it closes
the path sum's term map for that z-degree.  The local matrices and the
full 2x2 products (``local_lax``, ``monodromy``, ``double_monodromy``)
stay for the RTT check and as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .torus import (
    MonomialMap,
    QKey,
    TorusContext,
    TorusElement,
    Vec,
    _nonzero,
    _pairing_row,
    _vec_add,
)
from .words import IndexVector


@lru_cache(maxsize=None)
def lax_context(n: int) -> TorusContext:
    """Torus on w_1..w_n, D_1..D_n with s(D_i, w_i) = 1/2.

    Memoized: contexts are immutable, and one object per rank lets
    elements built by different callers compare on the ``is`` fast path.
    """
    names = tuple(f"w_{i}" for i in range(1, n + 1)) + tuple(
        f"D_{i}" for i in range(1, n + 1)
    )
    m = 2 * n
    skew = [[Fraction(0)] * m for _ in range(m)]
    for i in range(n):
        skew[n + i][i] = Fraction(1, 2)
        skew[i][n + i] = Fraction(-1, 2)
    return TorusContext(names, tuple(tuple(row) for row in skew))


@lru_cache(maxsize=None)
def spectral_context(ctx: TorusContext) -> TorusContext:
    """``ctx`` with central generators z and w appended, in that order:
    zero skew rows and columns, so the den, the q-keys and the pairing
    rows of ``ctx`` carry over.  An exponent of z or w is a doubled
    power: the vector entry 2k stands for z^k with k in (1/2)Z.

    Memoized, as ``lax_context`` is, so every Lax matrix over ``ctx``
    shares one context object.
    """
    m = ctx.rank
    pad = (Fraction(0),) * 2
    skew = tuple(row + pad for row in ctx.skew) + ((Fraction(0),) * (m + 2),) * 2
    return TorusContext(ctx.names + ("z", "w"), skew)


def w_index(ctx: TorusContext, i: int) -> int:
    return i - 1


def d_index(ctx: TorusContext, i: int) -> int:
    return ctx.rank // 2 + i - 1


def z_coefficients(el: TorusElement, ctx: TorusContext) -> dict[int, TorusElement]:
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


@dataclass(frozen=True)
class LaxMatrix:
    """A 2x2 matrix over the Lax torus ``ctx``, its entries elements of
    ``spectral_context(ctx)``."""

    ctx: TorusContext
    entries: tuple[tuple[TorusElement, TorusElement], tuple[TorusElement, TorusElement]]

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __mul__(self, other: "LaxMatrix") -> "LaxMatrix":
        a, b = self.entries, other.entries
        rows = []
        for i in range(2):
            rows.append(
                tuple(
                    a[i][0] * b[0][j] + a[i][1] * b[1][j]
                    for j in range(2)
                )
            )
        return LaxMatrix(self.ctx, (rows[0], rows[1]))

    def __eq__(self, other) -> bool:
        return isinstance(other, LaxMatrix) and self.entries == other.entries


def local_lax(ctx: TorusContext, i: int, k: int, barred: bool = False) -> LaxMatrix:
    """Site matrix for k in {-1,0,1}; the barred family swaps w,D with
    their inverses.  Closed form, with s = (k-1)/2 (doubled: k-1):

        [ w^-1 z^(s+1) - w z^s      w^-k D^-1 z^(s+1) ]
        [ -w^-k D z^s               -k w^-k           ]
    """
    if k not in (-1, 0, 1):
        raise ValueError("local index must be -1, 0 or 1")
    wi, di = w_index(ctx, i), d_index(ctx, i)
    sctx = spectral_context(ctx)
    zi = ctx.rank
    sgn = -1 if barred else 1

    def mono(z2: int, wexp: int, dexp: int, coeff: int = 1):
        return sctx.plain_product(
            [(wi, sgn * wexp), (di, sgn * dexp), (zi, z2)]
        ).q_shift(0, coeff)

    s2 = k - 1  # doubled s
    e11 = mono(s2 + 2, -1, 0) + mono(s2, 1, 0, -1)
    e12 = mono(s2 + 2, -k, -1)
    e21 = mono(s2, -k, 1, -1)
    e22 = mono(0, -k, 0, -k)  # zero for k = 0
    return LaxMatrix(ctx, ((e11, e12), (e21, e22)))


def monodromy(ctx: TorusContext, kvec: IndexVector) -> LaxMatrix:
    """T = L_n^(k_n) ... L_1^(k_1); kvec is (k_n, ..., k_1)."""
    n = ctx.rank // 2
    if len(kvec) != n:
        raise ValueError("index vector length must match the context rank")
    acc = None
    for site, k in zip(range(n, 0, -1), kvec):
        m = local_lax(ctx, site, k)
        acc = m if acc is None else acc * m
    return acc


def double_monodromy(ctx: TorusContext, kvec: IndexVector) -> LaxMatrix:
    """Lbar_1^(-k_1) ... Lbar_n^(-k_n) L_n^(k_n) ... L_1^(k_1).

    This equals (-1)^n [T(1/z)]^T T(z) with T = monodromy(ctx, kvec), the
    identity behind the type C expansion; the tests check it.
    """
    n = ctx.rank // 2
    if len(kvec) != n:
        raise ValueError("index vector length must match the context rank")
    acc = None
    for site, k in zip(range(1, n + 1), reversed(kvec)):
        m = local_lax(ctx, site, -k, barred=True)
        acc = m if acc is None else acc * m
    return acc * monodromy(ctx, kvec)


def monodromy_entry(ctx: TorusContext, kvec: IndexVector, kind: str) -> TorusElement:
    """The (1,1) entry of ``monodromy`` (type A) or ``double_monodromy``
    (type C), without the full 2x2 products."""
    parts = _entry_parts(ctx, kvec, kind)
    sign = -1 if kind == "C" and len(kvec) % 2 else 1
    out = {}
    for e, terms in parts.items():
        for vec, coeffs in _closed(ctx, terms, sign)._terms.items():
            out[vec + (e, 0)] = coeffs
    return TorusElement._make(spectral_context(ctx), out)


def _entry_parts(ctx: TorusContext, kvec: IndexVector, kind: str) -> dict[int, dict[Vec, dict[QKey, int]]]:
    """``monodromy_entry`` without the (-1)^n of type C, as a path sum:
    per doubled z-degree a term map, zero coefficients not yet dropped.

    A walk over the sites keeps, per end state (row or column 0 or 1), a
    map (doubled z-degree, exponent vector A) -> {q-key: coefficient}.
    Each step extends every partial product by one term q^p E(a) z^e of
    the next local matrix.  On the right, E(A) E(a) = q^<A,a> E(A + a),
    so the key gains -r(a).A with r(a) = den*(a s) the pairing row of a;
    on the left it gains +r(a).A.

    Type A carries the row e_1^T through L_n ... L_1 and reads state 0.
    Type C carries the column L_1 e_1 up through L_n, which gives the
    first column T_k1 of T, and contracts sum_k T_k1(1/z) T_k1(z), the
    (1,1) entry of T(1/z)^T T(z).  In x(1/z) x(z) = sum_{e,f} x_e x_f
    z^(f-e) each flat term c q^k E(u) z^e of a column meets itself once,
    at z^0 with key 2k and vector 2u, and each unordered pair of terms at
    (e, u) and (f, v) once: its shift den*<u,v> is computed once and
    enters with + at z^(f-e) and with - at z^(e-f), since E(v) E(u) =
    q^-<u,v> E(u + v).
    """
    n = ctx.rank // 2
    if len(kvec) != n:
        raise ValueError("index vector length must match the context rank")
    if kind not in ("A", "C"):
        raise ValueError(f"unknown kind {kind!r}")
    sites = list(zip(range(n, 0, -1), kvec))
    states = [{(0, ctx.unit_vec()): {0: 1}}, {}]
    parts: dict[int, dict[Vec, dict[QKey, int]]] = {}
    if kind == "A":
        for s, (site, k) in enumerate(sites):
            ends = (0,) if s == n - 1 else (0, 1)  # the last step reads state 0
            states = _walk(ctx, states, site, k, ends, right=True)
        for (e, vec), coeffs in states[0].items():
            parts.setdefault(e, {})[vec] = coeffs
    else:
        for site, k in reversed(sites):
            states = _walk(ctx, states, site, k, (0, 1), right=False)
        for col in states:
            _contract(ctx, col, parts)
    return parts


def _closed(ctx: TorusContext, terms: dict[Vec, dict[QKey, int]], sign: int) -> TorusElement:
    """A z-coefficient of ``_entry_parts`` as an element, times ``sign``,
    with its zero coefficients dropped in the same pass."""
    if sign == 1:
        return TorusElement._make(ctx, _nonzero(terms))
    out = {}
    for vec, coeffs in terms.items():
        kept = {k: sign * c for k, c in coeffs.items() if c}
        if kept:
            out[vec] = kept
    return TorusElement._make(ctx, out)


def _site_terms(ctx: TorusContext, site: int, k: int, sign: int):
    """Per cell (i, j) of ``local_lax(ctx, site, k)``, its terms as
    (doubled z-degree, nonzero entries (t, a_t) of the vector a, q-key,
    coefficient, sign * r(a)), read off the closed form of that matrix.

    Every term is a plain product w^x D^y of the site's generators.  With
    s(w, D) = -1/2 on the Lax grid (den 2), its q-key is -x*y and its
    pairing row r(a) = den*(a s) is {D: -x, w: y}.
    """
    if k not in (-1, 0, 1):
        raise ValueError("local index must be -1, 0 or 1")
    wi, di = w_index(ctx, site), d_index(ctx, site)

    def term(e: int, x: int, y: int, c: int):
        a = [(t, v) for t, v in ((wi, x), (di, y)) if v]
        r = [(t, sign * v) for t, v in ((di, -x), (wi, y)) if v]
        return (e, a, -x * y, c, r)

    s2 = k - 1  # doubled s
    return {
        (0, 0): [term(s2 + 2, -1, 0, 1), term(s2, 1, 0, -1)],
        (0, 1): [term(s2 + 2, -k, -1, 1)],
        (1, 0): [term(s2, -k, 1, -1)],
        (1, 1): [term(0, -k, 0, -k)] if k else [],
    }


def _walk(ctx: TorusContext, states: list[dict], site: int, k: int, ends, right: bool) -> list[dict]:
    """One site of the path sum: the new state j sums, over old states i,
    each partial product A extended by each term a of cell (i, j) of the
    site's matrix on the right (the key gains -r(a).A), or of cell (j, i)
    on the left (the key gains r(a).A)."""
    cells = _site_terms(ctx, site, k, -1 if right else 1)
    out = []
    for j in ends:
        acc: dict = {}
        for i, state in enumerate(states):
            local = cells[i, j] if right else cells[j, i]
            if not local:
                continue
            for (e, A), coeffs in state.items():
                for f, a, p, c, r in local:
                    shift = p
                    for t, x in r:
                        shift += x * A[t]
                    vec = list(A)
                    for t, x in a:
                        vec[t] += x
                    key = (e + f, tuple(vec))
                    tgt = acc.get(key)
                    if tgt is None:
                        acc[key] = tgt = {}
                    for qk, ck in coeffs.items():
                        qk += shift
                        tgt[qk] = tgt.get(qk, 0) + ck * c
        out.append(acc)
    return out


def _contract(ctx: TorusContext, col: dict, parts: dict) -> None:
    """Add x(1/z) x(z) for the column entry ``col`` into ``parts`` (per
    doubled z-degree, a term map), over the flat terms c q^k E(u) z^e of
    ``col``: each term with itself once, each unordered pair once, both
    orders from one shift."""
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


def sigma_doubled(kvec: IndexVector) -> int:
    """2 * sum s_i with s_i = (k_i - 1)/2."""
    return sum(k - 1 for k in kvec)


def _window(kvec: IndexVector, kind: str) -> list[int]:
    """The doubled z-degrees of H_1, H_2, ... in the (1,1) entry."""
    n = len(kvec)
    if kind == "A":
        lo2 = sigma_doubled(kvec)
        count = n + 1
    elif kind == "C":
        lo2 = -2 * n
        count = 2 * n + 1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [lo2 + 2 * (i - 1) for i in range(1, count + 1)]


def extract_hamiltonians(entry: TorusElement, kvec: IndexVector, kind: str) -> list[TorusElement]:
    """Coefficient list of the (1,1) monodromy entry, an element of the
    spectral context of ``lax_context(len(kvec))``.

    Type A: H_i = coefficient of z^(sigma_n + i - 1), i = 1..n+1.
    Type C: H_i = coefficient of z^(-n + i - 1), i = 1..2n+1.
    Raises if the z-support leaves the predicted window.
    """
    ctx = lax_context(len(kvec))
    window = _window(kvec, kind)
    coeffs = z_coefficients(entry, ctx)
    outside = sorted(d for d in coeffs if d not in window)
    if outside:
        raise ValueError(f"z-support {outside} outside the predicted window")
    return [coeffs.get(d, ctx.zero()) for d in window]


def _normal_sign(kind: str, n: int, i: int) -> int:
    """The alternating sign of H_i in the direct expansion."""
    return (-1) ** (n + 1 - i if kind == "A" else i - 1)


def normalized_hamiltonians(entry: TorusElement, kvec: IndexVector, kind: str) -> list[TorusElement]:
    """Sign-normalized coefficients, the convention of the explicit lists:
    the alternating sign of the direct expansion is stripped, type A by
    (-1)^(n+1-i) and type C by (-1)^(i-1)."""
    raw = extract_hamiltonians(entry, kvec, kind)
    return [h.q_shift(0, _normal_sign(kind, len(kvec), i)) for i, h in enumerate(raw, start=1)]


def lax_hamiltonians(ctx: TorusContext, kvec: IndexVector, kind: str, normalized: bool = True) -> list[TorusElement]:
    """Hamiltonians of the (double) monodromy for an index vector: the
    coefficients of ``monodromy_entry``, normalized as by
    ``normalized_hamiltonians`` unless ``normalized`` is false.  Each
    coefficient's sign, the type C (-1)^n of the entry included, is
    applied once, as its term map is closed."""
    parts = _entry_parts(ctx, kvec, kind)
    window = _window(kvec, kind)
    outside = sorted(d for d, terms in parts.items() if d not in window and _closed(ctx, terms, 1))
    if outside:
        raise ValueError(f"z-support {outside} outside the predicted window")
    n = len(kvec)
    outer = (-1) ** n if kind == "C" else 1
    return [
        _closed(ctx, parts.get(d, {}), outer * _normal_sign(kind, n, i) if normalized else outer)
        for i, d in enumerate(window, start=1)
    ]


# ---------------------------------------------------------------------------
# recursion formulas


def _k_at(kvec: IndexVector, i: int) -> int:
    """k_i for kvec = (k_n, ..., k_1)."""
    return kvec[len(kvec) - i]


def _truncate(kvec: IndexVector, m: int) -> IndexVector:
    """(k_m, ..., k_1)."""
    return kvec[len(kvec) - m:]


def _s_partial_doubled(kvec: IndexVector, j: int) -> int:
    """2*S_j = sum_{i<=j} (k_i - 1)."""
    return sum(_k_at(kvec, i) - 1 for i in range(1, j + 1))


def _sigma_monomial(ctx: TorusContext, kvec: IndexVector, i: int, j: int) -> TorusElement:
    """w_i^(-k_i) ... w_j^(-k_j) as a plain product (w's commute)."""
    return ctx.plain_product(
        [(w_index(ctx, l), -_k_at(kvec, l)) for l in range(i, j + 1)]
    )


def hamiltonian_recursive_A(ctx: TorusContext, kvec: IndexVector, i: int) -> TorusElement:
    """Site-count recursion for the type A Hamiltonians, matching the
    direct coefficients of the monodromy (1,1) entry exactly."""
    n_sites = len(kvec)
    cache: dict[tuple[IndexVector, int], TorusElement] = {}

    def ham(kv: IndexVector, idx: int) -> TorusElement:
        m = len(kv)
        if idx < 1 or idx > m + 1:
            return ctx.zero()
        if m == 0:
            return ctx.one() if idx == 1 else ctx.zero()
        key = (kv, idx)
        if key in cache:
            return cache[key]
        top = m  # site being peeled off
        wt = w_index(ctx, top)
        sub = _truncate(kv, m - 1)
        parts = [
            ctx.generator(wt, 1).q_shift(0, -1) * ham(sub, idx),
            ctx.generator(wt, -1) * ham(sub, idx - 1),
        ]
        if m >= 2:
            coeff = _sigma_monomial(ctx, kv, m - 1, m) * ctx.plain_product(
                [(d_index(ctx, m - 1), 1), (d_index(ctx, m), -1)]
            )
            parts.append(-(coeff * ham(_truncate(kv, m - 2), idx - 1)))
        for mm in range(0, m - 2):
            kprod = 1
            for l in range(mm + 2, m):
                kprod *= _k_at(kv, l)
            if kprod == 0:
                continue
            s_nm = (_s_partial_doubled(kv, m - 1) - _s_partial_doubled(kv, mm + 1)) // 2
            # H-index i - 1 + S_{n,m+1} and sign (-1)^(n-m), both read off
            # the z-power bookkeeping of the inductive expansion
            sign = (-1) ** ((m - 1) - mm)
            coeff = _sigma_monomial(ctx, kv, mm + 1, m) * ctx.plain_product(
                [(d_index(ctx, mm + 1), 1), (d_index(ctx, m), -1)]
            )
            term = coeff * ham(_truncate(kv, mm), idx - 1 + s_nm)
            parts.append(term.q_shift(0, sign * kprod))
        acc = cache[key] = TorusElement.sum(ctx, parts)
        return acc

    return ham(tuple(kvec), i)


def hamiltonian_recursive_C(ctx: TorusContext, kvec: IndexVector, i: int) -> TorusElement:
    """Type C Hamiltonians assembled from pairs of type A Hamiltonians.

    Expands (-1)^n [T(1/z)]^T T(z) through the templates

        T(z)_11 = sum_j H_j z^(S_n + j - 1),
        T(z)_21 = sum_{m,j} P_m H_j^(trunc m) z^(S_{m+1} + j - 1),
        P_m = (-1)^(n-m) k_{m+2..n} sigma_{m+1,n} D_{m+1},

    and collects the coefficient of z^(-n + i - 1).  Equals the direct
    double-monodromy extraction.
    """
    n = len(kvec)
    if not 1 <= i <= 2 * n + 1:
        return ctx.zero()

    def ham_A(kv: IndexVector, idx: int) -> TorusElement:
        m = len(kv)
        if idx < 1 or idx > m + 1:
            return ctx.zero()
        if m == 0:
            return ctx.one()
        return hamiltonian_recursive_A(ctx, kv, idx)

    def coeff_P(mm: int) -> TorusElement | None:
        kp = 1
        for l in range(mm + 2, n + 1):
            kp *= _k_at(kvec, l)
        if kp == 0:
            return None
        letters = [(w_index(ctx, l), -_k_at(kvec, l)) for l in range(mm + 1, n + 1)]
        letters.append((d_index(ctx, mm + 1), 1))
        return ctx.plain_product(letters).q_shift(0, kp * (-1) ** (n - mm))

    parts = [ham_A(kvec, n + 1 + j - i) * ham_A(kvec, j) for j in range(1, n + 2)]
    for mleft in range(0, n):
        p1 = coeff_P(mleft)
        if p1 is None:
            continue
        for mright in range(0, n):
            p2 = coeff_P(mright)
            if p2 is None:
                continue
            shift2 = _s_partial_doubled(kvec, mleft + 1) - _s_partial_doubled(kvec, mright + 1)
            if shift2 % 2:
                continue
            mid = p1 * p2
            for j in range(1, n + 2):
                left = ham_A(_truncate(kvec, mleft), n + 1 + j - i - shift2 // 2)
                if left.is_zero():
                    continue
                parts.append(left * mid * ham_A(_truncate(kvec, mright), j))
    return TorusElement.sum(ctx, parts).q_shift(0, (-1) ** n)


def bar_w(a: TorusElement) -> TorusElement:
    """The symmetry w_i -> w_i^-1 (with q -> 1/q, making it a ring map)."""
    n = a.ctx.rank // 2
    return a.flipped(range(n), negate_q=True)


def _solve_exact(rows: list[list[int]], rhs: list, width: int) -> list[Fraction] | None:
    """A rational solution of rows . x = rhs with the free unknowns at 0,
    by Gauss-Jordan elimination over Fraction; None if inconsistent."""
    m = [[Fraction(c) for c in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][col]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    if any(row[width] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        x[col] = m[r][width]
    return x


def boundary_gauge(
    ctx: TorusContext,
    source: Sequence[TorusElement],
    target: Sequence[TorusElement],
) -> MonomialMap | None:
    """A w-fixing monomial gauge phi with phi(source[j]) == target[j] for all j.

    phi fixes every w_i and sends D_i to q^(p_i) E(sum_j a_ij w_j + D_i);
    it is a ring map exactly when the integer matrix a is symmetric, so
    only its upper triangle is solved for.  A term E(u, d) (w-exponents u,
    D-exponents d) goes to q^(p.d) E(u + a d, d): within each D-exponent
    group d the w-support is translated by a d and the q-powers by p.d.
    The lexicographically least term of each group gives the shifts, so
    a d = t_d and p.d = delta_d are solved exactly, free unknowns at 0.

    Returns None when the D-exponent groups or the shifts disagree, when
    that solution for a is not integral, or when the map fails to carry
    some source[j] onto target[j]; every candidate is checked exactly.
    """
    n = ctx.rank // 2
    if len(source) != len(target):
        return None

    def least_terms(el: TorusElement) -> dict[tuple[int, ...], tuple[int, ...]]:
        least: dict[tuple[int, ...], tuple[int, ...]] = {}
        for vec in el.terms:
            d = vec[n:]
            if d not in least or vec < least[d]:
                least[d] = vec
        return least

    shifts: dict[tuple[int, ...], tuple[tuple[int, ...], Fraction]] = {}
    for src, tgt in zip(source, target):
        s_least, t_least = least_terms(src), least_terms(tgt)
        if s_least.keys() != t_least.keys():
            return None
        for d, su in s_least.items():
            tu = t_least[d]
            shift = (
                tuple(y - x for x, y in zip(su[:n], tu[:n])),
                min(tgt.terms[tu]) - min(src.terms[su]),
            )
            if shifts.setdefault(d, shift) != shift:
                return None

    # one unknown per entry of the upper triangle of a
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    slot = {}
    for k, (i, j) in enumerate(upper):
        slot[i, j] = slot[j, i] = k
    a_rows, a_rhs, p_rows, p_rhs = [], [], [], []
    for d, (t, delta) in shifts.items():
        for j in range(n):
            row = [0] * len(upper)
            for i in range(n):
                row[slot[j, i]] += d[i]
            a_rows.append(row)
            a_rhs.append(t[j])
        p_rows.append(list(d))
        p_rhs.append(delta)
    a_sol = _solve_exact(a_rows, a_rhs, len(upper))
    p_sol = _solve_exact(p_rows, p_rhs, n)
    if a_sol is None or p_sol is None or any(x.denominator != 1 for x in a_sol):
        return None

    images = [(Fraction(0), ctx.basis_vec(w_index(ctx, i))) for i in range(1, n + 1)]
    for i in range(n):
        w_part = tuple(int(a_sol[slot[i, j]]) for j in range(n))
        d_part = tuple(int(j == i) for j in range(n))
        images.append((p_sol[i], w_part + d_part))
    phi = MonomialMap(ctx, ctx, tuple(images))
    if not phi.is_homomorphism():
        return None
    if any(phi.apply(s) != t for s, t in zip(source, target)):
        return None
    return phi


def gauge_parts(phi: MonomialMap) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]:
    """(a, p) of a w-fixing gauge D_i -> q^(p_i) E(sum_j a_ij w_j + D_i)."""
    n = phi.source.rank // 2
    d_images = phi.images[n:]
    return tuple(v[:n] for _, v in d_images), tuple(p for p, _ in d_images)


# ---------------------------------------------------------------------------
# RTT relation with the cleared trigonometric R-matrix


def cleared_r_matrix(ctx: TorusContext) -> list[list[TorusElement]]:
    """w * (vz/w - 1/v) * R_trig(z/w), polynomial in z, w and q^(+-1):

        [  qz - w/q      0             0            0        ]
        [  0             z - w         z(q - 1/q)   0        ]
        [  0             w(q - 1/q)    z - w        0        ]
        [  0             0             0            qz - w/q ]

    Entries are elements of ``spectral_context(ctx)``.  Clearing the
    denominator keeps the RTT check inside exact Laurent arithmetic.
    """
    sctx = spectral_context(ctx)
    m = ctx.rank
    z, w = sctx.basis_vec(m, 2), sctx.basis_vec(m + 1, 2)

    def c(vec, qp, coeff=1):
        return sctx.monomial(vec, qp, coeff)

    zero = sctx.zero()
    diag = c(z, 1) + c(w, -1, -1)
    zmw = c(z, 0) + c(w, 0, -1)
    zq = c(z, 1) + c(z, -1, -1)
    wq = c(w, 1) + c(w, -1, -1)
    return [
        [diag, zero, zero, zero],
        [zero, zmw, zq, zero],
        [zero, wq, zmw, zero],
        [zero, zero, zero, diag],
    ]


def _at_w(el: TorusElement) -> TorusElement:
    """``el`` with z replaced by w: each term's z-exponent moves into the
    w slot, which is zero on a Lax matrix entry."""
    zi = el.ctx.rank - 2
    return TorusElement._make(el.ctx, {v[:zi] + (0, v[zi]): c for v, c in el._terms.items()})


def check_rtt(t: LaxMatrix) -> bool:
    """R(z/w) T1(z) T2(w) = T2(w) T1(z) R(z/w), denominators cleared.

    T1 = T (x) 1 and T2 = 1 (x) T, as 4x4 matrices over the spectral
    context, with T2 read at w.
    """
    sctx = spectral_context(t.ctx)
    zero = sctx.zero()
    t1 = [[zero] * 4 for _ in range(4)]
    t2 = [[zero] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                t1[2 * a + c][2 * b + c] = t[a, b]
                t2[2 * c + a][2 * c + b] = _at_w(t[a, b])

    def matmul(x, y):
        return [
            [TorusElement.sum(sctx, (x[i][k] * y[k][j] for k in range(4))) for j in range(4)]
            for i in range(4)
        ]

    r = cleared_r_matrix(t.ctx)
    lhs = matmul(matmul(r, t1), t2)
    rhs = matmul(matmul(t2, t1), r)
    return lhs == rhs
