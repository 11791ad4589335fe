"""2x2 trigonometric Lax matrices and their commuting Hamiltonians.

The coefficient algebra has generators w_1..w_n, D_1..D_n with w's and
D's separately commuting and D_i w_i = q w_i D_i.  Matrix entries are
Laurent polynomials in a central spectral variable z with half-integer
exponents, stored doubled.  The (1,1) entry of an ordered product of
local matrices expands into Hamiltonians as coefficients of z-powers.

The verifiers read that entry as a path sum (``monodromy_entry``): a
walk over the sites extends each partial product by one monomial of the
next local matrix and updates its exponent vector and q-key with one
pairing, E(A) E(a) = q^<A,a> E(A + a), so no Laurent product is built.
Type C contracts the first column of T with itself, taking each term
with itself once and each unordered pair of terms once for both orders.
The full 2x2 products (``monodromy``, ``double_monodromy``) stay for the
RTT check and as the tests' oracle.
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
    ZLaurent,
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


def w_index(ctx: TorusContext, i: int) -> int:
    return i - 1


def d_index(ctx: TorusContext, i: int) -> int:
    return ctx.rank // 2 + i - 1


@dataclass(frozen=True)
class LaxMatrix:
    ctx: TorusContext
    entries: tuple[tuple[ZLaurent, ZLaurent], tuple[ZLaurent, ZLaurent]]

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

    def transpose(self) -> "LaxMatrix":
        e = self.entries
        return LaxMatrix(self.ctx, ((e[0][0], e[1][0]), (e[0][1], e[1][1])))

    def z_inverted(self) -> "LaxMatrix":
        e = self.entries
        return LaxMatrix(
            self.ctx,
            tuple(tuple(cell.z_inverted() for cell in row) for row in e),
        )

    def scaled(self, factor: int) -> "LaxMatrix":
        return LaxMatrix(
            self.ctx,
            tuple(tuple(cell.scaled(factor) for cell in row) for row in self.entries),
        )

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
    sgn = -1 if barred else 1

    def mono(wexp: int, dexp: int, coeff: int = 1):
        return ctx.plain_product(
            [(wi, sgn * wexp), (di, sgn * dexp)]
        ).q_shift(0, coeff)

    s2 = k - 1  # doubled s
    e11 = ZLaurent(ctx, {s2 + 2: mono(-1, 0), s2: mono(1, 0, -1)})
    e12 = ZLaurent(ctx, {s2 + 2: mono(-k, -1)})
    e21 = ZLaurent(ctx, {s2: mono(-k, 1, -1)})
    if k == 0:
        e22 = ZLaurent.zero(ctx)
    else:
        e22 = ZLaurent(ctx, {0: mono(-k, 0, -k)})
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


def monodromy_entry(ctx: TorusContext, kvec: IndexVector, kind: str) -> ZLaurent:
    """The (1,1) entry of ``monodromy`` (type A) or ``double_monodromy``
    (type C), without the full 2x2 products."""
    entry = _unsigned_entry(ctx, kvec, kind)
    return entry.scaled(-1) if kind == "C" and len(kvec) % 2 else entry


def _unsigned_entry(ctx: TorusContext, kvec: IndexVector, kind: str) -> ZLaurent:
    """``monodromy_entry`` without the (-1)^n of type C, as a path sum.

    A walk over the sites keeps, per end state (row or column 0 or 1), a
    map (doubled z-degree, exponent vector A) -> {q-key: coefficient}.
    Each step extends every partial product by one term q^p E(a) z^e of
    the next local matrix.  On the right, E(A) E(a) = q^<A,a> E(A + a),
    so the key gains -r(a).A with r(a) = den*(a s) the pairing row of a;
    on the left it gains +r(a).A.  Every pairing comes from ``ctx.rows``.

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
    return ZLaurent(
        ctx, {e: TorusElement._make(ctx, _nonzero(terms)) for e, terms in parts.items()}
    )


def _site_terms(ctx: TorusContext, site: int, k: int, sign: int):
    """Per cell (i, j) of ``local_lax(ctx, site, k)``, its terms as
    (doubled z-degree, vector a, q-key, coefficient, sign * r(a))."""
    m = local_lax(ctx, site, k)
    rows = ctx.rows
    return {
        (i, j): [
            (e, a, key, c, [(t, sign * x) for t, x in _pairing_row(rows, a)])
            for e, el in m[i, j].terms.items()
            for a, coeffs in el._terms.items()
            for key, c in coeffs.items()
        ]
        for i in range(2)
        for j in range(2)
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
                    key = (e + f, _vec_add(A, a))
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


def extract_hamiltonians(entry: ZLaurent, kvec: IndexVector, kind: str) -> list[TorusElement]:
    """Coefficient list of the (1,1) monodromy entry.

    Type A: H_i = coefficient of z^(sigma_n + i - 1), i = 1..n+1.
    Type C: H_i = coefficient of z^(-n + i - 1), i = 1..2n+1.
    Raises if the z-support leaves the predicted window.
    """
    n = len(kvec)
    if kind == "A":
        lo2 = sigma_doubled(kvec)
        count = n + 1
    elif kind == "C":
        lo2 = -2 * n
        count = 2 * n + 1
    else:
        raise ValueError(f"unknown kind {kind!r}")
    window = [lo2 + 2 * (i - 1) for i in range(1, count + 1)]
    outside = [d for d in entry.support() if d not in window]
    if outside:
        raise ValueError(f"z-support {outside} outside the predicted window")
    return [entry.coeff(d) for d in window]


def _normal_sign(kind: str, n: int, i: int) -> int:
    """The alternating sign of H_i in the direct expansion."""
    return (-1) ** (n + 1 - i if kind == "A" else i - 1)


def normalized_hamiltonians(entry: ZLaurent, kvec: IndexVector, kind: str) -> list[TorusElement]:
    """Sign-normalized coefficients, the convention of the explicit lists:
    the alternating sign of the direct expansion is stripped, type A by
    (-1)^(n+1-i) and type C by (-1)^(i-1)."""
    raw = extract_hamiltonians(entry, kvec, kind)
    return [h.q_shift(0, _normal_sign(kind, len(kvec), i)) for i, h in enumerate(raw, start=1)]


def lax_hamiltonians(ctx: TorusContext, kvec: IndexVector, kind: str, normalized: bool = True) -> list[TorusElement]:
    """Hamiltonians of the (double) monodromy for an index vector: the
    coefficients of ``monodromy_entry``, normalized as by
    ``normalized_hamiltonians`` unless ``normalized`` is false.  Each is
    signed once, the type C (-1)^n of the entry included."""
    raw = extract_hamiltonians(_unsigned_entry(ctx, kvec, kind), kvec, kind)
    n = len(kvec)
    outer = (-1) ** n if kind == "C" else 1
    return [
        h.q_shift(0, outer * _normal_sign(kind, n, i) if normalized else outer)
        for i, h in enumerate(raw, start=1)
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


class _ZW:
    """Bivariate Laurent data in z, w over a torus (both central)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return _ZW(self.ctx, out)

    def __mul__(self, other):
        out = {}
        for (dz1, dw1), v1 in self.terms.items():
            for (dz2, dw2), v2 in other.terms.items():
                k = (dz1 + dz2, dw1 + dw2)
                p = v1 * v2
                out[k] = out[k] + p if k in out else p
        return _ZW(self.ctx, out)

    def __eq__(self, other):
        return self.terms == other.terms


def _zw_from_z(pol: ZLaurent, var: str) -> _ZW:
    if var == "z":
        return _ZW(pol.ctx, {(d, 0): el for d, el in pol.terms.items()})
    return _ZW(pol.ctx, {(0, d): el for d, el in pol.terms.items()})


def cleared_r_matrix(ctx: TorusContext) -> list[list["_ZW"]]:
    """w * (vz/w - 1/v) * R_trig(z/w), polynomial in z, w and q^(+-1):

        [  qz - w/q      0             0            0        ]
        [  0             z - w         z(q - 1/q)   0        ]
        [  0             w(q - 1/q)    z - w        0        ]
        [  0             0             0            qz - w/q ]

    Entries are bivariate: maps from doubled (z, w) exponent pairs to
    torus elements.  Clearing the denominator keeps the RTT check inside
    exact Laurent arithmetic.
    """
    one = ctx.one()

    def c(qp, coeff=1):
        return one.q_shift(Fraction(qp), coeff)

    zero = _ZW(ctx, {})
    diag = _ZW(ctx, {(2, 0): c(1), (0, 2): c(-1, -1)})
    zmw = _ZW(ctx, {(2, 0): c(0), (0, 2): c(0, -1)})
    zq = _ZW(ctx, {(2, 0): c(1) + c(-1, -1)})
    wq = _ZW(ctx, {(0, 2): c(1) + c(-1, -1)})
    return [
        [diag, zero, zero, zero],
        [zero, zmw, zq, zero],
        [zero, wq, zmw, zero],
        [zero, zero, zero, diag],
    ]


def check_rtt(t: LaxMatrix) -> bool:
    """R(z/w) T1(z) T2(w) = T2(w) T1(z) R(z/w), denominators cleared."""
    ctx = t.ctx
    zero = _ZW(ctx, {})

    def kron_first(m: LaxMatrix, var: str):
        cells = [[zero] * 4 for _ in range(4)]
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    cells[2 * a + c][2 * b + c] = _zw_from_z(m[a, b], var)
        return cells

    def kron_second(m: LaxMatrix, var: str):
        cells = [[zero] * 4 for _ in range(4)]
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    cells[2 * c + a][2 * c + b] = _zw_from_z(m[a, b], var)
        return cells

    def matmul(x, y):
        out = []
        for i in range(4):
            row = []
            for j in range(4):
                cell = zero
                for k in range(4):
                    cell = cell + x[i][k] * y[k][j]
                row.append(cell)
            out.append(row)
        return out

    r = cleared_r_matrix(ctx)
    t1 = kron_first(t, "z")
    t2 = kron_second(t, "w")
    lhs = matmul(matmul(r, t1), t2)
    rhs = matmul(matmul(t2, t1), r)
    return all(lhs[i][j] == rhs[i][j] for i in range(4) for j in range(4))
