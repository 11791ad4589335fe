"""Substitution of path labels into the Lax algebra and the mechanical
verification of the network/Lax equivalences.

Path weights of a word's network are relabeled X_(low, source) and form
their own quantum torus whose skew pairings are induced by the weight
torus.  The substitution map sends each label to an explicit monomial
in the w's and D's; pushing the network Hamiltonians through it must
reproduce the Lax Hamiltonians up to the stated prefactor and index
shift.  Exponent conventions: the w_l factor of a lower-half dip weight
is w_l^(-Q_(l-1)-1) (mirrored dips use -Q_(l-1)+1), with out-of-range
quiver entries read as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import lax as laxmod
from .network import (
    Network,
    StrandTable,
    build_network,
    enumerate_labeled_paths,
    fold_bands,
    fold_hamiltonians,
    path_families,
    strand_table,
    weight_vector,
)
from .torus import MonomialMap, TorusContext, TorusElement, _pairing_row
from .words import DoubleWord, QuiverVector, index_vector_of, quiver_vector_of


@dataclass(frozen=True)
class LabelAlgebra:
    """Quantum torus on the realized path labels of one network."""

    net: Network
    labels: tuple[tuple[int, int], ...]
    ctx: TorusContext
    weights: dict  # label -> weight exponent vector over the t/c torus

    def index(self, label) -> int:
        return self.labels.index(label)

    def generator(self, label) -> TorusElement:
        return self.ctx.generator(self.index(label))


def label_algebra(net: Network) -> LabelAlgebra:
    """The label torus.  Its skew is den*<w_r, w_c> on the weight grid,
    as ints from the pairing row of w_r, for r < c only, then divided by
    den once per distinct value, as ``weight_context`` halves its matrix."""
    paths = enumerate_labeled_paths(net)
    labels = tuple(p.label for p in paths)
    weights = {p.label: weight_vector(net, p) for p in paths}
    names = tuple(f"X[{a},{b}]" for a, b in labels)
    vecs = [weights[label] for label in labels]
    m = len(labels)
    skew_den = [[0] * m for _ in range(m)]
    for r, u in enumerate(vecs):
        row = _pairing_row(net.ctx.rows, u)
        for c in range(r + 1, m):
            v = vecs[c]
            x = 0
            for j, y in row:
                x += y * v[j]
            skew_den[r][c], skew_den[c][r] = x, -x
    den = net.ctx.den
    fracs = {x: Fraction(x, den) for row in skew_den for x in row}
    skew = tuple(tuple(fracs[x] for x in row) for row in skew_den)
    return LabelAlgebra(net, labels, TorusContext(names, skew), weights)


def label_hamiltonian(alg: LabelAlgebra, i: int) -> TorusElement:
    """Network Hamiltonian written over the label torus: sum over
    vertex-disjoint families of the label product, top row first.

    ``path_families`` yields members bottom row first, so the product
    X_(i_1) ... X_(i_r) runs over the reversed tuple: its q-key is
    sum_{s<t} rows[i_s][i_t] and its exponent vector the indicator of
    the family's labels.  Both go straight into one term map.
    """
    index = {label: k for k, label in enumerate(alg.labels)}
    rows = alg.ctx.rows
    zero = [0] * alg.ctx.rank
    out: dict = {}
    for fam in path_families(alg.net, i):
        idx = [index[p.label] for p in reversed(fam)]
        key = 0
        for s, a in enumerate(idx):
            row = rows[a]
            for b in idx[s + 1:]:
                key += row.get(b, 0)
        vec = zero[:]
        for a in idx:
            vec[a] = 1
        coeffs = out.setdefault(tuple(vec), {})
        coeffs[key] = coeffs.get(key, 0) + 1
    return TorusElement._make(alg.ctx, out)


# ---------------------------------------------------------------------------
# label substitution into the Lax algebra


def _q_entry(qvec_desc: QuiverVector, n: int, l: int) -> int:
    """Q_l with Q_l = 0 outside 1..n-1; qvec is stored descending."""
    if 1 <= l <= n - 1:
        return qvec_desc[n - 1 - l]
    return 0


def _label_term(kind: str, n: int, qvec: QuiverVector, sites: int, label) -> tuple[int, tuple[int, ...]]:
    """(q-key, exponent vector) of a path label's image on a Lax torus of
    ``sites`` sites, in closed form.

    Each image is a plain product w^u D^d of w-letters, then D-letters,
    times q^e.  The only pairings are s(w_l, D_l) = -1/2, so on the Lax
    grid (den 2) its q-key is 2e - u.d.
    """
    i, j = label
    u, d = [0] * sites, [0] * sites
    extra = 0

    def dip(lo: int, hi: int, offset: int):
        """w_l^(-Q_(l-1)+offset) for l = lo..hi."""
        for l in range(lo, hi + 1):
            u[l - 1] += -_q_entry(qvec, n, l - 1) + offset

    if kind == "A" or j <= n:
        if i == j:
            u[i - 1] = -2
        else:
            dip(i, j, -1)
            d[i - 1] += 1
            d[j - 1] -= 1
    elif i == j:
        u[2 * n - i] = 2  # w_(2n+1-i)^2 on the mirrored diagonal
    elif j == n + 1 and i < n:
        dip(i, n, -1)
        d[i - 1] += 1
        d[n - 1] += 1
        extra = -1
    elif i == n and j == n + 1:
        qq = _q_entry(qvec, n, n - 1)
        u[n - 1] = -2 * qq
        d[n - 1] = 2
        extra = -qq
    elif i == n:
        a = 2 * n + 1 - j
        dip(a, n, 1)
        d[a - 1] += 1
        d[n - 1] += 1
        extra = 1
    elif i >= n + 1:
        a, b = 2 * n + 1 - j, 2 * n + 1 - i
        dip(a, b, 1)
        d[a - 1] += 1
        d[b - 1] -= 1
    else:
        raise ValueError(f"label {label} is not covered by the weight table")
    return 2 * extra - sum(x * y for x, y in zip(u, d)), tuple(u) + tuple(d)


def lax_params(kind: str, word: DoubleWord) -> tuple[TorusContext, tuple[int, ...]]:
    """The Lax torus and index vector matched to a word's network: type A
    (0, Q, 0) on n+1 sites, type C (Q_{n-1}, ..., Q_1, 0) on n sites."""
    qvec = quiver_vector_of(word)
    if kind == "A":
        return laxmod.lax_context(word.n + 1), index_vector_of(qvec)
    return laxmod.lax_context(word.n), tuple(qvec) + (0,)


def build_weight_map(net: Network, alg: LabelAlgebra | None = None) -> MonomialMap:
    """Monomial map from the label torus into the Lax torus: each label
    goes to its ``_label_term`` image, its q-key read back as a
    ``Fraction`` q-power."""
    alg = alg or label_algebra(net)
    lax_ctx, _ = lax_params(net.kind, net.word)
    qvec = quiver_vector_of(net.word)
    sites = lax_ctx.rank // 2
    terms = (_label_term(net.kind, net.n, qvec, sites, label) for label in alg.labels)
    return MonomialMap(alg.ctx, lax_ctx, tuple((Fraction(key, 2), vec) for key, vec in terms))


def lax_strand_table(net: Network) -> StrandTable:
    """Strand table of ``net`` with each label's image in the Lax torus,
    as the int (q-key, vector) of ``_label_term``.  Its bands reuse it:
    a label's image depends only on (kind, n, Q)."""
    lax_ctx, _ = lax_params(net.kind, net.word)
    qvec, sites = quiver_vector_of(net.word), lax_ctx.rank // 2
    return strand_table(net, lax_ctx, lambda label: _label_term(net.kind, net.n, qvec, sites, label))


def verify_weight_map(net: Network) -> dict:
    """Pairwise commutation check: the q-factor between the images of
    any two labels must equal the factor on the label torus.  Both
    pairings are compared as ints on their grids, den_s*<a,b> against
    den_t*<f(a),f(b)>, cross-multiplied by the two dens."""
    alg = label_algebra(net)
    wmap = build_weight_map(net, alg)
    src_den, src_rows = alg.ctx.den, alg.ctx.rows
    tgt_den, tgt_rows = wmap.target.den, wmap.target.rows
    vecs = [v for _, v in wmap.images]
    failures = []
    m = len(alg.labels)
    for a in range(m):
        row = _pairing_row(tgt_rows, vecs[a])
        for b in range(a + 1, m):
            src = src_rows[a].get(b, 0)
            tgt = 0
            for j, y in row:
                tgt += y * vecs[b][j]
            if src * tgt_den != tgt * src_den:
                failures.append(
                    {
                        "labels": [alg.labels[a], alg.labels[b]],
                        "source_factor": str(Fraction(2 * src, src_den)),
                        "image_factor": str(Fraction(2 * tgt, tgt_den)),
                    }
                )
    return {
        "kind": net.kind,
        "rank": net.n,
        "word": list(net.word.letters),
        "pairs_checked": m * (m - 1) // 2,
        "ok": not failures,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# the equivalence checks


def _coeff_list(el: TorusElement, vec) -> list:
    """The q-coefficients of ``el`` at ``vec`` as [q-exponent, coefficient]
    pairs, q-exponents as strings."""
    return [[str(q), c] for q, c in sorted(el.coefficient(vec).items())]


def _compare(lhs: TorusElement, rhs: TorusElement) -> dict:
    """The "ok" and "first_diff" fields of one check.  The witness is the
    least exponent vector where the sides differ, built only on failure."""
    if lhs == rhs:
        return {"ok": True, "first_diff": None}
    vec = min((lhs - rhs).terms)
    return {
        "ok": False,
        "first_diff": {
            "exponents": list(vec),
            "lhs_coeff": _coeff_list(lhs, vec),
            "rhs_coeff": _coeff_list(rhs, vec),
        },
    }


def commutator_witness(c: TorusElement) -> dict:
    """The least term of a nonzero commutator c = ab - ba: its exponents
    and q-coefficients, in the shape of ``_compare``'s first_diff.  A
    commuting pair has no witness."""
    vec = min(c.terms)
    return {"exponents": list(vec), "coeff": _coeff_list(c, vec)}


def _rtt_witness(t: laxmod.LaxMatrix) -> dict | None:
    """The first cell, in row-major order, where the two sides R T1 T2
    and T2 T1 R of the RTT relation (``lax._rtt_sides``) differ, with
    ``_compare``'s first_diff there; None where the relation holds."""
    lhs, rhs = laxmod._rtt_sides(t)
    for i in range(4):
        for j in range(4):
            cmp = _compare(lhs[i][j], rhs[i][j])
            if not cmp["ok"]:
                return {"cell": [i, j], **cmp["first_diff"]}
    return None


def _w_prefactor(ctx: TorusContext, upto: int, sign: int) -> TorusElement:
    return ctx.plain_product([(laxmod.w_index(ctx, l), sign) for l in range(1, upto + 1)])


def verify_equivalence_A(word: DoubleWord) -> dict:
    """H_i(network) = (w_1 ... w_{n+1})^-1 H_{i+1}(Lax, (0, Q, 0)),
    exactly, for i = 1..n.  The Lax side builds H_2..H_{n+1} alone."""
    n = word.n
    net = build_network("A", word)
    table = lax_strand_table(net)
    qvec = quiver_vector_of(word)
    ctx, kvec = lax_params("A", word)
    hams = laxmod.lax_hamiltonians(ctx, kvec, "A", range(2, n + 2))
    pref = _w_prefactor(ctx, n + 1, -1)
    folds = fold_hamiltonians(net, range(1, n + 1), table)
    checks = []
    for i in range(1, n + 1):
        lhs = folds[i]
        rhs = pref * hams[i - 1]  # index i+1
        checks.append({"index": i, **_compare(lhs, rhs)})
    return {
        "kind": "A",
        "rank": n,
        "word": list(word.letters),
        "quiver_vector": list(qvec),
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def verify_equivalence_C(word: DoubleWord) -> dict:
    """H_i(network) = H_{i+1}(double Lax, (Q, 0)) for i = 1..n, plus the
    identities of the networks induced on the bottom and top row bands."""
    n = word.n
    net = build_network("C", word)
    # the bands' strands are the parent's, with the same Lax images
    table = lax_strand_table(net)
    qvec = quiver_vector_of(word)
    ctx, kvec = lax_params("C", word)
    # (rows lo..hi, size r, prefactor sign): bottom bands, then top bands
    bands = [(1, m, m, -1) for m in range(2, n + 1)]
    bands += [(m2, 2 * n, 2 * n + 1 - m2, 1) for m2 in range(n + 1, 2 * n)]
    # one walk: only H_2..H_{n+1} are compared, and the band on rows 1..r
    # and the top r rows share the type A chain (Q_{r-1}, ..., Q_1, 0) of
    # its first r sites, read after site r
    sizes = range(2, n + 1)
    lax_side = iter(laxmod.lax_hamiltonians(ctx, kvec, "C", range(2, n + 2), sizes))
    hams = list(islice(lax_side, n))
    by_size = {r: list(islice(lax_side, r + 1)) for r in sizes}
    # one family search of the network folds it and every band
    spans = {(1, 2 * n): range(1, n + 1)}
    spans.update({(lo, hi): range(1, r + 1) for lo, hi, r, _ in bands})
    folds = fold_bands(net, spans, table)
    checks = [{"index": i, **_compare(folds[1, 2 * n][i], hams[i - 1])} for i in range(1, n + 1)]  # H_{i+1}
    sub_checks = []
    for lo, hi, r, sign in bands:
        pref = _w_prefactor(ctx, r, sign)
        for i in range(1, r + 1):
            # H_{i+1} on the bottom bands, H_{r+1-i} on the top ones
            rhs = pref * by_size[r][i if sign < 0 else r - i]
            sub_checks.append({"rows": [lo, hi], "index": i, **_compare(folds[lo, hi][i], rhs)})
    return {
        "kind": "C",
        "rank": n,
        "word": list(word.letters),
        "quiver_vector": list(qvec),
        "ok": all(c["ok"] for c in checks) and all(c["ok"] for c in sub_checks),
        "checks": checks,
        "subnetwork_checks": sub_checks,
    }
