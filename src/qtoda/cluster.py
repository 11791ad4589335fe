"""Cluster seeds, quiver extraction from networks, mutation machinery.

A seed stores the exchange matrix over an arbitrary hashable index set
together with symmetrizers and a frozen subset.  Entries are exact:
cylinder seeds are integral and store plain ints, and a ``Fraction``
appears only for the half-weight entries of disk seeds (the boundary
arrows of the face rules, before amalgamation).  Mutation, the
canonical key and the constructor check touch the nonzero entries
only.  Edge weights in the drawn quiver are w_ij = eps_ij d_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .network import cartan_matrix, face_weights, symmetrizers
from .torus import (
    MonomialMap,
    RationalLaurent,
    TorusContext,
    classical_context,
    classical_monomial,
)
from .words import DoubleWord


@dataclass(frozen=True)
class Seed:
    labels: tuple
    eps: dict
    d: dict
    frozen: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        # eps_ij d_j = -eps_ji d_i; a pair with both entries zero holds
        eps, d = self.eps, self.d
        for (i, j), a in eps.items():
            if a and a * d[j] != -eps.get((j, i), 0) * d[i]:
                raise ValueError(f"eps not skew-symmetrizable at {(i, j)}")

    def entry(self, i, j) -> int | Fraction:
        return self.eps.get((i, j), 0)

    def weight(self, i, j) -> int | Fraction:
        """Drawn edge weight w_ij = eps_ij d_j."""
        return self.entry(i, j) * self.d[j]

    def matrix(self, order=None):
        order = list(order or self.labels)
        return [[self.entry(i, j) for j in order] for i in order]

    def is_integral(self) -> bool:
        return all(
            v.denominator == 1
            for (i, j), v in self.eps.items()
            if not (i in self.frozen and j in self.frozen)
        )

    def relabeled(self, mapping: dict) -> "Seed":
        return Seed(
            tuple(mapping.get(l, l) for l in self.labels),
            {(mapping.get(i, i), mapping.get(j, j)): v for (i, j), v in self.eps.items()},
            {mapping.get(l, l): v for l, v in self.d.items()},
            frozenset(mapping.get(l, l) for l in self.frozen),
        )

    def canonical_key(self):
        """Lexicographically minimal encoding over d-preserving bijections.

        Vertices are first partitioned by (d, frozen, sorted multiset of
        nonzero (eps_ij, d_j) in the row) to cut the permutation search
        down; quivers are compared only up to relabeling.
        """
        eps, d, frozen = self.eps, self.d, self.frozen
        rows = {i: [] for i in self.labels}
        for (i, j), v in eps.items():
            if v:
                rows[i].append((v, d[j]))
        groups: dict = {}
        for i in self.labels:
            sig = (d[i], i in frozen, tuple(sorted(rows[i])))
            groups.setdefault(sig, []).append(i)
        blocks = [groups[k] for k in sorted(groups)]
        # d and the frozen flags are constant on each block
        order = [v for block in blocks for v in block]
        dkey = tuple(d[v] for v in order)
        fkey = tuple(v in frozen for v in order)
        best = None
        for perms in product(*map(permutations, blocks)):
            picked = [v for perm in perms for v in perm]
            key = tuple(tuple(eps.get((a, b), 0) for b in picked) for a in picked)
            if best is None or key < best:
                best = key
        return dkey, fkey, best

    def is_isomorphic(self, other: "Seed") -> bool:
        return self.canonical_key() == other.canonical_key()


def seed_from_word(kind: str, word: DoubleWord) -> Seed:
    """Cylinder cluster seed of a word: faces of the bottom rows with
    the arrow rules applied and the cut faces amalgamated."""
    n = word.n
    d_roots = symmetrizers(kind, n)
    omega = face_weights(kind, word)
    labels = tuple(range(-n, 0)) + tuple(range(1, n + 1))
    d = {l: d_roots[abs(l) - 1] for l in labels}
    eps = {}
    for (i, j), w in omega.items():
        val = Fraction(w, d[j])
        if val.denominator != 1:
            raise ValueError(f"non-integer exchange entry at {(i, j)}")
        eps[(i, j)] = val.numerator
    return Seed(labels, eps, d, frozenset())


def disk_seed_from_word(kind: str, word: DoubleWord) -> Seed:
    """Open-network seed: the outer face of each strip is split at the
    cut into frozen faces (\"L\", k), (\"R\", k); entries may be halves."""
    n = word.n
    d_roots = symmetrizers(kind, n)
    omega = face_weights(kind, word, disk=True)
    labels = tuple(range(-n, 0)) + tuple(
        lab for k in range(1, n + 1) for lab in (("L", k), ("R", k))
    )
    d = {}
    for l in labels:
        d[l] = d_roots[abs(l) - 1] if isinstance(l, int) else d_roots[l[1] - 1]
    eps = {}
    for (i, j), w in omega.items():
        val = Fraction(w, d[j])
        eps[(i, j)] = val if val.denominator != 1 else val.numerator
    return Seed(labels, eps, d, frozenset(l for l in labels if not isinstance(l, int)))


def standard_exchange_matrix(kind: str, n: int):
    """The block matrix [[0, C], [-C, 0]] on labels -1..-n, 1..n."""
    c = cartan_matrix(kind, n)
    labels = [-(j + 1) for j in range(n)] + [j + 1 for j in range(n)]
    eps = {}
    for a in range(n):
        for b in range(n):
            if c[a][b]:
                eps[(-(a + 1), b + 1)] = c[a][b]
                eps[(a + 1, -(b + 1))] = -c[a][b]
    return labels, eps


def amalgamate(q1: Seed, q2: Seed, glue: list[tuple]) -> Seed:
    """Glue two seeds along pairs (i in q1, j in q2) of frozen indices.

    The glued vertex keeps the q1 label, its entries add, and it is
    unfrozen; all other entries carry over unchanged.
    """
    for i, j in glue:
        if i not in q1.frozen or j not in q2.frozen:
            raise ValueError("amalgamation indices must be frozen on both sides")
        if q1.d[i] != q2.d[j]:
            raise ValueError("amalgamation requires matching symmetrizers")
    rename = {j: i for i, j in glue}
    glued = {i for i, _ in glue}
    labels = tuple(q1.labels) + tuple(l for l in q2.labels if l not in rename)
    d = dict(q1.d)
    for l in q2.labels:
        if l not in rename:
            d[l] = q2.d[l]
    eps: dict = dict(q1.eps)
    for (i, j), v in q2.eps.items():
        key = (rename.get(i, i), rename.get(j, j))
        eps[key] = eps.get(key, 0) + v
    frozen = (q1.frozen - glued) | frozenset(
        l for l in q2.frozen if l not in rename
    )
    return Seed(labels, {k: v for k, v in eps.items() if v != 0}, d, frozen)


def amalgamate_pairs(seed: Seed, pairs: list[tuple], new_labels: list) -> Seed:
    """Self-amalgamation: merge frozen vertex pairs inside one seed."""
    rename = {}
    for (a, b), lab in zip(pairs, new_labels):
        if a not in seed.frozen or b not in seed.frozen:
            raise ValueError("can only merge frozen vertices")
        rename[a] = lab
        rename[b] = lab
    labels = []
    for l in seed.labels:
        t = rename.get(l, l)
        if t not in labels:
            labels.append(t)
    d = {}
    for l in seed.labels:
        t = rename.get(l, l)
        if t in d and d[t] != seed.d[l]:
            raise ValueError("merged vertices have mismatched symmetrizers")
        d[t] = seed.d[l]
    eps: dict = {}
    for (i, j), v in seed.eps.items():
        a, b = rename.get(i, i), rename.get(j, j)
        if a == b:
            continue
        eps[(a, b)] = eps.get((a, b), 0) + v
    frozen = frozenset(rename.get(l, l) for l in seed.frozen) - set(rename.values())
    return Seed(tuple(labels), {k: v for k, v in eps.items() if v != 0}, d, frozen)


# ---------------------------------------------------------------------------
# mutation


def mutate_seed(seed: Seed, k) -> Seed:
    """Matrix mutation at a mutable index; symmetrizers unchanged."""
    return _mutated(seed, k, {})


def _mutated(seed: Seed, k, rename: dict) -> Seed:
    """Mutation at k with every label l renamed to rename.get(l, l), as
    one seed: the renamed entries are written in the mutation pass."""
    if k not in seed.labels:
        raise ValueError(f"no vertex {k!r} to mutate at")
    if k in seed.frozen:
        raise ValueError(f"cannot mutate at frozen index {k!r}")
    ren = rename.get
    # flip row and column k; eps_ij gains sgn(eps_ik) eps_ik eps_kj only
    # where eps_ik and eps_kj are nonzero with one sign
    eps = {}
    col, row = [], []
    for (i, j), v in seed.eps.items():
        if not v:
            continue
        ri, rj = ren(i, i), ren(j, j)
        if i == k:
            row.append((rj, v))
        elif j == k:
            col.append((ri, v))
        eps[(ri, rj)] = -v if k in (i, j) else v
    for i, a in col:
        for j, b in row:
            if i != j and (a > 0) == (b > 0):
                nv = eps.get((i, j), 0) + (a * b if a > 0 else -a * b)
                if nv:
                    eps[(i, j)] = nv
                else:
                    del eps[(i, j)]
    return Seed(
        tuple(ren(l, l) for l in seed.labels),
        eps,
        {ren(l, l): v for l, v in seed.d.items()},
        frozenset(ren(l, l) for l in seed.frozen),
    )


def mutate_swap(seed: Seed, k: int) -> tuple[Seed, dict]:
    """Mutation at vertex -k followed by the k <-> -k relabeling, built
    as one seed.

    Returns the new seed and the relabeling applied, so callers can
    track index bookkeeping across sequences of moves.
    """
    swap = {k: -k, -k: k}
    return _mutated(seed, -k, swap), swap


def mutation_equivalent(s1: Seed, s2: Seed, max_depth: int, moves: str = "tau"):
    """Breadth-first search for a move sequence carrying s1 to s2 up to
    relabeling.  Returns the witness sequence or None.

    moves = "tau" explores the signed moves only; "tau,mu" adds plain
    mutations at every mutable vertex.
    """
    if len(s1.labels) != len(s2.labels):
        return None
    target = s2.canonical_key()
    start_key = s1.canonical_key()
    if start_key == target:
        return []
    ranks = sorted({abs(l) for l in s1.labels if isinstance(l, int)})
    seen = {start_key}
    frontier = [(s1, [])]
    for _ in range(max_depth):
        nxt = []
        for seed, hist in frontier:
            options: list[tuple[str, object, Seed]] = []
            if "tau" in moves:
                for k in ranks:
                    options.append(("tau", k, mutate_swap(seed, k)[0]))
            if "mu" in moves:
                for v in seed.labels:
                    if v not in seed.frozen:
                        options.append(("mu", v, mutate_seed(seed, v)))
            for tag, v, cand in options:
                key = cand.canonical_key()
                path = hist + [(tag, v)]
                if key == target:
                    return path
                if key not in seen:
                    seen.add(key)
                    nxt.append((cand, path))
        frontier = nxt
        if not frontier:
            break
    return None


# ---------------------------------------------------------------------------
# ensemble map and classical mutations (exact rational functions)
#
# The classical mutations use only +, *, / and integer powers, so they
# run on any field-like values: RationalLaurent in the library, sympy
# symbols in the tests, which keep sympy as the oracle.


def seed_x_context(seed: Seed) -> TorusContext:
    return classical_context(tuple(f"X[{l}]" for l in seed.labels))


def seed_a_context(seed: Seed) -> TorusContext:
    return classical_context(tuple(f"A[{l}]" for l in seed.labels))


def ensemble_map(seed: Seed) -> MonomialMap:
    """X_i -> prod_j A_j^(eps_ji), exponents read down the columns."""
    xs = seed_x_context(seed)
    As = seed_a_context(seed)
    images = []
    for i in seed.labels:
        vec = [0] * len(seed.labels)
        for jj, j in enumerate(seed.labels):
            e = seed.entry(j, i)
            if e:
                if e.denominator != 1:
                    raise ValueError("ensemble map needs integral exchange entries")
                vec[jj] = int(e)
        images.append((Fraction(0), tuple(vec)))
    return MonomialMap(xs, As, tuple(images))


def a_assignment(seed: Seed) -> dict:
    """The generators of ``seed_a_context(seed)`` as rational functions."""
    ctx = seed_a_context(seed)
    return {
        l: RationalLaurent(classical_monomial(ctx, ctx.basis_vec(i)))
        for i, l in enumerate(seed.labels)
    }


def mutate_X_classical(assignment: dict, seed: Seed, k) -> dict:
    """Pullback of the new X-coordinates through the mutation at k:
    X_k -> X_k^-1 and X_i -> X_i X_k^[eps_ki]+ (1 + X_k)^(-eps_ki),
    over field elements, unsimplified."""
    out = {}
    xk = assignment[k]
    for i in seed.labels:
        if i == k:
            out[i] = 1 / xk
            continue
        e = seed.entry(k, i)
        if e.denominator != 1:
            raise ValueError("classical mutation needs integral entries")
        e = int(e)
        out[i] = assignment[i] * xk ** max(e, 0) * (1 + xk) ** (-e)
    return out


def mutate_A_classical(assignment: dict, seed: Seed, k) -> dict:
    """A_k -> A_k^-1 (prod A_j^[eps_jk]+ + prod A_j^[-eps_jk]+), over
    field elements, unsimplified."""
    out = dict(assignment)
    plus = 1
    minus = 1
    for j in seed.labels:
        e = seed.entry(j, k)
        if e.denominator != 1:
            raise ValueError("classical mutation needs integral entries")
        e = int(e)
        if e > 0:
            plus *= assignment[j] ** e
        elif e < 0:
            minus *= assignment[j] ** (-e)
    out[k] = (plus + minus) / assignment[k]
    return out


def ensemble_substitution(seed: Seed, a_vals: dict) -> dict:
    """Evaluate the ensemble map on an A-assignment."""
    out = {}
    for i in seed.labels:
        # the field's one, not the int 1: 1 / 1 would be a float
        expr = a_vals[i] ** 0
        for j in seed.labels:
            e = seed.entry(j, i)
            if e:
                expr *= a_vals[j] ** int(e)
        out[i] = expr
    return out


def check_ensemble_naturality(seed: Seed, k) -> bool:
    """mu_k^X after the ensemble map equals the ensemble map of the
    mutated seed after mu_k^A, as exact rational functions of the A
    variables (``RationalLaurent``, compared by cross-multiplication)."""
    a_vals = a_assignment(seed)
    lhs = mutate_X_classical(ensemble_substitution(seed, a_vals), seed, k)
    mutated = mutate_seed(seed, k)
    rhs = ensemble_substitution(mutated, mutate_A_classical(a_vals, seed, k))
    return all(lhs[i] == rhs[i] for i in seed.labels)


# ---------------------------------------------------------------------------
# quantum mutation, kept factored


@dataclass(frozen=True)
class BinomialFactor:
    """(1 + q^r X)^(exponent) with X a torus monomial."""

    qpow: Fraction
    vec: tuple[int, ...]
    exponent: int


@dataclass(frozen=True)
class FactoredExpression:
    ctx: TorusContext
    monomial_vec: tuple[int, ...]
    factors: tuple[BinomialFactor, ...]

    def specialize_classical(self, assignment: dict):
        """q -> 1 as a rational function, unsimplified; assignment maps
        each generator name to a field element (a ``RationalLaurent``
        or a sympy symbol, say)."""
        expr = 1
        for name, e in zip(self.ctx.names, self.monomial_vec):
            if e:
                expr *= assignment[name] ** e
        for f in self.factors:
            base = 1
            for name, e in zip(self.ctx.names, f.vec):
                if e:
                    base *= assignment[name] ** e
            expr *= (1 + base) ** f.exponent
        return expr


def quantum_mutate(seed: Seed, k, i) -> FactoredExpression:
    """Image of X_i under the quantum mutation at k, as a factored
    expression: X_k^-1 at i = k, otherwise X_i times binomial factors
    (1 + q_i^(2r-1) X_k^(+-1))^(+-1) with q_i = q^(d_i)."""
    if k in seed.frozen:
        raise ValueError("cannot mutate at a frozen index")
    ctx = seed_x_context(seed)
    pos = {l: idx for idx, l in enumerate(seed.labels)}

    def basis(l, power=1):
        v = [0] * len(seed.labels)
        v[pos[l]] = power
        return tuple(v)

    if i == k:
        return FactoredExpression(ctx, basis(k, -1), ())
    e = seed.entry(k, i)
    if e.denominator != 1:
        raise ValueError("quantum mutation needs integral entries")
    e = int(e)
    d_i = seed.d[i]
    factors = []
    if e <= 0:
        for r in range(1, -e + 1):
            factors.append(BinomialFactor(Fraction(d_i * (2 * r - 1)), basis(k), 1))
    else:
        for r in range(1, e + 1):
            factors.append(BinomialFactor(Fraction(d_i * (2 * r - 1)), basis(k, -1), -1))
    return FactoredExpression(ctx, basis(i), tuple(factors))
