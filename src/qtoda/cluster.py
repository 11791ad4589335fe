"""Cluster seeds of words, mutations, the tau-move search and the
classical ensemble checks.

A seed stores the exchange matrix over an arbitrary hashable index set
together with symmetrizers and a frozen subset.  Entries are exact:
cylinder seeds are integral and store plain ints, and a ``Fraction``
appears only for the half-weight entries of disk seeds (the boundary
arrows of the face rules, before ``amalgamate_pairs`` glues them).
Mutation, the canonical key and the constructor check touch the nonzero
entries only.  Edge weights in the drawn quiver are w_ij = eps_ij d_j.

``mutation_equivalent`` connects seeds by signed moves tau_k (mutation
at -k, then k <-> -k): one breadth-first search from a base seed
answers every target at once, comparing seeds up to relabeling by
``Seed.canonical_key``.  The quantum mutation is kept factored.

``check_ensemble_naturality`` compares the two sides of the classical
naturality identity in factored form: each is a monomial in the A
variables times a power of the one exchange binomial, read off integer
columns of the exchange matrix.  The exact rational functions
(``RationalLaurent``) of ``ensemble_substitution`` and the classical
mutations build the same sides and are its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .network import cartan_matrix, face_weights, symmetrizers
from .torus import RationalLaurent, TorusContext, classical_context
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


def _tau_orbit(seed: Seed, max_depth: int):
    """Breadth-first walk over tau moves from seed: yields (canonical key,
    first move sequence reaching it) for each new key within max_depth
    moves, seed itself first with []."""
    ranks = sorted({abs(l) for l in seed.labels if isinstance(l, int)})
    key = seed.canonical_key()
    yield key, []
    seen = {key}
    frontier = [(seed, [])]
    for _ in range(max_depth):
        nxt = []
        for s, hist in frontier:
            for k in ranks:
                cand = mutate_swap(s, k)[0]
                key = cand.canonical_key()
                if key not in seen:
                    seen.add(key)
                    path = hist + [("tau", k)]
                    yield key, path
                    nxt.append((cand, path))
        frontier = nxt


def mutation_equivalent(s1: Seed, targets, max_depth: int) -> list:
    """One breadth-first search over tau moves from s1 for every target.

    Returns one entry per target: the first move sequence found that
    carries s1 to the target up to relabeling (equal ``canonical_key``),
    [] for a target isomorphic to s1, or None when no sequence of at
    most max_depth moves does.  The walk order does not depend on the
    targets, so each sequence is the one a search for that target alone
    finds; the walk stops as soon as every target is reached.
    """
    keys = [t.canonical_key() for t in targets]
    wanted = set(keys)
    found: dict = {}
    if wanted:
        for key, path in _tau_orbit(s1, max_depth):
            if key in wanted:
                found[key] = path
                if len(found) == len(wanted):
                    break
    return [found.get(key) for key in keys]


# ---------------------------------------------------------------------------
# ensemble map and classical mutations
#
# ``check_ensemble_naturality`` compares both sides of the identity in
# factored form, on integer vectors.  The functions below it build the
# same sides as exact rational functions and stay as its oracle: they
# use only +, *, / and integer powers, so they run on any field-like
# values, ``RationalLaurent`` or sympy symbols in the tests.


def _integral(e) -> int:
    if e.denominator != 1:
        raise ValueError("classical mutation needs integral entries")
    return int(e)


def _columns(seed: Seed, pos: dict) -> dict:
    """Column i of eps (the exponents of X_i under the ensemble map) as
    an int list indexed by ``pos``, for each label i."""
    cols = {l: [0] * len(pos) for l in seed.labels}
    for (j, i), v in seed.eps.items():
        if v:
            cols[i][pos[j]] = _integral(v)
    return cols


def _naturality_sides(seed: Seed, k, mutated: Seed) -> tuple[list, list]:
    """Both sides of the naturality identity at k, one (c, u, b) per
    label, read off integer columns; ``mutated`` is taken as mu_k(seed).

    Let col_i = (eps_ji)_j, so the ensemble map sends X_i to A^col_i, and
    let B = A^[col_k]+ + A^[-col_k]+ be the exchange binomial, which
    mu_k^A puts in A'_k = B / A_k.  Since 1 + A^col_k = A^-[-col_k]+ B,
    each side is c A^u B^b:

    - left, i = k: A^-col_k, so u = -col_k and b = 0;
    - left, i != k, e = eps_ki: A^col_i A^([e]+ col_k) (1 + A^col_k)^-e,
      so u = col_i + [e]+ col_k + e [-col_k]+ and b = -e;
    - right: prod_j A'_j^eps'_ji, so u is col'_i with its k entry
      negated and b = eps'_ki.

    The triples decide equality exactly.  The Laurent ring Q[A^+-1] is a
    UFD whose units are the terms c A^u.  When col_k != 0, B has two
    distinct monomials, so it is no unit and neither is any nonzero power
    of it; c A^u B^b = c' A^u' B^b' makes B^(b - b') a unit, so b = b',
    and then c = c' and u = u'.  When col_k = 0, B is the constant 2, and
    2^b is folded into c, leaving b = 0.
    """
    pos = {l: n for n, l in enumerate(seed.labels)}
    cols, new_cols = _columns(seed, pos), _columns(mutated, pos)
    at_k = pos[k]
    col_k = cols[k]
    neg_k = [max(-a, 0) for a in col_k]
    lhs, rhs = [], []
    for i in seed.labels:
        if i == k:
            lhs.append((1, tuple(-a for a in col_k), 0))
        else:
            e = cols[i][at_k]
            p = max(e, 0)
            lhs.append((1, tuple(a + p * c + e * m for a, c, m in zip(cols[i], col_k, neg_k)), -e))
        u = new_cols[i]
        b = u[at_k]
        u[at_k] = -b
        rhs.append((1, tuple(u), b))
    if not any(col_k):
        lhs, rhs = ([(Fraction(2) ** b, u, 0) for _, u, b in side] for side in (lhs, rhs))
    return lhs, rhs


def check_ensemble_naturality(seed: Seed, k) -> bool:
    """mu_k^X after the ensemble map equals the ensemble map of the
    mutated seed after mu_k^A, as exact functions of the A variables,
    compared in factored form (``_naturality_sides``).  An unknown or
    frozen k, or a non-integral entry, is a ValueError."""
    mutated = mutate_seed(seed, k)
    lhs, rhs = _naturality_sides(seed, k, mutated)
    return lhs == rhs


def seed_x_context(seed: Seed) -> TorusContext:
    return classical_context(tuple(f"X[{l}]" for l in seed.labels))


def seed_a_context(seed: Seed) -> TorusContext:
    return classical_context(tuple(f"A[{l}]" for l in seed.labels))


def a_assignment(seed: Seed) -> dict:
    """The generators of ``seed_a_context(seed)`` as rational functions."""
    ctx = seed_a_context(seed)
    return {l: RationalLaurent(ctx.generator(i)) for i, l in enumerate(seed.labels)}


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
        e = _integral(seed.entry(k, i))
        out[i] = assignment[i] * xk ** max(e, 0) * (1 + xk) ** (-e)
    return out


def mutate_A_classical(assignment: dict, seed: Seed, k) -> dict:
    """A_k -> A_k^-1 (prod A_j^[eps_jk]+ + prod A_j^[-eps_jk]+), over
    field elements, unsimplified."""
    out = dict(assignment)
    plus = 1
    minus = 1
    for j in seed.labels:
        e = _integral(seed.entry(j, k))
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
                expr *= a_vals[j] ** _integral(e)
        out[i] = expr
    return out


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
