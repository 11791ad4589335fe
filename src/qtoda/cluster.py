"""Cluster seeds of words, mutations, the tau-move search and the
classical ensemble checks.

A seed stores its exchange matrix in one immutable format: ``flat``,
the m^2 entries row by row in label order, next to the labels, a
read-only mapping of symmetrizers and a frozen set.  Entries are exact:
cylinder seeds are integral and store plain ints, and a ``Fraction``
appears only for the half-weight entries of disk seeds (the boundary
arrows of the face rules, before ``amalgamate_pairs`` glues them).
``Seed.eps`` is a view, a new dict of the nonzero entries keyed by label
pairs.  Every seed, built from a dict or by a mutation, passes the one
skew-symmetrizability check of the constructor, and since nothing can
change it afterwards, it stays checked.  Edge weights in the drawn
quiver are w_ij = eps_ij d_j.

One kernel, ``_mutate``, mutates a flat matrix: it flips the row and
column of the mutated position, adds sgn(a) a b to the entries they
feed, and checks each pair it writes once: eps_ij d_j = -eps_ji d_i is
one condition on both entries of a pair, and it writes (i, j) exactly
when it writes (j, i).  ``mutate_seed`` calls it, and
so does ``mutate_swap``, the signed move tau_k (mutation at -k, then
k <-> -k), which renames two labels without moving an entry.
``mutation_equivalent`` runs one breadth-first search of tau moves from
a base seed for every target, calling the kernel on flat matrices and
comparing them up to relabeling; a matrix met before is skipped.  A new
matrix is first told apart by a cheap invariant (``_invariant``: the
sorted symmetrizer, frozen flag and sorted row of each position).  It is
keyed by its canonical key (``_matrix_key``, which
``Seed.canonical_key`` also calls) only when a class met before, or a
target, has the same invariant.  Equal keys imply equal invariants, so
the walk makes the decisions that keying every matrix would make.

``check_ensemble_naturality`` compares the two sides of the classical
naturality identity in factored form: each is a monomial in the A
variables times a power of the one exchange binomial, read off integer
columns of the exchange matrix, as slices of ``flat``; the mutated
matrix is ``_mutate``'s, and no second seed is built.  The tests build
the same sides as exact rational functions, through the ensemble map
and the classical X and A mutations, as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from types import MappingProxyType

from .network import _doubled_face_weights, symmetrizers
from .words import DoubleWord


@dataclass(frozen=True, init=False)
class Seed:
    """Exchange matrix eps over ``labels``: ``flat[p * m + q]`` is
    eps_ij for the labels i, j at positions p, q.  ``d`` maps each label
    to its symmetrizer, read-only."""

    labels: tuple
    flat: tuple
    d: MappingProxyType
    frozen: frozenset

    def __init__(self, labels, eps: dict, d: dict, frozen=frozenset()):
        labels = tuple(labels)
        m = len(labels)
        pos = {l: p for p, l in enumerate(labels)}
        flat = [0] * (m * m)
        for (i, j), v in eps.items():
            flat[pos[i] * m + pos[j]] = v
        self._set(labels, tuple(flat), MappingProxyType(dict(d)), frozenset(frozen))

    def _set(self, labels, flat, d, frozen):
        vars(self).update(labels=labels, flat=flat, d=d, frozen=frozen)
        self._check()

    def _check(self):
        # eps_ij d_j = -eps_ji d_i; a pair with both entries zero holds
        labels, flat = self.labels, self.flat
        m = len(labels)
        d = [self.d[l] for l in labels]
        for n, a in enumerate(flat):
            if a:
                i, j = divmod(n, m)
                if a * d[j] != -flat[j * m + i] * d[i]:
                    raise ValueError(f"eps not skew-symmetrizable at {(labels[i], labels[j])}")

    def _with(self, flat: tuple, rename: dict) -> "Seed":
        """A new checked seed with entries ``flat`` and every label l
        renamed to rename.get(l, l); no entry moves."""
        ren = rename.get
        seed = object.__new__(Seed)
        seed._set(
            tuple(ren(l, l) for l in self.labels),
            flat,
            MappingProxyType({ren(l, l): v for l, v in self.d.items()}) if rename else self.d,
            frozenset(ren(l, l) for l in self.frozen),
        )
        return seed

    def _positional(self) -> tuple[tuple, tuple]:
        """The symmetrizers and the frozen flags in label order."""
        labels, d, frozen = self.labels, self.d, self.frozen
        return tuple(d[l] for l in labels), tuple(l in frozen for l in labels)

    @property
    def eps(self) -> dict:
        """The nonzero entries keyed by label pairs, as a new dict."""
        labels = self.labels
        m = len(labels)
        return {(labels[n // m], labels[n % m]): v for n, v in enumerate(self.flat) if v}

    def entry(self, i, j) -> int | Fraction:
        labels = self.labels
        return self.flat[labels.index(i) * len(labels) + labels.index(j)]

    def weight(self, i, j) -> int | Fraction:
        """Drawn edge weight w_ij = eps_ij d_j."""
        return self.entry(i, j) * self.d[j]

    def relabeled(self, mapping: dict) -> "Seed":
        return self._with(self.flat, mapping)

    def canonical_key(self):
        """``_matrix_key`` of the entries, row by row in label order."""
        return _matrix_key(self.flat, *self._positional())

    def is_isomorphic(self, other: "Seed") -> bool:
        return self.canonical_key() == other.canonical_key()


def _matrix_key(flat: tuple, d: tuple, frozen: tuple):
    """Canonical key of a flat m x m matrix whose positions carry the
    symmetrizers d and frozen flags: the lexicographically minimal
    encoding over d-preserving reorderings of the positions.

    Positions are first partitioned by (d, frozen, sorted multiset of
    nonzero (eps_ij, d_j) in the row) to cut the permutation search
    down; quivers are compared only up to relabeling.
    """
    m = len(d)
    rows = [flat[p * m : p * m + m] for p in range(m)]
    groups: dict = {}
    for p, row in enumerate(rows):
        sig = (d[p], frozen[p], tuple(sorted([(v, dq) for v, dq in zip(row, d) if v])))
        groups.setdefault(sig, []).append(p)
    blocks = [groups[k] for k in sorted(groups)]
    # d and the frozen flags are constant on each block
    order = [p for block in blocks for p in block]
    dkey = tuple([d[p] for p in order])
    fkey = tuple([frozen[p] for p in order])
    # all blocks of one position leave one ordering: no search
    choices = product(*map(permutations, blocks)) if len(blocks) < m else [(order,)]
    best = None
    for perms in choices:
        picked = [p for perm in perms for p in perm]
        key = tuple([tuple([row[b] for b in picked]) for row in map(rows.__getitem__, picked)])
        if best is None or key < best:
            best = key
    return dkey, fkey, best


def seed_from_word(kind: str, word: DoubleWord) -> Seed:
    """Cylinder cluster seed of a word: faces of the bottom rows with
    the arrow rules applied and the cut faces amalgamated."""
    n = word.n
    d_roots = symmetrizers(kind, n)
    labels = tuple(range(-n, 0)) + tuple(range(1, n + 1))
    d = {l: d_roots[abs(l) - 1] for l in labels}
    eps = {}
    # the doubled weights are 2 w_ij, and eps_ij = w_ij / d_j
    for (i, j), w2 in _doubled_face_weights(kind, word, False).items():
        e, r = divmod(w2, 2 * d[j])
        if r:
            raise ValueError(f"non-integer exchange entry at {(i, j)}")
        eps[(i, j)] = e
    return Seed(labels, eps, d, frozenset())


def disk_seed_from_word(kind: str, word: DoubleWord) -> Seed:
    """Open-network seed: the outer face of each strip is split at the
    cut into frozen faces (\"L\", k), (\"R\", k); entries may be halves."""
    n = word.n
    d_roots = symmetrizers(kind, n)
    labels = tuple(range(-n, 0)) + tuple(
        lab for k in range(1, n + 1) for lab in (("L", k), ("R", k))
    )
    d = {}
    for l in labels:
        d[l] = d_roots[abs(l) - 1] if isinstance(l, int) else d_roots[l[1] - 1]
    eps = {}
    # the doubled weights are 2 w_ij, and eps_ij = w_ij / d_j
    for (i, j), w2 in _doubled_face_weights(kind, word, True).items():
        val = Fraction(w2, 2 * d[j])
        eps[(i, j)] = val if val.denominator != 1 else val.numerator
    return Seed(labels, eps, d, frozenset(l for l in labels if not isinstance(l, int)))


def amalgamate_pairs(seed: Seed, pairs: list[tuple], new_labels: list) -> Seed:
    """Self-amalgamation: merge frozen vertex pairs inside one seed."""
    rename = {}
    for (a, b), lab in zip(pairs, new_labels):
        if a not in seed.frozen or b not in seed.frozen:
            raise ValueError("can only merge frozen vertices")
        rename[a] = lab
        rename[b] = lab
    d = {}  # its keys, in order, are the new labels
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
    return Seed(tuple(d), {k: v for k, v in eps.items() if v != 0}, d, frozen)


# ---------------------------------------------------------------------------
# mutation


def _mutate(flat: tuple, labels: tuple, d: tuple, frozen: tuple, k) -> tuple:
    """Matrix mutation at the vertex named k of the flat matrix whose
    positions carry the names ``labels``, symmetrizers d and frozen
    flags, skew-symmetrizable with positive d as every seed's is.  Each
    pair written is checked once, eps_ij d_j = -eps_ji d_i, as the seed
    constructor does, so the result is skew-symmetrizable too."""
    if k not in labels:
        raise ValueError(f"no vertex {k!r} to mutate at")
    p = labels.index(k)
    if frozen[p]:
        raise ValueError(f"cannot mutate at frozen index {k!r}")
    m = len(labels)
    base = p * m
    out = list(flat)
    row = [(j, b) for j, b in enumerate(flat[base : base + m]) if b]
    col = [(i, a) for i, a in enumerate(flat[p::m]) if a]
    # flip row and column p; eps_ij gains sgn(eps_ip) eps_ip eps_pj only
    # where eps_ip and eps_pj are nonzero with one sign.  Column p is
    # nonzero where row p is, and (i, j) gains a term exactly when (j, i)
    # does, so a pair is listed once, as (p, j) or with i < j
    written = []
    for j, b in row:
        out[base + j] = -b
        written.append((p, j))
    for i, a in col:
        out[i * m + p] = -a
    for i, a in col:
        for j, b in row:
            if i != j and (a > 0) == (b > 0):
                out[i * m + j] += a * b if a > 0 else -a * b
                if i < j:
                    written.append((i, j))
    for i, j in written:
        if out[i * m + j] * d[j] != -out[j * m + i] * d[i]:
            raise ValueError(f"eps not skew-symmetrizable at {(labels[i], labels[j])}")
    return tuple(out)


def mutate_seed(seed: Seed, k) -> Seed:
    """Matrix mutation at a mutable index; symmetrizers unchanged."""
    return seed._with(_mutate(seed.flat, seed.labels, *seed._positional(), k), {})


def mutate_swap(seed: Seed, k: int) -> tuple[Seed, dict]:
    """Mutation at vertex -k followed by the k <-> -k relabeling, built
    as one seed.

    Returns the new seed and the relabeling applied, so callers can
    track index bookkeeping across sequences of moves.
    """
    swap = {k: -k, -k: k}
    return seed._with(_mutate(seed.flat, seed.labels, *seed._positional(), -k), swap), swap


def _invariant(flat: tuple, d: tuple, frozen: tuple, ids: dict) -> tuple:
    """A cheap isomorphism invariant of a flat m x m matrix whose
    positions carry the symmetrizers d and frozen flags: the sorted
    (symmetrizer, frozen flag, sorted row entries) triples of its
    positions, each written as its number in ``ids``.  ``ids`` numbers
    every triple met so far and gains the new ones, so two invariants
    compare only under one ``ids``.

    The triples are read off ``_matrix_key``'s value too, so matrices
    with equal keys have equal invariants, and different invariants mean
    different classes."""
    rows = map(tuple, map(sorted, zip(*[iter(flat)] * len(d))))
    return tuple(sorted([ids.setdefault(t, len(ids)) for t in zip(d, frozen, rows)]))


def _tau_orbit(seed: Seed, max_depth: int, ids: dict):
    """Breadth-first walk over tau moves from seed: yields (invariant,
    flat matrix, first move sequence reaching it) for one matrix of each
    isomorphism class within max_depth moves, seed's first with [].
    Invariants are numbered in ``ids`` (see ``_invariant``).

    The walk holds flat matrices with the names of their positions, not
    seeds; a matrix met before is skipped.  A new matrix whose invariant
    no class has yet is a new class, and is not keyed.  One whose
    invariant is shared is keyed (``_matrix_key``) and compared with the
    keys of the classes holding that invariant, each keyed once.
    """
    d, frozen = seed._positional()
    ranks = sorted({abs(l) for l in seed.labels if isinstance(l, int)})
    inv = _invariant(seed.flat, d, frozen, ids)
    yield inv, seed.flat, []
    # invariant -> the flat matrix of the one class met with it, unkeyed,
    # or the set of keys of the classes met with it once another shares it
    classes = {inv: seed.flat}
    met = {seed.flat}
    frontier = [(seed.flat, seed.labels, [])]
    for _ in range(max_depth):
        nxt = []
        for flat, names, hist in frontier:
            for k in ranks:
                cand = _mutate(flat, names, d, frozen, -k)
                if cand in met:
                    continue
                met.add(cand)
                inv = _invariant(cand, d, frozen, ids)
                held = classes.setdefault(inv, cand)
                if held is not cand:
                    if type(held) is tuple:
                        held = classes[inv] = {_matrix_key(held, d, frozen)}
                    key = _matrix_key(cand, d, frozen)
                    if key in held:
                        continue
                    held.add(key)
                path = hist + [("tau", k)]
                yield inv, cand, path
                nxt.append((cand, tuple([-l if l == k or l == -k else l for l in names]), path))
        frontier = nxt


def mutation_equivalent(s1: Seed, targets, max_depth: int) -> list:
    """One breadth-first search over tau moves from s1 for every target.

    Returns one entry per target: the first move sequence found that
    carries s1 to the target up to relabeling (equal ``canonical_key``),
    [] for a target isomorphic to s1, or None when no sequence of at
    most max_depth moves does.  The walk order does not depend on the
    targets, so each sequence is the one a search for that target alone
    finds; the walk stops as soon as every target is reached.  A class
    the walk meets is keyed only when its invariant is a target's.
    """
    keys = [t.canonical_key() for t in targets]
    ids: dict = {}
    wanted: dict = {}
    for t, key in zip(targets, keys):
        wanted.setdefault(_invariant(t.flat, *t._positional(), ids), set()).add(key)
    found: dict = {}
    if keys:
        d, frozen = s1._positional()
        distinct = len(set(keys))
        for inv, flat, path in _tau_orbit(s1, max_depth, ids):
            if inv in wanted and (key := _matrix_key(flat, d, frozen)) in wanted[inv]:
                found[key] = path
                if len(found) == distinct:
                    break
    return [found.get(key) for key in keys]


# ---------------------------------------------------------------------------
# ensemble naturality
#
# ``check_ensemble_naturality`` compares both sides of the identity in
# factored form, on integer vectors.  Its oracle, which builds the same
# sides as exact rational functions, lives in the tests.


def _integral(e) -> int:
    if e.denominator != 1:
        raise ValueError("classical mutation needs integral entries")
    return int(e)


def _naturality_sides(seed: Seed, k, mutated: tuple) -> tuple[list, list]:
    """Both sides of the naturality identity at k, one (c, u, b) per
    label, read off integer columns; ``mutated``, a flat matrix with the
    labels of seed in the same order, is taken as mu_k(seed).

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
    # an all-int tuple (every cylinder seed's) as it is, else each entry through _integral
    flat, new = (f if all(type(v) is int for v in f) else tuple(map(_integral, f)) for f in (seed.flat, mutated))
    m = len(seed.labels)
    at_k = seed.labels.index(k)
    col_k = flat[at_k::m]
    neg_k = [-a if a < 0 else 0 for a in col_k]
    lhs, rhs = [], []
    for i, e in enumerate(flat[at_k * m : at_k * m + m]):
        col = flat[i::m]
        if i == at_k:
            lhs.append((1, tuple([-a for a in col_k]), 0))
        elif e:
            p = e if e > 0 else 0
            lhs.append((1, tuple([a + p * c + e * n for a, c, n in zip(col, col_k, neg_k)]), -e))
        else:
            lhs.append((1, col, 0))
        u = new[i::m]
        b = u[at_k]
        rhs.append((1, u[:at_k] + (-b,) + u[at_k + 1 :], b))
    if not any(col_k):
        lhs, rhs = ([(Fraction(2) ** b, u, 0) for _, u, b in side] for side in (lhs, rhs))
    return lhs, rhs


def check_ensemble_naturality(seed: Seed, k) -> bool:
    """mu_k^X after the ensemble map equals the ensemble map of the
    mutated seed after mu_k^A, as exact functions of the A variables,
    compared in factored form (``_naturality_sides``).  An unknown or
    frozen k, or a non-integral entry, is a ValueError.  The mutated
    matrix is ``_mutate``'s, not a second seed: its unwritten entries are
    the checked seed's and ``_mutate`` checks every pair it writes."""
    mutated = _mutate(seed.flat, seed.labels, *seed._positional(), k)
    lhs, rhs = _naturality_sides(seed, k, mutated)
    return lhs == rhs
