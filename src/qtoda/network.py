"""Directed chip networks for types A_n and C_n on a cylinder.

A word's chips are glued left to right: one chip per negative letter
(slanted edge of weight 1), the diagonal chip, then one chip per
positive letter (slanted edge of weight c_k).  Type C chips carry a
mirrored copy of each short-letter slant in the upper half.  The left
and right boundaries are identified, so sources and sinks pair by row
and closed strands are enumerated as source-to-same-row paths that
cross the cut once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .torus import (
    TorusContext,
    TorusElement,
    Vec,
    _grid_key,
    _pairing_row,
    classical_context,
)
from .words import DoubleWord

Letters = tuple[tuple[int, int], ...]

FAMILY_CAP_ENV = "QTODA_MAX_FAMILIES"


def symmetrizers(kind: str, n: int) -> tuple[int, ...]:
    """d_1..d_n: all 1 for type A; the type C long root n carries 2."""
    if kind == "A":
        return (1,) * n
    if kind == "C":
        return (1,) * (n - 1) + (2,)
    raise ValueError(f"unknown type {kind!r}")


@dataclass(frozen=True)
class Network:
    """Chip network on rows row_lo..row_hi with its strand table.

    ``strands`` is the sorted table of ``enumerate_labeled_paths``, found
    once by ``build_network``.
    """

    kind: str
    n: int
    word: DoubleWord
    ctx: TorusContext
    row_lo: int
    row_hi: int
    strands: tuple[LabeledPath, ...] = field(compare=False, repr=False)

    @property
    def rows(self) -> range:
        return range(self.row_lo, self.row_hi + 1)

    @property
    def num_rows(self) -> int:
        return self.row_hi - self.row_lo + 1

    @property
    def num_chips(self) -> int:
        return 2 * self.n + 1

    def t_index(self, j: int) -> int:
        return j - 1

    def c_index(self, j: int) -> int:
        return self.n + j - 1

    # -- chip combinatorics ------------------------------------------------

    def chip_letter(self, pos: int) -> int:
        """Word letter at a chip position; 0 marks the diagonal chip."""
        if pos == self.n:
            return 0
        return self.word.letters[pos if pos < self.n else pos - 1]

    def diagonal_letters(self, row: int) -> Letters:
        n, kind = self.n, self.kind
        if kind == "A" or row <= n:
            out = []
            if row >= 2:
                out.append((self.t_index(row - 1), -1))
            if row <= n:
                out.append((self.t_index(row), 1))
            return tuple(out)
        out = []
        if 2 * n - row >= 1:
            out.append((self.t_index(2 * n - row), 1))
        out.append((self.t_index(2 * n + 1 - row), -1))
        return tuple(out)

    def slants(self, pos: int) -> list[tuple[int, int, Letters]]:
        """Slant transitions (row_from, row_to, letters) of a chip."""
        letter = self.chip_letter(pos)
        if letter == 0:
            return []
        k, n = abs(letter), self.n
        out: list[tuple[int, int, Letters]] = []
        if letter < 0:
            out.append((k + 1, k, ()))
            if self.kind == "C" and k < n:
                out.append((2 * n + 1 - k, 2 * n - k, ()))
        else:
            c = ((self.c_index(k), 1),)
            out.append((k, k + 1, c))
            if self.kind == "C" and k < n:
                out.append((2 * n - k, 2 * n + 1 - k, c))
        return out

    def transitions(self, pos: int) -> dict[int, list[tuple[int, Letters]]]:
        """Allowed row moves through one chip, restricted to the row range."""
        out: dict[int, list[tuple[int, Letters]]] = {}
        for r in self.rows:
            if self.chip_letter(pos) == 0:
                out[r] = [(r, self.diagonal_letters(r))]
            else:
                out[r] = [(r, ())]
        for r_from, r_to, letters in self.slants(pos):
            if r_from in out and self.row_lo <= r_to <= self.row_hi:
                out[r_from] = out[r_from] + [(r_to, letters)]
        return out


@dataclass(frozen=True)
class LabeledPath:
    """Closed strand through the cylinder cut at a fixed row.

    ``rows[i]`` is the row at chip boundary i; the strand starts and
    ends at the cut, so rows[0] == rows[-1] == source.  The label is
    (lowest row, source row).
    """

    source: int
    low: int
    rows: tuple[int, ...]
    letters: Letters

    @property
    def label(self) -> tuple[int, int]:
        return (self.low, self.source)

    def vertices(self) -> frozenset[tuple[int, int]]:
        m = len(self.rows) - 1
        return frozenset((i % m, r) for i, r in enumerate(self.rows))


def build_network(kind: str, word: DoubleWord) -> Network:
    """Assemble the cylinder network and its weight quantum torus."""
    if kind not in ("A", "C"):
        raise ValueError(f"unknown type {kind!r}")
    n = word.n
    rows = n + 1 if kind == "A" else 2 * n
    ctx = weight_context(kind, word)
    net = Network(kind, n, word, ctx, 1, rows, ())
    return replace(net, strands=_search_strands(net))


def weight_context(kind: str, word: DoubleWord) -> TorusContext:
    """Quantum torus on t_1..t_n, c_1..c_n.

    The t's are central among themselves, s(c_j, t_j) = -d_j, and
    s(c_j, c_k) is minus the quiver weight between the positive face
    vertices j and k of the word's cluster quiver.  The matrix is built
    as 2s, on the doubled grid of ``_doubled_face_weights``, then halved.
    """
    n = word.n
    d = symmetrizers(kind, n)
    omega2 = _doubled_face_weights(kind, word, False)
    names = tuple(f"t_{j}" for j in range(1, n + 1)) + tuple(
        f"c_{j}" for j in range(1, n + 1)
    )
    m = 2 * n
    skew2 = [[0] * m for _ in range(m)]
    for j in range(1, n + 1):
        skew2[n + j - 1][j - 1] = -2 * d[j - 1]
        skew2[j - 1][n + j - 1] = 2 * d[j - 1]
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j != k:
                skew2[n + j - 1][n + k - 1] = -omega2.get((j, k), 0)
    halves = {x: Fraction(x, 2) for x in {x for row in skew2 for x in row}}
    return TorusContext(names, tuple(tuple(halves[x] for x in row) for row in skew2))


# ---------------------------------------------------------------------------
# cluster quiver weights read off the network faces


def _colored_row(word: DoubleWord, kind: str, n: int, r: int) -> list[tuple[int, str]]:
    """Slant endpoints on row r of the bottom n+1 rows, as (column, color).

    Orange marks a slant tail, black a slant head.  For type C the top
    boundary row n+1 also carries the mirror slants of letter n-1.
    """
    out = []
    if 1 <= r - 1 <= n:
        out.append((word.position(-(r - 1)), "or"))
        out.append((word.position(r - 1), "bk"))
    if r <= n:
        out.append((word.position(-r), "bk"))
        out.append((word.position(r), "or"))
    if kind == "C" and r == n + 1 and n >= 2:
        out.append((word.position(-(n - 1)), "bk"))
        out.append((word.position(n - 1), "or"))
    return sorted(out)


_ROW_RULES = {
    # (tail color, head color) -> (source side, doubled weight); sides are "above"/"below"
    ("or", "bk"): ("above", 2),
    ("bk", "or"): ("below", 2),
    ("bl", "bk"): ("above", 1),
    ("bl", "or"): ("below", 1),
    ("bk", "rd"): ("below", 1),
    ("or", "rd"): ("above", 1),
}


def _doubled_face_weights(kind: str, word: DoubleWord, disk: bool) -> dict[tuple, int]:
    """Antisymmetric quiver edge weights from the face-arrow rules, doubled
    to ints, with every column doubled as well, so that the midpoint of two
    columns and a half weight are integers.

    Cylinder mode returns weights on the labels -n..-1, 1..n.  Disk mode
    keeps the outer face of each strip split at the cut into frozen
    faces ("L", k) and ("R", k); amalgamating those pairs reproduces the
    cylinder weights.
    """
    n = word.n
    d = symmetrizers(kind, n)
    cols = {k: (2 * word.position(-k), 2 * word.position(k)) for k in range(1, n + 1)}

    def face(k: int, col2: int):
        a, b = cols[k]
        if a < col2 < b:
            return -k
        if disk:
            return ("L", k) if col2 < a else ("R", k)
        return k

    weights: dict[tuple, int] = {}

    def add(src, dst, w: int):
        if src == dst:
            return
        weights[(src, dst)] = weights.get((src, dst), 0) + w
        weights[(dst, src)] = weights.get((dst, src), 0) - w

    # arrows across slanted edges: mid face to outer face, weight d_k each.
    # The down slant borders the outer face on its west, the up slant on
    # its east; on the cylinder both outer pieces are the face +k.
    for k in range(1, n + 1):
        west = ("L", k) if disk else k
        east = ("R", k) if disk else k
        add(-k, west, 2 * d[k - 1])
        add(-k, east, 2 * d[k - 1])

    # arrows across horizontal edges between adjacent strips
    top_row = n if kind == "A" else n + 1
    for r in range(2, top_row + 1):
        below_k = r - 1
        above_k = r if r <= n else n - 1
        if above_k < 1:
            continue
        verts = _colored_row(word, kind, n, r)
        chain = [(-1, "bl")] + verts + [(2 * n + 1, "rd")]
        for (c1, col1), (c2, col2) in zip(chain, chain[1:]):
            rule = _ROW_RULES.get((col1, col2))
            if rule is None:
                continue
            side, w = rule
            mid2 = c1 + c2  # twice the midpoint column
            f_below = face(below_k, mid2)
            f_above = face(above_k, mid2)
            if side == "above":
                add(f_above, f_below, w)
            else:
                add(f_below, f_above, w)

    return {k: v for k, v in weights.items() if v}


# ---------------------------------------------------------------------------
# paths, families, Hamiltonians


def enumerate_labeled_paths(net: Network) -> tuple[LabeledPath, ...]:
    """All closed strands, one cut crossing, sorted by (low, source) label.

    The table is stored on the network; ``build_network`` raises if two
    distinct strands share a label, since the correspondence machinery
    relies on labels determining strands uniquely.
    """
    return net.strands


def _search_strands(net: Network) -> tuple[LabeledPath, ...]:
    """Search for the strand table of ``enumerate_labeled_paths``.

    At each chip a strand keeps its row or takes a lettered move: a slant
    that stays in the row range, or the diagonal chip's letters, which
    replace its plain moves.  The search runs chip by chip from each
    source over a frontier of (row, last lettered move), where a move
    (chip, row after it, letters, the move before) points to its parent,
    so nothing is copied while extending.  ``reach[pos][r]``, the bit set
    of rows at the cut that row r can still reach after ``pos`` chips,
    keeps only strands that close.
    """
    lo, hi, chips, diagonal = net.row_lo, net.row_hi, net.num_chips, net.n
    lettered: list[dict[int, list[tuple[int, Letters]]]] = []
    for pos in range(chips):
        if pos == diagonal:
            lettered.append({r: [(r, net.diagonal_letters(r))] for r in net.rows})
            continue
        moves: dict[int, list[tuple[int, Letters]]] = {}
        for r_from, r_to, letters in net.slants(pos):
            if lo <= r_from <= hi and lo <= r_to <= hi:
                moves.setdefault(r_from, []).append((r_to, letters))
        lettered.append(moves)
    reach = [{r: 1 << r for r in net.rows}]
    for pos in range(chips - 1, -1, -1):
        ahead = reach[-1]
        here = dict(ahead) if pos != diagonal else dict.fromkeys(net.rows, 0)
        for r, moves in lettered[pos].items():
            for r2, _ in moves:
                here[r] |= ahead[r2]
        reach.append(here)
    reach.reverse()

    paths: list[LabeledPath] = []
    for source in net.rows:
        bit = 1 << source
        frontier = [(source, None)]
        for pos in range(chips):
            ok, moves, plain = reach[pos + 1], lettered[pos], pos != diagonal
            grown = []
            for entry in frontier:
                row, last = entry
                if plain and ok[row] & bit:
                    grown.append(entry)
                for r2, letters in moves.get(row, ()):
                    if ok[r2] & bit:
                        grown.append((r2, (pos, r2, letters, last)))
            frontier = grown
        for _, last in frontier:
            rows = [source] * (chips + 1)
            parts = []
            end = chips
            while last is not None:
                pos, row, letters, last = last
                rows[pos + 1 : end + 1] = [row] * (end - pos)
                parts.append(letters)
                end = pos
            parts.reverse()
            paths.append(LabeledPath(source, min(rows), tuple(rows), sum(parts, ())))
    seen: dict[tuple[int, int], LabeledPath] = {}
    for p in paths:
        if p.label in seen:
            raise RuntimeError(f"two distinct paths share label {p.label}")
        seen[p.label] = p
    return tuple(sorted(paths, key=lambda p: p.label))


def weight_vector(net: Network, path: LabeledPath) -> Vec:
    """Exponent vector of the strand's Weyl-ordered weight
    ``net.ctx.weyl(path.letters)``: its letters summed."""
    v = [0] * net.ctx.rank
    for g, e in path.letters:
        v[g] += e
    return tuple(v)


def _vertex_mask(path: LabeledPath, width: int) -> int:
    """``path.vertices()`` as one int: vertex (i, row) is bit i*width + row.
    The last chip boundary is the first one again, at the source row."""
    mask = 0
    for i, r in enumerate(path.rows[:-1]):
        mask |= 1 << (i * width + r)
    return mask


def _fold_families(net: Network, sizes, entries: dict, start, step):
    """Fold ``step`` from ``start`` over the members, bottom row first, of
    each vertex-disjoint family with sources = sinks = I, for every |I| in
    ``sizes``; yields (|I|, fold).

    One depth-first search walks the row subsets of all sizes up to the
    largest wanted one, each size in ``combinations`` order.  A partial
    family (its members' mask union and fold) is built once, yielded if
    its size is wanted, and extended for every subset that begins with
    its rows while a wanted size is still within reach.  ``entries`` maps
    strand labels to (vertex mask, datum); only this network's strands
    are read, so a band can pass its parent's entries.  The family cap
    bounds the families of each size.
    """
    cap = int(os.environ.get(FAMILY_CAP_ENV, "1000000"))
    by_row: dict[int, list] = {}
    for p in net.strands:
        by_row.setdefault(p.source, []).append(entries[p.label])
    rows = [by_row[r] for r in net.rows if r in by_row]
    wanted = set(sizes)
    top = max(wanted, default=0)
    # need[d]: the least wanted size above d chosen rows, if any
    need = [min((s for s in wanted if s > d), default=None) for d in range(top + 1)]
    counts = dict.fromkeys(wanted, 0)
    if 0 in wanted:
        if cap < 1:
            raise _cap_error(cap)
        yield 0, start
    stack = [([(0, start)], 0)]  # per chosen row: partial families, next row
    while stack:
        partial, k = stack[-1]
        depth = len(stack) - 1
        reach = need[depth]
        if reach is None or k > len(rows) - (reach - depth):
            stack.pop()
            continue
        stack[-1] = (partial, k + 1)
        grown = [
            (used | mask, step(acc, datum))
            for used, acc in partial
            for mask, datum in rows[k]
            if not used & mask
        ]
        if not grown:
            continue
        size = depth + 1
        if size in wanted:
            room = cap - counts[size]
            counts[size] += len(grown)
            for _, acc in grown[:room]:
                yield size, acc
            if len(grown) > room:
                raise _cap_error(cap)
        if size < top:
            stack.append((grown, k + 1))


def _cap_error(cap: int) -> RuntimeError:
    """A plain RuntimeError for library callers; ``limit`` names the cap,
    so the command line reports a resource limit."""
    exc = RuntimeError(f"family enumeration exceeded {FAMILY_CAP_ENV}={cap}")
    exc.limit = FAMILY_CAP_ENV
    return exc


def path_families(net: Network, size: int):
    """Vertex-disjoint families with sources = sinks = I, |I| = size, as
    member tuples, bottom row first."""
    width = net.row_hi + 1
    entries = {p.label: (_vertex_mask(p, width), p) for p in net.strands}
    found = _fold_families(net, (size,), entries, (), lambda fam, p: fam + (p,))
    return (fam for _, fam in found)


@dataclass(frozen=True)
class StrandTable:
    """Per-strand data of ``strand_table`` for folds into ``target``."""

    target: TorusContext
    entries: dict


def strand_table(net: Network, target: TorusContext | None = None, image=None) -> StrandTable:
    """Per strand label: vertex mask and (u, r, p, b) for the weight
    vector w, the image q^p E(v) in ``target``, the nonzero entries u of
    w + v, the pairing row r = den*(w s) * key_scale and the strand's rows
    b as a bit set.  ``image(label)`` gives (p, v) with p a ``target``
    q-key, by default the identity (0, w).  key_scale = target.den /
    net.ctx.den as in ``MonomialMap``.  Bands of ``net`` reuse the table."""
    target = target or net.ctx
    scale = _grid_key(Fraction(target.den, net.ctx.den))
    width = net.row_hi + 1
    entries = {}
    for p in net.strands:
        w = weight_vector(net, p)
        key, v = image(p.label) if image else (0, w)
        r = [(j, x * scale) for j, x in _pairing_row(net.ctx.rows, w)]
        bits = 0
        for row in p.rows:
            bits |= 1 << row
        u = [(j, x) for j, x in enumerate(w + v) if x]
        entries[p.label] = (_vertex_mask(p, width), (u, r, key, bits))
    return StrandTable(target, entries)


def _extend(acc, datum):
    """Put a strand left of a family: E(w) E(W) = q^<w,W> E(w + W); the
    family's rows gain the strand's."""
    WT, key, bits = acc
    u, r, p, b = datum
    for j, x in r:
        key += x * WT[j]
    vec = list(WT)
    for j, x in u:
        vec[j] += x
    return tuple(vec), key + p, bits | b


def _start(net: Network, table: StrandTable):
    return (net.ctx.unit_vec() + table.target.unit_vec(), 0, 0)


def fold_hamiltonians(net: Network, sizes, table: StrandTable) -> dict[int, TorusElement]:
    """Per index i in ``sizes``, the sum over size-i vertex-disjoint
    families of the image in ``table.target`` of their weight product, top
    row first, from one family search.

    A family folds W + T = sum (w + v) and the q-key K key_scale + P,
    with K = den * sum <w_s, w_t> over members s above t and P = sum p.
    Its term q^(K key_scale + P) E(T) is ``MonomialMap.apply`` of its
    product on the label torus.  This is ``fold_bands`` with the whole
    network as its one band.
    """
    return fold_bands(net, {(net.row_lo, net.row_hi): sizes}, table)[net.row_lo, net.row_hi]


def fold_bands(net: Network, bands: dict, table: StrandTable) -> dict:
    """Per band (lo, hi) -> indices, ``fold_hamiltonians`` of the
    network induced on rows lo..hi (its strands the parent's strands that
    stay inside the band) for those indices, from one family search of
    ``net``.

    A band's families are the families of ``net`` whose rows lie in the
    band, with the same folds: each family of the search adds its term to
    every band that holds its rows.
    """
    for lo, hi in bands:
        if not (net.row_lo <= lo <= hi <= net.row_hi):
            raise ValueError("row range out of bounds")
        for i in bands[lo, hi]:
            if not 1 <= i <= hi - lo + 1:
                raise ValueError(f"hamiltonian index {i} out of range")
    m = net.ctx.rank
    outs = {band: {i: {} for i in sizes} for band, sizes in bands.items()}
    # per size: (rows outside the band as a bit set, the band's map)
    every = (1 << (net.row_hi + 1)) - 1
    targets: dict[int, list] = {}
    for (lo, hi), by_size in outs.items():
        outside = every & ~((1 << (hi + 1)) - (1 << lo))
        for i, out in by_size.items():
            targets.setdefault(i, []).append((outside, out))
    search = _fold_families(net, targets, table.entries, _start(net, table), _extend)
    for i, (WT, key, bits) in search:
        vec = WT[m:]
        for outside, out in targets[i]:
            if bits & outside:
                continue
            coeffs = out.get(vec)
            if coeffs is None:
                out[vec] = {key: 1}
            else:
                coeffs[key] = coeffs.get(key, 0) + 1
    return {
        band: {i: TorusElement._make(table.target, out) for i, out in by_size.items()}
        for band, by_size in outs.items()
    }


def network_hamiltonian(net: Network, i: int) -> TorusElement:
    """Sum over size-i vertex-disjoint families of their weights."""
    return fold_hamiltonians(net, (i,), strand_table(net))[i]


# ---------------------------------------------------------------------------
# classical transfer matrices (q -> 1 oracle)


def classical_matrix(net: Network) -> list[list[TorusElement]]:
    """Path-sum matrix on the open (disk) network: entry (i,j) sums the
    commutative weights of all chip paths from source row i to sink j."""
    ctx = classical_context(net.ctx.names)
    rows = list(net.rows)
    zero = ctx.zero()
    # state: row -> accumulated Laurent, evolved chip by chip
    mat = []
    for src in rows:
        state = {src: ctx.one()}
        for pos in range(net.num_chips):
            nxt: dict[int, TorusElement] = {}
            trans = net.transitions(pos)
            for row, val in state.items():
                for row2, letters in trans[row]:
                    nxt[row2] = nxt.get(row2, zero) + val * ctx.weyl(letters)
            state = nxt
        mat.append([state.get(r, zero) for r in rows])
    return mat


def reference_chip_matrices(net: Network) -> list[list[list[TorusElement]]]:
    """Transfer matrices of the displayed group elements, per chip."""
    ctx = classical_context(net.ctx.names)
    rows = list(net.rows)
    size = len(rows)
    n = net.n
    mats = []
    for pos in range(net.num_chips):
        letter = net.chip_letter(pos)
        m = [[ctx.one() if i == j else ctx.zero() for j in range(size)] for i in range(size)]
        if letter == 0:
            for i, r in enumerate(rows):
                m[i][i] = ctx.weyl(net.diagonal_letters(r))
        else:
            k = abs(letter)
            pairs = [(k + 1, k)] if letter < 0 else [(k, k + 1)]
            if net.kind == "C" and k < n:
                pairs.append(
                    (2 * n + 1 - k, 2 * n - k) if letter < 0 else (2 * n - k, 2 * n + 1 - k)
                )
            w = ctx.one() if letter < 0 else ctx.generator(net.c_index(k))
            for a, b in pairs:
                if a in rows and b in rows:
                    m[rows.index(a)][rows.index(b)] = w
        mats.append(m)
    return mats


def matrix_product(mats):
    acc = mats[0]
    for m in mats[1:]:
        size = len(acc)
        nxt = []
        for i in range(size):
            row = []
            for j in range(size):
                cell = None
                for k in range(size):
                    term = acc[i][k] * m[k][j]
                    cell = term if cell is None else cell + term
                row.append(cell)
            nxt.append(row)
        acc = nxt
    return acc
