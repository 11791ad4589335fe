from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from qtoda import network
from qtoda.correspondence import lax_strand_table
from qtoda.network import (
    FAMILY_CAP_ENV,
    LabeledPath,
    _colored_row,
    _fold_families,
    _search_strands,
    _vertex_mask,
    build_network,
    classical_matrix,
    enumerate_labeled_paths,
    face_weights,
    fold_hamiltonian,
    fold_hamiltonians,
    matrix_product,
    network_hamiltonian,
    path_families,
    quantized_path_weight,
    reference_chip_matrices,
    strand_table,
    subnetwork,
    symmetrizers,
    weight_context,
)
from qtoda.serialize import network_to_dict, network_to_dot
from qtoda.torus import CommutativeLaurent, TorusContext, TorusElement, specialize_classical
from qtoda.words import enumerate_double_coxeter, standard_word, word_of_quiver_vector


def all_words(n):
    return enumerate_double_coxeter(n)


def test_a1_paths_and_weights():
    net = build_network("A", standard_word(1))
    paths = {p.label: p for p in enumerate_labeled_paths(net)}
    assert set(paths) == {(1, 1), (2, 2), (1, 2)}
    t1 = net.ctx.generator(net.t_index(1))
    c1 = net.ctx.generator(net.c_index(1))
    assert quantized_path_weight(net, paths[(1, 1)]) == t1
    assert quantized_path_weight(net, paths[(2, 2)]) == net.ctx.generator(net.t_index(1), -1)
    assert quantized_path_weight(net, paths[(1, 2)]) == net.ctx.weyl(
        [(net.t_index(1), 1), (net.c_index(1), 1)]
    )


def test_a2_label_sets_match_stated_lists():
    expect = {
        (0,): {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)},
        (1,): {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)},
        (-1,): {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)},
    }
    for q, labels in expect.items():
        net = build_network("A", word_of_quiver_vector(2, q))
        assert {p.label for p in enumerate_labeled_paths(net)} == labels


def test_unit_weight_path_is_unit():
    # the type C mirror down-slants carry weight one; a pure-down/up
    # strand picks up tokens only on the diagonal chip
    net = build_network("A", standard_word(2))
    p = next(p for p in enumerate_labeled_paths(net) if p.label == (1, 2))
    w = quantized_path_weight(net, p)
    assert w == net.ctx.weyl(p.letters)


def test_path_weight_reversal_invariance():
    net = build_network("C", standard_word(2))
    for p in enumerate_labeled_paths(net):
        assert net.ctx.weyl(p.letters) == net.ctx.weyl(tuple(reversed(p.letters)))


def _det(mat, ctx):
    size = len(mat)
    acc = CommutativeLaurent(ctx, {})
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = None
        for i in range(size):
            cell = mat[i][perm[i]]
            term = cell if term is None else term * cell
        acc = acc + (term if sign > 0 else -term)
    return acc


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("C", 1), ("C", 2)])
def test_transfer_matrix_oracle(kind, n):
    for w in all_words(n):
        net = build_network(kind, w)
        got = classical_matrix(net)
        ref = matrix_product(reference_chip_matrices(net))
        size = len(got)
        assert all(got[i][j] == ref[i][j] for i in range(size) for j in range(size))


def test_zero_entry_where_no_path():
    net = build_network("A", standard_word(2))
    mat = classical_matrix(net)
    # no path can climb from the top row down and back beyond one slant
    assert mat[2][0].is_zero()


def test_classical_specialization_is_minor_sum():
    for kind, n in [("A", 2), ("A", 3), ("C", 2)]:
        for w in all_words(n):
            net = build_network(kind, w)
            mat = classical_matrix(net)
            cctx = mat[0][0].ctx
            rows = list(range(net.num_rows))
            for i in range(1, net.num_rows + 1):
                acc = CommutativeLaurent(cctx, {})
                for subset in combinations(rows, i):
                    minor = [[mat[a][b] for b in subset] for a in subset]
                    acc = acc + _det(minor, cctx)
                got = specialize_classical(network_hamiltonian(net, i))
                assert CommutativeLaurent(cctx, got.terms) == acc, (kind, n, w.letters, i)


def test_full_family_is_unique_for_standard_word():
    net = build_network("A", standard_word(3))
    fams = list(path_families(net, 4))
    assert len(fams) == 1
    assert network_hamiltonian(net, 4) == net.ctx.one()


def test_family_members_commute_in_type_a():
    # type A family partners commute, so the product order is moot
    # there; type C partners genuinely q-commute (e.g. labels (1,1) and
    # (3,4) share the t_1 letter across the symmetry row) and the
    # top-to-bottom order is what the equivalence theorem validates.
    for n in (2, 3):
        for w in all_words(n):
            net = build_network("A", w)
            for i in range(2, net.num_rows + 1):
                for fam in path_families(net, i):
                    for p, q in combinations(fam, 2):
                        a = quantized_path_weight(net, p)
                        b = quantized_path_weight(net, q)
                        assert a * b == b * a, (w.letters, p.label, q.label)


def test_no_multiwrap_strands():
    # a closed strand winding twice would show up as a vertex-disjoint
    # pair of open i->j and j->i paths; assert none exist
    for kind, n in [("A", 2), ("A", 3), ("C", 2)]:
        for w in all_words(n):
            net = build_network(kind, w)
            open_paths = {}
            for src in net.rows:
                stack = [(0, src, (src,))]
                while stack:
                    pos, row, rows = stack.pop()
                    if pos == net.num_chips:
                        open_paths.setdefault((src, row), []).append(rows)
                        continue
                    for row2, _ in net.transitions(pos)[row]:
                        stack.append((pos + 1, row2, rows + (row2,)))
            m = net.num_chips
            for (i, j), there in open_paths.items():
                if i == j:
                    continue
                for back in open_paths.get((j, i), []):
                    for rows in there:
                        va = {(p % m, r) for p, r in enumerate(rows)}
                        vb = {(p % m, r) for p, r in enumerate(back)}
                        assert va & vb, (kind, w.letters, i, j)


def test_label_uniqueness_holds_on_desk_ranks():
    for kind, n in [("A", 4), ("C", 3)]:
        for w in all_words(n):
            enumerate_labeled_paths(build_network(kind, w))  # raises on clash


def test_subnetwork_full_range_identity():
    net = build_network("C", standard_word(2))
    sub = subnetwork(net, 1, 4)
    assert {p.label for p in enumerate_labeled_paths(sub)} == {
        p.label for p in enumerate_labeled_paths(net)
    }
    with pytest.raises(ValueError):
        subnetwork(net, 3, 2)


def test_subnetwork_bottom_rows_of_c_look_type_a():
    net = build_network("C", standard_word(2))
    sub = subnetwork(net, 1, 2)
    neta = build_network("A", standard_word(1))
    labels_sub = {p.label for p in enumerate_labeled_paths(sub)}
    labels_a = {p.label for p in enumerate_labeled_paths(neta)}
    assert labels_sub == labels_a


def _reference_search_strands(net):
    """Reference strand search: depth first over every chip's
    transitions, growing each strand's rows and letters as tuples."""
    paths = []
    table = [net.transitions(pos) for pos in range(net.num_chips)]
    for source in net.rows:
        stack = [(0, source, (source,), ())]
        while stack:
            pos, row, rows, letters = stack.pop()
            if pos == net.num_chips:
                if row == source:
                    paths.append(LabeledPath(source, min(rows), rows, letters))
                continue
            for row2, extra in table[pos][row]:
                stack.append((pos + 1, row2, rows + (row2,), letters + extra))
    assert len({p.label for p in paths}) == len(paths)
    return tuple(sorted(paths, key=lambda p: p.label))


@pytest.mark.parametrize("kind,n", [("A", n) for n in range(1, 7)] + [("C", n) for n in range(1, 6)])
def test_strand_search_matches_the_reference(kind, n):
    for w in all_words(n):
        net = build_network(kind, w)
        assert _search_strands(net) == _reference_search_strands(net), (kind, w.letters)


def test_subnetwork_strands_match_a_fresh_search():
    # the stored table filtered to a band against the reference search
    # of the band itself, on every row band of every word
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in all_words(n):
                net = build_network(kind, w)
                assert enumerate_labeled_paths(net) == _reference_search_strands(net)
                for lo in net.rows:
                    for hi in range(lo, net.row_hi + 1):
                        sub = subnetwork(net, lo, hi)
                        assert enumerate_labeled_paths(sub) == _reference_search_strands(sub), (
                            kind, w.letters, lo, hi
                        )
                        assert _search_strands(sub) == enumerate_labeled_paths(sub)


def _reference_families(net, size):
    """path_families through vertex sets: every member disjoint from
    every earlier one."""
    by_row = {}
    for p in enumerate_labeled_paths(net):
        by_row.setdefault(p.source, []).append(p)
    rows = [r for r in net.rows if r in by_row]
    out = []
    for subset in combinations(rows, size):
        partial = [()]
        for r in subset:
            partial = [
                fam + (p,)
                for fam in partial
                for p in by_row[r]
                if all(p.vertices().isdisjoint(q.vertices()) for q in fam)
            ]
        out.extend(partial)
    return out


def test_path_families_match_vertex_set_reference():
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in all_words(n):
                net = build_network(kind, w)
                for lo in net.rows:
                    for hi in range(lo, net.row_hi + 1):
                        sub = subnetwork(net, lo, hi)
                        for size in range(1, sub.num_rows + 1):
                            assert list(path_families(sub, size)) == _reference_families(sub, size), (
                                kind, w.letters, lo, hi, size
                            )


def test_one_search_yields_every_size_like_the_reference():
    # the all-sizes search, split by size, against the vertex-set
    # reference on every band, and a wanted subset of sizes alone
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in all_words(n):
                net = build_network(kind, w)
                for lo in net.rows:
                    for hi in range(lo, net.row_hi + 1):
                        sub = subnetwork(net, lo, hi)
                        width = sub.row_hi + 1
                        entries = {p.label: (_vertex_mask(p, width), p) for p in sub.strands}
                        for p in sub.strands:
                            assert _vertex_mask(p, width) == sum(1 << (i * width + r) for i, r in p.vertices())
                        sizes = range(1, sub.num_rows + 1)
                        by_size = {s: [] for s in sizes}
                        for s, fam in _fold_families(sub, sizes, entries, (), lambda f, p: f + (p,)):
                            by_size[s].append(fam)
                        for s in sizes:
                            assert by_size[s] == _reference_families(sub, s), (kind, w.letters, lo, hi, s)
                        odd = [s for s in sizes if s % 2]
                        got = list(_fold_families(sub, odd, entries, (), lambda f, p: f + (p,)))
                        for s in sizes:
                            assert [f for t, f in got if t == s] == (by_size[s] if s % 2 else [])


def test_family_cap_env(monkeypatch):
    monkeypatch.setenv(FAMILY_CAP_ENV, "1")
    net = build_network("A", standard_word(2))
    with pytest.raises(RuntimeError):
        list(path_families(net, 1))


def _count_until_cap(items):
    """Items taken before the family cap stops them, and its error."""
    count = 0
    try:
        for _ in items:
            count += 1
    except RuntimeError as exc:
        return count, exc
    return count, None


def test_fold_meets_the_family_cap_where_path_families_does(monkeypatch):
    # count the families fold_hamiltonian takes from the enumeration core
    taken = []

    def counted(*args):
        for acc in fold_families(*args):
            taken.append(acc)
            yield acc

    fold_families = network._fold_families
    monkeypatch.setattr(network, "_fold_families", counted)
    # at most 35 families of one size on the A4 word, 93 on the C3 one
    for kind, q in (("A", (-1, -1, -1)), ("C", (1, -1))):
        net = build_network(kind, word_of_quiver_vector(len(q) + 1, q))
        table = lax_strand_table(net)
        monkeypatch.delenv(FAMILY_CAP_ENV, raising=False)
        totals = [len(list(path_families(net, i))) for i in range(1, net.num_rows + 1)]
        for cap in (1, 5, 37):
            monkeypatch.setenv(FAMILY_CAP_ENV, str(cap))
            for i, total in enumerate(totals, start=1):
                fams, fam_exc = _count_until_cap(path_families(net, i))
                taken.clear()
                try:
                    fold_hamiltonian(net, i, table)
                    fold_exc = None
                except RuntimeError as exc:
                    fold_exc = exc
                assert len(taken) == fams == min(total, cap), (kind, q, cap, i)
                if total <= cap:
                    assert fam_exc is fold_exc is None
                    continue
                assert str(fold_exc) == str(fam_exc) == f"family enumeration exceeded {FAMILY_CAP_ENV}={cap}"
                assert fold_exc.limit == fam_exc.limit == FAMILY_CAP_ENV


def test_family_cap_bounds_each_size_of_one_search(monkeypatch):
    # one search over all sizes meets the cap only where one size has more
    # families than the cap, not where all sizes together do
    net = build_network("C", word_of_quiver_vector(3, (1, -1)))
    table = strand_table(net)
    sizes = range(1, net.num_rows + 1)
    totals = [len(list(path_families(net, i))) for i in sizes]
    assert sum(totals) > max(totals)
    monkeypatch.setenv(FAMILY_CAP_ENV, str(max(totals)))
    folds = fold_hamiltonians(net, sizes, table)
    assert all(folds[i] == fold_hamiltonian(net, i, table) for i in sizes)
    monkeypatch.setenv(FAMILY_CAP_ENV, str(max(totals) - 1))
    with pytest.raises(RuntimeError, match=FAMILY_CAP_ENV):
        fold_hamiltonians(net, sizes, table)


def family_weight(net, family):
    """Product of member weights multiplied one at a time, top row first."""
    acc = net.ctx.one()
    for p in sorted(family, key=lambda p: -p.source):
        acc = acc * quantized_path_weight(net, p)
    return acc


def test_network_hamiltonian_equals_family_weight_products():
    # the fold with identity images against one product per family
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in all_words(n):
                net = build_network(kind, w)
                for lo in net.rows:
                    for hi in range(lo, net.row_hi + 1):
                        sub = subnetwork(net, lo, hi)
                        for i in range(1, sub.num_rows + 1):
                            ref = TorusElement.sum(
                                sub.ctx, [family_weight(sub, fam) for fam in path_families(sub, i)]
                            )
                            assert network_hamiltonian(sub, i) == ref, (kind, w.letters, lo, hi, i)


_FRACTION_ROW_RULES = {
    ("or", "bk"): ("above", Fraction(1)),
    ("bk", "or"): ("below", Fraction(1)),
    ("bl", "bk"): ("above", Fraction(1, 2)),
    ("bl", "or"): ("below", Fraction(1, 2)),
    ("bk", "rd"): ("below", Fraction(1, 2)),
    ("or", "rd"): ("above", Fraction(1, 2)),
}


def fraction_face_weights(kind, word, disk=False):
    """The face-arrow rules on Fraction columns and weights: the oracle
    of the doubled integer grid."""
    n = word.n
    d = symmetrizers(kind, n)
    cols = {k: (word.position(-k), word.position(k)) for k in range(1, n + 1)}

    def face(k, col):
        a, b = cols[k]
        if a < col < b:
            return -k
        if disk:
            return ("L", k) if col < a else ("R", k)
        return k

    weights = {}

    def add(src, dst, w):
        if src == dst:
            return
        weights[(src, dst)] = weights.get((src, dst), Fraction(0)) + w
        weights[(dst, src)] = weights.get((dst, src), Fraction(0)) - w

    for k in range(1, n + 1):
        add(-k, ("L", k) if disk else k, Fraction(d[k - 1]))
        add(-k, ("R", k) if disk else k, Fraction(d[k - 1]))
    top_row = n if kind == "A" else n + 1
    for r in range(2, top_row + 1):
        below_k, above_k = r - 1, (r if r <= n else n - 1)
        if above_k < 1:
            continue
        chain = [(-Fraction(1), "bl")] + [(Fraction(c), col) for c, col in _colored_row(word, kind, n, r)]
        chain.append((Fraction(2 * n + 1), "rd"))
        for (c1, col1), (c2, col2) in zip(chain, chain[1:]):
            rule = _FRACTION_ROW_RULES.get((col1, col2))
            if rule is None:
                continue
            side, w = rule
            mid = (c1 + c2) / 2
            f_below, f_above = face(below_k, mid), face(above_k, mid)
            if side == "above":
                add(f_above, f_below, w)
            else:
                add(f_below, f_above, w)
    return {k: v for k, v in weights.items() if v != 0}


def fraction_weight_context(kind, word):
    n = word.n
    d = symmetrizers(kind, n)
    omega = fraction_face_weights(kind, word)
    names = tuple(f"t_{j}" for j in range(1, n + 1)) + tuple(f"c_{j}" for j in range(1, n + 1))
    skew = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for j in range(1, n + 1):
        skew[n + j - 1][j - 1] = Fraction(-d[j - 1])
        skew[j - 1][n + j - 1] = Fraction(d[j - 1])
        for k in range(1, n + 1):
            if j != k:
                skew[n + j - 1][n + k - 1] = -omega.get((j, k), Fraction(0))
    return TorusContext(names, tuple(tuple(row) for row in skew))


def test_int_face_weights_match_the_fraction_reference():
    # values, key order and value types, cylinder and disk, and the
    # weight torus with its grid, on every word of A1-6 and C1-5
    for kind, ranks in (("A", range(1, 7)), ("C", range(1, 6))):
        for n in ranks:
            for w in all_words(n):
                for disk in (False, True):
                    got, ref = face_weights(kind, w, disk), fraction_face_weights(kind, w, disk)
                    assert list(got.items()) == list(ref.items()), (kind, w.letters, disk)
                    assert all(type(v) is Fraction for v in got.values())
                ctx, ref_ctx = weight_context(kind, w), fraction_weight_context(kind, w)
                assert ctx == ref_ctx and (ctx.den, ctx.rows) == (ref_ctx.den, ref_ctx.rows), (kind, w.letters)
                assert all(type(x) is Fraction for row in ctx.skew for x in row)


def test_hamiltonian_index_range():
    net = build_network("A", standard_word(2))
    with pytest.raises(ValueError):
        network_hamiltonian(net, 0)
    with pytest.raises(ValueError):
        network_hamiltonian(net, 9)


def test_emitters_smoke():
    net = build_network("C", standard_word(2))
    dot = network_to_dot(net)
    assert "digraph" in dot and "c_1" in dot
    d = network_to_dict(net)
    assert d["schema_version"] == "1"
    assert d["type"] == "C"
    assert any(p["label"] == [1, 2] for p in d["paths"])


def test_standard_a3_network_matches_drawn_figure():
    # hand-read structure of the rank-3 standard-word picture: slants in
    # chip order with their weights, and the diagonal tokens per row
    net = build_network("A", standard_word(3))
    slants = [
        (pos, *s) for pos in range(net.num_chips) for s in net.slants(pos)
    ]
    c = net.c_index
    assert slants == [
        (0, 2, 1, ()),
        (1, 3, 2, ()),
        (2, 4, 3, ()),
        (4, 1, 2, ((c(1), 1),)),
        (5, 2, 3, ((c(2), 1),)),
        (6, 3, 4, ((c(3), 1),)),
    ]
    t = net.t_index
    assert net.diagonal_letters(1) == ((t(1), 1),)
    assert net.diagonal_letters(2) == ((t(1), -1), (t(2), 1))
    assert net.diagonal_letters(3) == ((t(2), -1), (t(3), 1))
    assert net.diagonal_letters(4) == ((t(3), -1),)


def test_standard_c2_network_matches_drawn_figure():
    # the rank-2 type C picture: the short letter's slants appear twice
    # (both carrying the same weight), the long letter's once
    net = build_network("C", standard_word(2))
    c, t = net.c_index, net.t_index
    assert net.slants(0) == [(2, 1, ()), (4, 3, ())]
    assert net.slants(1) == [(3, 2, ())]
    assert net.slants(3) == [(1, 2, ((c(1), 1),)), (3, 4, ((c(1), 1),))]
    assert net.slants(4) == [(2, 3, ((c(2), 1),))]
    assert net.diagonal_letters(1) == ((t(1), 1),)
    assert net.diagonal_letters(2) == ((t(1), -1), (t(2), 1))
    assert net.diagonal_letters(3) == ((t(1), 1), (t(2), -1))
    assert net.diagonal_letters(4) == ((t(1), -1),)
    # exactly two c_1-weighted edges in the whole network
    count = sum(
        1
        for pos in range(net.num_chips)
        for (_, _, letters) in net.slants(pos)
        if letters == ((c(1), 1),)
    )
    assert count == 2
