from fractions import Fraction
from itertools import combinations

import pytest

from qtoda import correspondence
from qtoda import lax as laxmod
from qtoda.correspondence import (
    _compare,
    _label_term,
    _pad_lax,
    _w_prefactor,
    build_weight_map,
    label_algebra,
    label_hamiltonian,
    label_image,
    lax_strand_table,
    verify_equivalence_A,
    verify_equivalence_C,
    verify_weight_map,
)
from qtoda.network import (
    build_network,
    fold_bands,
    fold_hamiltonian,
    network_hamiltonian,
    path_families,
    quantized_path_weight,
    subnetwork,
    weight_vector,
)
from qtoda.torus import MonomialMap, TorusElement, commutes
from qtoda.words import enumerate_double_coxeter, quiver_vector_of, standard_word, word_of_quiver_vector


def lax_ctx(kind, n):
    return laxmod.lax_context(n + 1 if kind == "A" else n)


def network_hamiltonian_in_lax(net, i):
    """Network Hamiltonian pushed through the label substitution."""
    return fold_hamiltonian(net, i, lax_strand_table(net))


def fraction_label_skew(net, alg):
    """The label skew from one Fraction pairing per ordered label pair,
    both triangles: the reference for ``label_algebra``'s int route."""
    return tuple(
        tuple(net.ctx.pairing(alg.weights[r], alg.weights[c]) for c in alg.labels)
        for r in alg.labels
    )


def fraction_weight_map_failures(alg, wmap):
    """The failures of ``verify_weight_map`` with every pairing taken as a
    Fraction: the reference for its int comparison."""
    failures = []
    m = len(alg.labels)
    for a in range(m):
        for b in range(a + 1, m):
            src = alg.ctx.skew[a][b]
            tgt = wmap.target.pairing(wmap.images[a][1], wmap.images[b][1])
            if src != tgt:
                failures.append(
                    {
                        "labels": [alg.labels[a], alg.labels[b]],
                        "source_factor": str(2 * src),
                        "image_factor": str(2 * tgt),
                    }
                )
    return failures


def test_type_a_diagonal_images():
    ctx = lax_ctx("A", 1)
    for i in (1, 2):
        qp, vec = label_image("A", 1, (), ctx, (i, i))
        assert qp == 0
        assert vec == ctx.basis_vec(laxmod.w_index(ctx, i), -2)


def test_type_a_dip_image_shift_convention():
    # the w-exponent of the l-th factor is -Q_(l-1)-1; frozen against
    # the rank-2 golden lists
    ctx = lax_ctx("A", 2)
    qp, vec = label_image("A", 2, (1,), ctx, (1, 2))
    expect = ctx.plain_product(
        [
            (laxmod.w_index(ctx, 1), -1),
            (laxmod.w_index(ctx, 2), -2),
            (laxmod.d_index(ctx, 1), 1),
            (laxmod.d_index(ctx, 2), -1),
        ]
    )
    assert expect == ctx.monomial(vec, qp)


def test_type_c_stated_images():
    n = 2
    ctx = lax_ctx("C", n)
    # middle label: v^(-Q_1) w_n^(-2 Q_1) D_n^2
    for q1 in (-1, 0, 1):
        qp, vec = label_image("C", n, (q1,), ctx, (2, 3))
        expect = ctx.plain_product(
            [(laxmod.w_index(ctx, 2), -2 * q1), (laxmod.d_index(ctx, 2), 2)],
            qpow=Fraction(-q1),
        )
        assert expect == ctx.monomial(vec, qp)
    # upper diagonal: i = j >= n+1 maps to w_(2n+1-i)^2
    qp, vec = label_image("C", n, (0,), ctx, (4, 4))
    assert (qp, vec) == (0, ctx.basis_vec(laxmod.w_index(ctx, 1), 2))


def test_uncovered_label_rejected():
    ctx = lax_ctx("C", 3)
    with pytest.raises(ValueError):
        label_image("C", 3, (0, 0), ctx, (1, 6))


def _q_ref(qvec, n, l):
    return qvec[n - 1 - l] if 1 <= l <= n - 1 else 0


def plain_label_image(kind, n, qvec, lax_ctx, label):
    """The table of label images as plain products of w- and D-letters,
    each read off one ``plain_product``: the oracle of ``_label_term``."""
    i, j = label
    w = lambda l: laxmod.w_index(lax_ctx, l)
    d = lambda l: laxmod.d_index(lax_ctx, l)
    Q = lambda l: _q_ref(qvec, n, l)

    def term(letters, extra_q=0):
        (vec, coeffs), = lax_ctx.plain_product(letters, qpow=Fraction(extra_q)).terms.items()
        (qp, c), = coeffs.items()
        assert c == 1
        return qp, vec

    if kind == "A":
        if i == j:
            return term([(w(i), -2)])
        letters = [(w(l), -Q(l - 1) - 1) for l in range(i, j + 1)]
        return term(letters + [(d(i), 1), (d(j), -1)])
    if i == j:
        return term([(w(i), -2)]) if i <= n else term([(w(2 * n + 1 - i), 2)])
    if j <= n:
        letters = [(w(l), -Q(l - 1) - 1) for l in range(i, j + 1)]
        return term(letters + [(d(i), 1), (d(j), -1)])
    if j == n + 1 and i < n:
        letters = [(w(l), -Q(l - 1) - 1) for l in range(i, n + 1)]
        return term(letters + [(d(i), 1), (d(n), 1)], extra_q=-1)
    if i == n and j == n + 1:
        qq = Q(n - 1)
        return term([(w(n), -2 * qq), (d(n), 2)], extra_q=-qq)
    if i == n:
        a = 2 * n + 1 - j
        letters = [(w(l), -Q(l - 1) + 1) for l in range(a, n + 1)]
        return term(letters + [(d(a), 1), (d(n), 1)], extra_q=1)
    a, b = 2 * n + 1 - j, 2 * n + 1 - i
    letters = [(w(l), -Q(l - 1) + 1) for l in range(a, b + 1)]
    return term(letters + [(d(a), 1), (d(b), -1)])


def test_int_strand_images_match_plain_products():
    # every label of every word of A1-6 and C1-5: the closed-form int
    # image against one plain product, its Fraction view, the strand
    # table's entry, and the weight vector against the Weyl monomial
    for kind, ranks in (("A", range(1, 7)), ("C", range(1, 6))):
        for n in ranks:
            for w in enumerate_double_coxeter(n):
                net = build_network(kind, w)
                ctx = lax_ctx(kind, n)
                qvec = quiver_vector_of(w)
                table = lax_strand_table(net)
                assert table.target is ctx
                for p in net.strands:
                    qp, vec = plain_label_image(kind, n, qvec, ctx, p.label)
                    key, v = _label_term(kind, n, qvec, ctx.rank // 2, p.label)
                    assert (key, v) == (ctx._qkey(qp), vec) and type(key) is int, (kind, w.letters, p.label)
                    view = label_image(kind, n, qvec, ctx, p.label)
                    assert view == (qp, vec) and type(view[0]) is Fraction
                    wv = weight_vector(net, p)
                    assert quantized_path_weight(net, p) == net.ctx.monomial(wv)
                    _, (u, _, tkey, _) = table.entries[p.label]
                    assert (u, tkey) == ([(j, x) for j, x in enumerate(wv + vec) if x], key)


def test_label_algebra_pair_rows():
    # the (i=l, j<m) pairs carry factor q^2 on realized label pairs
    net = build_network("A", word_of_quiver_vector(2, (1,)))
    alg = label_algebra(net)
    a = alg.labels.index((1, 2))
    b = alg.labels.index((1, 3))
    assert 2 * alg.ctx.skew[a][b] == 2
    # disjoint label intervals commute
    c = alg.labels.index((1, 1))
    d = alg.labels.index((3, 3))
    assert alg.ctx.skew[c][d] == 0


def test_weight_map_homomorphism_reports():
    for kind, n in [("A", 2), ("A", 3), ("C", 2)]:
        for w in enumerate_double_coxeter(n):
            rep = verify_weight_map(build_network(kind, w))
            assert rep["ok"], rep["failures"][:2]


def test_label_algebra_and_weight_map_match_the_fraction_reference(monkeypatch):
    # every word of A1-A4 and C1-C3: the int label skew and the int image
    # comparison against one Fraction pairing per pair
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in enumerate_double_coxeter(n):
                net = build_network(kind, w)
                alg = label_algebra(net)
                assert alg.ctx.skew == fraction_label_skew(net, alg), (kind, w.letters)
                rep = verify_weight_map(net)
                assert rep["ok"] and rep["failures"] == fraction_weight_map_failures(alg, build_weight_map(net, alg))
    # a corrupted image: the same failing pairs and factors as the reference
    net = build_network("A", standard_word(2))
    alg = label_algebra(net)
    wmap = build_weight_map(net, alg)
    images = list(wmap.images)
    qp, vec = images[0]
    images[0] = (qp, (vec[0] + 1,) + vec[1:])
    bad = MonomialMap(wmap.source, wmap.target, tuple(images))
    monkeypatch.setattr(correspondence, "build_weight_map", lambda net, alg=None: bad)
    rep = verify_weight_map(net)
    assert not rep["ok"]
    assert rep["failures"] == fraction_weight_map_failures(alg, bad)


def test_corrupted_map_reports_failures():
    net = build_network("A", standard_word(2))
    alg = label_algebra(net)
    wmap = build_weight_map(net, alg)
    # corrupt one exponent of one image
    images = list(wmap.images)
    qp, vec = images[0]
    bad_vec = list(vec)
    bad_vec[0] += 1
    images[0] = (qp, tuple(bad_vec))
    bad = MonomialMap(wmap.source, wmap.target, tuple(images))
    assert bad.failing_pairs()


def test_label_hamiltonians_match_weight_route():
    # pushing labels through their weight vectors reproduces the torus
    # Hamiltonian computed directly on the t/c generators
    for kind, n in [("A", 2), ("C", 2)]:
        for w in enumerate_double_coxeter(n):
            net = build_network(kind, w)
            alg = label_algebra(net)
            to_tc = MonomialMap(
                alg.ctx,
                net.ctx,
                tuple((Fraction(0), alg.weights[lab]) for lab in alg.labels),
            )
            for i in range(1, n + 1):
                assert to_tc.apply(label_hamiltonian(alg, i)) == network_hamiltonian(net, i)


def test_label_hamiltonian_equals_folded_generator_products():
    # one balanced product per family against multiplying the label
    # generators one at a time and adding the families up
    for kind, n in [("A", 3), ("C", 2)]:
        for w in enumerate_double_coxeter(n):
            alg = label_algebra(build_network(kind, w))
            for i in range(1, alg.net.num_rows + 1):
                acc = alg.ctx.zero()
                for fam in path_families(alg.net, i):
                    term = alg.ctx.one()
                    for p in sorted(fam, key=lambda p: -p.source):
                        term = term * alg.generator(p.label)
                    acc = acc + term
                assert label_hamiltonian(alg, i) == acc, (kind, w.letters, i)


def test_folded_label_hamiltonian_equals_plain_product_sum():
    # the q-key and indicator vector folded over path_families against one
    # plain_product per family, top row first, on every row band and size
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in enumerate_double_coxeter(n):
                net = build_network(kind, w)
                for lo in net.rows:
                    for hi in range(lo, net.row_hi + 1):
                        alg = label_algebra(subnetwork(net, lo, hi))
                        for i in range(1, alg.net.num_rows + 1):
                            ref = TorusElement.sum(
                                alg.ctx,
                                [
                                    alg.ctx.plain_product(
                                        [(alg.index(p.label), 1) for p in sorted(fam, key=lambda p: -p.source)]
                                    )
                                    for fam in path_families(alg.net, i)
                                ],
                            )
                            assert label_hamiltonian(alg, i) == ref, (kind, w.letters, lo, hi, i)


def test_fold_matches_the_label_torus_route_on_every_band():
    # the parent's one strand table, folded over each row band, against
    # the band's label Hamiltonian pushed through its weight map
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in enumerate_double_coxeter(n):
                net = build_network(kind, w)
                table = lax_strand_table(net)
                for lo in net.rows:
                    for hi in range(lo, net.row_hi + 1):
                        sub = subnetwork(net, lo, hi)
                        alg = label_algebra(sub)
                        wmap = build_weight_map(sub, alg)
                        for i in range(1, sub.num_rows + 1):
                            ref = wmap.apply(label_hamiltonian(alg, i))
                            assert fold_hamiltonian(sub, i, table) == ref, (kind, w.letters, lo, hi, i)
                for i in range(1, net.num_rows + 1):
                    assert network_hamiltonian_in_lax(net, i) == fold_hamiltonian(net, i, table)


def test_one_search_folds_every_band():
    # fold_bands over all bands at once against fold_hamiltonian on each
    # band's own network
    for kind, ranks in (("A", (1, 2, 3, 4)), ("C", (1, 2, 3))):
        for n in ranks:
            for w in enumerate_double_coxeter(n):
                net = build_network(kind, w)
                table = lax_strand_table(net)
                spans = {
                    (lo, hi): range(1, hi - lo + 2)
                    for lo in net.rows
                    for hi in range(lo, net.row_hi + 1)
                }
                folds = fold_bands(net, spans, table)
                assert folds.keys() == spans.keys()
                for (lo, hi), sizes in spans.items():
                    sub = subnetwork(net, lo, hi)
                    for i in sizes:
                        assert folds[lo, hi][i] == fold_hamiltonian(sub, i, table), (kind, w.letters, lo, hi, i)
                with pytest.raises(ValueError):
                    fold_bands(net, {(net.row_lo, net.row_hi): [net.num_rows + 1]}, table)
                with pytest.raises(ValueError):
                    fold_bands(net, {(0, net.row_hi): [1]}, table)


def test_equivalence_A_small():
    for n in (1, 2):
        for w in enumerate_double_coxeter(n):
            rep = verify_equivalence_A(w)
            assert rep["ok"], rep


def test_equivalence_A_has_negative_control():
    rep = verify_equivalence_A(word_of_quiver_vector(2, (1,)))
    assert all(c["first_diff"] is None for c in rep["checks"])


def test_failed_check_keeps_its_first_diff():
    ctx = laxmod.lax_context(2)
    w1, d1 = ctx.generator(0), ctx.generator(2)
    assert _compare(w1 + d1, d1 + w1) == {"ok": True, "first_diff": None}
    # the witness is the least exponent vector where the sides differ
    assert _compare(w1 + d1, w1 + d1.q_shift(1)) == {
        "ok": False,
        "first_diff": {"exponents": [0, 0, 1, 0], "lhs_coeff": [["0", 1]], "rhs_coeff": [["1", 1]]},
    }
    assert _compare(w1 + d1, w1.q_shift(1))["first_diff"] == {
        "exponents": [0, 0, 1, 0], "lhs_coeff": [["0", 1]], "rhs_coeff": []
    }


def _embed_map(small, big):
    """Inclusion of a lower-rank Lax torus into a bigger one, matching
    generators by name, as a monomial map."""
    images = [(Fraction(0), big.basis_vec(big.index(name))) for name in small.names]
    return MonomialMap(small, big, tuple(images))


def test_band_padding_matches_the_embedding_map():
    # every band of every C2-C4 word: the zero-padded Lax side equals the
    # one pushed through the name-matching inclusion map
    checked = 0
    for n in (2, 3, 4):
        ctx = laxmod.lax_context(n)
        for w in enumerate_double_coxeter(n):
            qvec = quiver_vector_of(w)
            bands = [(m, -1) for m in range(2, n + 1)]
            bands += [(2 * n + 1 - m2, 1) for m2 in range(n + 1, 2 * n)]
            for r, sign in bands:
                sub_ctx = laxmod.lax_context(r)
                embed = _embed_map(sub_ctx, ctx)
                assert embed.is_homomorphism()
                shams = laxmod.lax_hamiltonians(sub_ctx, tuple(qvec[n - r:]) + (0,), "A")
                pref = _w_prefactor(sub_ctx, r, sign)
                for i in range(1, r + 1):
                    el = pref * shams[i if sign < 0 else r - i]
                    assert _pad_lax(el, ctx) == embed.apply(el), (w.letters, r, sign, i)
                    checked += 1
    assert checked == 3 * 2 * 2 + 9 * 2 * (2 + 3) + 27 * 2 * (2 + 3 + 4)


def test_equivalence_C_small():
    for n in (1, 2):
        for w in enumerate_double_coxeter(n):
            rep = verify_equivalence_C(w)
            assert rep["ok"], rep


def test_network_hamiltonian_in_lax_rank1():
    net = build_network("A", standard_word(1))
    ctx = lax_ctx("A", 1)
    got = network_hamiltonian_in_lax(net, 1)
    expect = (
        ctx.monomial(ctx.basis_vec(laxmod.w_index(ctx, 1), -2))
        + ctx.monomial(ctx.basis_vec(laxmod.w_index(ctx, 2), -2))
        + ctx.plain_product(
            [
                (laxmod.w_index(ctx, 1), -1),
                (laxmod.w_index(ctx, 2), -1),
                (laxmod.d_index(ctx, 1), 1),
                (laxmod.d_index(ctx, 2), -1),
            ]
        )
    )
    assert got == expect


def test_mapped_hamiltonians_commute_independently_of_lax_route():
    for kind, n in [("A", 3), ("C", 2)]:
        for w in enumerate_double_coxeter(n):
            net = build_network(kind, w)
            alg = label_algebra(net)
            wmap = build_weight_map(net, alg)
            hs = [wmap.apply(label_hamiltonian(alg, i)) for i in range(1, n + 1)]
            for a, b in combinations(hs, 2):
                assert commutes(a, b)


def test_equivalence_beyond_desk_ranks():
    # spot checks past the stated ranks; cheap and catches convention
    # drift that small ranks might mask
    for q in [(1, -1, 1, -1), (1, 1, 1, 1)]:
        assert verify_equivalence_A(word_of_quiver_vector(5, q))["ok"]
    for q in [(1, -1, 1,), (-1, -1, -1)]:
        assert verify_equivalence_C(word_of_quiver_vector(4, q))["ok"]
