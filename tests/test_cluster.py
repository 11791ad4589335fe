
import hashlib
import json
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoda import cluster
from qtoda.cli import main
from qtoda.cluster import (
    Seed,
    _integral,
    _invariant,
    _matrix_key,
    _mutate,
    _tau_orbit,
    amalgamate_pairs,
    check_ensemble_naturality,
    disk_seed_from_word,
    mutate_seed,
    mutate_swap,
    mutation_equivalent,
    seed_from_word,
)
from qtoda.network import _doubled_face_weights, symmetrizers
from qtoda.serialize import dumps, seed_to_dict, seed_to_dot
from qtoda.torus import classical_context
from qtoda.words import enumerate_double_coxeter, standard_word, word_of_quiver_vector
from test_torus import RationalLaurent


def qseed(kind, n, q):
    return seed_from_word(kind, word_of_quiver_vector(n, q))


def standard_exchange_matrix(kind: str, n: int):
    """The block matrix [[0, C], [-C, 0]] on labels -1..-n, 1..n, with C
    the Cartan matrix, d_i C_ij = d_j C_ji for the d's of ``symmetrizers``."""
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    if kind == "C" and n >= 2:
        c[n - 2][n - 1] = -1
        c[n - 1][n - 2] = -2
    labels = [-(j + 1) for j in range(n)] + [j + 1 for j in range(n)]
    eps = {}
    for a in range(n):
        for b in range(n):
            if c[a][b]:
                eps[(-(a + 1), b + 1)] = c[a][b]
                eps[(a + 1, -(b + 1))] = -c[a][b]
    return labels, eps


# -- all-pairs references for the sparse seed operations -----------------------


def ref_skew_symmetrizable(labels, eps, d) -> bool:
    """Positive symmetrizers, and eps_ij d_j = -eps_ji d_i on every
    ordered pair of labels."""
    if any(d[l] <= 0 for l in labels):
        return False
    for i in labels:
        for j in labels:
            a = eps.get((i, j), Fraction(0))
            b = eps.get((j, i), Fraction(0))
            if a * d[j] != -b * d[i]:
                return False
    return True


def ref_mutate_eps(seed, k) -> dict:
    """Matrix mutation at k over all pairs, in exact Fractions."""
    eps = {}
    for i in seed.labels:
        for j in seed.labels:
            if i == j:
                continue
            v = Fraction(seed.entry(i, j))
            if i == k or j == k:
                nv = -v
            else:
                a, b = Fraction(seed.entry(i, k)), Fraction(seed.entry(k, j))
                nv = v + (a * abs(b) + abs(a) * b) / 2
            if nv:
                eps[(i, j)] = nv
    return eps


def ref_canonical_key(seed):
    """Minimal (d, frozen, matrix) encoding over the bijections that
    keep the (d, frozen, full sorted row) partition, blocks in repr order."""
    labs = list(seed.labels)
    groups = {}
    for i in labs:
        row = sorted((Fraction(seed.entry(i, j)), seed.d[j]) for j in labs if j != i)
        groups.setdefault((seed.d[i], i in seed.frozen, tuple(row)), []).append(i)
    blocks = [groups[k] for k in sorted(groups, key=repr)]

    def assignments(bs):
        if not bs:
            yield []
            return
        head, *rest = bs
        for perm in permutations(head):
            for tail in assignments(rest):
                yield list(perm) + tail

    best = None
    for picked in assignments(blocks):
        cand = (
            tuple(seed.d[v] for v in picked),
            tuple(v in seed.frozen for v in picked),
            tuple(tuple(Fraction(seed.entry(a, b)) for b in picked) for a in picked),
        )
        if best is None or cand < best:
            best = cand
    return best


def dict_canonical_key(seed):
    """The key as computed on the entry dict, before the flat matrix:
    the value ``Seed.canonical_key`` must keep returning."""
    eps, d, frozen = seed.eps, seed.d, seed.frozen
    rows = {i: [] for i in seed.labels}
    for (i, j), v in eps.items():
        if v:
            rows[i].append((v, d[j]))
    groups = {}
    for i in seed.labels:
        groups.setdefault((d[i], i in frozen, tuple(sorted(rows[i]))), []).append(i)
    blocks = [groups[k] for k in sorted(groups)]
    order = [v for block in blocks for v in block]
    best = None
    for perms in product(*map(permutations, blocks)):
        picked = [v for perm in perms for v in perm]
        key = tuple(tuple(eps.get((a, b), 0) for b in picked) for a in picked)
        if best is None or key < best:
            best = key
    return tuple(d[v] for v in order), tuple(v in frozen for v in order), best


_ENTRIES = [Fraction(x, 2) for x in range(-4, 5)]


@st.composite
def random_seeds(draw, max_vertices=5):
    """Skew-symmetrizable seeds: d in {1, 2}, integral or half-integral
    entries held as ints or Fractions, and some frozen labels."""
    m = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = tuple(range(1, m + 1))
    d = {l: draw(st.sampled_from([1, 2])) for l in labels}
    halves = draw(st.booleans())
    as_fraction = draw(st.booleans())

    def store(x):
        return x if as_fraction or x.denominator != 1 else x.numerator

    eps = {}
    for i in labels:
        for j in labels:
            if i >= j:
                continue
            v = draw(st.sampled_from(_ENTRIES if halves else _ENTRIES[::2]))
            back = -v * d[j] / d[i]
            if v and (back * (2 if halves else 1)).denominator == 1:
                eps[(i, j)], eps[(j, i)] = store(v), store(back)
    frozen = frozenset(l for l in labels if draw(st.booleans()) and l != 1)
    return Seed(labels, eps, d, frozen)


@st.composite
def seed_pairs(draw):
    """A seed and a second seed: a relabeled copy, a relabeled copy with
    other frozen labels, one mutation away, or drawn independently."""
    s = draw(random_seeds())
    how = draw(st.sampled_from(["relabel", "refreeze", "mutate", "fresh"]))
    if how in ("relabel", "refreeze"):
        t = s
        if how == "refreeze":
            t = Seed(s.labels, s.eps, s.d, frozenset(l for l in s.labels if draw(st.booleans())))
        image = draw(st.permutations(s.labels))
        t = t.relabeled(dict(zip(s.labels, image)))
        # the same seed listed in another vertex order
        return s, Seed(tuple(draw(st.permutations(t.labels))), t.eps, t.d, t.frozen)
    if how == "mutate":
        k = draw(st.sampled_from([l for l in s.labels if l not in s.frozen]))
        return s, mutate_seed(s, k)
    t = draw(random_seeds())
    return s, t


# -- quiver extraction --------------------------------------------------------


@pytest.mark.parametrize("kind", ["A", "C"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_word_gives_cartan_block_matrix(kind, n):
    s = seed_from_word(kind, standard_word(n))
    labels, eps = standard_exchange_matrix(kind, n)
    for i in labels:
        for j in labels:
            assert s.entry(i, j) == eps.get((i, j), Fraction(0)), (i, j)


def test_rank2_type_a_block_patterns():
    # quiver-block reading of the three words; arrows as drawn
    s1 = qseed("A", 2, (1,))
    assert s1.entry(1, -2) == 2 and s1.entry(-2, -1) == 1 and s1.entry(2, 1) == 1
    sm = qseed("A", 2, (-1,))
    assert sm.entry(2, -1) == 2 and sm.entry(-1, -2) == 1 and sm.entry(1, 2) == 1
    s0 = qseed("A", 2, (0,))
    assert s0.entry(1, -2) == 1 and s0.entry(2, -1) == 1


def test_rank2_type_c_top_block_weights():
    # doubled drawn weights: w(-2,2) = 4 for every word, and the
    # long-root dressing of the off-diagonal arrows
    for q in [(-1,), (0,), (1,)]:
        s = qseed("C", 2, q)
        assert s.weight(-2, 2) == 4
    assert qseed("C", 2, (1,)).weight(1, -2) == 4
    assert qseed("C", 2, (-1,)).weight(2, -1) == 4


def test_vertex_count_and_integrality():
    for kind in ("A", "C"):
        for n in (1, 2, 3, 4):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                assert len(s.labels) == 2 * n
                assert all(type(v) is int for v in s.eps.values())


def fraction_route_seed(kind, word):
    """The cylinder seed read off the face weights w_ij, halves of the
    doubled ones: eps_ij = w_ij / d_j as a Fraction, kept where it is an
    integer."""
    n = word.n
    d_roots = symmetrizers(kind, n)
    labels = tuple(range(-n, 0)) + tuple(range(1, n + 1))
    d = {l: d_roots[abs(l) - 1] for l in labels}
    eps = {}
    for (i, j), w2 in _doubled_face_weights(kind, word, False).items():
        val = Fraction(Fraction(w2, 2), d[j])
        assert val.denominator == 1, (i, j)
        eps[(i, j)] = val.numerator
    return Seed(labels, eps, d, frozenset())


@pytest.mark.parametrize("kind", ["A", "C"])
def test_seed_from_word_matches_the_fraction_route(kind):
    for n in range(1, 6):
        for w in enumerate_double_coxeter(n):
            s = seed_from_word(kind, w)
            assert s == fraction_route_seed(kind, w), w.letters
            # plain ints, and no zero entry stored
            assert all(type(v) is int and v for v in s.eps.values())


def test_seed_from_word_rejects_a_non_integer_entry(monkeypatch):
    # doubled weight 1 over 2 d_j = 2: the entry would be 1/2
    monkeypatch.setattr("qtoda.cluster._doubled_face_weights", lambda kind, word, disk: {(-1, 1): 1, (1, -1): -1})
    with pytest.raises(ValueError, match="non-integer exchange entry at \\(-1, 1\\)"):
        seed_from_word("A", standard_word(1))


def test_disk_amalgamation_reproduces_cylinder():
    for kind in ("A", "C"):
        for n in (1, 2, 3):
            for w in enumerate_double_coxeter(n):
                disk = disk_seed_from_word(kind, w)
                # a Fraction only where the entry is a half
                assert all(type(v) is int or v.denominator != 1 for v in disk.eps.values())
                pairs = [(("L", k), ("R", k)) for k in range(1, n + 1)]
                glued = amalgamate_pairs(disk, pairs, list(range(1, n + 1)))
                cyl = seed_from_word(kind, w)
                for i in cyl.labels:
                    for j in cyl.labels:
                        assert glued.entry(i, j) == cyl.entry(i, j)


# -- mutation -----------------------------------------------------------------


def test_sign_flip_example():
    s = Seed((1, 2), {(1, 2): Fraction(2), (2, 1): Fraction(-2)}, {1: 1, 2: 1})
    m = mutate_seed(s, 1)
    assert m.entry(1, 2) == -2 and m.entry(2, 1) == 2


def test_second_branch_example():
    # rank 3 chain 1 -> 2 -> 3, mutate at the middle
    eps = {(1, 2): Fraction(1), (2, 1): Fraction(-1), (2, 3): Fraction(1), (3, 2): Fraction(-1)}
    s = Seed((1, 2, 3), eps, {1: 1, 2: 1, 3: 1})
    m = mutate_seed(s, 2)
    assert m.entry(1, 3) == 1


def test_frozen_mutation_rejected():
    s = Seed((1, 2), {(1, 2): Fraction(1), (2, 1): Fraction(-1)}, {1: 1, 2: 1}, frozenset([2]))
    with pytest.raises(ValueError):
        mutate_seed(s, 2)


def test_mutation_at_unknown_vertex_rejected():
    s = qseed("A", 2, (0,))
    for k in (9, 0, "1"):
        with pytest.raises(ValueError, match="no vertex"):
            mutate_seed(s, k)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutation_involution_randomized(data):
    m = data.draw(st.integers(min_value=2, max_value=4))
    d = {i: data.draw(st.sampled_from([1, 2])) for i in range(m)}
    eps = {}
    for i in range(m):
        for j in range(i + 1, m):
            v = data.draw(st.integers(min_value=-2, max_value=2))
            if v:
                val = Fraction(v)
                back = Fraction(-v * d[j], d[i])
                if back.denominator != 1:
                    continue
                eps[(i, j)] = val
                eps[(j, i)] = back
    s = Seed(tuple(range(m)), eps, d)
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    assert mutate_seed(mutate_seed(s, k), k).eps == s.eps


def test_mutation_preserves_symmetrizability(monkeypatch):
    s = qseed("C", 3, (1, -1))
    checked = []
    validate = Seed._check

    def counting(seed):
        checked.append(seed)
        validate(seed)

    monkeypatch.setattr(Seed, "_check", counting)
    for k in s.labels:
        m = mutate_seed(s, k)
        # the mutated seed went through the constructor's check
        assert checked[-1] is m
        assert ref_skew_symmetrizable(m.labels, m.eps, m.d)
    assert len(checked) == len(s.labels)


@settings(max_examples=300, deadline=None)
@given(s=random_seeds())
def test_sparse_mutation_matches_all_pairs_reference(s):
    for k in s.labels:
        if k in s.frozen:
            continue
        m = mutate_seed(s, k)
        assert m.eps == ref_mutate_eps(s, k)
        assert all(v != 0 for v in m.eps.values())
        assert ref_skew_symmetrizable(m.labels, m.eps, m.d)
        # integral input stays in plain ints
        if all(type(v) is int for v in s.eps.values()):
            assert all(type(v) is int for v in m.eps.values())


@settings(max_examples=300, deadline=None)
@given(s=random_seeds(), data=st.data())
def test_constructor_check_matches_all_pairs_reference(s, data):
    i = data.draw(st.sampled_from(s.labels))
    j = data.draw(st.sampled_from(s.labels))
    v = data.draw(st.sampled_from(_ENTRIES))
    eps = dict(s.eps)
    eps[(i, j)] = v if data.draw(st.booleans()) or v.denominator != 1 else v.numerator
    if ref_skew_symmetrizable(s.labels, eps, s.d):
        # the view holds the nonzero entries only
        assert Seed(s.labels, eps, s.d, s.frozen).eps == {key: v for key, v in eps.items() if v}
    else:
        with pytest.raises(ValueError, match="skew-symmetrizable"):
            Seed(s.labels, eps, s.d, s.frozen)


@pytest.mark.parametrize(
    "eps, d",
    [
        ({(1, 2): 1}, {1: 1, 2: 1}),  # one-sided entry
        ({(2, 1): Fraction(-1, 2)}, {1: 1, 2: 1}),  # one-sided, the other way round
        ({(1, 1): 1}, {1: 1, 2: 1}),  # nonzero diagonal
        ({(1, 2): 1, (2, 1): -1}, {1: 1, 2: 2}),  # symmetrizer ratio 1:2, entries 1:1
        ({(1, 2): 2, (2, 1): -1}, {1: 1, 2: 2}),  # ratio right, the sign wrong way round
    ],
)
def test_constructor_rejects_non_skew_symmetrizable(eps, d):
    assert not ref_skew_symmetrizable((1, 2), eps, d)
    with pytest.raises(ValueError, match="skew-symmetrizable"):
        Seed((1, 2), eps, d)


@pytest.mark.parametrize(
    "eps, d, value",
    [
        ({(1, 2): 1, (2, 1): 1}, {1: 1, 2: -1}, -1),  # both entries of the pair positive
        ({(1, 2): 1}, {1: 1, 2: 0}, 0),  # a one-sided arrow
    ],
)
def test_constructor_refuses_a_non_positive_symmetrizer(eps, d, value):
    # eps_ij d_j = -eps_ji d_i holds on both pairs, but no positive d makes it hold
    assert not ref_skew_symmetrizable((1, 2), eps, d)
    with pytest.raises(ValueError, match=re.escape(f"symmetrizer of 2 is {value}, not positive")):
        Seed((1, 2), eps, d)
    # a label without arrows is refused too
    with pytest.raises(ValueError, match="symmetrizer of 3 is 0, not positive"):
        Seed((1, 2, 3), {}, {1: 1, 2: 1, 3: 0})


def test_seed_keeps_its_positional_data():
    # read once when the seed is built: the same tuples on every call
    cylinder = qseed("C", 3, (1, -1))
    for s in (cylinder, disk_seed_from_word("C", standard_word(2))):
        for t in (s, s.relabeled({l: ("r", l) for l in s.labels}), mutate_seed(s, -1)):
            assert t._positional() is t._positional()
            assert t._positional() == (tuple(t.d[l] for l in t.labels), tuple(l in t.frozen for l in t.labels))
            # a cylinder seed's entries are ints, a disk seed's halves Fractions
            assert t._ints is all(type(v) is int for v in t.flat) is (s is cylinder)


def test_constructor_accepts_zero_pairs_and_weighted_pairs():
    Seed((1, 2), {(1, 2): 0, (2, 1): 0}, {1: 1, 2: 1})
    Seed((1, 2), {(1, 2): 2, (2, 1): -1}, {1: 2, 2: 1})
    Seed((1, 2), {(1, 2): Fraction(1, 2), (2, 1): -1}, {1: 1, 2: 2})


@settings(max_examples=300, deadline=None)
@given(pair=seed_pairs())
def test_canonical_key_partition_matches_reference(pair):
    s, t = pair
    assert s.is_isomorphic(t) == (ref_canonical_key(s) == ref_canonical_key(t))
    assert s.canonical_key() == dict_canonical_key(s)
    assert s.is_isomorphic(s.relabeled({l: ("r", l) for l in s.labels}))


def test_isomorphism_reads_d_and_frozen_per_vertex():
    # arrowless vertices share a row signature; their symmetrizers and
    # frozen flags must still travel with them in any listing order
    d = {1: 1, 2: 2}
    assert Seed((1, 2), {}, d).is_isomorphic(Seed((2, 1), {}, d))
    assert not Seed((1, 2), {}, d).is_isomorphic(Seed((1, 2), {}, {1: 2, 2: 2}))
    same = {1: 1, 2: 1}
    assert Seed((1, 2), {}, same, frozenset([1])).is_isomorphic(Seed((2, 1), {}, same, frozenset([1])))
    assert not Seed((1, 2), {}, same, frozenset([1])).is_isomorphic(Seed((1, 2), {}, same))


@pytest.mark.parametrize(
    "kind, rank, code, sha",
    [
        ("A", 3, 0, "010736c0571ba595a824b3cc9eaca2c9bb1ec3e6dc031740dba74e9560d59066"),
        ("C", 3, 0, "51b092a5e10802e075c9aaeddb3a22747cefdad074acf26a60fa2384b4f0a79a"),
        ("A", 4, 1, "c3fc6b13cff2f6f45923a6106a956f0240bc96518981be3b6f30e69ad65dddf5"),
    ],
)
def test_mutation_equiv_json_is_pinned(capsys, kind, rank, code, sha):
    # the all-pairs Fraction implementation gave these bytes at depth 6:
    # the same seeds are visited in the same order, with the same
    # witnesses (A4 leaves 3 words unreached at this depth, so exit 1)
    assert main(["verify", "--check", "mutation-equiv", "--type", kind, "--rank", str(rank), "--depth", "6"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


@pytest.mark.parametrize(
    "kind, rank, depth, code, sha",
    [
        ("A", 4, 8, 0, "33ab9be97c2fad74f3760844086175c945e511b087df817ffbe933deb1248369"),
        ("A", 5, 6, 1, "26c95a4f20175c5e723cfad72019eb490e33469ab6e94340a33c0378765263d8"),
    ],
)
def test_mutation_equiv_json_is_pinned_where_classes_share_invariants(capsys, kind, rank, depth, code, sha):
    # bytes of the search that keyed every new matrix; at A5 depth 6, 100
    # of the classes met share their invariant with another class, so
    # each of them is told apart only by its key
    assert main(["verify", "--check", "mutation-equiv", "--type", kind, "--rank", str(rank), "--depth", str(depth)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


_SEED_OUTPUT_PINS = {
    ("A", "quiver", "json"): "827de426b6035fd2d14a0c75db687925b508701864b7804ad51b260a7170c821",
    ("A", "quiver", "dot"): "3fb773a0d0642f639219293a8358af64f8b70b7cefe948be4ebf698537265621",
    ("A", "mutate", "json"): "a53753b9da2d535f95ef30b90f1b81f9fc415fe7f73b3521a5b7ed886063d876",
    ("A", "mutate", "dot"): "12a477210d448827fea388185affe00a621db80d24e1a26a53ed98628d22b779",
    ("A", "disk", None): "d15fc5d3034cb1df5ce8e3921d5f6218c5c06daabfbbfaf953fa5c2171968c80",
    ("C", "quiver", "json"): "13dd5ac91258c07f1b02b34907c1814d796d043294eca77d132c2bd16ed796aa",
    ("C", "quiver", "dot"): "7a171353ee2d6321b7f4d3296bb9d1294460fdc59da2908fc71c5466b4f2cbb9",
    ("C", "mutate", "json"): "01f3cc0a02253ff70000e5653f69b0e135bc8ba5e8256ba9cb3f06641d81c748",
    ("C", "mutate", "dot"): "d72a3a1025675b7da6eec9507ff58a32c937a7e53c0a471969a0f916ee7d201a",
    ("C", "disk", None): "3f0cbd14a629de22b6b35aa809cc91db1e690d5d01636f53a578e2303697cc55",
}


@pytest.mark.parametrize("kind, what, fmt", sorted(_SEED_OUTPUT_PINS, key=repr))
def test_seed_output_bytes_are_pinned(capsys, kind, what, fmt):
    # every rank-3 word in enumeration order, all outputs joined: the
    # quiver and a mixed move sequence through the command line, and the
    # disk seeds (Fraction entries, frozen labels) through the serializers
    words = enumerate_double_coxeter(3)
    if what == "disk":
        seeds = [disk_seed_from_word(kind, w) for w in words]
        out = "\n".join(f"{dumps(seed_to_dict(s))}\n{seed_to_dot(s)}" for s in seeds)
    else:
        extra = ["--seq", "tau:1,mu:-2,tau:3"] if what == "mutate" else []
        for w in words:
            word = ",".join(map(str, w.letters))
            assert main([what, *extra, "--format", fmt, "--type", kind, "--rank", "3", f"--word={word}"]) == 0
        out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _SEED_OUTPUT_PINS[kind, what, fmt]


def test_swap_fixes_other_indices():
    s = qseed("A", 2, (0,))
    t, applied = mutate_swap(s, 2)
    assert applied == {2: -2, -2: 2}
    assert set(t.labels) == set(s.labels)


def two_step_swap(seed, k):
    """The tau move as two seeds: mutation at -k, then the k <-> -k relabeling."""
    return mutate_seed(seed, -k).relabeled({k: -k, -k: k})


@settings(max_examples=300, deadline=None)
@given(s=random_seeds(max_vertices=6))
def test_tau_move_matches_mutation_then_relabeling(s):
    # labels 1..m become 1, -1, 2, -2, ...: some k have both signs present
    signed = s.relabeled({l: (l + 1) // 2 * (1 if l % 2 else -1) for l in s.labels})
    for k in sorted({abs(l) for l in signed.labels}):
        if -k not in signed.labels or -k in signed.frozen:
            with pytest.raises(ValueError):
                mutate_swap(signed, k)
            continue
        t, applied = mutate_swap(signed, k)
        assert applied == {k: -k, -k: k}
        # same labels in the same order, entries, symmetrizers and frozen set
        assert t == two_step_swap(signed, k)


def test_tau_move_builds_one_checked_seed(monkeypatch):
    s = qseed("C", 3, (1, -1))
    checked = []
    validate = Seed._check

    def counting(seed):
        checked.append(seed)
        validate(seed)

    monkeypatch.setattr(Seed, "_check", counting)
    for k in (1, 2, 3):
        t, _ = mutate_swap(s, k)
        # one seed per move, and it went through the constructor's check
        assert checked[-1] is t
        assert ref_skew_symmetrizable(t.labels, t.eps, t.d)
    assert len(checked) == 3


def signed(s):
    """Labels 1..m become 1, -1, 2, -2, ...: some k have both signs present."""
    return s.relabeled({l: (l + 1) // 2 * (1 if l % 2 else -1) for l in s.labels})


@settings(max_examples=300, deadline=None)
@given(s=random_seeds(max_vertices=6), data=st.data())
def test_flat_tau_move_matches_the_reference_mutation(s, data):
    # the search's move: the kernel at the position named -k, then the
    # names k and -k trade positions; a few moves in a row exercise the
    # traded names.  The reference mutates an entry dict over all pairs
    # and renames its keys.
    s = signed(s)
    labels, (d, frozen) = s.labels, s._positional()
    moves = data.draw(st.lists(st.sampled_from(sorted({abs(l) for l in labels})), max_size=4))
    ref, flat, names = s, s.flat, labels
    for k in moves:
        p = names.index(-k) if -k in names else None
        if p is None or frozen[p]:
            why = "no vertex" if p is None else "cannot mutate at frozen index"
            with pytest.raises(ValueError, match=re.escape(f"{why} {-k!r}")):
                _mutate(flat, names, d, frozen, -k)
            break
        flat = _mutate(flat, names, d, frozen, -k)
        swap = {k: -k, -k: k}
        names = tuple(swap.get(l, l) for l in names)
        eps = {(swap.get(i, i), swap.get(j, j)): v for (i, j), v in ref_mutate_eps(ref, -k).items()}
        ref = Seed(names, eps, dict(zip(names, d)), frozenset(l for l, f in zip(names, frozen) if f))
        # the same entries at the same positions, under the same names
        assert flat == tuple(eps.get((i, j), 0) for i in names for j in names)
        assert _matrix_key(flat, d, frozen) == dict_canonical_key(ref)


@settings(max_examples=300, deadline=None)
@given(s=random_seeds(max_vertices=6))
def test_relabeling_moves_no_entry(s):
    s = signed(s)
    assert s.relabeled({l: ("r", l) for l in s.labels}).flat is s.flat
    for k in sorted({abs(l) for l in s.labels}):
        if -k in s.labels and -k not in s.frozen:
            assert mutate_swap(s, k)[0].flat == mutate_seed(s, -k).flat


def test_built_seed_cannot_be_changed():
    s = Seed((1, -1), {(1, -1): 1, (-1, 1): -1}, {1: 1, -1: 1})
    s.eps[(-1, 1)] = 1
    with pytest.raises(TypeError):
        s.d[1] = 2
    with pytest.raises(AttributeError):
        s.flat = (0, 1, 1, 0)
    assert s.eps == {(1, -1): 1, (-1, 1): -1} and dict(s.d) == {1: 1, -1: 1}
    # nor through the dicts it was built from
    eps, d = {(1, -1): 1, (-1, 1): -1}, {1: 1, -1: 1}
    t = Seed((1, -1), eps, d)
    eps[(-1, 1)], d[1] = 1, 2
    assert t == s


def test_flat_search_checks_skew_symmetrizability():
    # a matrix no seed can hold, handed to the search's move directly:
    # eps_1,-1 = eps_-1,1 = 1; the move checks every pair it writes
    bad = (0, 1, 1, 0)
    with pytest.raises(ValueError, match="skew-symmetrizable"):
        Seed((1, -1), {(1, -1): 1, (-1, 1): 1}, {1: 1, -1: 1})
    with pytest.raises(ValueError, match=re.escape("eps not skew-symmetrizable at (-1, 1)")):
        _mutate(bad, (1, -1), (1, 1), (False, False), -1)


def skewed_write(at):
    """A list type whose item ``at``, when written, is stored off by
    one: put in ``_mutate``'s place of ``list``, it makes the kernel
    write one entry of one pair inconsistently."""

    class Skewed(list):
        def __setitem__(self, n, v):
            super().__setitem__(n, v + 1 if n == at else v)

    return Skewed


@pytest.mark.parametrize("kind, n, index, entries", [("A", 3, 0, 64), ("C", 4, 5, 74)])
def test_every_written_pair_is_checked(monkeypatch, kind, n, index, entries):
    # each entry the kernel writes, written wrong in turn, at every vertex:
    # the kernel's check of its pair refuses it, both in mutate_seed and in
    # the naturality check, which builds no second seed to check it again
    s = seed_from_word(kind, enumerate_double_coxeter(n)[index])
    m = len(s.labels)
    corrupted = 0
    for k in s.labels:
        mutated = mutate_seed(s, k).flat
        for at in [x for x, (a, b) in enumerate(zip(s.flat, mutated)) if a != b]:
            monkeypatch.setattr(cluster, "list", skewed_write(at), raising=False)
            for route in (mutate_seed, check_ensemble_naturality):
                with pytest.raises(ValueError, match="eps not skew-symmetrizable"):
                    route(s, k)
            corrupted += 1
        # control: the diagonal entry, which the kernel never writes
        monkeypatch.setattr(cluster, "list", skewed_write(s.labels.index(k) * (m + 1)), raising=False)
        assert mutate_seed(s, k).flat == mutated and check_ensemble_naturality(s, k)
        monkeypatch.undo()
    assert corrupted == entries


def test_tau_moves_check_each_written_pair_once():
    # C4 word 5: its four tau moves write 38 entries, both of each of 19
    # unordered pairs, and run one check per pair, each reading the two
    # symmetrizers of its pair
    s = seed_from_word("C", enumerate_double_coxeter(4)[5])
    d, frozen = s._positional()
    m = len(s.labels)
    reads = []

    class Counted(tuple):
        def __getitem__(self, n):
            reads.append(n)
            return tuple.__getitem__(self, n)

    entries, pairs = 0, 0
    for k in (1, 2, 3, 4):
        out = _mutate(s.flat, s.labels, Counted(d), frozen, -k)
        written = [x for x, (a, b) in enumerate(zip(s.flat, out)) if a != b]
        entries += len(written)
        pairs += len({frozenset(divmod(x, m)) for x in written})
    assert (entries, pairs) == (38, 19)
    assert len(reads) == 2 * pairs


def test_signed_moves_shift_the_quiver_vector():
    # tau at the top index carries Q=0 to Q=1 exactly, and Q=-1 to Q=0;
    # iterating leaves the three-seed family, so the move is not an
    # involution on it
    for kind in ("A", "C"):
        s0, s1, sm = (qseed(kind, 2, (q,)) for q in (0, 1, -1))
        assert mutate_swap(s0, 2)[0].eps == s1.eps
        assert mutate_swap(sm, 2)[0].eps == s0.eps
        twice = mutate_swap(mutate_swap(s0, 2)[0], 2)[0]
        assert not twice.is_isomorphic(s0)


def ref_mutation_equivalent(s1, s2, max_depth):
    """The per-target search: breadth first over tau moves from s1 until
    a seed isomorphic to s2 turns up; its move sequence or None."""
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
            for k in ranks:
                cand = mutate_swap(seed, k)[0]
                key = cand.canonical_key()
                path = hist + [("tau", k)]
                if key == target:
                    return path
                if key not in seen:
                    seen.add(key)
                    nxt.append((cand, path))
        frontier = nxt
    return None


def test_mutation_equivalence_searches():
    s0 = qseed("A", 2, (0,))
    assert mutation_equivalent(s0, [s0], 3) == [[]]
    assert mutation_equivalent(s0, [], 3) == []
    # one search per source over all of its targets: the same pairs as
    # one search per pair
    seeds = [qseed("A", 2, (q,)) for q in (-1, 0, 1)]
    for i, a in enumerate(seeds):
        assert None not in mutation_equivalent(a, seeds[i + 1 :], 4)
    seeds3 = [seed_from_word("A", w) for w in enumerate_double_coxeter(3)]
    assert None not in mutation_equivalent(seeds3[0], seeds3[1:], 6)


def test_mutation_equivalence_not_found_is_none():
    s = qseed("A", 2, (0,))
    other = Seed(s.labels, {}, s.d)  # arrowless quiver is unreachable
    assert mutation_equivalent(s, [other], 2) == [None]
    # a seed of another size has another key, so it is never reached
    assert mutation_equivalent(s, [s, qseed("A", 3, (0, 0))], 4) == [[], None]


@pytest.mark.parametrize("kind, n, unreached", [("A", 2, 0), ("A", 3, 0), ("A", 4, 3), ("C", 2, 0), ("C", 3, 0)])
def test_one_search_matches_the_per_target_search(kind, n, unreached):
    # every word as a target, the base word included, at depth 6: the
    # same move sequence, or None, as a search for that word alone
    seeds = [seed_from_word(kind, w) for w in enumerate_double_coxeter(n)]
    got = mutation_equivalent(seeds[0], seeds, 6)
    assert got == [ref_mutation_equivalent(seeds[0], s, 6) for s in seeds]
    assert got[0] == [] and got.count(None) == unreached


def test_mutation_equiv_type_c_rank4_false_negative(capsys):
    # depth 8 misses these 6 C4 words, all of one cluster structure
    assert main(["verify", "--check", "mutation-equiv", "--type", "C", "--rank", "4", "--depth", "8"]) == 1
    out = capsys.readouterr().out
    # the bytes of the search over seeds, before it walked flat matrices
    assert hashlib.sha256(out.encode()).hexdigest() == "315d23c48e48afeef4cfe3c4b5719521ffab06078a7d2da274baa0111f6617b9"
    reports = json.loads(out)["reports"]
    missed = {" ".join(map(str, r["word"])) for r in reports if not r["reachable"]}
    assert missed == {
        "-2 -1 -3 -4 1 4 3 2",
        "-1 -2 -3 -4 1 2 4 3",
        "-1 -2 -3 -4 1 4 3 2",
        "-1 -2 -3 -4 2 1 4 3",
        "-1 -2 -3 -4 3 2 1 4",
        "-1 -2 -3 -4 4 3 2 1",
    }
    assert len(reports) == 26 and all(r["path"] is None for r in reports if not r["reachable"])


@settings(max_examples=300, deadline=None)
@given(s=random_seeds(max_vertices=6), data=st.data())
def test_invariant_is_kept_by_relabeling(s, data):
    # the same seed listed in another vertex order under new names: each
    # position takes its d, frozen flag, row and column along
    image = data.draw(st.permutations(s.labels))
    t = s.relabeled(dict(zip(s.labels, image)))
    t = Seed(tuple(data.draw(st.permutations(t.labels))), t.eps, t.d, t.frozen)
    ids = {}
    assert _invariant(t.flat, *t._positional(), ids) == _invariant(s.flat, *s._positional(), ids)
    assert t.canonical_key() == s.canonical_key()


@pytest.mark.parametrize("kind, rank, depth, classes, sharing", [("A", 4, 6, 979, 0), ("C", 4, 8, 7943, 4)])
def test_equal_keys_have_equal_invariants(monkeypatch, kind, rank, depth, classes, sharing):
    # every matrix the search meets, keyed: one invariant per key, and the
    # walk yields each class once, with its key
    seeds = [seed_from_word(kind, w) for w in enumerate_double_coxeter(rank)]
    d, frozen = seeds[0]._positional()
    met = {seeds[0].flat}
    mutate = cluster._mutate

    def recorded(*args):
        met.add(out := mutate(*args))
        return out

    monkeypatch.setattr(cluster, "_mutate", recorded)
    ids = {}
    walk = [(inv, _matrix_key(flat, d, frozen), path) for inv, flat, path in _tau_orbit(seeds[0], depth, ids)]
    invariants = {}
    for flat in met:
        invariants.setdefault(_matrix_key(flat, d, frozen), set()).add(_invariant(flat, d, frozen, ids))
    assert all(len(invs) == 1 for invs in invariants.values())
    assert len(invariants) == len(walk) == classes
    assert {key: {inv} for inv, key, _ in walk} == invariants
    # classes told apart only by their keys
    per_invariant = {}
    for invs in invariants.values():
        per_invariant[min(invs)] = per_invariant.get(min(invs), 0) + 1
    assert sum(n for n in per_invariant.values() if n > 1) == sharing


# -- ensemble map and classical mutations --------------------------------------
# The oracle of ``check_ensemble_naturality``: both sides of the identity
# as exact rational functions.  These functions use only +, *, / and
# integer powers, so they run on any field-like values, ``RationalLaurent``
# or sympy symbols.


def a_assignment(seed: Seed) -> dict:
    """The generators A[l] of the zero-skew context on the seed's labels,
    as rational functions."""
    ctx = classical_context(tuple(f"A[{l}]" for l in seed.labels))
    return {l: RationalLaurent(ctx.generator(i)) for i, l in enumerate(seed.labels)}


def mutate_X_classical(assignment: dict, seed: Seed, k) -> dict:
    """Pullback of the new X-coordinates through the mutation at k:
    X_k -> X_k^-1 and X_i -> X_i X_k^[eps_ki]+ (1 + X_k)^(-eps_ki),
    over field elements, unsimplified.  The exponent is eps_(k,i), the
    convention of ``check_ensemble_naturality``; the transport of the
    quantum Hamiltonians needs -eps_(i,k)."""
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



def test_ensemble_substitution_trivial_and_column_read():
    s = Seed((1,), {}, {1: 1})
    a = {1: sympy.Symbol("a_1", positive=True)}
    assert ensemble_substitution(s, a) == {1: 1}
    # X_i -> prod_j A_j^(eps_ji): exponents read down column i
    s2 = qseed("A", 2, (0,))
    a = {l: sympy.Symbol(f"a_{l}", positive=True) for l in s2.labels}
    images = ensemble_substitution(s2, a)
    for i in s2.labels:
        col = {a[j]: s2.entry(j, i) for j in s2.labels if s2.entry(j, i)}
        assert images[i].as_powers_dict() == col, i
    assert images[1] != 1


def _naturality_sides(seed: Seed, k, mutated: tuple) -> tuple[list, list]:
    """The factored oracle: both sides of the naturality identity at k,
    one (c, u, b) per label, read off integer columns; ``mutated``, a
    flat matrix with the labels of seed in the same order, is taken as
    mu_k(seed).  The X mutation's exponent is eps_(k,i), as in
    ``mutate_X_classical`` and ``check_ensemble_naturality``.

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
    flat, new = (tuple(map(_integral, f)) for f in (seed.flat, mutated))
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


def rational_sides(seed, k, mutated):
    """The oracle route: both sides of the naturality identity at k as
    ``RationalLaurent`` values, label by label, with ``mutated`` taken as
    the mutated seed."""
    a_vals = a_assignment(seed)
    lhs = mutate_X_classical(ensemble_substitution(seed, a_vals), seed, k)
    rhs = ensemble_substitution(mutated, mutate_A_classical(a_vals, seed, k))
    return [lhs[i] for i in seed.labels], [rhs[i] for i in seed.labels]


def expand(seed, k, side):
    """Each factored (c, u, b) of a side multiplied out as c A^u B^b."""
    a_vals = a_assignment(seed)
    binomial = mutate_A_classical(a_vals, seed, k)[k] * a_vals[k]
    out = []
    for c, u, b in side:
        value = binomial**b * c.numerator / c.denominator
        for l, x in zip(seed.labels, u):
            value *= a_vals[l] ** x
        out.append(value)
    return out


def test_ensemble_naturality_on_rank2_seeds():
    for q in [(-1,), (0,), (1,)]:
        s = qseed("A", 2, q)
        for k in s.labels:
            assert check_ensemble_naturality(s, k)


def test_ensemble_naturality_matches_sympy_oracle():
    # every (seed, vertex) of types A and C at ranks 2-3; the oracle
    # feeds sympy symbols through the same operator-only functions
    pairs = 0
    for kind in ("A", "C"):
        for n in (2, 3):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                a_sym = {l: sympy.Symbol(f"a_{l}", positive=True) for l in s.labels}
                for k in s.labels:
                    lhs = mutate_X_classical(ensemble_substitution(s, a_sym), s, k)
                    rhs = ensemble_substitution(mutate_seed(s, k), mutate_A_classical(a_sym, s, k))
                    oracle = all(sympy.simplify(lhs[i] - rhs[i]) == 0 for i in s.labels)
                    assert oracle
                    assert check_ensemble_naturality(s, k) is oracle, (kind, w, k)
                    # negative control: the right-hand side read off the
                    # unmutated seed
                    lhs, rhs = rational_sides(s, k, s)
                    assert lhs != rhs, (kind, w, k)
                    pairs += 1
    assert pairs == 132
    # no arrows: every ensemble image is the field's one, not the int 1,
    # so mutating at it gives no float 1.0
    s = Seed((1, 2), {}, {1: 1, 2: 1})
    images = ensemble_substitution(s, a_assignment(s))
    assert all(isinstance(v, RationalLaurent) for v in images.values())
    assert check_ensemble_naturality(s, 1)


def test_factored_naturality_matches_the_rational_route():
    # every (seed, vertex) of types A and C at ranks 2-4
    pairs = 0
    for kind in ("A", "C"):
        for n in (2, 3, 4):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                for k in s.labels:
                    mutated = mutate_seed(s, k)
                    lhs, rhs = rational_sides(s, k, mutated)
                    assert check_ensemble_naturality(s, k) is (lhs == rhs) is True, (kind, w, k)
                    # and the factored oracle agrees
                    lhs, rhs = _naturality_sides(s, k, mutated.flat)
                    assert lhs == rhs, (kind, w, k)
                    pairs += 1
    assert pairs == 564


def test_factored_sides_expand_to_the_rational_sides():
    # ranks 2-3: each side, multiplied out, is the oracle's side, both for
    # the mutated seed and for the unmutated one passed in its place
    for kind in ("A", "C"):
        for n in (2, 3):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                for k in s.labels:
                    for t in (mutate_seed(s, k), s):
                        lhs, rhs = _naturality_sides(s, k, t.flat)
                        assert [expand(s, k, lhs), expand(s, k, rhs)] == list(rational_sides(s, k, t)), (kind, w, k)


def test_factored_sides_reject_a_wrong_mutated_seed():
    pairs = 0
    for kind in ("A", "C"):
        for n in (2, 3):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                for k in s.labels:
                    # the unmutated seed in place of the mutated one
                    lhs, rhs = _naturality_sides(s, k, s.flat)
                    assert lhs != rhs, (kind, w, k)
                    pairs += 1
                    # the mutated seed with one arrow reversed
                    m = mutate_seed(s, k)
                    for (i, j), v in m.eps.items():
                        if i < j:
                            eps = {**m.eps, (i, j): -v, (j, i): -m.eps[(j, i)]}
                            lhs, rhs = _naturality_sides(s, k, Seed(m.labels, eps, m.d).flat)
                            assert lhs != rhs, (kind, w, k, (i, j))
    assert pairs == 132


def wrong_mutations(s, mutated):
    """Flat matrices that are not ``mutated``, the flat mu_k(s): the
    unmutated matrix, unless mutating at an arrowless vertex leaves it
    as it is, the mutated one with one arrow reversed, and the mutated
    one with one entry off by one, each in turn."""
    m = len(s.labels)
    if s.flat != mutated:
        yield s.flat
    for x, v in enumerate(mutated):
        i, j = divmod(x, m)
        if v and i < j:
            reversed_ = list(mutated)
            reversed_[x], reversed_[j * m + i] = -v, -mutated[j * m + i]
            yield tuple(reversed_)
    for x in range(m * m):
        yield mutated[:x] + (mutated[x] + 1,) + mutated[x + 1 :]


def test_wrong_mutations_fail_the_library_check(monkeypatch):
    # the check itself, with a stand-in for the kernel that returns a
    # wrong matrix: it says False on every wrong matrix, as the factored
    # oracle does, and True with the real kernel
    real = cluster._mutate
    monkeypatch.setattr(cluster, "_mutate", lambda flat, labels, d, frozen, k: wrong)
    pairs = controls = 0
    for kind in ("A", "C"):
        for n in (2, 3):
            for w in enumerate_double_coxeter(n):
                s = seed_from_word(kind, w)
                for k in s.labels:
                    mutated = real(s.flat, s.labels, *s._positional(), k)
                    for wrong in wrong_mutations(s, mutated):
                        lhs, rhs = _naturality_sides(s, k, wrong)
                        assert check_ensemble_naturality(s, k) is (lhs == rhs) is False, (kind, w, k, wrong)
                        controls += 1
                    wrong = mutated
                    assert check_ensemble_naturality(s, k), (kind, w, k)
                    pairs += 1
    # 132 unmutated matrices, 996 with one arrow reversed, 4,272 with one entry off by one
    assert (pairs, controls) == (132, 5400)


@st.composite
def integral_seeds(draw):
    """Skew-symmetrizable seeds with integral entries, each held as an
    int or a ``Fraction``, some frozen labels and often a vertex without
    arrows (whose exchange binomial is the constant 2); in about one seed
    in five an entry may be a half, which the naturality check refuses."""
    m = draw(st.integers(min_value=1, max_value=5))
    labels = tuple(range(1, m + 1))
    d = {l: draw(st.sampled_from([1, 2])) for l in labels}
    isolated = draw(st.sampled_from((None,) + labels))
    halves = draw(st.integers(min_value=0, max_value=4)) == 0
    eps = {}
    for i in labels:
        for j in labels:
            if i >= j or isolated in (i, j):
                continue
            v = draw(st.sampled_from(_ENTRIES if halves else _ENTRIES[::2]))
            back = -v * d[j] / d[i]
            if v and (back * (2 if halves else 1)).denominator == 1:
                eps[(i, j)], eps[(j, i)] = (x if draw(st.booleans()) or x.denominator != 1 else x.numerator for x in (v, back))
    frozen = frozenset(l for l in labels if draw(st.booleans()) and l != 1)
    return Seed(labels, eps, d, frozen)


@settings(max_examples=300, deadline=None)
@given(s=integral_seeds())
def test_check_matches_the_factored_oracle_on_random_seeds(s):
    integral = all(v.denominator == 1 for v in s.flat)
    for k in s.labels:
        if k in s.frozen:
            with pytest.raises(ValueError, match="cannot mutate at frozen index"):
                check_ensemble_naturality(s, k)
            continue
        if not integral:
            # both refuse the halves, with one message
            for route in (lambda: check_ensemble_naturality(s, k), lambda: _naturality_sides(s, k, s.flat)):
                with pytest.raises(ValueError, match="^classical mutation needs integral entries$"):
                    route()
            continue
        mutated = mutate_seed(s, k).flat
        lhs, rhs = _naturality_sides(s, k, mutated)
        assert check_ensemble_naturality(s, k) is (lhs == rhs) is True
        # a wrong matrix through a stand-in kernel: both say False
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cluster, "_mutate", lambda *args: wrong)
            for wrong in wrong_mutations(s, mutated):
                lhs, rhs = _naturality_sides(s, k, wrong)
                assert check_ensemble_naturality(s, k) is (lhs == rhs) is False


def test_isolated_vertex_folds_the_constant_binomial():
    # vertex 3 has no arrows, so B = 1 + 1 = 2
    s = Seed((1, 2, 3), {(1, 2): 1, (2, 1): -1}, {1: 1, 2: 1, 3: 1})
    assert all(check_ensemble_naturality(s, k) for k in s.labels)
    lhs, rhs = _naturality_sides(s, 3, mutate_seed(s, 3).flat)
    assert lhs == rhs and all(c == 1 and b == 0 for c, _, b in lhs)
    # a wrong mutated seed with an arrow at 3: its power of 2 lands in c
    wrong = Seed(s.labels, {**s.eps, (3, 1): 1, (1, 3): -1}, s.d)
    lhs, rhs = _naturality_sides(s, 3, wrong.flat)
    assert lhs[0] == (1, (0, -1, 0), 0) and rhs[0] == (2, (0, -1, -1), 0)
    assert [expand(s, 3, lhs), expand(s, 3, rhs)] == list(rational_sides(s, 3, wrong))


@pytest.mark.parametrize("kind, n", [("A", 2), ("A", 3), ("C", 2)])
def test_half_entries_are_refused_at_every_vertex(kind, n):
    integral = "classical mutation needs integral entries"
    for w in enumerate_double_coxeter(n):
        s = disk_seed_from_word(kind, w)
        assert any(v.denominator != 1 for v in s.eps.values())
        for k in s.labels:
            # each route reads every entry, and refuses the halves
            with pytest.raises(ValueError, match=integral):
                _naturality_sides(s, k, s.flat)
            with pytest.raises(ValueError, match=integral):
                rational_sides(s, k, s)
            # the check reads k first, so a frozen k is refused as such
            with pytest.raises(ValueError, match="cannot mutate at frozen index" if k in s.frozen else integral):
                check_ensemble_naturality(s, k)


def test_naturality_refuses_an_unknown_or_frozen_vertex():
    s = qseed("A", 2, (0,))
    for k in (9, 0, "1"):
        with pytest.raises(ValueError, match="no vertex .* to mutate at"):
            check_ensemble_naturality(s, k)
    frozen = Seed((1, 2), {(1, 2): 1, (2, 1): -1}, {1: 1, 2: 1}, frozenset([2]))
    with pytest.raises(ValueError, match="cannot mutate at frozen index 2"):
        check_ensemble_naturality(frozen, 2)
    # the vertex is read before any entry: a disk seed's halves do not speak first
    disk = disk_seed_from_word("A", standard_word(2))
    with pytest.raises(ValueError, match="no vertex 9 to mutate at"):
        check_ensemble_naturality(disk, 9)


def test_classical_x_mutation_branches():
    s = qseed("A", 2, (0,))
    xs = {l: sympy.Symbol(f"x{i}", positive=True) for i, l in enumerate(s.labels)}
    out = mutate_X_classical(xs, s, 1)
    assert sympy.simplify(out[1] - 1 / xs[1]) == 0
    # an index not connected to k stays put
    far = next(l for l in s.labels if s.entry(1, l) == 0 and l != 1)
    assert out[far] == xs[far]


def test_classical_double_mutation_restores():
    s = qseed("A", 2, (0,))
    xs = {l: sympy.Symbol(f"x{i}", positive=True) for i, l in enumerate(s.labels)}
    k = 1
    once = mutate_X_classical(xs, s, k)
    back = mutate_X_classical(once, mutate_seed(s, k), k)
    for l in s.labels:
        assert sympy.simplify(back[l] - xs[l]) == 0
    a_vals = {l: sympy.Symbol(f"a{i}", positive=True) for i, l in enumerate(s.labels)}
    once_a = mutate_A_classical(a_vals, s, k)
    back_a = mutate_A_classical(once_a, mutate_seed(s, k), k)
    for l in s.labels:
        assert sympy.simplify(back_a[l] - a_vals[l]) == 0


def test_seed_dot_emitter():
    dot = seed_to_dot(qseed("C", 2, (0,)))
    assert "digraph" in dot and '"4"' in dot or "label=\"4\"" in dot
