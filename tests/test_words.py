import pytest

from qtoda.words import (
    DoubleWord,
    enumerate_double_coxeter,
    index_vector_of,
    quiver_vector_of,
    standard_word,
    word_of_quiver_vector,
)


def test_rank1_enumeration():
    words = enumerate_double_coxeter(1)
    assert [w.letters for w in words] == [(-1, 1)]


def test_rank2_words_match_stated_set():
    got = {w.letters for w in enumerate_double_coxeter(2)}
    assert got == {(-1, -2, 1, 2), (-2, -1, 1, 2), (-1, -2, 2, 1)}


def test_census_counts():
    for n in range(1, 9):
        assert len(enumerate_double_coxeter(n)) == 3 ** (n - 1)


def test_rank2_quiver_vectors():
    assert quiver_vector_of(DoubleWord(2, (-1, -2, 1, 2))) == (0,)
    assert quiver_vector_of(DoubleWord(2, (-2, -1, 1, 2))) == (1,)
    assert quiver_vector_of(DoubleWord(2, (-1, -2, 2, 1))) == (-1,)


def test_roundtrip_all_ranks():
    from itertools import product

    for n in range(1, 6):
        for q in product((-1, 0, 1), repeat=n - 1):
            assert quiver_vector_of(word_of_quiver_vector(n, q)) == q


def test_standard_word_is_all_zero_vector():
    for n in range(1, 6):
        w = standard_word(n)
        assert w.letters == tuple(range(-1, -n - 1, -1)) + tuple(range(1, n + 1))
        assert quiver_vector_of(w) == (0,) * (n - 1)


def commutation_class(word: DoubleWord, cap: int = 20000) -> set[tuple[int, ...]]:
    """All letter sequences reachable by adjacent commutation moves.

    Moves: swap same-sign letters with index distance > 1, and swap
    opposite-sign letters with distinct indices.  The oracle for the
    distinctness of canonical words; rotations are not included.
    """
    start = word.letters
    seen = {start}
    frontier = [start]
    while frontier:
        if len(seen) > cap:
            raise RuntimeError("commutation class exceeded cap")
        cur = frontier.pop()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            same_sign = (a > 0) == (b > 0)
            if same_sign and abs(abs(a) - abs(b)) <= 1:
                continue
            if not same_sign and abs(a) == abs(b):
                continue
            nxt = cur[:i] + (b, a) + cur[i + 2:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_enumeration_distinct_under_commutation_closure():
    words = enumerate_double_coxeter(4)
    assert len(words) == 27
    classes = [commutation_class(w) for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert words[j].letters not in classes[i]


def test_word_validation():
    with pytest.raises(ValueError):
        DoubleWord(2, (1, 2, -1, -2))  # mixed
    with pytest.raises(ValueError):
        DoubleWord(2, (-1, -1, 1, 2))  # repeated letter
    with pytest.raises(ValueError):
        DoubleWord(2, (-1, -2, 1))  # wrong length


def test_index_vector_padding():
    assert index_vector_of(()) == (0, 0)
    assert index_vector_of((1,)) == (0, 1, 0)
    assert index_vector_of((-1, 0, 1)) == (0, -1, 0, 1, 0)


def test_doubly_flipped_pattern_lands_on_zero():
    # both relative orders reversed is rotation-equivalent to neither
    w = DoubleWord(2, (-2, -1, 2, 1))
    assert quiver_vector_of(w) == (0,)


def test_unique_canonical_word_for_vector():
    words = enumerate_double_coxeter(3)
    hits = [w for w in words if quiver_vector_of(w) == (1, -1)]
    assert len(hits) == 1


def test_quiver_vector_bijection_up_to_rank5():
    from itertools import product as iproduct

    for n in range(1, 6):
        words = enumerate_double_coxeter(n)
        vectors = {quiver_vector_of(w) for w in words}
        assert vectors == set(iproduct((-1, 0, 1), repeat=n - 1))
