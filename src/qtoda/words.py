"""Unmixed double reduced Coxeter words and their quiver vectors.

A double Coxeter word of rank n uses every letter of {-n..-1, 1..n}
exactly once, negatives before positives.  Words are counted up to the
letter commutation relations (same-sign letters with distant indices,
opposite-sign letters with distinct indices) together with rotation on
the cylinder; the classes are encoded by vectors in {-1,0,1}^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

QuiverVector = tuple[int, ...]  # (Q_{n-1}, ..., Q_1), entries in {-1,0,1}
IndexVector = tuple[int, ...]  # (k_m, ..., k_1), entries in {-1,0,1}


@dataclass(frozen=True)
class DoubleWord:
    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        n, letters = self.n, self.letters
        if n < 1:
            raise ValueError("rank must be positive")
        if len(letters) != 2 * n:
            raise ValueError("word must have 2n letters")
        if sorted(letters) != sorted(list(range(-n, 0)) + list(range(1, n + 1))):
            raise ValueError("letters must be -n..-1, 1..n each exactly once")
        if any(x > 0 for x in letters[:n]) or any(x < 0 for x in letters[n:]):
            raise ValueError("word must be unmixed: negative letters first")

    @property
    def negatives(self) -> tuple[int, ...]:
        return self.letters[: self.n]

    @property
    def positives(self) -> tuple[int, ...]:
        return self.letters[self.n:]

    def position(self, letter: int) -> int:
        """Chip position of a letter, counting the diagonal chip.

        Chips are laid out as [negatives..., diagonal, positives...], so
        positive letters sit one slot to the right of their word index.
        """
        idx = self.letters.index(letter)
        return idx if letter < 0 else idx + 1

    def __iter__(self):
        return iter(self.letters)


def standard_word(n: int) -> DoubleWord:
    return DoubleWord(n, tuple(range(-1, -n - 1, -1)) + tuple(range(1, n + 1)))


def quiver_vector_of(word: DoubleWord) -> QuiverVector:
    """Entries Q_k from the relative placement of letters +-(k+1) vs +-k.

    Q_k = [-(k+1) precedes -k] - [(k+1) precedes k]; the placement with
    both pairs swapped is rotation-equivalent to the unswapped one, and
    the difference formula lands it on 0 accordingly.
    """
    neg_rank = {-x: i for i, x in enumerate(word.negatives)}
    pos_rank = {x: i for i, x in enumerate(word.positives)}
    out = []
    for k in range(word.n - 1, 0, -1):
        bn = 1 if neg_rank[k + 1] < neg_rank[k] else 0
        bp = 1 if pos_rank[k + 1] < pos_rank[k] else 0
        out.append(bn - bp)
    return tuple(out)


def word_of_quiver_vector(n: int, qvec: QuiverVector) -> DoubleWord:
    """Canonical unmixed word realizing a quiver vector.

    Letter k+1 is inserted directly before k when the corresponding
    order bit is set, appended otherwise; negatives realize Q_k = 1,
    positives Q_k = -1.
    """
    if len(qvec) != n - 1:
        raise ValueError("quiver vector must have length n-1")
    if any(q not in (-1, 0, 1) for q in qvec):
        raise ValueError("quiver vector entries must be -1, 0 or 1")
    asc = list(reversed(qvec))  # (Q_1, ..., Q_{n-1})
    neg, pos = [1], [1]
    for k in range(1, n):
        if asc[k - 1] == 1:
            neg.insert(neg.index(k), k + 1)
        else:
            neg.append(k + 1)
        if asc[k - 1] == -1:
            pos.insert(pos.index(k), k + 1)
        else:
            pos.append(k + 1)
    return DoubleWord(n, tuple(-x for x in neg) + tuple(pos))


def enumerate_double_coxeter(n: int) -> list[DoubleWord]:
    """All 3^(n-1) canonical words, ordered lexicographically by letters."""
    words = [
        word_of_quiver_vector(n, qvec)
        for qvec in product((-1, 0, 1), repeat=n - 1)
    ]
    return sorted(words, key=lambda w: w.letters)


def index_vector_of(qvec: QuiverVector) -> IndexVector:
    """Pad a quiver vector with zeros on both ends: (0, Q_{n-1..1}, 0)."""
    return (0,) + tuple(qvec) + (0,)
