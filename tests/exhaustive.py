"""Exhaustive oracles the tests check the library against.

ML decoding scored over all |X|^n words of ``simulate.SequenceSpace``,
and the left ideals found by scanning all 2^|R| subsets of a ring.  No
library path runs them; they are the references the trellis decoder and
``enumerate_left_ideals`` must match.
"""

import numpy as np

from ringcoding.rings import FiniteRing, LeftIdeal, RingMatrix
from ringcoding.simulate import DEFAULT_BUDGET, SequenceSpace, _position, _syndrome


class _CosetIndex:
    """Groups all words by codeword key: coset lookup and per-coset decisions."""

    def __init__(self, space: SequenceSpace, a: RingMatrix):
        self.space = space
        self.keys = space.encode_keys(a)
        # the narrowest type that holds every key: a stable sort gives the
        # same permutation at any width, and is a radix sort up to 16 bits
        narrow = self.keys.astype(np.min_scalar_type(space.ring.order**a.rows - 1))
        self.order = np.argsort(narrow, kind="stable")
        sorted_keys = narrow[self.order]
        self.starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        self.coset_keys = sorted_keys[self.starts].astype(np.int64)
        self.sizes = np.diff(np.r_[self.starts, space.count])

    def coset_of(self, key):
        """Position of the coset with this key (or of each key in an
        array), -1 where no word has it."""
        return _position(self.coset_keys, key)

    def coset_members(self, key: int) -> np.ndarray:
        c = self.coset_of(key)
        if c < 0:
            return self.order[:0]
        return self.order[self.starts[c]:self.starts[c] + self.sizes[c]]

    def decide(self, score: np.ndarray):
        """Per-coset (best score, winner, hits) for a score on every word.

        The winner is the smallest word index within 1e-12 of the best
        score and hits counts the words that close.  The sort is stable,
        so each coset lists its words by ascending index.
        """
        s = score[self.order]
        best = np.maximum.reduceat(s, self.starts)
        close = s >= np.repeat(best - 1e-12, self.sizes)
        hits = np.add.reduceat(close, self.starts, dtype=np.int64)
        winner = np.minimum.reduceat(np.where(close, self.order, self.space.count), self.starts)
        return best, winner, hits


def solution_coset(a: RingMatrix, z, elements=None, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All words x (rows, as element vectors) with A x = z, by exact
    enumeration of the word space."""
    z = _syndrome(a, z)
    space = SequenceSpace(a.ring, elements if elements is not None else range(a.ring.order), a.cols, budget)
    index = _CosetIndex(space, a)
    members = index.coset_members(space.codeword_key(z))
    return space.elements[space.digits[np.sort(members)].astype(np.int64)]


def _is_left_ideal(ring: FiniteRing, members) -> bool:
    """Closed under addition, additive inverses and left multiplication
    by every ring element."""
    mem = set(members)
    for x in members:
        if any(int(ring.add[x, y]) not in mem for y in members):
            return False
        inverses = np.flatnonzero(ring.add[x] == ring.zero)
        if len(inverses) == 0:
            raise ValueError(f"element {x} has no additive inverse")
        if int(inverses[0]) not in mem:
            return False
        if any(int(ring.mul[r, x]) not in mem for r in range(ring.order)):
            return False
    return True


def brute_force_left_ideals(ring: FiniteRing):
    """Oracle: scan all 2^|R| subsets for the left-ideal property."""
    if ring.order > 16:
        raise ValueError("brute force limited to small rings")
    elems = [i for i in range(ring.order) if i != ring.zero]
    found = []
    for mask in range(1 << len(elems)):
        members = {ring.zero} | {elems[b] for b in range(len(elems)) if mask >> b & 1}
        candidate = LeftIdeal(ring, tuple(members))
        if _is_left_ideal(ring, candidate.members):
            found.append(candidate)
    return sorted(found, key=lambda ideal: (ideal.order, ideal.members))
