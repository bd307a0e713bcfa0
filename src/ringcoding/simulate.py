"""Monte Carlo simulation of random linear coding over a finite ring.

The encoder is a uniformly random k x n matrix A over the ring; decoding
searches the solution coset {x : A x = z}.  The maximum-likelihood
decoder runs on Wolf's syndrome trellis of A (J. K. Wolf, IEEE Trans. IT
24(1), 1978), built forward once per run: its levels hold only the
partial syndromes some word reaches, so a run costs about
n |X|^2 |R|^k steps rather than |X|^n.  A level is found without a
global sort: its keys are marked in a dense table over R^k, read back
in order, and a position table gives the moves; only a level far
narrower than |R|^k, or a key space past the state budget, is sorted.
A trial's coset is found by walking its digits through the moves, so no
syndrome of a decoded word is computed.  One top-2 list Viterbi pass
with the source's Markov prior decides every coset at once: its exact
best log-probability, its tie flag and, when no other word comes within
1e-12, its winner (the same float sums, winner and tie flag as scoring
every coset member).  The trial loop reads that table, as it counts a
tied or probability-0 coset as a tie or atypical without reading its
winner; ``ml_decode`` finds such a winner by a lexicographic search on
the part of the trellis that reaches the coset, which one backward walk
over the forward moves picks out, one coset at a time.  ML decoding
within the coset can only beat the typical-set decoder used by the
achievability argument, so measured error rates are honest upper-bound
surrogates; ``TypicalSetDecoder`` mirrors the proof's error-event split
on tiny instances, and the trellis walk finds its typical words' cosets
as it finds the trials'.  Both simulators run one trial loop (a single
source is the computing run of the identity function).
``SequenceSpace`` enumerates all |X|^n words.
The exhaustive oracles built on it (ML scored over every word of a coset,
and the coset's members) live with the tests in ``tests/exhaustive.py``;
``SequenceSpace`` stays here because the benchmark's tracer wraps it by
name.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .functions import (FunctionSpec, Presentation, SumProcess, _letter_indices,
                        sum_process_chain)
from .markov import MarkovChain, invariant_distribution
from .rings import (FiniteRing, RingMatrix, _integer, _integers, apply_linear_map,
                    random_linear_map)
from .typicality import _sample_paths, enumerate_typical_paths

__all__ = [
    "SimConfig",
    "SimResult",
    "SequenceSpace",
    "TypicalSetDecoder",
    "ml_decode",
    "run_single_source_sim",
    "run_computing_sim",
]

# the trellis's states (its move entries), the words of a SequenceSpace,
# or the typical words a TypicalSetDecoder lists
DEFAULT_BUDGET = 10**7
# scores a top-2 pass step adds, or digits a translation block moves, at
# once: a few MB of scratch at any alphabet
_PASS_CELLS = 2**18
# a trellis level marks its keys in a dense table over all |R|^k keys
# while that table is at most this many times the level's |X| x width
# entries, and sorts them otherwise.  One level at |R|^k = 2^20 on 2
# cores: the dense table takes 0.3 ms at 1,024 entries (the sort 0.05),
# breaks even with the sort at 32-64x and is 1.5x faster at 16x
_DENSE_RATIO = 16


@dataclass
class SimConfig:
    """Configuration for one simulation run.

    Exactly one source form applies: ``chain`` (single source over the
    ring), or ``joint``/``schedule`` plus ``function`` and
    ``presentation`` (function computing with identical encoders; a
    schedule is a list of chains applied cyclically).
    """

    ring: FiniteRing
    n: int
    k: int
    trials: int
    seed: int = 0
    decoder: str = "ml"  # "ml" | "typicality"
    eps: float = 0.3
    budget: int = DEFAULT_BUDGET
    keep_trials: bool = False
    chain: MarkovChain | None = None
    joint: MarkovChain | None = None
    schedule: list | None = None
    function: FunctionSpec | None = None
    presentation: Presentation | None = None

    def __post_init__(self):
        for name in ("n", "k", "trials", "seed", "budget"):
            _integer(getattr(self, name), name)
        if self.n < 2 or self.k < 1 or self.trials < 1:
            raise ValueError("need n >= 2, k >= 1, trials >= 1")
        if self.decoder not in ("ml", "typicality"):
            raise ValueError(f"unknown decoder {self.decoder!r}")


@dataclass
class SimResult:
    """Aggregated outcome of a simulation run."""

    trials: int
    errors: int
    ties: int
    error_prob: float
    stderr: float
    coset_sizes: dict
    decode_modes: dict = field(default_factory=dict)
    identity_checked: int = 0
    identity_failures: int = 0
    trial_rows: list | None = None  # (trial, outcome, coset_size) when kept

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "ties": self.ties,
            "error_prob": self.error_prob,
            "stderr": self.stderr,
            "coset_sizes": {str(k): v for k, v in sorted(self.coset_sizes.items())},
            "decode_modes": dict(self.decode_modes),
            "identity_checked": self.identity_checked,
            "identity_failures": self.identity_failures,
        }


def _alphabet(ring: FiniteRing, elements) -> np.ndarray:
    """``elements`` as an int64 array of distinct ring elements; anything
    else (1.7, a repeat, an element outside the ring) is refused with
    ValueError rather than truncated or read twice."""
    e = _integers(list(elements), "elements")
    if e.ndim != 1 or not len(e) or e.min() < 0 or e.max() >= ring.order \
            or len(set(e.tolist())) < len(e):
        raise ValueError(f"elements must be distinct ring elements in 0..{ring.order - 1}")
    return e


def _refuse_key_width(ring: FiniteRing, rows: int) -> None:
    if ring.order**rows > 2**62:
        raise ValueError("codeword space too large to pack into int64 keys")


def _pack(z, order: int):
    """Key of a syndrome, or of each row of a ``(..., k)`` table: output i
    weighs order^i."""
    z = np.asarray(z, dtype=np.int64)
    return z @ order ** np.arange(z.shape[-1], dtype=np.int64)


def _position(table: np.ndarray, keys):
    """Position of a key (or of each key in an array) in the sorted
    distinct ``table``, -1 where it is absent."""
    return np.where(np.isin(keys, table), np.searchsorted(table, keys), -1)


def _log_terms(chain: MarkovChain, m: int, init=None):
    """log2 of the initial law (pi unless given) and of P, for a chain
    whose state i is digit i of an m-letter alphabet."""
    if chain.n != m:
        raise ValueError("chain state count must match the alphabet")
    init = invariant_distribution(chain) if init is None else np.asarray(init, float)
    with np.errstate(divide="ignore"):
        return np.log2(init), np.log2(chain.P)


class SequenceSpace:
    """All length-n words over an element alphabet, mixed-radix indexed:
    the exhaustive oracle the trellis decoder is checked against.

    ``elements`` lists the ring elements the source can emit (the whole
    ring for a single source, the reachable sum set for computing runs);
    digit d at a position means element ``elements[d]``.  Word i has the
    base-m digits of i, first position most significant, so word
    ``prefix * m + d`` extends ``prefix`` by digit d: every per-word table
    is built by this prefix recursion in about m^n steps.

    Its tables take about n + 24 bytes per word (the int8 digit table,
    then int64 keys, int64 sort order and float64 scores) and peak at
    about n + 41 while the tests' exhaustive coset index decides the
    cosets: about 0.2 GB for Z4 at n = 11.  No simulator path builds one.
    It is the one table of all |X|^n words, so it alone refuses more than
    ``budget`` words, and more than 127 letters, which int8 digits cannot
    hold.
    """

    def __init__(self, ring: FiniteRing, elements, n: int, budget: int = DEFAULT_BUDGET):
        self.ring = ring
        self.elements = _alphabet(ring, elements)
        self.n = n
        m = len(self.elements)
        if m > 127:
            raise ValueError(f"alphabet of {m} elements does not fit the int8 digit table")
        count = m**n
        if count > budget:
            raise ValueError(f"{m}^{n} sequences exceed the enumeration budget {budget}")
        self.count = count
        self._radix = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.digits = np.empty((count, n), dtype=np.int8)
        column = np.arange(m, dtype=np.int8)[:, None]
        for j in range(n):
            self.digits.reshape(m**j, m, m ** (n - 1 - j), n)[:, :, :, j] = column

    def index_of(self, digits):
        """Index of a digit word, or of every row of a ``(..., n)`` table."""
        return np.asarray(digits, dtype=np.int64) @ self._radix

    def encode_keys(self, a: RingMatrix) -> np.ndarray:
        """Key of A x for every word x, packing the k outputs base-|R|.

        By prefix recursion: the keys over the first j + 1 positions are
        those over the first j, each moved by the m elements a_j x_j
        (``_translate``, the trellis's step), so word ``prefix * m + d``
        gets entry [prefix, d].  This tree serves every word at once and
        the row kernel ``apply_linear_map`` serves given words.  Running
        the row kernel over all |X|^n words would need count x n element
        tables, which this recursion never builds.
        """
        _refuse_key_width(self.ring, a.rows)
        keys = _origin(a)
        for j in range(self.n):
            keys = _translate(a, self.elements, keys, j).reshape(-1)
        return keys

    def codeword_key(self, z) -> int:
        return int(_pack(z, self.ring.order))

    def log_probs(self, chain: MarkovChain, init=None) -> np.ndarray:
        """log2 probability of every word under a stationary (or given-init)
        chain whose state i corresponds to digit i.

        Each extension of a prefix adds one transition term, so the sums
        are the left-to-right ones, bit for bit."""
        l_init, l_p = _log_terms(chain, len(self.elements), init)
        lp = l_init
        for _ in range(self.n - 1):
            lp = (lp.reshape(-1, len(l_init))[:, :, None] + l_p[None]).reshape(-1)
        return lp


def _origin(a: RingMatrix) -> np.ndarray:
    """The packed zero syndrome, as a one-key level."""
    return _pack(np.full(a.rows, a.ring.zero), a.ring.order)[None]


def _translate(a: RingMatrix, elements: np.ndarray, keys: np.ndarray, c: int) -> np.ndarray:
    """Packed keys of s + a_c e: entry [i, e] for key i of ``keys`` and
    element e of the alphabet.  One gather through ``ring.add`` moves
    every digit of every key by every step at once, an (m, k, keys)
    table laid out so that each pass runs along the keys, and one pack
    folds it back into keys.  The keys go in blocks of about
    ``_PASS_CELLS`` table entries, which bounds the scratch."""
    ring = a.ring
    step = ring.mul[a.entries[:, c], elements[:, None]][:, :, None]  # a_ic e, (m, k, 1)
    weights = ring.order ** np.arange(a.rows)
    add = ring.add.astype(np.min_scalar_type(ring.order - 1)).reshape(-1)
    moved = np.empty((len(elements), len(keys)), dtype=np.int64)
    block = max(1, _PASS_CELLS // step.size)
    for lo in range(0, len(keys), block):
        digits = keys[lo:lo + block] // weights[:, None] % ring.order  # (k, block)
        moved[:, lo:lo + block] = weights @ add[digits * ring.order + step]
    return moved.T


def _distinct(moved: np.ndarray, space: int):
    """The sorted distinct keys of a translation table, and each entry's
    position among them in the narrowest type that holds it.  A
    translation is one-to-one, so no column of the positions repeats one.

    A level whose keys fill a fair share of the ``space`` of all keys
    marks them in a dense table over it: ``flatnonzero`` lists them in
    order and a position table gathers the moves.  A level far narrower
    than the key space sorts instead, and no dense table is made past
    the ``space`` the caller allows (0 for none)."""
    if space and space <= _DENSE_RATIO * moved.size:
        mark = np.zeros(space, dtype=bool)
        mark[moved] = True
        keys = np.flatnonzero(mark)
        pos = np.empty(space, dtype=np.min_scalar_type(len(keys) - 1))
        pos[keys] = np.arange(len(keys))
        return keys, pos[moved]
    keys, inverse = np.unique(moved, return_inverse=True)
    return keys, inverse.reshape(moved.shape).astype(np.min_scalar_type(len(keys) - 1))


class _Trellis:
    """Wolf's syndrome trellis of A over the words of an element alphabet,
    built forward.

    Level j (0..n) holds the prefix syndromes: the sorted packed keys of
    A x over positions 0..j-1, ``widths[j]`` of them.  Level 0 is the
    zero syndrome alone and level n every reachable syndrome (``keys``).
    ``moves[j][i, e]`` is the level-(j + 1) position of key i of level j
    moved by digit e at position j, so the paths from level 0 to a key of
    level n spell its coset's words (``walk`` follows them), and the word
    counts carried along the moves are the coset sizes (``sizes``).  Of
    the inner levels only the moves are kept, each in the narrowest type
    that holds it.  Building it needs no chain; ``decide`` scores it for
    one.

    Each level's keys come from the last level's translated by every
    digit at once (``_translate``), and are found on a dense table over
    the |R|^k keys while that table is within ``_DENSE_RATIO`` times the
    translation's |X| x width entries and within the state budget;
    otherwise they are sorted (``_distinct``).  Both give the same keys
    and moves.

    Its states are the move entries, |X| times the summed widths of
    levels 0..n-1; they set the build's and the top-2 pass's work and
    memory.  The build refuses before a level's moves are made once the
    states so far would pass ``budget``, so no more than ``budget`` are
    ever built, whatever |X|^n is.  When the alphabet holds zero, digit 0
    keeps every key, so no level is narrower than the one before: the
    levels ahead are counted at the current width, and an oversized
    trellis is refused before its widest levels are built.
    """

    def __init__(self, a: RingMatrix, elements, budget: int = DEFAULT_BUDGET):
        self.a = a
        self.elements = _alphabet(a.ring, elements)
        m, n = len(self.elements), a.cols
        _refuse_key_width(a.ring, a.rows)
        sizes = np.ones(1, dtype=np.int64)
        keys, self.moves, self.widths = _origin(a), [], [1]
        space = a.ring.order**a.rows if a.ring.order**a.rows <= budget else 0
        grows = a.ring.zero in self.elements
        for j in range(n):
            # with level j's moves, and the least the levels ahead can hold
            ahead = grows * self.widths[-1] * (n - 1 - j)
            if (states := m * (sum(self.widths) + ahead)) > budget:
                raise ValueError(f"the syndrome trellis passes {states} states, counted at "
                                 f"level {j}, over the state budget {budget}")
            keys, moves = _distinct(_translate(a, self.elements, keys, j), space)
            if m ** (j + 1) >= 2**63:
                # a coset can hold more words than int64 counts (2^63 of
                # 2^64 at n = 64 on Z2): Python ints from the first level
                # whose m^(j + 1) prefixes reach 2^63
                sizes = sizes.astype(object)
            grown = np.zeros(len(keys), dtype=sizes.dtype)
            np.add.at(grown, moves, sizes[:, None])
            self.moves.append(moves)
            self.widths.append(len(keys))
            sizes = grown
        self.keys, self.sizes = keys, sizes

    def coset_of(self, key):
        """Position of the coset with this key (or of each key in an
        array), -1 where no word has it."""
        return _position(self.keys, key)

    def walk(self, digits: np.ndarray) -> np.ndarray:
        """Coset position of each row of a (B, n) digit table, found by
        following its digits through the moves from level 0."""
        at = np.zeros(len(digits), dtype=np.intp)
        for j, moves in enumerate(self.moves):
            at = moves[at, digits[:, j]]
        return at

    def _table(self, l_init, l_p, cosets):
        """(best, winner digits, tie) for each of the distinct coset
        positions in ``cosets``, by one top-2 list Viterbi pass over the
        trellis (Seshadri and Sundberg, IEEE Trans. Comm. 42, 1994).

        A node is a prefix syndrome with the prefix's last digit; it keeps
        the two best scores of its prefixes and the predecessor of the
        best.  Rounding is monotone, so one term added to a node's two
        best gives the two best of their extensions: best is
        ``log_probs``'s left-to-right sum bit for bit, and the runner-up
        gives the tie flag exactly (two words within 1e-12 of best, or,
        when best is -inf, a coset of two words).  The winner traced back
        from the best is the coset's winner wherever best is finite and
        there is no tie; ``decide`` searches for the others.
        """
        m, n = len(self.elements), self.a.cols
        digits = np.arange(m)[:, None]
        block = max(1, _PASS_CELLS // m**2)  # keys scored at once
        # w[r, d, i]: the (r + 1)-th best score of the prefixes at key i
        # that end in digit d; level 0 is the empty prefix, scored 0
        w = np.array([[[0.0]], [[-np.inf]]])
        back = []
        for j, moves in enumerate(self.moves):
            row = l_p if j else l_init[None]  # row d scores digit e after d
            nxt = np.full((2, m, self.widths[j + 1]), -np.inf)
            if j:  # the best's node, flat over [d, i]
                back.append(np.zeros(nxt.shape[1:], np.min_scalar_type(m * len(moves))))
            for lo in range(0, len(moves), block):
                s = w[:, :, None, lo:lo + block] + row[:, :, None]  # [r, d, e, i]
                d = s[0].argmax(axis=0)  # the best's last digit, [e, i]
                to = moves[lo:lo + block].T
                nxt[0, digits, to] = s[0].max(axis=0)
                # the runner-up: the best's own second, or another digit's best
                np.copyto(s[0], s[1], where=np.arange(len(row))[:, None, None] == d)
                nxt[1, digits, to] = s[0].max(axis=0)
                if j:
                    back[-1][digits, to] = d * len(moves) + np.arange(lo, lo + to.shape[1])
            w = nxt
        w = w[:, :, cosets]
        e = w[0].argmax(axis=0)
        best = w[0].max(axis=0)
        np.copyto(w[0], w[1], where=digits == e)
        tie = np.where(best == -np.inf, self.sizes[cosets] >= 2,
                       w[0].max(axis=0) >= best - 1e-12)
        winner = np.empty((len(cosets), n), dtype=np.int64)
        winner[:, n - 1], node = e, e * len(self.keys) + cosets
        for j in range(n - 1, 0, -1):
            node = back[j - 1].reshape(-1)[node]
            winner[:, j - 1] = node // self.widths[j]
        return best, winner, tie

    def _reaching(self, c: int, l_p):
        """(child, ahead): the part of the trellis that reaches coset c,
        found from the forward moves alone, and its completion bounds.

        Node p of level j is the p-th key of level j, in key order, from
        which some suffix reaches coset c; the origin is node 0 of level
        0.  One backward walk numbers them: ``node`` maps the keys of level
        j + 1 to their nodes (-1 for the others), so ``node[moves[j]]``
        gives each key's children and the keys with one are the nodes.
        ``child[j][p, e]`` is the node of level j + 1 that digit e at
        position j moves node p to, or -1.  ``ahead[j][e, p]`` is the best
        score of the positions after j, given digit e at j and node p of
        level j + 1: right-to-left sums, so they bound and do not score.
        """
        m, n = len(self.elements), self.a.cols
        node = np.full(len(self.keys), -1)
        node[c] = 0
        child, ahead = [None] * n, [None] * (n - 1) + [np.zeros((m, 1))]  # nothing after n - 1
        for j in reversed(range(n)):
            nxt = node[self.moves[j]]
            live = (nxt >= 0).any(axis=1)
            child[j] = nxt[live]
            node = np.where(live, np.cumsum(live) - 1, -1)
            if j:
                gain = np.where(child[j] >= 0, ahead[j][np.arange(m), child[j]], -np.inf)
                # in C order the max over e runs along whole rows of nodes
                ahead[j - 1] = np.add(l_p[:, :, None], gain.T, order="C").max(axis=1)
        return child, ahead

    def _search(self, b: float, l_init, l_p, child, ahead):
        """Winner digits of the coset whose reaching trellis (``_reaching``)
        is ``child`` and ``ahead``, of best score b: the lexicographically
        first word within 1e-12 of b.

        A depth-first search in lexicographic order, pruning a prefix
        whose score plus its best completion falls short of the threshold
        by more than the rounding of an n-term sum can explain, and
        testing only whole words by the left-to-right sum.  When b is -inf
        every word of the coset qualifies.
        """
        m, n = len(self.elements), self.a.cols
        digits = np.arange(m)
        rows = [l_init.tolist()] + l_p.tolist()  # row 0 scores the first digit
        threshold = b - 1e-12
        # a close word's score, and its prefix's score plus the bound
        # summed the other way round, differ by about n ulps of its
        # magnitude: far below this slack while n is below about 10^6
        floor = threshold - 1e-9 * (1.0 - threshold)
        word = [0] * n
        stack = [(0, 0, 0, 0.0)]  # (position, score row, node, score)
        while stack:
            j, r, p, score = stack.pop()
            if j:
                word[j - 1] = r - 1
            extend, nxts = [], child[j][p]
            for e, (nxt, g, term) in enumerate(zip(nxts.tolist(),
                                                   ahead[j][digits, nxts].tolist(), rows[r])):
                s = score + term
                if nxt < 0 or s + g < floor:
                    continue
                if j + 1 < n:
                    extend.append((j + 1, e + 1, nxt, s))
                elif s >= threshold:
                    return word[:j] + [e]
            stack.extend(reversed(extend))

    def decide(self, chain: MarkovChain, cosets):
        """(best, winner digits, tie) for each coset position in ``cosets``.

        As scoring every word of each coset: best is the highest
        log2-probability under the stationary chain, the winner is the
        lexicographically first word within 1e-12 of it, and tie says a
        second such word exists.  A coset of probability-0 words has best
        -inf: its winner is its first word and tie says it has two.  The
        top-2 table gives every best and tie flag.  Each distinct tied or
        probability-0 coset asked for runs one ``_reaching`` and one
        ``_search`` for its winner, so the search tables hold one coset's
        part of the trellis at a time.
        """
        l_init, l_p = _log_terms(chain, len(self.elements))
        asked, at = np.unique(np.asarray(cosets, dtype=np.int64), return_inverse=True)
        best, winner, tie = self._table(l_init, l_p, asked)
        searched = np.flatnonzero(tie | (best == -np.inf))
        for i in searched.tolist():
            child, ahead = self._reaching(int(asked[i]), l_p)
            winner[i] = self._search(float(best[i]), l_init, l_p, child, ahead)
        return best[at], winner[at], tie[at]


def _syndrome(a: RingMatrix, z) -> np.ndarray:
    """``z`` as a length-k vector of ring elements; ValueError otherwise."""
    z = _integers(z, "syndrome")
    if z.shape != (a.rows,) or z.min() < 0 or z.max() >= a.ring.order:
        raise ValueError(f"syndrome must be {a.rows} elements in 0..{a.ring.order - 1}")
    return z


def ml_decode(a: RingMatrix, z, chain: MarkovChain, elements=None,
              budget: int = DEFAULT_BUDGET):
    """Most probable coset member under the stationary chain.

    Returns (word or None, tie_flag); ties are decided lexicographically
    but flagged (and counted as errors by the simulators).  When every
    member has probability 0 the first member is returned, flagged when
    there is another; None means no word has syndrome z.
    """
    z, budget = _syndrome(a, z), _integer(budget, "budget")
    trellis = _Trellis(a, elements if elements is not None else range(a.ring.order), budget)
    c = trellis.coset_of(_pack(z, a.ring.order))
    if c < 0:
        return None, False
    _, winner, tie = trellis.decide(chain, [int(c)])
    return trellis.elements[winner[0]], bool(tie[0])


class TypicalSetDecoder:
    """Decoder that searches the Supremus typical set instead of the coset.

    A coset member is accepted iff it is typical, so intersecting the
    (exhaustively enumerated, usually tiny) typical set with the coset
    gives the same verdict as scanning the coset, at a fraction of the
    cost.  The typical words are enumerated once per (chain, n, eps).  A
    simulation run finds their cosets by walking them through its
    syndrome trellis, as it walks its trials, so the run has one syndrome
    index; ``decode`` compares their syndromes with z as rows.
    """

    def __init__(self, ring: FiniteRing, chain: MarkovChain, n: int, eps: float,
                 elements=None, budget: int = DEFAULT_BUDGET):
        self.ring = ring
        self.eps = eps
        self.elements = _alphabet(ring, elements if elements is not None else range(ring.order))
        if chain.n != len(self.elements):
            raise ValueError("chain state count must match the alphabet")
        budget = _integer(budget, "budget")
        words = list(islice(enumerate_typical_paths(chain, n, eps, supremus=True), budget + 1))
        if len(words) > budget:
            raise ValueError(f"typical set exceeds the budget {budget}")
        self.typical_digits = np.array(words, dtype=np.int64).reshape(-1, n)
        self.typical_words = self.elements[self.typical_digits]

    def decode(self, a: RingMatrix, z):
        """Unique typical word with A x = z; (word or None, failure kind).

        failure is None on success, "atypical" when no typical word maps
        to z, "ambiguous" when several do.  The typical words' syndromes
        are matched with z as rows, so any k decodes.  A matrix over
        another ring, or of another length, is refused.
        """
        n = self.typical_digits.shape[1]
        if a.ring != self.ring or a.cols != n:
            raise ValueError(f"a {a.rows}x{a.cols} matrix over {a.ring.description} does not "
                             f"encode this decoder's length-{n} words over {self.ring.description}")
        z = _syndrome(a, z)
        hits = np.flatnonzero((apply_linear_map(a, self.typical_words) == z).all(axis=1))
        if not len(hits):
            return None, "atypical"
        if len(hits) > 1:
            return None, "ambiguous"
        return self.typical_words[hits[0]], None


def run_single_source_sim(cfg: SimConfig) -> SimResult:
    """Encode/decode trials for one Markov source over the ring's elements.

    This is the computing run of the identity function: the decoder's
    model is the chain itself, on every ring element, labelled by the
    identity.
    """
    if cfg.chain is None:
        raise ValueError("single-source simulation needs cfg.chain")
    if cfg.chain.n != cfg.ring.order:
        raise ValueError("chain must have one state per ring element")
    elements = list(range(cfg.ring.order))
    model = SumProcess("lumped", elements, elements, chain=cfg.chain)
    return _run_trials(cfg, cfg.chain, model, [], elements)


def _decode_model(cfg: SimConfig):
    """Sum-process chain used by the decoder, with its element alphabet.

    Every schedule member must induce the same Markov sum process (this is
    what makes a time-varying source decodable with one homogeneous
    model); tolerances allow for matrices published at 4 decimals.
    """
    sources = [cfg.joint] if cfg.joint is not None else list(cfg.schedule)
    lumps = []
    for ch in sources:
        sp = sum_process_chain(ch, cfg.presentation, domains=cfg.function.domains,
                               tol=1e-3)
        if sp.mode != "lumped":
            raise ValueError(
                "sum process is not certified Markov; the simulator needs a "
                "lumpable joint model"
            )
        lumps.append(sp)
    base = lumps[0]
    for other in lumps[1:]:
        if other.elements != base.elements or np.abs(other.chain.P - base.chain.P).max() > 1e-3:
            raise ValueError("schedule members induce different sum processes")
    return base


def run_computing_sim(cfg: SimConfig) -> SimResult:
    """Function-computing trials: every source applies the same matrix.

    Per trial the joint path is sampled, each embedded source sequence
    k_t(X_t^n) is encoded separately, and the codewords are combined by
    ring addition; the decoder recovers the sum word, applies h
    symbolwise and is scored against the true function path.  The
    linearity identity (sum of codewords = codeword of the sum word) is
    verified exactly on every trial, and the decoder is given the
    codeword of the sum word.
    """
    if cfg.presentation is None or cfg.function is None:
        raise ValueError("computing simulation needs a presentation and function")
    if cfg.joint is None and not cfg.schedule:
        raise ValueError("computing simulation needs a joint chain or schedule")
    pres = cfg.presentation
    if pres.ring is not cfg.ring and pres.ring != cfg.ring:
        raise ValueError("presentation ring differs from cfg.ring")
    model = _decode_model(cfg)
    source = cfg.joint if cfg.joint is not None else cfg.schedule
    states = (cfg.joint if cfg.joint is not None else cfg.schedule[0]).states
    letters = _letter_indices(states, pres, cfg.function.domains)
    encoders = [pres.maps[t][letters[:, t]] for t in range(pres.arity)]
    return _run_trials(cfg, source, model, encoders,
                       [pres.h.get(int(e)) for e in model.elements])


def _run_trials(cfg: SimConfig, source, model, encoders, h) -> SimResult:
    """The trial loop of both simulators.

    ``source`` (a chain or a schedule) emits state paths, and
    ``model.labeling`` maps each state to its element of the sum word;
    the decoder knows only ``model.chain`` over ``model.elements``.
    ``encoders[t][state]`` is the element source t encodes: the sum of
    the sources' codewords is checked against the codeword of the sum
    word on every trial.  The decoder gets the sum word's codeword, and a
    decoded word is correct when ``h`` (one value per model element)
    maps it to the same word as the true sum word.
    """
    ring = cfg.ring
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    a = random_linear_map(ring, cfg.k, cfg.n, np.random.default_rng(seeds[0]))
    trellis = _Trellis(a, model.elements, cfg.budget)
    digit_of = {e: d for d, e in enumerate(model.elements)}
    state_digits = np.array([digit_of[e] for e in model.labeling], dtype=np.int64)
    h_class = np.array([h.index(v) for v in h])

    rng = np.random.default_rng(seeds[1])
    paths = _sample_paths(source, cfg.trials, cfg.n, rng)
    digits = state_digits[paths]
    walked = trellis.walk(digits)
    checked = id_fail = 0
    if encoders:
        combined = np.full((cfg.trials, cfg.k), ring.zero, dtype=np.int64)
        for enc in encoders:
            combined = ring.add[combined, apply_linear_map(a, enc[paths])]
        checked = cfg.trials
        id_fail = int((_pack(combined, ring.order) != trellis.keys[walked]).sum())
    cosets, c = np.unique(walked, return_inverse=True)
    trial_sizes = trellis.sizes[cosets][c].tolist()
    if cfg.decoder == "ml":
        # tied and probability-0 cosets are classed before their winner is read
        best, winner, several = trellis._table(*_log_terms(model.chain, len(trellis.elements)),
                                               cosets)
        right, tie = "unique_ml", "tie"
    else:
        # each asked coset's count of typical words and its first one; the
        # all-zero padding row, at best -inf, where it has none
        dec = TypicalSetDecoder(ring, model.chain, cfg.n, cfg.eps, model.elements, cfg.budget)
        typical = trellis.walk(dec.typical_digits)
        hits = np.bincount(typical, minlength=len(trellis.keys))[cosets]
        first = np.full(len(trellis.keys), len(typical))
        np.minimum.at(first, typical, np.arange(len(typical)))
        padded = np.vstack([dec.typical_digits, np.zeros((1, cfg.n), dtype=np.int64)])
        best, winner, several = np.where(hits, 0.0, -np.inf), padded[first[cosets]], hits > 1
        right, tie = "typical_ok", "ambiguous"
    outcomes = np.select(
        [best[c] == -np.inf, several[c],
         (h_class[winner[c]] == h_class[digits]).all(axis=1)],
        ["atypical", tie, right], "wrong").tolist()
    sizes = dict(Counter(trial_sizes))
    modes = dict.fromkeys(("unique_ml", "tie", "wrong", "atypical", "ambiguous", "typical_ok"), 0)
    modes.update(Counter(outcomes))
    rows = list(zip(range(cfg.trials), outcomes, trial_sizes)) if cfg.keep_trials else None
    errors = cfg.trials - modes[right]
    p = errors / cfg.trials
    return SimResult(cfg.trials, errors, modes["tie"], p,
                     float(np.sqrt(p * (1 - p) / cfg.trials)), sizes, modes,
                     checked, id_fail, rows)
