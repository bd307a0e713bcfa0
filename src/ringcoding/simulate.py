"""Monte Carlo simulation of random linear coding over a finite ring.

The encoder is a uniformly random k x n matrix A over the ring; decoding
searches the solution coset {x : A x = z}.  At desk scale the whole
sequence space (|alphabet|^n, bounded by a budget) is enumerated once per
matrix, so cosets come from exact bucketing rather than algebra over the
ring, and the maximum-likelihood decoder is exact.  ML decoding within
the coset can only beat the typical-set decoder used by the achievability
argument, so measured error rates are honest upper-bound surrogates;
``typicality_decode`` mirrors the proof's error-event split on tiny
instances.  Both simulators run one trial loop (a single source is the
computing run of the identity function), and every coset's decision is
taken once per run, so all trials of a run are decided as one table.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .functions import FunctionSpec, Presentation, SumProcess, sum_process_chain
from .markov import MarkovChain, invariant_distribution
from .rings import FiniteRing, RingMatrix, apply_linear_map, random_linear_map
from .typicality import _sample_paths

__all__ = [
    "SimConfig",
    "SimResult",
    "SequenceSpace",
    "TypicalSetDecoder",
    "solution_coset",
    "ml_decode",
    "typicality_decode",
    "run_single_source_sim",
    "run_computing_sim",
]

DEFAULT_BUDGET = 10**7


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


class SequenceSpace:
    """All length-n words over an element alphabet, mixed-radix indexed.

    ``elements`` lists the ring elements the source can emit (the whole
    ring for a single source, the reachable sum set for computing runs);
    digit d at a position means element ``elements[d]``.  Word i has the
    base-m digits of i, first position most significant, so word
    ``prefix * m + d`` extends ``prefix`` by digit d: every per-word table
    is built by this prefix recursion in about m^n steps.

    A simulation run holds about n + 24 bytes per word (the int8 digit
    table, then int64 keys, int64 sort order and float64 scores) and
    peaks at about n + 41 while it decides the cosets.  On Z4 that is
    about 0.2 GB at n = 11, and ``DEFAULT_BUDGET`` (10^7 words), not
    memory or time, is what stops n there: 4^12 exceeds it.
    """

    def __init__(self, ring: FiniteRing, elements, n: int, budget: int = DEFAULT_BUDGET):
        self.ring = ring
        self.elements = np.asarray(list(elements), dtype=np.int64)
        self.n = n
        m = len(self.elements)
        if m > 127:
            raise ValueError(f"alphabet of {m} elements does not fit the int8 digit table")
        count = m**n
        if count > budget:
            raise ValueError(
                f"{m}^{n} sequences exceed the enumeration budget {budget}"
            )
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

        Output i is built by prefix recursion: its partial sums over the
        first j + 1 positions are those over the first j, each extended
        by the m products a_ij * x_j (row s of ``step`` holds s + a_ij x_j
        for every digit), in the left-to-right order of
        ``apply_linear_map``.  This tree serves every word at once and the
        row kernel ``apply_linear_map`` serves given words; there is no
        third kernel.  Running the row kernel over all |X|^n words would
        need count x n element tables, which this recursion never builds.
        """
        ring = self.ring
        if ring.order**a.rows > 2**62:
            raise ValueError("codeword space too large to pack into int64 keys")
        keys = np.zeros(self.count, dtype=np.int64)
        weight = 1
        for i in range(a.rows):
            acc = np.array([ring.zero], dtype=np.int64)
            for j in range(self.n):
                step = ring.add[:, ring.mul[a.entries[i, j], self.elements]]
                acc = np.take(step, acc, axis=0).reshape(-1)
            acc *= weight
            keys += acc
            weight *= ring.order
        return keys

    def codeword_key(self, z) -> int:
        z = np.asarray(z, dtype=np.int64)
        weight = self.ring.order ** np.arange(len(z), dtype=np.int64)
        return int(z @ weight)

    def log_probs(self, chain: MarkovChain, init=None) -> np.ndarray:
        """log2 probability of every word under a stationary (or given-init)
        chain whose state i corresponds to digit i.

        Each extension of a prefix adds one transition term, so the sums
        are the left-to-right ones, bit for bit."""
        if chain.n != len(self.elements):
            raise ValueError("chain state count must match the alphabet")
        init = invariant_distribution(chain) if init is None else np.asarray(init, float)
        with np.errstate(divide="ignore"):
            l_init = np.log2(init)
            l_p = np.log2(chain.P)
        lp = l_init
        for _ in range(self.n - 1):
            lp = (lp.reshape(-1, len(l_init))[:, :, None] + l_p[None]).reshape(-1)
        return lp


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
        c = np.minimum(np.searchsorted(self.coset_keys, key), len(self.coset_keys) - 1)
        return np.where(self.coset_keys[c] == key, c, -1)

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


def _syndrome(a: RingMatrix, z) -> np.ndarray:
    """``z`` as a length-k vector of ring elements; ValueError otherwise."""
    z = np.asarray(z, dtype=np.int64)
    if z.shape != (a.rows,) or z.min() < 0 or z.max() >= a.ring.order:
        raise ValueError(f"syndrome must be {a.rows} elements in 0..{a.ring.order - 1}")
    return z


def solution_coset(a: RingMatrix, z, elements=None, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All words x (rows, as element vectors) with A x = z, by exact
    enumeration of the word space."""
    z = _syndrome(a, z)
    space = SequenceSpace(a.ring, elements if elements is not None else range(a.ring.order), a.cols, budget)
    index = _CosetIndex(space, a)
    members = index.coset_members(space.codeword_key(z))
    return space.elements[space.digits[np.sort(members)].astype(np.int64)]


def ml_decode(a: RingMatrix, z, chain: MarkovChain, elements=None,
              budget: int = DEFAULT_BUDGET):
    """Most probable coset member under the stationary chain.

    Returns (word or None, tie_flag); ties are decided lexicographically
    but flagged (and counted as errors by the simulators).
    """
    z = _syndrome(a, z)
    space = SequenceSpace(a.ring, elements if elements is not None else range(a.ring.order), a.cols, budget)
    index = _CosetIndex(space, a)
    c = index.coset_of(space.codeword_key(z))
    if c < 0:
        return None, False
    _, winner, hits = index.decide(space.log_probs(chain))
    return space.elements[space.digits[winner[c]].astype(np.int64)], bool(hits[c] > 1)


class TypicalSetDecoder:
    """Decoder that searches the Supremus typical set instead of the coset.

    A coset member is accepted iff it is typical, so intersecting the
    (exhaustively enumerated, usually tiny) typical set with the coset
    gives the same verdict as scanning the coset, at a fraction of the
    cost.  The typical words are enumerated once per (chain, n, eps).
    """

    def __init__(self, ring: FiniteRing, chain: MarkovChain, n: int, eps: float,
                 elements=None, budget: int = DEFAULT_BUDGET):
        from .typicality import enumerate_typical_paths

        self.ring = ring
        self.eps = eps
        self.elements = np.asarray(
            list(elements if elements is not None else range(ring.order)),
            dtype=np.int64,
        )
        if chain.n != len(self.elements):
            raise ValueError("chain state count must match the alphabet")
        words = []
        for path in enumerate_typical_paths(chain, n, eps, supremus=True):
            words.append(path)
            if len(words) > budget:
                raise ValueError(f"typical set exceeds the budget {budget}")
        self.typical_digits = (
            np.array(words, dtype=np.int64) if words else np.empty((0, n), dtype=np.int64)
        )
        self.typical_words = self.elements[self.typical_digits]

    def decode(self, a: RingMatrix, z):
        """Unique typical word with A x = z; (word or None, failure kind).

        failure is None on success, "atypical" when no typical word maps
        to z, "ambiguous" when several do.
        """
        z = _syndrome(a, z)
        hits = np.flatnonzero((apply_linear_map(a, self.typical_words) == z).all(axis=1))
        if len(hits) != 1:
            return None, "atypical" if len(hits) == 0 else "ambiguous"
        return self.typical_words[hits[0]], None


def typicality_decode(a: RingMatrix, z, chain: MarkovChain, eps: float,
                      elements=None, budget: int = DEFAULT_BUDGET):
    """One-shot Supremus typical-set decode (see TypicalSetDecoder)."""
    decoder = TypicalSetDecoder(a.ring, chain, a.cols, eps, elements, budget)
    return decoder.decode(a, z)


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
    letter_idx = [{v: i for i, v in enumerate(d)} for d in cfg.function.domains]
    encoders = [pres.maps[t][[letter_idx[t][st[t]] for st in states]]
                for t in range(pres.arity)]
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
    space = SequenceSpace(ring, model.elements, cfg.n, cfg.budget)
    index = _CosetIndex(space, a)
    if cfg.decoder == "ml":
        score = space.log_probs(model.chain)
        right, several = "unique_ml", "tie"
    else:
        dec = TypicalSetDecoder(ring, model.chain, cfg.n, cfg.eps, model.elements, cfg.budget)
        score = np.full(space.count, -np.inf)
        score[space.index_of(dec.typical_digits)] = 0.0
        right, several = "typical_ok", "ambiguous"
    best, winner, hits = index.decide(score)
    digit_of = {e: d for d, e in enumerate(model.elements)}
    state_digits = np.array([digit_of[e] for e in model.labeling], dtype=np.int64)
    h_class = np.array([h.index(v) for v in h])

    rng = np.random.default_rng(seeds[1])
    paths = _sample_paths(source, cfg.trials, cfg.n, rng)
    digits = state_digits[paths]
    checked = id_fail = 0
    if encoders:
        combined = np.full((cfg.trials, cfg.k), ring.zero, dtype=np.int64)
        for enc in encoders:
            combined = ring.add[combined, apply_linear_map(a, enc[paths])]
        checked = cfg.trials
        id_fail = int((combined != apply_linear_map(a, space.elements[digits])).any(axis=1).sum())
    c = index.coset_of(index.keys[space.index_of(digits)])
    trial_sizes = index.sizes[c].tolist()
    outcomes = np.select(
        [best[c] == -np.inf, hits[c] > 1,
         (h_class[space.digits[winner[c]]] == h_class[digits]).all(axis=1)],
        ["atypical", several, right], "wrong").tolist()
    sizes = dict(Counter(trial_sizes))
    modes = dict.fromkeys(("unique_ml", "tie", "wrong", "atypical", "ambiguous", "typical_ok"), 0)
    modes.update(Counter(outcomes))
    rows = list(zip(range(cfg.trials), outcomes, trial_sizes)) if cfg.keep_trials else None
    errors = cfg.trials - modes[right]
    p = errors / cfg.trials
    return SimResult(cfg.trials, errors, modes["tie"], p,
                     float(np.sqrt(p * (1 - p) / cfg.trials)), sizes, modes,
                     checked, id_fail, rows)
