"""Strong Markov typicality, Supremus typicality, path sampling and the
exhaustive enumeration oracles behind the counting lemmas.

A path is a numpy integer array of state indices.  The typicality tests
need the chain's invariant distribution and, for the Supremus test, the
stochastic complement of every watched subset; ``SupremusTester``
precomputes those once.  Every test watches a family of subsets: the
strong test is the family {all states}, the Supremus test every
non-empty subset, the counting bound's test the full set plus the blocks
of a partition.  Every test runs on a (B, n) table of paths: one
``bincount`` gives each row's pair counts on a watched subset, and the
strong inequalities are checked on all rows at once.  Both enumeration
oracles run one level-by-level search and test its leaves in batches of
2^14 rows by one tester that lists the full set first.

Unvisited states: the defining inequalities leave the empirical
transition row of a state with N(i; x) = 0 undefined.  Such a state is
treated as compatible iff its stationary mass is below eps (the state
*should* be this rare); no constraint is put on its unobserved
transition row.  This choice keeps sampled paths typical with
probability tending to one.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain as _chain, combinations

import numpy as np

from .markov import MarkovChain, _censored, invariant_distribution
from .rings import _integers

__all__ = [
    "TransitionCounts",
    "SupremusVerdict",
    "SupremusTester",
    "transition_counts",
    "is_strongly_markov_typical",
    "supremus_verdict",
    "sample_path",
    "enumerate_typical_paths",
    "enumerate_confusable",
]

# rows per batch of path prefixes: bounds the working memory
_CHUNK = 1 << 14


def _state_dtype(m: int):
    """Smallest unsigned dtype holding the state indices 0..m-1."""
    return np.min_scalar_type(max(m - 1, 0))


@dataclass
class TransitionCounts:
    """Pair counts N(i, j; x) and their row sums N(i; x); total is n - 1."""

    pair: np.ndarray
    visits: np.ndarray

    @property
    def total(self) -> int:
        return int(self.pair.sum())


def transition_counts(x, num_states: int) -> TransitionCounts:
    """Count occurrences of every sub-sequence [i, j] in the path."""
    x = _checked_path(x, num_states, 2)
    pair, _ = _pair_counts(x[None], np.arange(num_states), num_states)
    return TransitionCounts(pair[0], pair[0].sum(axis=1))


def _checked_path(x, m: int, min_length: int = 0) -> np.ndarray:
    """x as an int array, refused unless every state is an integer in
    0..m-1 and it has at least ``min_length`` states."""
    x = _integers(x, f"path states in 0..{m - 1}")
    if x.size and (x.min() < 0 or x.max() >= m):
        raise ValueError(f"path states must lie in 0..{m - 1}")
    if len(x) < min_length:
        raise ValueError(f"a path needs length at least {min_length}")
    return x


def _pair_counts(X: np.ndarray, lut: np.ndarray, k: int):
    """Pair counts (B, k, k) and lengths (B,) of every row's sub-path.

    Row b's sub-path keeps the states s of ``X[b]`` with ``lut[s] >= 0``,
    relabelled to ``lut[s]``; the identity ``lut`` gives the whole path.
    Each watched position pairs with the previous watched one, found by a
    forward fill of watched positions along the row.
    """
    B, n = X.shape
    sub = lut[X]
    watched = sub >= 0
    pos = np.where(watched, np.arange(n), -1)
    np.maximum.accumulate(pos, axis=1, out=pos)
    prev = pos[:, :-1]  # last watched position before column j + 1
    step = watched[:, 1:] & (prev >= 0)
    src = np.take_along_axis(sub, np.maximum(prev, 0), axis=1)
    offsets = np.arange(B)[:, None] * (k * k)
    # non-transitions land in one spare bin past the last row's block
    codes = np.where(step, offsets + src * k + sub[:, 1:], B * k * k)
    pair = np.bincount(codes.reshape(-1), minlength=B * k * k + 1)[:-1]
    return pair.reshape(B, k, k), watched.sum(axis=1)


def _strong_test(pair: np.ndarray, L: np.ndarray, P: np.ndarray, pi: np.ndarray,
                 eps: float, mode: str) -> np.ndarray:
    """Strong Markov test of each row's counts against (P, pi).

    Occupancy is N(i)/L - pi_i and row i is N(i, .)/N(i) - P_i; a row with
    N(i) = 0 is unconstrained and a sub-path with L < 2 is vacuous, so it
    passes.  The float operations per row are those of the scalar
    definition, summed rows added in state order, so verdicts do not
    depend on the batch.
    """
    N = pair.sum(axis=2)
    seen = N > 0
    occupancy = np.abs(N / np.maximum(L, 1)[:, None] - pi)
    rows = np.abs(pair / np.where(seen, N, 1)[:, :, None] - P)
    if mode == "entrywise":
        ok = (occupancy < eps).all(axis=1)
        ok &= ((rows < eps) | ~seen[:, :, None]).all(axis=(1, 2))
    elif mode == "summed":
        ok = occupancy.sum(axis=1) < eps
        row_dev = np.where(seen, rows.sum(axis=2), 0.0)
        dev = np.zeros(len(N))
        for i in range(N.shape[1]):
            dev += row_dev[:, i]
        ok &= dev < eps
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ok | (L < 2)


def _watch(X: np.ndarray, watched, eps: float, mode: str) -> np.ndarray:
    """Index of the first (lut, S, pa) entry of ``watched`` each row of X
    fails, ``len(watched)`` when it passes all.  Each entry only sees the
    rows that passed the ones before it.
    """
    fail = np.full(len(X), len(watched))
    alive = np.arange(len(X))
    for f, (lut, S, pa) in enumerate(watched):
        if not len(alive):
            break
        pair, L = _pair_counts(X[alive], lut, len(pa))
        ok = _strong_test(pair, L, S, pa, eps, mode)
        fail[alive[~ok]] = f
        alive = alive[ok]
    return fail


def _watch_entry(chain: MarkovChain, subset):
    """(lut, S_A, pi_A) for the sub-path on ``subset``, in its order.  The
    censored pair comes first: it refuses a subset that does not list
    distinct states of the chain with ValueError."""
    S, pa = _censored(chain, subset)
    lut = np.full(chain.n, -1, dtype=np.int64)
    lut[list(subset)] = np.arange(len(subset))
    return lut, S, pa


def is_strongly_markov_typical(x, chain: MarkovChain, eps: float,
                               mode: str = "entrywise") -> bool:
    """Empirical state and transition frequencies within eps of (pi, P).

    ``mode`` selects the per-entry inequalities or their summed variant;
    the two agree asymptotically but differ at finite n, so both are
    exposed.  This is the one entry of the family {all states}, whose
    censored pair is (P, pi) itself.
    """
    if not 0 < eps < np.inf:  # NaN too: it would fail every verdict silently
        raise ValueError(f"eps must be positive and finite, not {eps!r}")
    x = _checked_path(x, chain.n, 2)
    return bool(_watch(x[None], [_watch_entry(chain, range(chain.n))], eps, mode)[0] == 1)


def _nonempty_subsets(n: int):
    return _chain.from_iterable(combinations(range(n), r) for r in range(1, n + 1))


@dataclass
class SupremusVerdict:
    """Outcome of a Supremus test with per-subset detail."""

    ok: bool
    failed_subset: tuple | None
    vacuous_subsets: list

    def __bool__(self):
        return self.ok


class SupremusTester:
    """Precomputed Supremus typicality test for one chain.

    ``subsets`` defaults to every non-empty subset of the state space; a
    restricted family (e.g. the cosets of some quotient partitions) may be
    supplied instead.  Subset data (stochastic complement and reduced
    invariant) is computed once at construction.
    """

    def __init__(self, chain: MarkovChain, eps: float, subsets=None,
                 mode: str = "entrywise"):
        if not 0 < eps < np.inf:
            raise ValueError(f"eps must be positive and finite, not {eps!r}")
        self.chain = chain
        self.eps = eps
        self.mode = mode
        # the 2|X| length floor belongs to the canonical all-subsets test;
        # a caller-supplied family only needs watchable sub-paths
        self._floor = 2 * chain.n if subsets is None else 2
        fam = [tuple(sorted(int(v) for v in s))
               for s in (subsets if subsets is not None else _nonempty_subsets(chain.n))]
        if not fam:
            raise ValueError("subset family must be non-empty")
        full = tuple(range(chain.n))
        # test the full set first: it is the strong Markov test and the
        # cheapest reject for most non-typical paths
        self.subsets = sorted(set(fam), key=lambda s: (s != full, len(s), s))
        self._data = [_watch_entry(chain, sub) for sub in self.subsets]

    def _refuse_short(self, n: int):
        if n < self._floor:
            raise ValueError(f"Supremus test needs length >= {self._floor}")

    def _accepts(self, X: np.ndarray) -> np.ndarray:
        """Verdict of every row of a (B, n) path table.  Paths below the
        floor are refused once some row passes the first entry (the full
        set in every search's family)."""
        fail = _watch(X, self._data, self.eps, self.mode)
        if (fail > 0).any():
            self._refuse_short(X.shape[1])
        return fail == len(self._data)

    def verdict(self, x) -> SupremusVerdict:
        x = _checked_path(x, self.chain.n)
        self._refuse_short(len(x))
        f = int(_watch(x[None], self._data, self.eps, self.mode)[0])
        # a watched subset visited at most once carries no transitions:
        # flagged rather than failed
        visits = np.bincount(x, minlength=self.chain.n)
        flagged = [sub for sub in self.subsets[:f] if visits[list(sub)].sum() < 2]
        failed = self.subsets[f] if f < len(self.subsets) else None
        return SupremusVerdict(failed is None, failed, flagged)


def _floorless(chain: MarkovChain, eps: float, blocks, mode: str) -> SupremusTester:
    """The tester of {all states} plus ``blocks`` with no length floor:
    the strong test, or the counting bound's coset family."""
    tester = SupremusTester(chain, eps, subsets=[range(chain.n), *blocks], mode=mode)
    tester._floor = 0
    return tester


def supremus_verdict(x, chain: MarkovChain, eps: float, subsets=None,
                     mode: str = "entrywise") -> SupremusVerdict:
    """Supremus test with per-subset detail (vacuous subsets flagged)."""
    return SupremusTester(chain, eps, subsets=subsets, mode=mode).verdict(x)


def sample_path(source, n: int, rng, init=None) -> np.ndarray:
    """Ancestral sampling of a path of length n; deterministic per seed.

    ``source`` is a MarkovChain or a sequence of chains applied
    cyclically (the transition used from step t to t+1 is
    ``source[t % len(source)]``, for periodically time-varying sources).
    ``init`` defaults to the invariant distribution of a single chain and
    to uniform for a schedule.  Each step is one ``bisect`` on the row's
    cumulative sums; a draw past a row's float sum (a row short of 1
    within the load tolerance) lands on the last state.  A length below 1,
    or an ``init`` that is not a distribution over the states (within
    1e-9 of summing to 1), is refused with ValueError.
    """
    return _sample_paths(source, 1, n, rng, init)[0]


def _sample_paths(source, count: int, n: int, rng, init=None) -> np.ndarray:
    """``count`` paths of ``sample_path`` as a (count, n) table.

    One ``rng.random((count, n))`` draw is the stream of ``count`` calls
    of ``rng.random(n)``, so row b is the path the b-th of ``count``
    consecutive ``sample_path`` calls on ``rng`` returns.  A table is
    walked once per column over all rows: the number of cumulative sums
    at or below a draw is ``bisect_right``'s answer.  One row is walked
    with ``bisect`` itself, which beats a numpy call per step on long
    paths.
    """
    if n < 1:
        raise ValueError(f"path length must be at least 1, got {n}")
    rng = np.random.default_rng(rng)
    schedule = [source] if isinstance(source, MarkovChain) else list(source)
    m = schedule[0].n
    if any(c.n != m for c in schedule):
        raise ValueError("all chains in a schedule must share the state space")
    if init is None:
        init = invariant_distribution(schedule[0]) if len(schedule) == 1 else np.full(m, 1.0 / m)
    init = np.asarray(init, dtype=float)
    if init.shape != (m,) or init.min() < 0 or not abs(init.sum() - 1) <= 1e-9:
        raise ValueError(f"init must be a distribution over the {m} states")
    # the first m - 1 cumulative sums of each row: bisect_right on them is
    # searchsorted(side="right") on the whole row, and never returns m
    first = np.cumsum(init[:-1])
    cdfs = [np.cumsum(c.P[:, :-1], axis=1) for c in schedule]
    u = rng.random((count, n))
    if count == 1:
        first, cdfs, u = first.tolist(), [c.tolist() for c in cdfs], u[0].tolist()
        out = [bisect_right(first, u[0])]
        for t in range(1, n):
            out.append(bisect_right(cdfs[(t - 1) % len(schedule)][out[-1]], u[t]))
        return np.array([out], dtype=np.int64)
    out = np.empty((count, n), dtype=np.int64)
    out[:, 0] = (first <= u[:, :1]).sum(axis=1)
    for t in range(1, n):
        cdf = cdfs[(t - 1) % len(schedule)]
        out[:, t] = (cdf[out[:, t - 1]] <= u[:, t:t + 1]).sum(axis=1)
    return out


def _search(pi: np.ndarray, options, eps: float, accepts):
    """Leaf tables of a level-by-level search over the paths whose
    position t takes a state of ``options[t]``, each filtered by
    ``accepts``.

    Two prunes follow from the occupancy inequality |N(i)/n - p_i| < eps:
    visit counts have hard caps, and the remaining length must cover every
    state's deficit.  They are sound for every accept test that includes
    the whole path's strong test against ``pi`` (summed occupancy implies
    entrywise), as every caller's tester does by listing the full set
    first; below length 2 that test is vacuous, so nothing is pruned.
    The frontier is handled in chunks of 2^14 prefixes, each extended by
    its position's options in order, so memory stays bounded and leaves
    come out in the order of ``itertools.product``.
    """
    n, m = len(options), len(pi)
    dtype = _state_dtype(m)
    # N(i) < n(p_i+eps) and N(i) > n(p_i-eps), widened by 1e-9 so a prune
    # never drops a count the float leaf test accepts: at an exact integer
    # bound (e.g. pi = 0.5, eps = 0.1, n = 5) |2/5 - 0.5| < 0.1 holds in
    # floats, and the leaf test decides such boundary counts
    caps = np.floor(n * (pi + eps) + 1e-9).astype(int)
    need = np.ceil(n * (pi - eps) - 1e-9).astype(int)
    # below length 2 no position is counted, so only ``need`` could prune
    need = np.maximum(need, 0) if n >= 2 else np.zeros(m, dtype=int)

    def covers(visits, t):
        # visits count positions 0..t-1 among the first n-1 (count base)
        remaining = (n - 1) - min(t, n - 1)
        return np.maximum(need - visits, 0).sum(axis=1) <= remaining

    def level(prefix, visits):
        t = prefix.shape[1]
        if t == n:
            yield prefix[accepts(prefix)]
            return
        digits = options[t]
        rows = np.arange(len(prefix) * len(digits))
        child = np.empty((len(rows), t + 1), dtype=dtype)
        child[:, :t] = np.repeat(prefix, len(digits), axis=0)
        child[:, t] = np.tile(digits, len(prefix))
        child_visits = np.repeat(visits, len(digits), axis=0)
        last = child[:, t]
        # the last position carries no outgoing transition; visits never
        # exceed their caps, so there the cap test passes unchanged
        child_visits[rows, last] += int(t < n - 1)
        keep = (child_visits[rows, last] <= caps[last]) & covers(child_visits, t + 1)
        child, child_visits = child[keep], child_visits[keep]
        for lo in range(0, len(child), _CHUNK):
            yield from level(child[lo:lo + _CHUNK], child_visits[lo:lo + _CHUNK])

    root = np.zeros((1, m), dtype=np.int64)
    if covers(root, 0)[0]:
        yield from level(np.empty((1, 0), dtype=dtype), root)


def enumerate_typical_paths(chain: MarkovChain, n: int, eps: float,
                            supremus: bool = True, subsets=None,
                            mode: str = "entrywise"):
    """Exhaustively enumerate the typical set at length n (oracle-grade).

    The level-by-level search of every path with the visit-count prunes;
    leaves are tested in batches by one tester: the default or given
    family with the full set (the strong test) first, or the full set
    alone without ``supremus``.  Paths come out in lexicographic order,
    as int64 numpy arrays.
    """
    pi = invariant_distribution(chain)
    if supremus:
        given = None if subsets is None else list(subsets)
        tester = SupremusTester(chain, eps, subsets=[range(chain.n), *given] if given else given,
                                mode=mode)
    else:
        tester = _floorless(chain, eps, [], mode)
    for leaves in _search(pi, [np.arange(chain.n)] * n, eps, tester._accepts):
        yield from leaves.astype(np.int64)


def enumerate_confusable(x, blocks, chain: MarkovChain, eps: float,
                         budget: int = 10**7, mode: str = "entrywise",
                         coset_family: bool = False) -> int:
    """Count typical paths sharing x's block pattern.

    ``blocks`` is a partition of the state indices (e.g. the cosets of a
    left ideal); candidate paths agree with x on which block each position
    falls in, so only block members vary per position.  The membership
    test is full Supremus typicality by default; with ``coset_family``
    only the whole path and the sub-paths on blocks of two or more states
    are tested (the family the counting bound's argument actually uses),
    in the entrywise mode only.  Candidates come from the typical-set
    search with each position limited to its block.  Refuses when the
    candidate count exceeds ``budget``.
    """
    block_of = {}
    for b, members in enumerate(blocks):
        for s in members:
            block_of[int(s)] = b
    if sorted(block_of) != list(range(chain.n)):
        raise ValueError("blocks must partition the state indices")
    x = _checked_path(x, chain.n)
    options = [list(map(int, blocks[block_of[int(v)]])) for v in x]
    total = 1
    for opt in options:
        total *= len(opt)
        if total > budget:
            raise ValueError(f"{total}+ candidates exceed the budget {budget}")
    if coset_family:
        if mode != "entrywise":
            raise ValueError("batch counting supports the entrywise mode only")
        tester = _floorless(chain, eps, [b for b in blocks if len(b) > 1], mode)
    else:
        tester = SupremusTester(chain, eps, mode=mode)
        # refused up front: a search that prunes every candidate never
        # reaches the tester's own length check
        tester._refuse_short(len(x))
    pi = invariant_distribution(chain)
    return sum(len(leaves) for leaves in _search(pi, options, eps, tester._accepts))
