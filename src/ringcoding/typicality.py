"""Strong Markov typicality, Supremus typicality, path sampling and the
exhaustive enumeration oracles behind the counting lemmas.

A path is a numpy integer array of state indices.  The typicality tests
need the chain's invariant distribution and, for the Supremus test, the
stochastic complement of every watched subset; ``SupremusTester``
precomputes those once.  Every test watches a family of subsets: the
strong test is the family {all states}, the Supremus test every
non-empty subset, the counting bound's test the full set plus the blocks
of a partition.  A tester lists the full set first and then the other
subsets by size, and every test runs on a (B, n) table of paths, one
counting pass and one strong test per subset size: one flat lookup of
every row on every subset of the size and one ``bincount`` give all
their pair counts, and the strong inequalities are checked on all rows
and subsets at once.  A pass is split so that it holds at most
``_CELLS`` lookups and counts, and a row that fails is dropped before
the next pass.  The full set needs no lookup, and a one-state sub-path
is constant, so its L visits carry L - 1 pairs in closed form.  Both
enumeration oracles run one level-by-level search and test its leaves
in batches of 2^14 rows by one tester that lists the full set first,
against the pair counts the search carried to the leaves.

The search carries each prefix's visit and pair counts and drops a
prefix once every completion fails the strong test against (P, pi): a
visit count past its cap, a deficit the remaining length cannot cover,
or a transition count that already fixes some ratio N(i, j)/N(i)
outside P_ij +- eps.  Every tester lists the full set first, so no
prune drops a path its tester would accept.  Each bound is widened by
1e-9, so a count that sits on a bound in exact arithmetic, where floats
may round either way, always reaches the tester.

Unvisited states: the defining inequalities leave the empirical
transition row of a state with N(i; x) = 0 undefined.  Such a state is
treated as compatible iff its stationary mass is below eps (the state
*should* be this rare); no constraint is put on its unobserved
transition row.  This choice keeps sampled paths typical with
probability tending to one.
"""

from dataclasses import dataclass
from itertools import chain as _chain, combinations, groupby
from numbers import Real

import numpy as np

from .markov import MarkovChain, _censored, invariant_distribution
from .rings import _integer, _integers

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
# lookup and count entries per counting pass of a subset group: bounds
# the working memory of the stacked tests
_CELLS = 1 << 18


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
    pair = _pair_counts(x[None], None, num_states)[0][0, 0]
    return TransitionCounts(pair, pair.sum(axis=1))


def _checked_path(x, m: int, min_length: int = 0) -> np.ndarray:
    """x as an int array, refused unless it is one-dimensional, every
    state is an integer in 0..m-1 and it has at least ``min_length``
    states."""
    x = _integers(x, f"path states in 0..{m - 1}")
    if x.ndim != 1:
        raise ValueError(f"a path must be one-dimensional, not of shape {x.shape}")
    if x.size and (x.min() < 0 or x.max() >= m):
        raise ValueError(f"path states must lie in 0..{m - 1}")
    if len(x) < min_length:
        raise ValueError(f"a path needs length at least {min_length}")
    return x


def _pair_counts(X: np.ndarray, luts, k: int):
    """Pair counts (F, B, k, k) and lengths (F, B) of every row's sub-path
    on each of F watched subsets of k states.

    Row b's sub-path on subset f keeps the states s of ``X[b]`` with
    ``luts[f, s] >= 0``, relabelled to ``luts[f, s]``.  ``luts=None``
    stands for the whole path (F = 1): no lookup, no compaction.  A
    one-state sub-path is constant, so its L visits carry L - 1 pairs.
    Otherwise one flat ``take`` with per-subset offsets looks every row
    up on every subset, the watched entries are compressed into one
    sequence and each is paired with the next; a pair that straddles two
    rows lands in one spare bin past the last block.
    """
    B, n = X.shape
    if luts is None:
        X = X.astype(np.intp, copy=False)
        codes = (X[:, :-1] * k + X[:, 1:]) * B + np.arange(B)[:, None]
        pair = np.bincount(codes.ravel(), minlength=k * k * B).reshape(k, k, 1, B)
        return np.moveaxis(pair, (0, 1), (2, 3)), np.full((1, B), n)
    F, m = luts.shape
    if k == 1:
        visits = np.bincount((X + np.arange(B)[:, None] * m).ravel(), minlength=B * m)
        L = visits.reshape(B, m)[:, luts.argmax(axis=1)].T
        return np.maximum(L - 1, 0)[:, :, None, None], L
    sub = np.take(luts, X + (np.arange(F) * m)[:, None, None])
    watched = sub >= 0
    L = np.count_nonzero(watched, axis=2)
    flat = np.take(sub, np.flatnonzero(watched)).astype(np.intp)
    row = np.repeat(np.arange(F * B), L.ravel())
    codes = row[1:] + (flat[:-1] * k + flat[1:]) * (F * B)
    codes[row[1:] != row[:-1]] = k * k * F * B
    pair = np.bincount(codes, minlength=k * k * F * B + 1)[:-1].reshape(k, k, F, B)
    return np.moveaxis(pair, (0, 1), (2, 3)), L


def _strong_test(pair: np.ndarray, L: np.ndarray, P: np.ndarray, pi: np.ndarray,
                 eps: float) -> np.ndarray:
    """Strong Markov test of each row's counts against (P, pi):
    |N(i)/L - pi_i| < eps and |N(i, j)/N(i) - P_ij| < eps for every entry.
    ``pair`` is (..., k, k) and L, P and pi broadcast against it.

    A row with N(i) = 0 is unconstrained and a sub-path with L < 2 is
    vacuous, so it passes.  The float operations per row are those of the
    scalar definition, so verdicts do not depend on the batch.
    """
    N = pair.sum(axis=-1)
    seen = N > 0
    occupancy = np.abs(N / np.maximum(L, 1)[..., None] - pi)
    rows = np.abs(pair / np.where(seen, N, 1)[..., None] - P)
    ok = (occupancy < eps).all(axis=-1)
    ok &= ((rows < eps) | ~seen[..., None]).all(axis=(-2, -1))
    return ok | (L < 2)


def _watch(X: np.ndarray, groups, eps: float, pairs=None) -> np.ndarray:
    """Index of the first watched subset each row of X fails, the family
    size when it passes all.  ``groups`` lists (start, luts, S, pi), one
    per subset size in family order (see ``_groups``); each group is
    counted and tested in one pass over the rows that passed the groups
    before it, split so that one pass holds at most ``_CELLS`` entries of
    lookups and counts.  ``pairs``, batch-last (m, m, B), are the whole
    paths' pair counts, handed over by the search for the full set.
    """
    start, _, S, _ = groups[-1]
    fail = np.full(len(X), start + len(S))
    alive = np.arange(len(X))
    n = X.shape[1]
    for start, luts, S, pa in groups:
        k, lo = pa.shape[1], 0
        while lo < len(S) and len(alive):
            hi = lo + max(1, _CELLS // (len(alive) * (n + k * k)))
            if luts is None and pairs is not None:
                pair, L = np.moveaxis(pairs[:, :, alive], 2, 0)[None], np.full((1, len(alive)), n)
            else:
                pair, L = _pair_counts(X[alive], None if luts is None else luts[lo:hi], k)
            bad = ~_strong_test(pair, L, S[lo:hi, None], pa[lo:hi, None], eps)
            out = bad.any(axis=0)
            fail[alive[out]] = start + lo + bad[:, out].argmax(axis=0)
            alive, lo = alive[~out], hi
    return fail


def _groups(chain: MarkovChain, subsets):
    """(start, luts, S, pi) per run of equal-size subsets of ``subsets``:
    the run's first index, its (F, m) lookups (None for the full set),
    and its stacked censored pairs, (F, k, k) and (F, k).  The censored
    pair comes first: it refuses a subset that does not list distinct
    states of the chain with ValueError.  The groups are read-only and
    memoised on the chain per ordered family, next to the censored pairs
    they stack."""
    key = ("groups", tuple(subsets))
    if key in chain._memo:
        return chain._memo[key]
    groups, start = [], 0
    for k, run in groupby(subsets, key=len):
        run = list(run)
        S, pa = zip(*(_censored(chain, sub) for sub in run))
        luts = np.full((len(run), chain.n), -1, dtype=np.min_scalar_type(-chain.n))
        for f, sub in enumerate(run):
            luts[f, list(sub)] = np.arange(k)
        full = run == [tuple(range(chain.n))]
        S, pa = np.stack(S), np.stack(pa)
        for a in (luts, S, pa):
            a.setflags(write=False)
        groups.append((start, None if full else luts, S, pa))
        start += len(run)
    chain._memo[key] = groups = tuple(groups)
    return groups


def is_strongly_markov_typical(x, chain: MarkovChain, eps: float) -> bool:
    """Empirical state and transition frequencies within eps of (pi, P),
    entry by entry: the tester of the family {all states}, whose censored
    pair is (P, pi) itself.  A path shorter than 2 is refused."""
    x = _checked_path(x, chain.n, 2)
    return bool(_floorless(chain, eps, [])._accepts(x[None])[0])


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
    supplied instead; a member that is not an integer is refused with
    ValueError.  Subset data (stochastic complement and reduced
    invariant) is computed once at construction and stacked per subset
    size; the stacks are read-only and memoised on the chain per ordered
    family, so every tester of one family on one chain shares them.
    """

    def __init__(self, chain: MarkovChain, eps: float, subsets=None):
        # NaN too (it would fail every verdict silently), and True, which
        # would run as eps 1
        if isinstance(eps, bool) or not isinstance(eps, Real) or not 0 < eps < np.inf:
            raise ValueError(f"eps must be positive and finite, not {eps!r}")
        self.chain = chain
        self.eps = eps
        # the 2|X| length floor belongs to the canonical all-subsets test;
        # a caller-supplied family only needs watchable sub-paths
        self._floor = 2 * chain.n if subsets is None else 2
        fam = [tuple(sorted(_integers(list(s), "subset members").tolist()))
               for s in (subsets if subsets is not None else _nonempty_subsets(chain.n))]
        if not fam:
            raise ValueError("subset family must be non-empty")
        full = tuple(range(chain.n))
        # test the full set first: it is the strong Markov test and the
        # cheapest reject for most non-typical paths
        self.subsets = sorted(set(fam), key=lambda s: (s != full, len(s), s))
        self._groups = _groups(chain, self.subsets)

    def _refuse_short(self, n: int):
        if n < self._floor:
            raise ValueError(f"Supremus test needs length >= {self._floor}")

    def _accepts(self, X: np.ndarray, pairs=None) -> np.ndarray:
        """Verdict of every row of a (B, n) path table, given its pair
        counts when the family lists the full set first.  Paths below the
        floor are refused once some row passes the first subset (the full
        set in every search's family)."""
        fail = _watch(X, self._groups, self.eps, pairs)
        if (fail > 0).any():
            self._refuse_short(X.shape[1])
        return fail == len(self.subsets)

    def verdict(self, x) -> SupremusVerdict:
        x = _checked_path(x, self.chain.n)
        self._refuse_short(len(x))
        f = int(_watch(x[None], self._groups, self.eps)[0])
        # a watched subset visited at most once carries no transitions:
        # flagged rather than failed
        visits = np.bincount(x, minlength=self.chain.n)
        flagged = [sub for sub in self.subsets[:f] if visits[list(sub)].sum() < 2]
        failed = self.subsets[f] if f < len(self.subsets) else None
        return SupremusVerdict(failed is None, failed, flagged)


def _floorless(chain: MarkovChain, eps: float, blocks) -> SupremusTester:
    """The tester of {all states} plus ``blocks`` with no length floor:
    the strong test, or the counting bound's coset family."""
    tester = SupremusTester(chain, eps, subsets=[range(chain.n), *blocks])
    tester._floor = 0
    return tester


def supremus_verdict(x, chain: MarkovChain, eps: float, subsets=None) -> SupremusVerdict:
    """Supremus test with per-subset detail (vacuous subsets flagged)."""
    return SupremusTester(chain, eps, subsets=subsets).verdict(x)


def sample_path(source, n: int, rng, init=None) -> np.ndarray:
    """Ancestral sampling of a path of length n; deterministic per seed.

    ``source`` is a MarkovChain or a sequence of chains applied
    cyclically (the transition used from step t to t+1 is
    ``source[t % len(source)]``, for periodically time-varying sources).
    ``init`` defaults to the invariant distribution of a single chain and
    to uniform for a schedule.  Step t's state is the number of the
    current row's first m - 1 cumulative sums at or below the t-th draw,
    so a draw past a row's float sum (a row short of 1 within the load
    tolerance) lands on the last state.  A length that is not an integer
    of at least 1, or an ``init`` that is not a distribution over the
    states (within 1e-9 of summing to 1), is refused with ValueError.
    """
    return _sample_paths(source, 1, n, rng, init)[0]


def _sample_paths(source, count: int, n: int, rng, init=None) -> np.ndarray:
    """``count`` paths of ``sample_path`` as a (count, n) table.

    One ``rng.random((count, n))`` draw is the stream of ``count`` calls
    of ``rng.random(n)``, so row b is the path the b-th of ``count``
    consecutive ``sample_path`` calls on ``rng`` returns.

    A Markov chain is a composition of random maps (Diaconis and
    Freedman, SIAM Review 41(1), 1999), so each step moves every state at
    once by one row of ``moves``, a map of the m states and a virtual
    start m, which only position 0 moves, by ``init``.  A draw's row is
    its rank r among its kind of step's sorted cumulative sums, the
    number of sums at or below it, found for all draws of one chain at
    once by ``_ranks``: a table of buckets of width 2^-K, K from the draw
    count, gives the rank of every draw whose bucket holds no sum, and
    ``searchsorted`` the rest.  Every sum at or below the draw is among
    the r lowest, and row r sends each state to the number of its own
    sums there.  A chain has m(m - 1) + 1 rows
    of m + 1 entries, a 6 MiB peak at m = 64.  Row 0 is the identity, for
    padding.  The steps are split into about sqrt(n / count) blocks of
    equal size, the last one padded, as in a blocked prefix scan
    (Blelloch, 1990): the composed map of every block but the last is
    built for all blocks at once, the blocks are chained in turn, and
    then all blocks are walked in parallel.  A trial table is a single
    block, walked once per column.
    """
    n, count = _integer(n, "path length"), _integer(count, "path count")
    if min(n, count) < 1:
        raise ValueError(f"need at least 1 path of length at least 1, not {count} of {n}")
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
    blocks = max(1, round((n / count) ** 0.5))
    size = -(-n // blocks)
    u = rng.random((count, n))
    # at[t, b]: the flat offset in ``moves`` of step t's row on path b
    moves, at = np.arange(m + 1), np.zeros((blocks * size, count), dtype=np.intp)
    # each kind of step: the rows it draws from, their states and its steps
    kinds = [(init[None], np.array([[m]]), slice(0, 1))]
    kinds += [(c.P, np.arange(m)[:, None], slice(j, n, len(schedule)))
              for j, c in enumerate(schedule, 1)]
    for P, states, steps in kinds:
        cdf = np.cumsum(P[:, :-1], axis=1)
        cuts = np.sort(cdf, axis=None)
        at[steps] = _ranks(cuts, u[:, steps].T) * (m + 1) + len(moves)
        # a sum at cuts[j] (its first copy) is passed from rank j + 1 on
        passed = (np.searchsorted(cuts, cdf) + 1) * (m + 1) + states
        table = np.bincount(passed.ravel(), minlength=(len(cuts) + 1) * (m + 1))
        moves = np.append(moves, table.reshape(-1, m + 1).cumsum(axis=0))
    at = at.reshape(blocks, size, count)
    state = np.full((blocks, count), m)  # each block's start
    if blocks > 1:
        composed = np.arange(m + 1)
        for i in range(size):
            composed = moves[at[:-1, i, :, None] + composed]
        for b in range(1, blocks):
            state[b] = composed[b - 1, np.arange(count), state[b - 1]]
    out = np.empty((size, blocks, count), dtype=np.int64)
    for i in range(size):
        state = out[i] = moves[at[:, i] + state]
    return np.ascontiguousarray(out.transpose(2, 1, 0).reshape(count, -1)[:, :n])


def _ranks(cuts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cuts, u, side="right")`` for draws u in [0, 1).

    From 2^12 draws on, through 2^K buckets of width 2^-K, 2^K a sixteenth
    to an eighth of the draw count: a draw's bucket, floor(u 2^K), is
    exact, and so is the rank of every draw whose bucket holds no cut,
    the number of cuts below the bucket.  Only the draws whose bucket
    holds a cut are searched.  Fewer draws are all searched: the bucket
    table would cost more than it saves.
    """
    if u.size < 1 << 12:
        return np.searchsorted(cuts, u, side="right")
    scale = 2.0 ** (u.size.bit_length() - 4)
    # below[b]: the cuts below bucket b; -1 marks a bucket that holds one
    below = np.searchsorted(cuts, np.arange(int(scale) + 1) / scale)
    table = np.where(below[1:] > below[:-1], -1, below[:-1])
    ranks = table[(u * scale).astype(np.intp)]
    searched = ranks < 0
    ranks[searched] = np.searchsorted(cuts, u[searched], side="right")
    return ranks


def _search(P: np.ndarray, pi: np.ndarray, options, eps: float, accepts):
    """Leaf tables of a level-by-level search over the paths whose
    position t takes a state of ``options[t]``, each filtered by
    ``accepts(leaves, pairs)``, which is handed the leaves' carried pair
    counts so that the full set is not counted again.

    Each prune drops a prefix only when every completion fails the
    strong test against (P, pi), so the prunes are sound for every accept
    test that includes the whole path's strong test, as every caller's
    tester does by listing the full set first.  Below length 2 the test
    is vacuous; then no position is counted, so nothing is pruned.

    - Occupancy, |N(i)/n - p_i| < eps: visit counts have hard caps, and
      the remaining length must cover every state's deficit.
    - Transitions, |N(i, j)/N(i) - P_ij| < eps wherever N(i) > 0.  Let
      a_ij be the prefix's completed transitions, a_i their row sum and
      Nmax_i = min(cap_i, visits_i + remaining) the most N(i) can reach.
      A completion adds y <= Nmax_i - a_i steps from i, x <= y of them to
      j, so its ratio (a_ij + x)/(a_i + y) lies between a_ij/Nmax_i
      and (Nmax_i - a_i + a_ij)/Nmax_i.  A prefix with a_i > 0 is
      dropped once one of these bounds falls outside P_ij -+ eps.

    Every bound is widened by 1e-9 so that a prune never drops a count
    the float leaf test accepts: at an exact integer bound (e.g. pi =
    0.5, eps = 0.1, n = 5) |2/5 - 0.5| < 0.1 holds in floats, and the
    leaf test decides such boundary counts.  Only the pair counts are
    carried, in the narrowest unsigned dtype that holds n and batch-last,
    an (m, m, B) table, so every pass over them runs along the batch: a
    prefix's visits are their row sums, plus one for its last state while
    it is shorter than n.  The frontier is handled in chunks of 2^14 prefixes,
    each extended by its position's options in order, so memory stays
    bounded and leaves come out in the order of ``itertools.product``.
    """
    n, m = len(options), len(pi)
    dtype, count = _state_dtype(m), np.min_scalar_type(n)
    # against batch-last counts the per-state bounds are columns and the
    # pair bounds (m, m, 1)
    states = np.arange(m)[:, None]
    caps = np.floor(n * (pi + eps) + 1e-9).astype(int)[:, None]
    need = np.ceil(n * (pi - eps) - 1e-9).astype(int)[:, None]
    # below length 2 no position is counted, so only ``need`` could prune
    need = np.maximum(need, 0) if n >= 2 else np.zeros((m, 1), dtype=int)
    upper, lower = (P + eps + 1e-9)[:, :, None], (P - eps - 1e-9)[:, :, None]

    def fits(prefix, pairs):
        # visits count positions 0..t-1 among the first n-1 (count base):
        # the pair rows, plus the last state while a successor is to come
        t = prefix.shape[1]
        remaining = (n - 1) - min(t, n - 1)
        a = pairs.sum(axis=1, dtype=int)
        visits = a + (prefix[:, -1] == states) if 0 < t < n else a
        ok = (visits <= caps).all(axis=0)
        ok &= np.maximum(need - visits, 0).sum(axis=0) <= remaining
        top = np.minimum(caps, visits + remaining)[:, None]
        out = (pairs >= upper * top) | (top - a[:, None] + pairs <= lower * top)
        return ok & ~(out.any(axis=1) & (a > 0)).any(axis=0)

    def level(prefix, pairs):
        t = prefix.shape[1]
        if t == n:
            yield prefix[accepts(prefix, pairs)]
            return
        digits = options[t]
        rows = np.arange(len(prefix) * len(digits))
        child = np.empty((len(rows), t + 1), dtype=dtype)
        child[:, :t] = np.repeat(prefix, len(digits), axis=0)
        child[:, t] = np.tile(digits, len(prefix))
        child_pairs = np.repeat(pairs, len(digits), axis=2)
        if t:
            child_pairs[child[:, t - 1], child[:, t], rows] += 1
        keep = fits(child, child_pairs)
        child, child_pairs = child[keep], child_pairs[:, :, keep]
        for lo in range(0, len(child), _CHUNK):
            yield from level(child[lo:lo + _CHUNK], child_pairs[:, :, lo:lo + _CHUNK])

    root = np.empty((1, 0), dtype=dtype), np.zeros((m, m, 1), dtype=count)
    if fits(*root)[0]:
        yield from level(*root)


def enumerate_typical_paths(chain: MarkovChain, n: int, eps: float,
                            supremus: bool = True, subsets=None):
    """Exhaustively enumerate the typical set at length n (oracle-grade).

    The level-by-level search of every path with the count prunes;
    leaves are tested in batches by one tester: the default or given
    family with the full set (the strong test) first, or the full set
    alone without ``supremus``.  Paths come out in lexicographic order,
    as int64 numpy arrays.
    """
    n = _integer(n, "path length")
    if supremus:
        given = None if subsets is None else list(subsets)
        tester = SupremusTester(chain, eps, subsets=[range(chain.n), *given] if given else given)
    else:
        tester = _floorless(chain, eps, [])
    _, _, P, pi = tester._groups[0]  # the full set, listed first
    for leaves in _search(P[0], pi[0], [np.arange(chain.n)] * n, eps, tester._accepts):
        yield from leaves.astype(np.int64)


def enumerate_confusable(x, blocks, chain: MarkovChain, eps: float,
                         budget: int = 10**7, coset_family: bool = False) -> int:
    """Count typical paths sharing x's block pattern.

    ``blocks`` is a partition of the state indices (e.g. the cosets of a
    left ideal); candidate paths agree with x on which block each position
    falls in, so only block members vary per position.  The membership
    test is full Supremus typicality by default; with ``coset_family``
    only the whole path and the sub-paths on blocks of two or more states
    are tested (the family the counting bound's argument actually uses).
    Candidates come from the typical-set search with each position
    limited to its block.  Refuses a block member that is not an integer
    (2.7, "2") rather than truncating or parsing it, blocks that repeat a
    state or hold an empty block, and a candidate count past ``budget``.
    """
    budget = _integer(budget, "budget")
    blocks = [_integers(list(members), "block members").tolist() for members in blocks]
    block_of = {s: b for b, members in enumerate(blocks) for s in members}
    sizes = [len(members) for members in blocks]
    # every state once: the keys are 0..m-1 and the sizes sum to m
    if sorted(block_of) != list(range(chain.n)) or sum(sizes) != chain.n or 0 in sizes:
        raise ValueError("blocks must partition the state indices")
    x = _checked_path(x, chain.n)
    options = [blocks[block_of[v]] for v in x.tolist()]
    total = 1
    for opt in options:
        total *= len(opt)
        if total > budget:
            raise ValueError(f"{total}+ candidates exceed the budget {budget}")
    if coset_family:
        tester = _floorless(chain, eps, [b for b in blocks if len(b) > 1])
    else:
        tester = SupremusTester(chain, eps)
        # refused up front: a search that prunes every candidate never
        # reaches the tester's own length check
        tester._refuse_short(len(x))
    _, _, P, pi = tester._groups[0]  # the full set, listed first
    return sum(len(leaves) for leaves in _search(P[0], pi[0], options, eps, tester._accepts))
