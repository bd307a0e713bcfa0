"""Finite Markov chain analysis: invariant distributions, stochastic
complements, lumpings and entropy-rate bounds for label processes.

Distributions are plain numpy vectors; a labeling is a sequence of block
labels aligned with the chain's states.  All entropies are in bits
(base-2 logarithms).  Chains are stored without a designated start
distribution; operations that need stationarity use the invariant
distribution, solved on first use and cached on the chain (its matrix
is a read-only copy, so the cache cannot go stale).  The same holds for
the per-chain memo of partition-keyed results: censored pairs (S_A,
pi_A) keyed on the ordered subset, complement entropies keyed on the
ordered block list, and entropy-rate bounds keyed on the labeling
relabelled by first appearance, plus the depth; every memoised value is
read-only.  The invariant distribution and every stochastic complement
come from one censoring routine, GTH elimination, which never
subtracts: on stiff chains (tiny transition probabilities) every entry
keeps its relative accuracy.  Everything here assumes a finite state
space.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MarkovChain",
    "BurkeForm",
    "EntropyRateBounds",
    "is_irreducible",
    "invariant_distribution",
    "stochastic_complement",
    "entropy",
    "conditional_entropy",
    "blockdiag_complement_entropy",
    "is_lumpable",
    "lump",
    "check_burke_form",
    "quotient_entropy_rate_bounds",
]

# rows of the entropy-rate filter reduced at a time: bounds the working memory
_CHUNK = 1 << 14


class MarkovChain:
    """A finite-state chain: ordered state labels + row-stochastic matrix.

    ``P`` is a read-only copy of ``transition``.
    """

    def __init__(self, transition, states=None, tolerance: float = 1e-9):
        # a private read-only copy: the cached invariant distribution
        # cannot go stale through the caller's array
        P = np.array(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.isfinite(P).all():
            raise ValueError("transition probabilities must be finite")
        if P.min() < 0:
            raise ValueError("transition probabilities must be non-negative")
        sums = P.sum(axis=1)
        if np.abs(sums - 1.0).max() > tolerance:
            worst = int(np.abs(sums - 1.0).argmax())
            raise ValueError(
                f"row {worst} sums to {sums[worst]:.12g}; renormalize on load "
                "or loosen the tolerance"
            )
        P.setflags(write=False)
        self.P = P
        self._pi = None
        self._memo = {}  # partition-keyed results; see the module docstring
        self.states = list(states) if states is not None else list(range(P.shape[0]))
        if len(self.states) != P.shape[0]:
            raise ValueError("state label count does not match the matrix")
        self._index = {s: i for i, s in enumerate(self.states)}
        if len(self._index) != len(self.states):
            raise ValueError("state labels must be distinct")

    @classmethod
    def from_decimal_rows(cls, rows, states=None):
        """Build from decimal-string rows (exact), renormalizing each row.

        Keeps 4-decimal published matrices exact: strings are parsed as
        rationals and each row is divided by its exact sum before the
        float conversion.  A row is scaled to integer numerators over one
        common denominator, so each entry is one correctly rounded integer
        division; a row summing to zero raises ZeroDivisionError.
        """
        P = []
        for row in rows:
            frac = [Fraction(str(v)) for v in row]
            scale = math.lcm(*(v.denominator for v in frac))
            nums = [v.numerator * (scale // v.denominator) for v in frac]
            total = sum(nums)
            P.append([num / total for num in nums])
        return cls(P, states=states)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def index(self, state) -> int:
        return self._index[state]

    def __repr__(self):
        return f"MarkovChain(n={self.n})"


@dataclass
class BurkeForm:
    """Decomposition P = c1*U + (1-c1)*Id with all rows of U equal to u."""

    c1: float
    u: np.ndarray
    residual: float


@dataclass(frozen=True)
class EntropyRateBounds:
    """Truncated bounds on the entropy rate of a label process.

    ``lower <= rate <= upper``; ``exact`` marks the lumpable case where both
    sides collapse to the lumped chain's conditional entropy.
    """

    lower: float
    upper: float
    depth: int
    exact: bool = False


def is_irreducible(chain: MarkovChain) -> bool:
    """True iff the digraph of positive transitions is strongly connected."""
    n = chain.n
    adj = chain.P > 0
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        v = stack.pop()
        for w in np.nonzero(adj[v])[0]:
            if not seen[w]:
                seen[w] = True
                stack.append(int(w))
    return bool(seen.all())


def _gth(P: np.ndarray, order, stop: int) -> np.ndarray:
    """GTH elimination (Grassmann, Taksar and Heyman, 1985) of ``P``
    reordered to ``order``, from the last state down to index ``stop``.

    Eliminating state k adds P_ik P_kj / s_k to the remaining block, where
    the pivot s_k is the sum of k's exits to the remaining states (never
    1 - P_kk), so no step subtracts and tiny probabilities keep their
    relative accuracy.  Afterwards the leading ``stop x stop`` block is the
    chain censored on the first ``stop`` states of ``order``, Meyer's
    stochastic complement (SIAM Review 31(2), 1989), and column k holds
    P_ik / s_k above the diagonal for every eliminated k.  A pivot that is
    not positive means the eliminated states hold a closed subset.
    """
    A = P[np.ix_(order, order)]
    for k in range(len(order) - 1, stop - 1, -1):
        s = A[k, :k].sum()
        if not s > 0:
            raise ArithmeticError(f"GTH pivot {s:.3g}: the eliminated states hold a closed subset")
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    return A


def invariant_distribution(chain: MarkovChain) -> np.ndarray:
    """The unique pi with pi P = pi, sum(pi) = 1, solved once per chain.

    GTH elimination censors the chain down to its first state; then
    pi_k = sum_{i<k} pi_i P_ik / s_k back-substitutes from pi_0 = 1 and
    the result is normalized.  No step subtracts, so every entry keeps
    its relative accuracy on stiff chains.  The residual is checked
    against 1e-12 (it catches rows that are off from 1 within the load
    tolerance) and the result is cached on the chain as a read-only
    array.  Power iteration is kept out of the library and used only as
    a test oracle.
    """
    if chain._pi is None:
        if not is_irreducible(chain):
            raise ValueError("invariant distribution requires an irreducible chain")
        A = _gth(chain.P, np.arange(chain.n), 1)
        pi = np.ones(chain.n)
        for k in range(1, chain.n):
            pi[k] = pi[:k] @ A[:k, k]
        pi /= pi.sum()
        resid = np.abs(pi @ chain.P - pi).max()
        if resid > 1e-12:
            raise ArithmeticError(f"invariant solve residual {resid:.3e} exceeds 1e-12")
        pi.setflags(write=False)
        chain._pi = pi
    return chain._pi


def stochastic_complement(chain: MarkovChain, subset) -> np.ndarray:
    """Transition matrix of the chain watched only at visits to ``subset``.

    S_A = P_AA + P_A,Ac (I - P_Ac,Ac)^{-1} P_Ac,A, computed by GTH
    elimination of the states outside ``subset``, so no inverse is formed
    and nothing is subtracted.  Rows and columns follow the order of
    ``subset``, which must list distinct states (ValueError otherwise).  A
    complement of ``subset`` that holds a closed subset (possible only for
    a reducible chain) is refused with ArithmeticError.
    """
    idx = [int(i) for i in subset]
    if not idx or len(set(idx)) < len(idx) or min(idx) < 0 or max(idx) >= chain.n:
        raise ValueError(f"subset must list distinct states in 0..{chain.n - 1}, at least one")
    rest = [i for i in range(chain.n) if i not in idx]
    return _gth(chain.P, idx + rest, len(idx))[: len(idx), : len(idx)]


def _censored(chain: MarkovChain, subset):
    """(S_A, pi_A) from one elimination: pi_A is pi restricted to
    ``subset`` and renormalized, checked as a fixed point of S_A.  A
    subset of every state keeps pi's own entries, so tests against pi_A
    and against pi agree.  Both are read-only and memoised on the chain
    per ordered subset."""
    key = ("censored", tuple(int(i) for i in subset))
    if key not in chain._memo:
        pi = invariant_distribution(chain)
        # the complement refuses a subset that does not list distinct states
        S = stochastic_complement(chain, key[1])
        pa = pi[list(key[1])]
        if len(pa) < chain.n:
            pa = pa / pa.sum()
        resid = np.abs(pa @ S - pa).max()
        if resid > 1e-10:
            raise ArithmeticError(f"reduced invariant residual {resid:.3e} exceeds 1e-10")
        S.setflags(write=False)
        pa.setflags(write=False)
        chain._memo[key] = S, pa
    return chain._memo[key]


def entropy(w) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    w = np.asarray(w, dtype=float)
    nz = w > 0
    return float(-(w[nz] * np.log2(w[nz])).sum())


def conditional_entropy(P, w) -> float:
    """H(next | current) = -sum_i w_i sum_j P_ij log2 P_ij, in bits."""
    P = np.asarray(P, dtype=float)
    w = np.asarray(w, dtype=float)
    if P.shape[0] != len(w):
        raise ValueError("weight vector does not match the matrix")
    rows = np.array([entropy(P[i]) for i in range(P.shape[0])])
    return float(w @ rows)


def blockdiag_complement_entropy(chain: MarkovChain, partition) -> float:
    """Weighted complement entropy sum_A pi(A) H(S_A | pi_A) over a partition.

    Memoised on the chain per ordered block list: the order fixes the
    summation order, so a hit returns the float a fresh sum would give.
    Each S_A comes from the block's memoised censored pair, shared with
    the typicality testers; pi_A is renormalized here because the pair
    of a block of every state keeps pi itself.
    """
    key = ("blockdiag", tuple(tuple(int(i) for i in block) for block in partition))
    if key in chain._memo:
        return chain._memo[key]
    pi = invariant_distribution(chain)
    covered = sorted(i for block in key[1] for i in block)
    if covered != list(range(chain.n)):
        raise ValueError("partition must cover every state exactly once")
    total = 0.0
    for block in key[1]:
        if len(block) > 1:  # a single state's S_A = [1] has zero entropy
            w = pi[list(block)]
            total += w.sum() * conditional_entropy(_censored(chain, block)[0], w / w.sum())
    chain._memo[key] = total
    return total


def _blocks_of(labels):
    """The distinct labels in first-appearance order, and each one's states."""
    blocks = {}
    for i, label in enumerate(labels):
        blocks.setdefault(label, []).append(i)
    return list(blocks), list(blocks.values())


def _block_moves(P: np.ndarray, blocks) -> np.ndarray:
    """``into[i, b] = P[i, blocks[b]].sum()``: the chance of moving from
    state i into block b.  ``take`` lays each block's columns out row by
    row, so every entry is that 1-D (pairwise) sum; ``P[:, block]`` is laid
    out column by column, and its row sums add the columns in turn."""
    return np.stack([P.take(block, axis=1).sum(axis=1) for block in blocks], axis=1)


def is_lumpable(chain: MarkovChain, labels, tol: float = 1e-9) -> bool:
    """Strong lumpability: block-sum rows constant within every block."""
    return _lumped(chain, labels, tol) is not None


def lump(chain: MarkovChain, labels, tol: float = 1e-9) -> MarkovChain:
    """Block-level chain of a lumpable labeling (blocks in first-appearance
    order); raises on a non-lumpable labeling."""
    lumped = _lumped(chain, labels, tol)
    if lumped is None:
        raise ValueError("labeling is not lumpable")
    return lumped


def _lumped(chain: MarkovChain, labels, tol: float = 1e-9) -> MarkovChain | None:
    """``lump``'s chain, or None when the labeling is not lumpable: some
    block's rows of the block-move table spread by more than ``tol``.
    Q holds each block's mean row."""
    if len(labels) != chain.n:
        raise ValueError("labeling must assign every state a block")
    order, blocks = _blocks_of(labels)
    into = _block_moves(chain.P, blocks)
    if any((np.ptp(into[src], axis=0) > tol).any() for src in blocks):
        return None
    # one 1-D mean per entry: a column mean of into[src] sums in another order
    Q = np.array([[into[src, b].mean() for b in range(len(blocks))] for src in blocks])
    Q /= Q.sum(axis=1, keepdims=True)
    return MarkovChain(Q, states=order)


def check_burke_form(chain: MarkovChain, tol: float = 1e-9) -> BurkeForm | None:
    """Try to write P = c1*U + (1-c1)*Id with identical rows of U.

    Succeeds iff every off-diagonal column is constant and the diagonal
    excess over that constant is shared by all states; returns None
    otherwise.  A chain in this form keeps every function of it Markov,
    which is what certifies lumpability for arbitrary labelings.
    """
    P = chain.P
    n = chain.n
    if n == 1:
        return BurkeForm(1.0, np.array([1.0]), 0.0)
    v = np.empty(n)
    for y in range(n):
        col = np.delete(P[:, y], y)
        if col.max() - col.min() > tol:
            return None
        v[y] = col.mean()
    excess = np.diag(P) - v
    if excess.max() - excess.min() > tol:
        return None
    c1 = float(1.0 - excess.mean())
    if c1 <= tol or v.sum() <= tol:
        # P is (numerically) the identity: U is arbitrary; report uniform.
        u = np.full(n, 1.0 / n)
        return BurkeForm(0.0, u, float(np.abs(P - np.eye(n)).max()))
    u = v / v.sum()
    recon = c1 * np.tile(u, (n, 1)) + (1.0 - c1) * np.eye(n)
    residual = float(np.abs(recon - P).max())
    if residual > tol:
        return None
    return BurkeForm(c1, u, residual)


def quotient_entropy_rate_bounds(
    chain: MarkovChain,
    labels,
    depth: int = 6,
    max_depth: int = 10,
    budget: int = 2_000_000,
) -> EntropyRateBounds:
    """Two-sided entropy-rate bounds for the label process of a stationary
    chain.

    A depth below 1 is refused.  When the labeling is lumpable the label
    process is Markov and both bounds equal the lumped chain's conditional
    entropy exactly (the depth cap and budget are ignored).  Otherwise
    exact forward filtering over label sequences of length ``depth`` gives

        lower = H(Y_m | Y_{m-1..1}, X_1)   <=  rate  <=
        upper = H(Y_m | Y_{m-1..1}),

    both monotone in ``depth``.  Time grows as ``(#labels)^depth``, so the
    depth is capped and the sequence count is checked against ``budget``;
    memory is one level-(depth - 1) table, kept on its rows' supports,
    plus one chunk of the last level, which is never stored.
    Results are memoised on the chain per (labeling up to relabelling,
    depth); the cap and budget refusals fire on a memo hit as well.
    """
    if len(labels) != chain.n:
        raise ValueError("labeling must assign every state a block")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    # the bounds depend only on which states share a label
    first = {}
    canon = tuple(first.setdefault(label, len(first)) for label in labels)
    key = ("bounds", canon, depth)
    bounds = chain._memo.get(key)
    if bounds is None:
        bounds = chain._memo[key] = _label_rate_bounds(chain, canon, depth, max_depth, budget)
    elif not bounds.exact:
        _check_filter_size(len(first), depth, max_depth, budget)
    return bounds


def _check_filter_size(m: int, depth: int, max_depth: int, budget: int):
    if depth > max_depth:
        raise ValueError(f"depth {depth} exceeds the cap {max_depth}")
    if m**depth > budget:
        raise ValueError(
            f"{m}^{depth} label sequences exceed the filtering budget {budget}"
        )


def _label_rate_bounds(chain: MarkovChain, labels, depth: int, max_depth: int,
                       budget: int) -> EntropyRateBounds:
    """``quotient_entropy_rate_bounds`` without the memo.

    One forward filter serves both bounds.  It is split by the first
    state, so its level-t rows are the sequences (x1, y2..yt), with x1
    varying fastest and yt slowest, and their masses give the lower
    bound.  The filter is linear in its start vector, so summing x1
    within each label gives the masses of (y1..yt), and so the upper
    bound.  A row is zero off the block of its last label, so level t is
    kept as one group per label holding only that block's columns, and
    a level's masses are read off the level before it, _CHUNK rows (whole
    x1 groups) at a time: the last level is never stored.
    """
    pi = invariant_distribution(chain)
    _, blocks = _blocks_of(labels)
    lumped = _lumped(chain, labels)
    if lumped is not None:
        w = np.array([pi[b].sum() for b in blocks])
        h = conditional_entropy(lumped.P, w)
        return EntropyRateBounds(h, h, depth, exact=True)
    m, n = len(blocks), chain.n
    _check_filter_size(m, depth, max_depth, budget)
    masks = np.zeros((m, n))
    for b, block in enumerate(blocks):
        masks[b, block] = 1.0
    to_label = _block_moves(chain.P, blocks)
    step = max(1, _CHUNK // n) * n

    # level 1 is one group over every state; each level's sequence
    # entropies are found once and differenced
    groups, cols = [np.diag(pi)], [np.arange(n)]
    h_lower, h_upper = entropy(pi), entropy(masks @ pi)
    lower, upper = 0.0, h_upper
    for t in range(2, depth + 1):
        h_lower_prev, h_upper_prev = h_lower, h_upper
        h_lower = h_upper = 0.0
        for g, c in zip(groups, cols):
            for lo in range(0, len(g), step):
                # masses of the chunk's rows extended by every label, and
                # their sums over x1 within each first label
                mass = g[lo:lo + step] @ to_label[c]
                h_lower += entropy(mass)
                h_upper += entropy(masks @ mass.reshape(-1, n, m))
        lower = h_lower - h_lower_prev
        upper = h_upper - h_upper_prev
        if t < depth:
            # label c's group stacks every group's extension by c, in
            # group order: the new label varies slowest
            groups = [np.concatenate([g @ chain.P[np.ix_(c, block)]
                                      for g, c in zip(groups, cols)])
                      for block in blocks]
            cols = blocks
    return EntropyRateBounds(float(lower), float(upper), depth, exact=False)
