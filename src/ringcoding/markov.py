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
relabelled by first appearance, plus the depth (the typicality testers
keep their stacked censored pairs there too, keyed on the ordered
family); every memoised value is read-only.  The small-matrix helpers
make one array pass each: decimal rows are read with integer
arithmetic, lumpability from one block-move table whose equal-size
blocks are summed and averaged together, irreducibility from a boolean
reachability closure, a conditional entropy from the whole table at
once.  The bounds come from one forward filter whose levels are
zero-padded (labels, rows, largest block) tables: each level takes one
batched matmul to the next, and only the last two levels, whose
entropies the bounds difference, are reduced, in chunks of about 2^14
mass entries.  The invariant distribution and every
stochastic complement come from one censoring routine, GTH elimination,
which never subtracts: on stiff chains (tiny transition probabilities)
every entry keeps its relative accuracy.  Everything here assumes a
finite state space.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rings import _integer

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

# mass entries of the entropy-rate filter reduced at a time: bounds the working memory
_CHUNK = 1 << 14
# a plain decimal string: sign, whole digits, fraction digits (no exponent)
_DECIMAL = re.compile(r"\s*([-+]?)(\d*)(?:\.(\d*))?\s*", re.ASCII)


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
        if not P.size:
            raise ValueError("a chain needs at least one state")
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

        Keeps 4-decimal published matrices exact: each row is scaled to
        integer numerators over one common denominator, so each entry is
        one correctly rounded integer division by the row's exact sum; a
        row summing to zero raises ZeroDivisionError.  A row of plain
        decimals (an optional sign, digits and at most one point, such as
        " -.25", "5." or "0.1773") is read with integer arithmetic, over
        10^d for its longest fraction d.  A row with any other entry
        ("1/3", "2.5e-1", "nan") is parsed by ``Fraction``, which gives the
        same numerators for plain decimals and raises its ValueError on a
        bad entry.
        """
        P = []
        for row in rows:
            text = [str(v) for v in row]
            nums = _plain_numerators(text)
            if nums is None:
                frac = [Fraction(v) for v in text]
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


def _plain_numerators(text):
    """Integer numerators over 10^d of a row of plain decimal strings, d
    its longest fraction, or None when some entry is not a plain decimal.
    The whole and fraction digits are read by ``int`` separately, as
    ``Fraction`` reads them."""
    parts = [_DECIMAL.fullmatch(v) for v in text]
    if not all(p and (p[2] or p[3]) for p in parts):
        return None
    parts = [p.groups("") for p in parts]
    d = max((len(frac) for _, _, frac in parts), default=0)
    return [(-1 if sign == "-" else 1)
            * (int(whole or "0") * 10**d + int(frac or "0") * 10**(d - len(frac)))
            for sign, whole, frac in parts]


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
    """True iff the digraph of positive transitions is strongly connected:
    its reflexive reachability closure, found by boolean squaring until it
    is full or stops growing, holds every pair."""
    reach = (chain.P > 0) | np.eye(chain.n, dtype=bool)
    while not reach.all():
        wider = reach @ reach
        if (wider == reach).all():
            return False
        reach = wider
    return True


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
    A = P.take(order, 0).take(order, 1)
    for k in range(len(order) - 1, stop - 1, -1):
        s = A[k, :k].sum()
        if not s > 0:
            raise ArithmeticError(f"GTH pivot {s:.3g}: the eliminated states hold a closed subset")
        A[:k, k] /= s
        A[:k, :k] += A[:k, k, None] * A[k, :k]
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
    """Shannon entropy in bits, with 0 log 0 = 0, of an array of weights
    of any shape, read in C order.  A negative or NaN weight is refused
    with ValueError.  Zeros are dropped only when there are any, so the
    sum runs over the same contiguous values either way."""
    w = np.asarray(w, dtype=float).ravel()
    if not (w.size and w.min() > 0):
        if not (w >= 0).all():
            raise ValueError("entropy weights must be non-negative numbers")
        w = w[w > 0]
    logs = np.log2(w)
    logs *= w
    return float(-logs.sum())


def conditional_entropy(P, w) -> float:
    """H(next | current) = -sum_i w_i sum_j P_ij log2 P_ij, in bits, with
    0 log 0 = 0: every row's entropy in one pass over the table."""
    P = np.asarray(P, dtype=float)
    w = np.asarray(w, dtype=float)
    if P.shape[0] != len(w):
        raise ValueError("weight vector does not match the matrix")
    logs = np.log2(P, out=np.zeros_like(P), where=P > 0)
    return float(w @ -(P * logs).sum(axis=1))


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


def _by_size(blocks):
    """(positions, members) per block size, in first-appearance order: the
    positions in ``blocks`` of the blocks of that size, and their states
    as a (count, size) array."""
    sizes = {}
    for b, block in enumerate(blocks):
        sizes.setdefault(len(block), []).append(b)
    return [(at, np.array([blocks[b] for b in at])) for at in sizes.values()]


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
    """``lump``'s chain, or None when the labeling is not lumpable."""
    if len(labels) != chain.n:
        raise ValueError("labeling must assign every state a block")
    order, blocks = _blocks_of(labels)
    Q = _lumping(chain.P, blocks, tol)[1]
    return None if Q is None else MarkovChain(Q, states=order)


def _lumping(P: np.ndarray, blocks, tol: float = 1e-9):
    """(into, Q): the block-move table ``into[i, b] = P[i, blocks[b]].sum()``,
    the chance of moving from state i into block b, and the lumped matrix,
    or None when some block's rows of the table spread by more than
    ``tol``.  Q holds each block's mean row.  Blocks of one size are
    handled together, and ``take`` lays each reduction out along the last
    axis, so every entry of ``into`` is the 1-D (pairwise) sum of its
    block's columns and every Q entry the 1-D mean of one block pair's row
    sums; ``P[:, block]`` is laid out column by column, and its row sums
    add the columns in turn."""
    sized = _by_size(blocks)
    into = np.empty((P.shape[0], len(blocks)))
    for at, members in sized:
        into[:, at] = P.take(members, axis=1).sum(axis=2)
    Q = np.empty((len(blocks), len(blocks)))
    for at, members in sized:
        rows = into.T.take(members, axis=1)  # (blocks, sources, size)
        if (rows.max(axis=2) - rows.min(axis=2) > tol).any():
            return into, None
        Q[at] = rows.mean(axis=2).T
    Q /= Q.sum(axis=1, keepdims=True)
    return into, Q


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
    # row y holds column y's off-diagonal entries, laid out contiguously
    off = P.T[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    if (off.max(axis=1) - off.min(axis=1) > tol).any():
        return None
    v = off.mean(axis=1)
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
    budget: int = 2_000_000,
) -> EntropyRateBounds:
    """Two-sided entropy-rate bounds for the label process of a stationary
    chain.

    A depth below 1 is refused, and so is a depth or budget that is not
    one integer (2.5, "100", True), before the memo is read and on every
    labeling.  When the labeling is lumpable the label process is Markov
    and both bounds equal the lumped chain's conditional entropy exactly
    (the budget is ignored).  Otherwise exact forward filtering over
    label sequences of length ``depth`` gives

        lower = H(Y_m | Y_{m-1..1}, X_1)   <=  rate  <=
        upper = H(Y_m | Y_{m-1..1}),

    both monotone in ``depth``: each is the difference of the sequence
    entropies at lengths ``depth`` and ``depth - 1``, so only those two
    levels of the filter are reduced; the levels before them are only
    carried forward.  Time grows as ``(#labels)^depth``, so
    that sequence count is checked against ``budget``, the one guard of
    the filter's table; memory is one level-(depth - 1) table, each
    label's rows kept on its block's columns and zero-padded to the
    largest block, plus one chunk of about _CHUNK mass entries of the
    last level, which is never stored.  Results are memoised on the
    chain per (labeling up to relabelling, depth); the budget refusal
    fires on a memo hit as well.
    """
    if len(labels) != chain.n:
        raise ValueError("labeling must assign every state a block")
    if _integer(depth, "depth") < 1:
        raise ValueError("depth must be at least 1")
    budget = _integer(budget, "budget")
    # the bounds depend only on which states share a label
    first = {}
    canon = tuple(first.setdefault(label, len(first)) for label in labels)
    key = ("bounds", canon, depth)
    bounds = chain._memo.get(key)
    if bounds is None:
        bounds = chain._memo[key] = _label_rate_bounds(chain, canon, depth, budget)
    elif not bounds.exact:
        _check_filter_size(len(first), depth, budget)
    return bounds


def _check_filter_size(m: int, depth: int, budget: int):
    if m**depth > budget:
        raise ValueError(
            f"{m}^{depth} label sequences exceed the filtering budget {budget}"
        )


def _label_rate_bounds(chain: MarkovChain, labels, depth: int, budget: int) -> EntropyRateBounds:
    """``quotient_entropy_rate_bounds`` without the memo.

    One forward filter serves both bounds.  It is split by the first
    state, so its level-t rows are the sequences (x1, y2..yt), with x1
    varying fastest and yt slowest, and their masses give the lower
    bound.  The filter is linear in its start vector, so summing x1
    within each label gives the masses of (y1..yt), and so the upper
    bound.  A row is zero off the block of its last label, so level t is
    one zero-padded table of shape (labels, rows, w), w the largest
    block: label b's rows hold only block b's columns.  Two tables built
    once, the padded block-to-block transitions and block-to-label
    moves, turn each level into one batched matmul for the next level.
    Only levels depth - 1 and depth are reduced to their entropies, one
    more batched matmul each for their masses (level 1's entropies, of pi
    and its label sums, are read off pi, and only at depth 2 or less).  A
    level's masses are read off the level before it, _CHUNK mass entries
    (whole x1 groups) at a time: the last level is never stored.
    """
    pi = invariant_distribution(chain)
    _, blocks = _blocks_of(labels)
    into, Q = _lumping(chain.P, blocks)
    if Q is not None:
        w = np.array([pi[b].sum() for b in blocks])
        h = conditional_entropy(Q, w)
        return EntropyRateBounds(h, h, depth, exact=True)
    m, n = len(blocks), chain.n
    _check_filter_size(m, depth, budget)
    w = max(map(len, blocks))
    # block b's states, padded to w with the zero state n
    pad = np.full((m, w), n)
    masks = np.zeros((m, n))
    for b, block in enumerate(blocks):
        pad[b, :len(block)] = block
        masks[b, block] = 1.0
    if depth == 1:
        return EntropyRateBounds(0.0, entropy(masks @ pi), depth, exact=False)
    # steps[c, b] moves block b's states to block c's; moves[b] sends
    # block b's states into each label.  Both are gathered from one table
    # whose row and column n (the padding state) stay zero.
    table = np.zeros((n + 1, n + 1))
    table[:n, :n] = chain.P
    steps = table[pad[None, :, :, None], pad[:, None, None, :]]
    table[:n, :m] = into
    moves = table[pad, :m]
    step = max(1, _CHUNK // (m * m * n)) * n

    def entropies(level):
        """(H(X1, Y2..Yt), H(Y1..Yt)) of level t, from level t - 1's table
        in chunks: the masses of the chunk's rows extended by every label,
        and their sums over x1 within each first label."""
        h_lower = h_upper = 0.0
        for lo in range(0, level.shape[1], step):
            mass = level[:, lo:lo + step] @ moves
            h_lower += entropy(mass)
            h_upper += entropy(masks @ mass.reshape(m, -1, n, m))
        return h_lower, h_upper

    # the bounds difference levels depth - 1 and depth; the levels before
    # are only carried forward, never reduced
    h = (entropy(pi), entropy(masks @ pi)) if depth == 2 else None
    # level 1: row x1 of label b's group holds pi[x1] at its own state
    level = (pad[:, None, :] == np.arange(n)[:, None]) * pi[:, None]
    for t in range(2, depth + 1):
        if t >= depth - 1:
            prev, h = h, entropies(level)
        if t < depth:
            # label c's group stacks every group's extension by c, in
            # group order: the new label varies slowest.  Level 1's rows
            # each lie in one group, so its extensions are summed instead.
            nxt = level @ steps
            level = nxt.sum(axis=1) if t == 2 else nxt.reshape(m, -1, w)
    return EntropyRateBounds(h[0] - prev[0], h[1] - prev[1], depth, exact=False)
