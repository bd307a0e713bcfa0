import math
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import exact_invariant
from ringcoding import (
    MarkovChain,
    blockdiag_complement_entropy,
    check_burke_form,
    conditional_entropy,
    entropy,
    invariant_distribution,
    is_irreducible,
    is_lumpable,
    lump,
    quotient_entropy_rate_bounds,
    stochastic_complement,
)
from ringcoding import markov, reference
from ringcoding.markov import _censored


def power_iteration(P, iters=20000):
    w = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iters):
        w = w @ P
    return w


def test_chain_validation():
    with pytest.raises(ValueError):
        MarkovChain([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovChain([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovChain([[0.5, 0.5]])


def test_decimal_rows_renormalize():
    ch = MarkovChain.from_decimal_rows([[".8142", ".1773", ".0042", ".0042"]] * 4)
    assert np.abs(ch.P.sum(axis=1) - 1).max() < 1e-15


@pytest.mark.parametrize("rows", [
    [[".8142", ".1773", ".0042", ".0042"]] * 4,
    [["0.1", "0.2", "0.7"], ["1/3", "1/3", "1/3"], ["1e-3", ".5", "0.499"]],
    [["2/7", "0", "5/7"], ["3", "1", "0"], ["1e-15", "1", "1e-9"]],
    [["0.333333", "0.333333", "0.333334"], [".5", "0", ".5"], ["1/3", "0.25", "5/12"]],
    [["1"]],
])
def test_decimal_rows_match_fraction_reference(rows):
    """Each entry is the float of the entry over its row's exact sum."""
    expected = []
    for row in rows:
        frac = [Fraction(v) for v in row]
        expected.append([float(v / sum(frac)) for v in frac])
    P = MarkovChain.from_decimal_rows(rows).P
    assert P.tolist() == expected


def test_irreducibility():
    assert is_irreducible(MarkovChain([[0.5, 0.5], [0.5, 0.5]]))
    block = MarkovChain(
        [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
    )
    assert not is_irreducible(block)


def test_reference_source_irreducible(source_chain):
    assert is_irreducible(source_chain)


def test_invariant_uniform_for_doubly_stochastic():
    P = MarkovChain([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
    pi = invariant_distribution(P)
    assert np.abs(pi - 1 / 3).max() < 1e-12


def test_invariant_single_state():
    pi = invariant_distribution(MarkovChain([[1.0]]))
    assert pi.tolist() == [1.0]


def test_invariant_matches_rational_oracle(value_chain):
    pi = invariant_distribution(value_chain)
    oracle = exact_invariant(value_chain.P)
    assert np.abs(pi - oracle).max() < 1e-12
    # mass concentrates on the sticky state labeled 3
    assert value_chain.states[int(pi.argmax())] == 3
    assert pi.max() > 0.9


def test_invariant_rejects_reducible():
    with pytest.raises(ValueError):
        invariant_distribution(MarkovChain([[1.0, 0.0], [0.0, 1.0]]))


def test_stochastic_complement_full_and_single(source_chain):
    S = stochastic_complement(source_chain, range(4))
    assert np.array_equal(S, source_chain.P)
    S1 = stochastic_complement(source_chain, [2])
    assert S1.shape == (1, 1)
    assert abs(S1[0, 0] - 1.0) < 1e-12


def test_stochastic_complement_row_stochastic_everywhere(source_chain, mixing3):
    from itertools import combinations

    for chain in (source_chain, mixing3):
        for r in range(1, chain.n + 1):
            for sub in combinations(range(chain.n), r):
                S = stochastic_complement(chain, sub)
                assert np.abs(S.sum(axis=1) - 1).max() < 1e-9
                assert S.min() > -1e-15
                assert is_irreducible(MarkovChain(np.clip(S, 0, None) / S.sum(axis=1, keepdims=True)))


@pytest.mark.parametrize("subset", [[], [0, 0], [1, 2, 1], [-1], [3]])
def test_stochastic_complement_refuses_bad_subsets(mixing3, subset):
    """Repeated or out-of-range states would give rows summing above 1."""
    with pytest.raises(ValueError, match="distinct states"):
        stochastic_complement(mixing3, subset)


def test_watch_chain_monte_carlo_oracle(mixing3):
    """Empirical transition frequencies of the watched chain match S_A."""
    from ringcoding import sample_path
    from ringcoding.typicality import transition_counts

    sub = [0, 2]
    S = stochastic_complement(mixing3, sub)
    path = sample_path(mixing3, 60_000, 99)
    watched = path[np.isin(path, sub)]
    lut = np.full(3, -1)
    lut[sub] = np.arange(2)
    counts = transition_counts(lut[watched], 2)
    for i in range(2):
        emp = counts.pair[i] / counts.visits[i]
        se = np.sqrt(S[i] * (1 - S[i]) / counts.visits[i])
        assert (np.abs(emp - S[i]) <= 3 * np.maximum(se, 1e-9)).all()


def test_reduced_invariant(source_chain):
    pi = invariant_distribution(source_chain)
    pa = _censored(source_chain, [0, 2])[1]
    expect = pi[[0, 2]] / pi[[0, 2]].sum()
    assert np.abs(pa - expect).max() < 1e-12
    full = _censored(source_chain, range(4))[1]
    assert np.abs(full - pi).max() < 1e-12


def test_reduced_invariant_uniform_case():
    doubly = MarkovChain([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
    pa = _censored(doubly, [0, 2])[1]
    assert np.abs(pa - 0.5).max() < 1e-12


def test_reduced_invariant_is_power_iteration_fixed_point(mixing3):
    S = stochastic_complement(mixing3, [0, 1])
    pa = _censored(mixing3, [0, 1])[1]
    assert np.abs(pa - power_iteration(S)).max() < 1e-8


def test_entropy_basics():
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(entropy([0.25] * 4) - 2.0) < 1e-12
    w = np.array([0.9333, 0.0222, 0.0222, 0.0223])
    direct = -(w * np.log2(w)).sum()
    assert abs(entropy(w) - direct) < 1e-12


def test_conditional_entropy_basics():
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert conditional_entropy(perm, [1 / 3] * 3) == 0.0
    uniform = np.full((5, 5), 0.2)
    assert abs(conditional_entropy(uniform, [0.2] * 5) - np.log2(5)) < 1e-12


def test_reference_source_entropy(source_chain):
    pi = invariant_distribution(source_chain)
    assert abs(conditional_entropy(source_chain.P, pi) - 0.1602) < 5e-3


def test_blockdiag_complement_entropy(source_chain):
    pi = invariant_distribution(source_chain)
    h = conditional_entropy(source_chain.P, pi)
    assert abs(blockdiag_complement_entropy(source_chain, [range(4)]) - h) < 1e-12
    assert blockdiag_complement_entropy(source_chain, [[0], [1], [2], [3]]) == 0.0
    v = blockdiag_complement_entropy(source_chain, [[0, 2], [1, 3]])
    # the scaled complement candidate printed for this source
    assert abs(2 * v - 0.1474) < 5e-3


def test_lumpability_trivial_labelings(source_chain):
    assert is_lumpable(source_chain, [0, 1, 2, 3])
    same = lump(source_chain, [0, 1, 2, 3])
    assert np.abs(same.P - source_chain.P).max() < 1e-12
    assert is_lumpable(source_chain, ["x"] * 4)
    one = lump(source_chain, ["x"] * 4)
    assert one.n == 1 and abs(one.P[0, 0] - 1) < 1e-12


def test_lump_rejects_non_lumpable(mixing3):
    assert not is_lumpable(mixing3, ["a", "a", "b"])
    with pytest.raises(ValueError):
        lump(mixing3, ["a", "a", "b"])


def test_joint_lumps_to_value_chain(joint8, value_chain):
    g = reference.target_function()
    labels = [g(*st) for st in joint8.states]
    assert is_lumpable(joint8, labels, tol=1e-6)
    lumped = lump(joint8, labels, tol=1e-6)
    perm = [lumped.states.index(s) for s in value_chain.states]
    aligned = lumped.P[np.ix_(perm, perm)]
    assert np.abs(aligned - value_chain.P).max() < 2e-3


def test_burke_form_identity():
    form = check_burke_form(MarkovChain(np.eye(3)))
    assert form is not None and form.c1 == 0.0


def test_burke_form_identical_rows():
    row = np.array([0.1, 0.6, 0.3])
    form = check_burke_form(MarkovChain(np.tile(row, (3, 1))))
    assert form is not None
    assert abs(form.c1 - 1.0) < 1e-12
    assert np.abs(form.u - row).max() < 1e-12


def test_burke_form_reference_joint(joint8):
    form = check_burke_form(joint8, tol=1e-3)
    assert form is not None
    assert abs(form.c1 - 0.87) < 1e-2
    assert form.residual < 1e-3
    heavy = np.sort(form.u)[-2:]
    assert np.abs(heavy - 0.4666).max() < 1e-3


def test_burke_form_absent():
    assert check_burke_form(MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])) is None


def test_quotient_bounds_identity_and_constant(mixing3):
    pi = invariant_distribution(mixing3)
    h = conditional_entropy(mixing3.P, pi)
    for depth in (2, 4):
        b = quotient_entropy_rate_bounds(mixing3, [0, 1, 2], depth=depth)
        assert b.exact and abs(b.lower - h) < 1e-12 and abs(b.upper - h) < 1e-12
    b = quotient_entropy_rate_bounds(mixing3, ["c"] * 3, depth=3)
    assert b.exact and b.lower == b.upper == 0.0


def test_quotient_bounds_lumpable_collapse(joint8):
    g = reference.target_function()
    labels = [g(*st) for st in joint8.states]
    b = quotient_entropy_rate_bounds(joint8, labels, depth=4)
    lumped = lump(joint8, labels, tol=1e-6)
    pi = invariant_distribution(lumped)
    assert b.exact
    assert abs(b.upper - conditional_entropy(lumped.P, pi)) < 1e-9


def test_quotient_bounds_monotone_and_ordered(mixing3):
    prev = None
    for depth in range(2, 8):
        b = quotient_entropy_rate_bounds(mixing3, ["a", "a", "b"], depth=depth)
        assert b.lower <= b.upper + 1e-12
        if prev is not None:
            assert b.upper <= prev.upper + 1e-12
            assert b.lower >= prev.lower - 1e-12
        prev = b


def test_quotient_bounds_filter_peak_memory():
    """Forward filtering never stores its last level: its peak is the
    support-only level before it plus one chunk, under half the dense last
    table."""
    import tracemalloc

    rng = np.random.default_rng(3)
    P = rng.uniform(0.05, 1.0, (8, 8))
    chain = MarkovChain(P / P.sum(axis=1, keepdims=True))
    labels = [0, 1, 2, 3, 0, 1, 2, 3]
    depth = 7
    assert not is_lumpable(chain, labels)
    # the lower bound's last table: one row per first state and label sequence
    final_bytes = 8 * 4 ** (depth - 1) * 8 * 8
    tracemalloc.start()
    try:
        b = quotient_entropy_rate_bounds(chain, labels, depth=depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not b.exact and b.lower <= b.upper
    assert peak < final_bytes / 2


@pytest.mark.parametrize("depth", [True, 2.5, "3", 3.0])
def test_quotient_bounds_refuse_non_integer_depth(mixing3, depth):
    """A depth must be one integer, refused before the memo is read: True
    is not depth 1."""
    quotient_entropy_rate_bounds(mixing3, ["a", "a", "b"], depth=1)
    with pytest.raises(ValueError, match="depth must be an integer"):
        quotient_entropy_rate_bounds(mixing3, ["a", "a", "b"], depth=depth)


@pytest.mark.parametrize("budget", [True, 23.5, "100", 16.0])
def test_quotient_bounds_refuse_non_integer_budget(budget):
    """A budget must be one integer, refused before the memo is read and on
    a lumpable labeling too, where it is otherwise ignored: True is not a
    budget of 1, and 16.0 is not compared with the 2^4 sequences."""
    chain = MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    quotient_entropy_rate_bounds(chain, ["a", "a", "b"], depth=4)
    for labels in (["a", "a", "b"], [0, 1, 2]):
        with pytest.raises(ValueError, match="budget must be an integer"):
            quotient_entropy_rate_bounds(chain, labels, depth=4, budget=budget)


def test_quotient_bounds_budget_refusal(mixing3):
    """The sequence budget is the filter's one guard: 2^21 label
    sequences pass the default 2,000,000."""
    with pytest.raises(ValueError, match="2\\^21 label sequences exceed the filtering budget"):
        quotient_entropy_rate_bounds(mixing3, ["a", "a", "b"], depth=21)


def test_data_processing_inequality_strict_and_equal():
    # lumpable labeling, generic chain: strict inequality
    P = MarkovChain(
        [[0.3, 0.2, 0.5], [0.2, 0.3, 0.5], [0.25, 0.25, 0.5]]
    )
    labels = ["a", "a", "b"]
    assert is_lumpable(P, labels)
    pi = invariant_distribution(P)
    lumped = lump(P, labels)
    w = np.array([pi[0] + pi[1], pi[2]])
    assert conditional_entropy(lumped.P, w) < conditional_entropy(P.P, pi) - 1e-6
    # block mass concentrated on one member per row: equality
    Q = MarkovChain([[0.0, 0.6, 0.4], [0.6, 0.0, 0.4], [0.3, 0.0, 0.7]])
    assert is_lumpable(Q, labels)
    piq = invariant_distribution(Q)
    lq = lump(Q, labels)
    wq = np.array([piq[0] + piq[1], piq[2]])
    assert abs(conditional_entropy(lq.P, wq) - conditional_entropy(Q.P, piq)) < 1e-12


# --- the censoring routine ----------------------------------------------------


@st.composite
def stiff_chains(draw):
    """(float chain, rational rows): off-diagonals 10^e with e in [-12, 0]
    (a row summing past 1 is scaled to sum to 1/2), each diagonal the
    exact 1 - sum of its row's off-diagonals, rounded."""
    m = draw(st.integers(2, 6))
    exps = st.floats(-12.0, 0.0, allow_nan=False)
    rows = []
    for i in range(m):
        off = [10.0 ** draw(exps) if j != i else 0.0 for j in range(m)]
        total = sum(off)
        if total >= 1:
            off = [v / (2 * total) for v in off]
        row = [Fraction(v) for v in off]
        row[i] = 1 - sum(row)
        rows.append(row)
    return MarkovChain([[float(v) for v in row] for row in rows]), rows


@settings(max_examples=60, deadline=None)
@given(stiff_chains())
def test_censoring_keeps_relative_accuracy(case):
    """pi matches the rational oracle entry by entry, however small the
    entries; every S_A is stochastic with the reduced pi as fixed point."""
    from itertools import combinations

    chain, rows = case
    pi = invariant_distribution(chain)
    exact = exact_invariant(rows)
    assert (np.abs(pi - exact) <= 1e-12 * exact).all()
    for r in range(1, chain.n + 1):
        for sub in combinations(range(chain.n), r):
            S = stochastic_complement(chain, sub)
            assert S.min() >= 0
            assert np.abs(S.sum(axis=1) - 1).max() <= 1e-12
            pa = _censored(chain, sub)[1]
            assert (np.abs(pa @ S - pa) <= 1e-12 * pa).all()


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(5)), st.integers(0, 2**32 - 1))
def test_complement_of_permuted_full_set_is_permuted_P(perm, seed):
    P = np.random.default_rng(seed).dirichlet(np.ones(5), size=5)
    chain = MarkovChain(P)
    assert np.array_equal(stochastic_complement(chain, perm), chain.P[np.ix_(perm, perm)])


@pytest.mark.parametrize("c", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
def test_stiff_path_chain_exactly_uniform(c):
    """A symmetric 4-state path chain is doubly stochastic: pi is uniform,
    and censoring gets it exactly at every coupling."""
    P = [[1 - c, c, 0, 0], [c, 1 - 2 * c, c, 0], [0, c, 1 - 2 * c, c], [0, 0, c, 1 - c]]
    assert invariant_distribution(MarkovChain(P)).tolist() == [0.25] * 4


def test_invariant_cached_and_read_only():
    P = np.array([[0.9, 0.1], [0.4, 0.6]])
    chain = MarkovChain(P)
    pi = invariant_distribution(chain)
    assert invariant_distribution(chain) is pi
    assert not pi.flags.writeable and not chain.P.flags.writeable
    P[0] = [0.5, 0.5]
    assert chain.P.tolist() == [[0.9, 0.1], [0.4, 0.6]]
    assert invariant_distribution(chain) is pi


def test_invariant_refuses_rows_off_within_load_tolerance():
    """Rows off from 1 by 1e-10 load (tolerance 1e-9) but fail the 1e-12
    residual check."""
    chain = MarkovChain([[0.5, 0.5 + 1e-10], [0.5, 0.5]])
    with pytest.raises(ArithmeticError):
        invariant_distribution(chain)


# --- the per-chain memo ----------------------------------------------------------


def test_memo_hit_keeps_refusals():
    """A memoised non-lumpable result is shared by every relabelling of
    its labeling at that depth, yet a later call past the filtering
    budget is refused as on a fresh chain."""
    chain = MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    b = quotient_entropy_rate_bounds(chain, ["a", "a", "b"], depth=4)
    assert not b.exact
    assert quotient_entropy_rate_bounds(chain, [7, 7, 3], depth=4) is b
    with pytest.raises(ValueError, match="budget 15"):
        quotient_entropy_rate_bounds(chain, [7, 7, 3], depth=4, budget=15)
    assert quotient_entropy_rate_bounds(chain, ["b", "b", "a"], depth=4, budget=16) is b
    # a lumpable labeling ignores the budget, on a hit as on a miss
    fresh = MarkovChain(chain.P)
    exact = quotient_entropy_rate_bounds(chain, [0, 1, 2], depth=4)
    for c in (chain, fresh):
        assert quotient_entropy_rate_bounds(c, [0, 1, 2], depth=4, budget=1) == exact


def test_memoised_results_are_read_only():
    """Shared bounds and censored pairs refuse writes, so one caller
    cannot change what the next one reads."""
    import dataclasses

    chain = MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    b = quotient_entropy_rate_bounds(chain, ["a", "a", "b"], depth=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.lower = 0.0
    S, pa = _censored(chain, (2, 0))
    assert _censored(chain, [2, 0])[0] is S
    for arr in (S, pa, _censored(chain, (0, 1))[1]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert np.array_equal(S, stochastic_complement(MarkovChain(chain.P), (2, 0)))


def test_blockdiag_memo_keeps_block_order():
    """The memo keys on the ordered block list: each order is summed as
    given and equals the sum on a fresh chain bit for bit.  On this chain
    (seed 10) the six orders of three blocks give three different floats."""
    from itertools import permutations

    chain = MarkovChain(np.random.default_rng(10).dirichlet(np.ones(6), size=6))
    totals = set()
    for blocks in permutations([[0, 1], [2, 3], [4, 5]]):
        total = blockdiag_complement_entropy(chain, blocks)
        assert total == blockdiag_complement_entropy(MarkovChain(chain.P), blocks)
        totals.add(total)
    assert len(totals) == 3
    with pytest.raises(ValueError, match="exactly once"):
        blockdiag_complement_entropy(chain, [[0, 2], [1]])


@st.composite
def labelled_chains(draw):
    """(chain, labeling): dense random rows, labels from a random map."""
    m = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    P = np.random.default_rng(seed).dirichlet(np.ones(m), size=m)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return MarkovChain(P), labels


@settings(max_examples=40, deadline=None)
@given(labelled_chains())
def test_quotient_bounds_ordered_and_monotone_in_depth(case):
    """lower <= upper at every depth; upper falls and lower rises with it.
    Each memoised result equals a fresh chain's at its own depth."""
    chain, labels = case
    prev = None
    for depth in range(1, 6):
        b = quotient_entropy_rate_bounds(chain, labels, depth=depth)
        assert b == quotient_entropy_rate_bounds(MarkovChain(chain.P), labels, depth=depth)
        assert b.lower <= b.upper + 1e-12
        if prev is not None:
            assert b.upper <= prev.upper + 1e-12
            assert b.lower >= prev.lower - 1e-12
        prev = b


@st.composite
def nonlumpable_chains(draw):
    """(chain, labeling, depth): 3-4 states, as every labeling of 2 states
    is lumpable.  Half the chains have zero transitions; the cycle
    0 -> 1 -> ... -> 0 stays positive, so every chain is irreducible."""
    n = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.dirichlet(np.ones(n), size=n)
    if draw(st.booleans()):
        P[rng.uniform(size=(n, n)) < 0.4] = 0.0
        P[np.arange(n), (np.arange(n) + 1) % n] += 0.1
        P /= P.sum(axis=1, keepdims=True)
    chain = MarkovChain(P)
    labels = draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    assume(not is_lumpable(chain, labels))
    return chain, labels, draw(st.integers(1, 5))


def path_entropies(chain, labels, t):
    """(H(X_1, Y_2..Y_t), H(Y_1..Y_t)) summed over all n^t state paths."""
    pi = invariant_distribution(chain)
    xy, y = {}, {}
    for path in product(range(chain.n), repeat=t):
        p = pi[path[0]] * math.prod(chain.P[a, b] for a, b in zip(path, path[1:]))
        word = tuple(labels[s] for s in path)
        xy[(path[0],) + word[1:]] = xy.get((path[0],) + word[1:], 0.0) + p
        y[word] = y.get(word, 0.0) + p
    return tuple(-sum(p * math.log2(p) for p in d.values() if p > 0) for d in (xy, y))


def check_path_sums(chain, labels, depth):
    """Both bounds equal their definitions on the joint laws of all state
    paths: upper = H(Y_1..Y_t) - H(Y_1..Y_{t-1}), lower = H(X_1, Y_2..Y_t)
    - H(X_1, Y_2..Y_{t-1}), with upper = H(Y_1) and lower = 0 at t = 1."""
    b = quotient_entropy_rate_bounds(chain, labels, depth=depth)
    assert not b.exact
    h_xy, h_y = path_entropies(chain, labels, depth)
    if depth == 1:
        lower, upper = 0.0, h_y
    else:
        prev_xy, prev_y = path_entropies(chain, labels, depth - 1)
        lower, upper = h_xy - prev_xy, h_y - prev_y
    assert abs(b.lower - lower) <= 1e-12
    assert abs(b.upper - upper) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(nonlumpable_chains())
def test_quotient_bounds_match_path_sums(case):
    check_path_sums(*case)


@settings(max_examples=60, deadline=None)
@given(nonlumpable_chains())
def test_quotient_bounds_match_path_sums_in_one_group_chunks(case):
    """The same, with every chunk one x1 group of n rows, so each level
    past the second spans several chunks."""
    with mock.patch.object(markov, "_CHUNK", 1):
        check_path_sums(*case)


def test_filter_chunks_are_single_x1_groups():
    """At _CHUNK = 1 each chunk is one x1 group of n rows in every label's
    group, so level t >= 3 is reduced in m^(t-3) chunks, each giving one
    lower and one upper entropy; the bounds are those of one chunk per
    level."""
    chain = MarkovChain(np.random.default_rng(11).dirichlet(np.ones(5), size=5))
    labels, depth = [0, 1, 2, 0, 1], 6
    whole = markov._label_rate_bounds(chain, labels, depth, 10**6)
    with mock.patch.object(markov, "_CHUNK", 1), \
            mock.patch.object(markov, "entropy", wraps=markov.entropy) as spy:
        chunked = markov._label_rate_bounds(chain, labels, depth, 10**6)
    # pi and its label sums, then levels 2 and 3 in one chunk, 4 in 3, ...
    assert spy.call_count == 2 + 2 * (1 + 1 + 3 + 9 + 27)
    assert abs(chunked.lower - whole.lower) <= 1e-12
    assert abs(chunked.upper - whole.upper) <= 1e-12


def dense_label_rate_bounds(chain, labels, depth):
    """Bounds of a non-lumpable labeling from the dense forward filter: every
    level is a full (n * m^(t-1), n) table whose rows (x1 fastest, newest
    label slowest) are masked to their last label's block."""
    masks = np.array([[y == b for y in labels] for b in dict.fromkeys(labels)], dtype=float)
    pi = invariant_distribution(chain)
    alphas = np.diag(pi)
    h_lower, h_upper = entropy(pi), entropy(masks @ pi)
    lower, upper = 0.0, h_upper
    for _ in range(2, depth + 1):
        prop = alphas @ chain.P
        alphas = (masks[:, None, :] * prop[None, :, :]).reshape(-1, chain.n)
        mass = alphas.sum(axis=1)
        h_lower_prev, h_upper_prev = h_lower, h_upper
        h_lower = entropy(mass)
        h_upper = entropy(mass.reshape(-1, chain.n) @ masks.T)
        lower, upper = h_lower - h_lower_prev, h_upper - h_upper_prev
    return lower, upper


@pytest.mark.parametrize("n, m, depth, seed", [
    (6, 3, 8, 0), (6, 4, 7, 1), (7, 3, 8, 2), (7, 5, 6, 3),
    (8, 3, 8, 4), (8, 4, 7, 5), (8, 5, 6, 6), (8, 5, 7, 7),
    (8, (1, 1, 6), 8, 8), (8, (1, 7), 9, 9),
])
def test_quotient_bounds_match_dense_filter(n, m, depth, seed):
    """The padded, streamed filter agrees with the dense one on larger
    chains, half of them with zero transitions, within 1e-12.  ``m`` is a
    label count, labels drawn at random, or a tuple of block sizes: blocks
    of sizes (1, 1, 6) and (1, 7) leave most of the padded table zero."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n)
    if seed % 2:
        P[rng.uniform(size=(n, n)) < 0.4] = 0.0
        P[np.arange(n), (np.arange(n) + 1) % n] += 0.1
        P /= P.sum(axis=1, keepdims=True)
    chain = MarkovChain(P)
    if isinstance(m, tuple):
        labels = list(rng.permutation([b for b, size in enumerate(m) for _ in range(size)]))
    else:
        labels = list(range(m)) + list(rng.integers(0, m, n - m))
    assert not is_lumpable(chain, labels)
    b = quotient_entropy_rate_bounds(chain, labels, depth=depth)
    lower, upper = dense_label_rate_bounds(chain, labels, depth)
    assert abs(b.lower - lower) <= 1e-12
    assert abs(b.upper - upper) <= 1e-12


# --- lumpability from the block-move table ----------------------------------------


def loop_lumped(chain, labels, tol=1e-9):
    """The lumped chain by a double loop over (target, source) blocks, or
    None: the verdict from each target's column sums, each Q entry the
    mean of one block pair's row sums."""
    if len(labels) != chain.n:
        raise ValueError("labeling must assign every state a block")
    order = list(dict.fromkeys(labels))
    blocks = [[i for i, label in enumerate(labels) if label == b] for b in order]
    for target in blocks:
        col = chain.P[:, target].sum(axis=1)
        for src in blocks:
            vals = col[src]
            if vals.max() - vals.min() > tol:
                return None
    Q = np.empty((len(blocks), len(blocks)))
    for a, src in enumerate(blocks):
        for b, dst in enumerate(blocks):
            Q[a, b] = chain.P[np.ix_(src, dst)].sum(axis=1).mean()
    Q /= Q.sum(axis=1, keepdims=True)
    return MarkovChain(Q, states=order)


@st.composite
def lumping_cases(draw):
    """(chain, labeling) with 2-12 states, often one block of 8 or more
    (where a pairwise row sum and a column-by-column one differ): lumpable
    by construction, or dense random rows.  A third kind has entries on a
    2^-50 grid, so every block sum is exact, and moves a mass within 1e-12
    of the 1e-9 tolerance between two blocks of one row."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, min(n, 4)))
    big = n >= 9 and draw(st.booleans())
    if big:  # one block of n - m + 1 >= 8 states
        labels = [0] * (n - m + 1) + list(range(1, m))
    else:
        labels = list(range(m)) + draw(st.lists(st.integers(0, m - 1), min_size=n - m,
                                                max_size=n - m))
    labels = draw(st.permutations(labels))
    blocks = [[i for i, label in enumerate(labels) if label == b] for b in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lumpable", "dense", "near_tol"]))
    if kind == "dense":
        return MarkovChain(rng.dirichlet(np.ones(n), size=n)), labels
    if kind == "lumpable":
        Q = rng.dirichlet(np.ones(m), size=m)
        P = np.zeros((n, n))
        for a, src in enumerate(blocks):
            for i in src:
                for b, dst in enumerate(blocks):
                    P[i, dst] = Q[a, b] * rng.dirichlet(np.ones(len(dst)))
        return MarkovChain(P), labels
    # integer units of 2^-50: a block pair's mass is split over its
    # columns, at least 2^20 units each, and every row sums to 2^50
    unit = 2.0**-50
    units = np.zeros((n, n), dtype=np.int64)
    mass = rng.multinomial(2**30 - m * n, np.ones(m) / m, size=m) + n
    for a, src in enumerate(blocks):
        for b, dst in enumerate(blocks):
            share = rng.multinomial(mass[a, b] - len(dst), np.ones(len(dst)) / len(dst)) + 1
            units[np.ix_(src, dst)] = share * 2**20
    if m > 1:
        i = draw(st.integers(0, n - 1))
        b0, b1 = draw(st.permutations(range(m)))[:2]
        delta = round(1e-9 / unit) + draw(st.integers(-1100, 1100))  # 1100 units < 1e-12
        units[i, blocks[b0][0]] -= delta
        units[i, blocks[b1][0]] += delta
    return MarkovChain(units * unit), labels


@settings(max_examples=200, deadline=None)
@given(lumping_cases())
def test_lumping_matches_double_loop(case):
    """``is_lumpable``, ``lump`` and ``_lumped`` give the double loop's
    verdict and, when it lumps, its matrix bit for bit."""
    chain, labels = case
    expected = loop_lumped(chain, labels)
    got = markov._lumped(chain, labels)
    assert is_lumpable(chain, labels) == (expected is not None)
    assert (got is None) == (expected is None)
    if expected is None:
        with pytest.raises(ValueError, match="not lumpable"):
            lump(chain, labels)
    else:
        assert got.states == expected.states
        assert got.P.tobytes() == expected.P.tobytes()
        assert lump(chain, labels).P.tobytes() == expected.P.tobytes()


def test_lumped_means_of_large_blocks_match_double_loop():
    """An 8-state block whose pairwise row sums average to another float
    than the column-by-column ones: Q matches the double loop bit for
    bit."""
    rng = np.random.default_rng(12)
    labels = [0] * 8 + [1] * 4
    P = np.zeros((12, 12))
    Q = rng.dirichlet(np.ones(2), size=2)
    for i, a in enumerate(labels):
        P[i, :8] = Q[a, 0] * rng.dirichlet(np.ones(8))
        P[i, 8:] = Q[a, 1] * rng.dirichlet(np.ones(4))
    chain = MarkovChain(P)
    block = list(range(8))
    pairwise = np.array([P[i, block].sum() for i in range(12)])
    columns = P[:, block].sum(axis=1)  # laid out column by column
    assert pairwise[:8].mean() != columns[:8].mean()
    assert lump(chain, labels).P.tobytes() == loop_lumped(chain, labels).P.tobytes()


def test_depth_below_one_refused_for_every_labeling():
    """A depth below 1 is refused whether or not the labeling lumps, on a
    memo hit as on a miss; the cap and budget stay ignored when it lumps."""
    chain = MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    for labels in ([0, 1, 2], ["a", "a", "b"]):
        quotient_entropy_rate_bounds(chain, labels, depth=2)
        for depth in (0, -1):
            with pytest.raises(ValueError, match="depth must be at least 1"):
                quotient_entropy_rate_bounds(chain, labels, depth=depth)
            with pytest.raises(ValueError, match="depth must be at least 1"):
                quotient_entropy_rate_bounds(MarkovChain(chain.P), labels, depth=depth)
    assert quotient_entropy_rate_bounds(chain, [0, 1, 2], depth=20, budget=1).exact


@pytest.mark.parametrize("rows", [[[math.nan, 1.0], [0.5, 0.5]],
                                  [[0.5, 0.5], [math.nan, math.nan]]])
def test_chain_refuses_non_finite_entries(rows):
    """NaN fails every comparison, so it slips past the sign and row-sum
    checks unless refused by name."""
    with pytest.raises(ValueError, match="must be finite"):
        MarkovChain(rows)


def test_chain_refuses_repeated_state_labels():
    """A repeated label would make ``index`` name only its last state."""
    with pytest.raises(ValueError, match="state labels must be distinct"):
        MarkovChain([[0.5, 0.5], [0.5, 0.5]], states=["a", "a"])


def test_chain_refuses_no_states():
    """An empty matrix is square, but has no state to hold a row: refused
    by name rather than inside numpy's reduction."""
    with pytest.raises(ValueError, match="a chain needs at least one state"):
        MarkovChain(np.zeros((0, 0)))


# --- one array pass per helper, against the loops it replaced -------------------


def fraction_rows(rows, states=None):
    """``from_decimal_rows`` by ``Fraction`` alone: every entry parsed as a
    rational, each row over its lcm denominator."""
    P = []
    for row in rows:
        frac = [Fraction(str(v)) for v in row]
        scale = math.lcm(*(v.denominator for v in frac))
        nums = [v.numerator * (scale // v.denominator) for v in frac]
        total = sum(nums)
        P.append([num / total for num in nums])
    return MarkovChain(P, states=states)


def _outcome(build, rows):
    """The matrix's bytes, or the error's type and message."""
    try:
        return build(rows).P.tobytes()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_space = st.sampled_from(["", "", " ", "\t", " \n"])
_digits = st.text("0123456789", max_size=6)


@st.composite
def decimal_entries(draw):
    """One matrix entry as a string: mostly plain decimals (signs,
    whitespace, "5.", ".5"), also exponents, ratios and bad literals."""
    kind = draw(st.sampled_from(["plain"] * 6 + ["exponent", "ratio", "bad"]))
    whole, frac = draw(_digits), draw(_digits)
    if kind == "plain":
        sign = draw(st.sampled_from(["", "", "+", "-"]))
        point = draw(st.booleans()) or not whole
        body = sign + whole + ("." + frac if point else "")
    elif kind == "exponent":
        body = f"{whole or '0'}.{frac}{draw(st.sampled_from('eE'))}{draw(st.integers(-4, 4))}"
    elif kind == "ratio":
        body = f"{draw(st.integers(0, 99))}/{draw(st.integers(1, 99))}"
    else:
        body = draw(st.sampled_from(["nan", "inf", "", ".", "+", "-.", "1_0", "0x1", "1/0"]))
    return draw(_space) + body + draw(_space)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(decimal_entries(), min_size=m, max_size=m),
                       min_size=m, max_size=m)))
def test_decimal_rows_match_fraction_rows(rows):
    """Plain decimal rows read by integers, and rows with other forms read
    by ``Fraction``, give the matrix, or the error, of ``Fraction`` alone."""
    assert _outcome(MarkovChain.from_decimal_rows, rows) == _outcome(fraction_rows, rows)


@pytest.mark.parametrize("bad", ["nan", "", "."])
def test_decimal_rows_refuse_bad_literals_as_fraction_does(bad):
    rows = [[".5", bad], ["1", "1"]]
    with pytest.raises(ValueError, match="Invalid literal for Fraction") as got:
        MarkovChain.from_decimal_rows(rows)
    assert (ValueError, str(got.value)) == _outcome(fraction_rows, rows)


@pytest.mark.parametrize("rows", [
    [["0.5", " .25 ", "+.25"], ["5.", "0", "5"], ["-0", "00.10", "0.9000"]],
    [["1/3", "2.5e-1", " .25 ", "0.5"]] * 4,
])
def test_decimal_rows_forms_pinned(rows):
    assert MarkovChain.from_decimal_rows(rows).P.tobytes() == fraction_rows(rows).P.tobytes()


def dfs_irreducible(chain):
    """Strong connectivity by two depth-first walks from state 0, along
    the positive transitions and against them."""
    def reaches_all(adj):
        seen = np.zeros(adj.shape[0], dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for w in np.nonzero(adj[v])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        return bool(seen.all())

    adj = chain.P > 0
    return reaches_all(adj) and reaches_all(adj.T)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
def test_is_irreducible_matches_two_dfs(m, density, seed):
    """On random sparse chains (a cycle among the states is added half of
    the time, so both verdicts occur) the closure agrees with the walks."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, m)) < density
    if rng.random() < 0.5:
        mask[np.arange(m), rng.permutation(m)] = True
    mask[~mask.any(axis=1), rng.integers(0, m)] = True
    P = mask * rng.uniform(0.1, 1.0, (m, m))
    chain = MarkovChain(P / P.sum(axis=1, keepdims=True))
    assert is_irreducible(chain) == dfs_irreducible(chain)


def loop_burke_form(chain, tol=1e-9):
    """``check_burke_form`` by a loop over the columns, each off-diagonal
    column checked and averaged on its own."""
    P, n = chain.P, chain.n
    if n == 1:
        return markov.BurkeForm(1.0, np.array([1.0]), 0.0)
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
        return markov.BurkeForm(0.0, np.full(n, 1.0 / n), float(np.abs(P - np.eye(n)).max()))
    u = v / v.sum()
    recon = c1 * np.tile(u, (n, 1)) + (1.0 - c1) * np.eye(n)
    residual = float(np.abs(recon - P).max())
    if residual > tol:
        return None
    return markov.BurkeForm(c1, u, residual)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["burke", "near", "identity", "dense"]),
       st.integers(0, 2**32 - 1))
def test_burke_form_matches_column_loop(m, kind, seed):
    """Burke chains (identical rows mixed with the identity), the same
    with one column nudged by about the tolerance, the identity and dense
    chains: the verdict and every field match the column loop bit for
    bit."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        P = rng.dirichlet(np.ones(m), size=m)
    elif kind == "identity":
        P = np.eye(m)
    else:
        c1 = rng.uniform(0.05, 1.0)
        P = c1 * np.tile(rng.dirichlet(np.ones(m)), (m, 1)) + (1 - c1) * np.eye(m)
        if kind == "near" and m > 1:
            i, j = rng.choice(m, 2, replace=False)
            shift = min(rng.uniform(0.5e-9, 1.5e-9), P[i, i])
            P[i, j] += shift
            P[i, i] -= shift
    chain = MarkovChain(P)
    got, expected = check_burke_form(chain), loop_burke_form(chain)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert (got.c1, got.residual) == (expected.c1, expected.residual)
        assert got.u.tobytes() == expected.u.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 0.7), st.integers(0, 2**32 - 1))
def test_conditional_entropy_matches_row_entropies(m, zeros, seed):
    """One pass over the table gives the weighted sum of the rows'
    ``entropy`` within 1e-15 relative, zeros included (0 log 0 = 0)."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(m), size=m) * (rng.random((m, m)) >= zeros)
    P[~(P > 0).any(axis=1), 0] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    w = rng.dirichlet(np.ones(m))
    expected = float(w @ np.array([entropy(row) for row in P]))
    got = conditional_entropy(P, w)
    assert abs(got - expected) <= 1e-15 * expected
