import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringcoding import (
    MarkovChain,
    SimConfig,
    SupremusTester,
    blockdiag_complement_entropy,
    conditional_entropy,
    enumerate_confusable,
    enumerate_typical_paths,
    invariant_distribution,
    is_strongly_markov_typical,
    run_single_source_sim,
    sample_path,
    supremus_verdict,
    transition_counts,
)
from ringcoding import reference
from ringcoding.rings import enumerate_left_ideals, make_modular_ring, quotient_partition
from ringcoding.typicality import _groups, _ranks, _sample_paths


def test_transition_counts_basic():
    c = transition_counts([0, 0, 0, 0], 2)
    assert c.pair[0, 0] == 3 and c.total == 3
    c = transition_counts([0, 1, 0, 1], 2)
    assert c.pair[0, 1] == 2 and c.pair[1, 0] == 1
    with pytest.raises(ValueError):
        transition_counts([0], 2)


def test_transition_counts_alternating_closed_form():
    for n in (9, 10, 17):
        x = np.arange(n) % 2
        c = transition_counts(x, 2)
        assert c.pair[0, 1] == int(np.ceil((n - 1) / 2))
        assert c.pair[1, 0] == int(np.floor((n - 1) / 2))


def test_exact_frequency_path_always_typical():
    # two-state chain whose transition counts can be matched exactly
    chain = MarkovChain([[0.5, 0.5], [0.5, 0.5]])
    x = np.array([0, 0, 1, 1, 0, 1, 0, 1])  # N(ij) ~ (2,2,2,1), N/n ~ pi
    for eps in (0.3, 0.5):
        assert is_strongly_markov_typical(x, chain, eps)


def test_constant_path_atypical_for_balanced_chain():
    chain = MarkovChain([[0.4, 0.6], [0.6, 0.4]])
    x = np.zeros(20, dtype=int)
    assert not is_strongly_markov_typical(x, chain, 0.3)


def test_typical_fraction_grows_with_n(mixing3):
    rng = np.random.default_rng(12)
    eps = 0.1
    fractions = []
    for n in (50, 400, 4000):
        ok = sum(
            is_strongly_markov_typical(sample_path(mixing3, n, rng), mixing3, eps)
            for _ in range(60)
        )
        fractions.append(ok / 60)
    assert fractions[-1] > 0.9
    assert fractions[-1] >= fractions[0]


def test_supremus_full_family_reduces_to_strong(mixing3):
    rng = np.random.default_rng(2)
    full = [tuple(range(3))]
    for _ in range(30):
        x = sample_path(mixing3, 30, rng)
        assert supremus_verdict(x, mixing3, 0.2, subsets=full).ok == \
            is_strongly_markov_typical(x, mixing3, 0.2)


def test_supremus_full_set_tests_against_pi_itself():
    """eps = pi_0 puts x = 1^8 on the boundary of state 0's frequency
    test; pi renormalized over all states moves that boundary by ulps, so
    the full-set Supremus entry must use pi itself to agree with the
    strong test and the enumeration."""
    chain = MarkovChain([[0.4001605352955182, 0.5998394647044818],
                         [0.19495166793676635, 0.8050483320632336]])
    x = [1] * 8
    eps = invariant_distribution(chain)[0]
    assert not is_strongly_markov_typical(x, chain, eps)
    assert tuple(x) not in [tuple(p.tolist()) for p in enumerate_typical_paths(chain, 8, eps)]
    assert not supremus_verdict(x, chain, eps).ok


def test_supremus_implies_strong(mixing3):
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = sample_path(mixing3, 24, rng)
        if supremus_verdict(x, mixing3, 0.25).ok:
            assert is_strongly_markov_typical(x, mixing3, 0.25)


def test_supremus_fraction_grows(mixing3):
    rng = np.random.default_rng(8)
    ok = sum(
        supremus_verdict(sample_path(mixing3, 5000, rng), mixing3, 0.08).ok
        for _ in range(40)
    )
    assert ok / 40 > 0.9


def test_supremus_length_floor(mixing3):
    with pytest.raises(ValueError):
        supremus_verdict(np.zeros(5, dtype=int), mixing3, 0.3)


def test_supremus_refuses_subsets_outside_the_chain(mixing3):
    """A watched subset naming a state the chain does not have is refused
    with ValueError, as the stochastic complement refuses it."""
    x = np.array([0, 1, 2] * 3)
    for subsets in ([(0, 5)], [(1,), (3,)], [(0, 0)]):
        with pytest.raises(ValueError, match="subset must list distinct states"):
            supremus_verdict(x, mixing3, 0.5, subsets=subsets)


def test_supremus_vacuous_subsets_flagged(mixing3):
    # a path that never visits state 2: subsets containing only 2 are vacuous
    x = np.array([0, 1] * 4)
    v = supremus_verdict(x, mixing3, 0.9)
    assert (2,) in v.vacuous_subsets


def test_sample_path_deterministic(mixing3):
    a = sample_path(mixing3, 50, 77)
    b = sample_path(mixing3, 50, 77)
    assert np.array_equal(a, b)


def test_sample_path_refuses_short_lengths(mixing3):
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            sample_path(mixing3, n, 0)


@pytest.mark.parametrize("n", [2.5, 10.0, "5", True])
def test_sample_path_refuses_non_integer_lengths(mixing3, n):
    """A length must be one integer: a float, a string or a boolean is
    refused, not truncated or read as 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        sample_path(mixing3, n, 0)


@pytest.mark.parametrize("n", [True, 4.0, "4", 2.5])
def test_enumerate_typical_paths_refuses_non_integer_lengths(mixing3, n):
    with pytest.raises(ValueError, match="must be an integer"):
        list(enumerate_typical_paths(mixing3, n, 0.3, supremus=False))


@pytest.mark.parametrize("init", [[0.1, 0.1, 0.1, 0.7], [0.5, 0.5], [1, 1, 1],
                                  [1.5, -0.5, 0]])
def test_sample_path_refuses_bad_init(mixing3, init):
    """An init that is not a distribution over the chain's states is
    refused, not read past its end or as a subprobability."""
    for n in (1, 3):
        with pytest.raises(ValueError, match="init"):
            sample_path(mixing3, n, 0, init=init)


def test_supremus_tester_eliminates_each_subset_once(monkeypatch, mixing3):
    """Building the all-subsets tester runs one GTH elimination per watched
    subset (S_A and its fixed-point check share it) plus one for pi."""
    from ringcoding import markov
    from ringcoding.typicality import SupremusTester

    calls = []
    gth = markov._gth
    monkeypatch.setattr(markov, "_gth", lambda *args: calls.append(args) or gth(*args))
    SupremusTester(MarkovChain(np.array(mixing3.P)), 0.1)
    assert len(calls) == 2**3 - 1 + 1


def test_supremus_verdicts_share_eliminations(monkeypatch, mixing3):
    """Repeated verdicts on one chain reuse its censored pairs: after the
    first, no call runs a GTH elimination."""
    from ringcoding import markov

    chain = MarkovChain(np.array(mixing3.P))
    x, y = sample_path(chain, 30, 4), sample_path(chain, 30, 5)
    first = supremus_verdict(x, chain, 0.2)
    family = supremus_verdict(y, MarkovChain(chain.P), 0.2, subsets=[(1, 0), (2,)])
    calls = []
    gth = markov._gth
    monkeypatch.setattr(markov, "_gth", lambda *args: calls.append(args) or gth(*args))
    assert supremus_verdict(x, chain, 0.2) == first
    assert supremus_verdict(y, chain, 0.2, subsets=[(1, 0), (2,)]) == family
    assert calls == []


def test_tester_groups_are_memoised_read_only(mixing3):
    """Two testers of one family on one chain share its read-only groups
    whatever their eps; a different family gets its own entry.  A tester
    sorts its family, so a family listed in another order shares the
    sorted family's entry, while ``_groups`` keys on the order it is
    given."""
    chain = MarkovChain(np.array(mixing3.P))
    tester = SupremusTester(chain, 0.1)
    assert SupremusTester(chain, 0.3)._groups is tester._groups
    for _, luts, S, pa in tester._groups:
        for table in (S, pa) if luts is None else (luts, S, pa):
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0
    family = SupremusTester(chain, 0.1, subsets=[(0,), (1, 2)])
    assert family._groups is not tester._groups
    assert SupremusTester(chain, 0.2, subsets=[(2, 1), (0,)])._groups is family._groups
    reordered = _groups(chain, [(1, 2), (0,)])
    assert reordered is not _groups(chain, [(0,), (1, 2)])
    assert [start for start, *_ in reordered] == [0, 1]
    assert reordered[0][2] is not family._groups[1][2]
    assert reordered[0][2].tobytes() == family._groups[1][2].tobytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_memoised_verdicts_match_fresh_chains(data):
    """Verdicts on one chain, its memo shared by families drawn in turn,
    equal the verdicts on a freshly built chain for every call."""
    m = data.draw(st.integers(2, 4))
    chain = _sparse_chain(data, m)
    shared = MarkovChain(chain.P)
    every = [tuple(s) for r in range(1, m + 1) for s in combinations(range(m), r)]
    for _ in range(data.draw(st.integers(1, 6))):
        subsets = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(every), min_size=1,
                                                          max_size=4)))
        eps = data.draw(st.sampled_from([0.05, 0.2, 0.4]))
        n = 2 * m if subsets is None else 2
        x = sample_path(chain, data.draw(st.integers(n, 40)), data.draw(st.integers(0, 99)))
        assert supremus_verdict(x, shared, eps, subsets) == \
            supremus_verdict(x, MarkovChain(chain.P), eps, subsets)


def test_sample_path_deterministic_cycle():
    cycle = MarkovChain([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    x = sample_path(cycle, 9, 0, init=[1, 0, 0])
    assert np.array_equal(x, (np.arange(9)) % 3)


def _searchsorted_walk(schedule, start, u):
    """The path of the draws u: each step a searchsorted(side="right") on
    its row's cumulative sums, kept below m."""
    m = len(start)
    walk = [min(int(np.searchsorted(np.cumsum(start), u[0], side="right")), m - 1)]
    for t in range(1, len(u)):
        row = np.cumsum(schedule[(t - 1) % len(schedule)].P[walk[-1]])
        walk.append(min(int(np.searchsorted(row, u[t], side="right")), m - 1))
    return walk


def _random_source(data, n_max):
    """(source, schedule, init, start, n): a chain or a schedule of 1-3
    chains on 1-5 states, with or without an explicit start; rows short
    of 1 (loose load tolerance) where a start does not need pi."""
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 3))
    as_chain = k == 1 and data.draw(st.booleans())
    init = None
    if data.draw(st.booleans()):
        init = np.array(data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))) + 0.5
        init /= init.sum()
    # a short chain has no invariant distribution to start from
    short = not (k == 1 and init is None) and data.draw(st.booleans())
    schedule = []
    for _ in range(k):
        w = np.reshape(data.draw(st.lists(st.integers(1, 9), min_size=m * m,
                                          max_size=m * m)), (m, m)).astype(float)
        P = w / w.sum(axis=1, keepdims=True) * (0.95 if short else 1.0)
        schedule.append(MarkovChain(P, tolerance=0.1))
    start = init
    if start is None:
        start = invariant_distribution(schedule[0]) if k == 1 else np.full(m, 1 / m)
    source = schedule[0] if as_chain else schedule
    return source, schedule, init, start, data.draw(st.integers(1, n_max))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sample_path_matches_searchsorted_walk(data):
    """The walk equals a per-step searchsorted(side="right") on each row's
    cumulative sums, kept below m, for chains, schedules and explicit
    starts; rows short of 1 (loose load tolerance) put the remainder on
    the last state.  The batch sampler gives the same rows."""
    source, schedule, init, start, n = _random_source(data, 40)
    seed = data.draw(st.integers(0, 2**32 - 1))
    got = sample_path(source, n, seed, init)
    walk = _searchsorted_walk(schedule, start, np.random.default_rng(seed).random(n))
    assert got.dtype == np.int64 and got.tolist() == walk
    # a (B, n) table is B consecutive calls on one generator
    count = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    rows = [sample_path(source, n, rng, init) for _ in range(count)]
    table = _sample_paths(source, count, n, np.random.default_rng(seed), init)
    assert table.dtype == np.int64 and table.tolist() == [r.tolist() for r in rows]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sample_paths_long_rows_match_searchsorted_walk(data):
    """Long rows span several blocks of the walk, the last one ragged
    whenever the block count does not divide n: every row of a table of
    1-6 paths of length up to 600 is the searchsorted walk of its own
    draws."""
    source, schedule, init, start, n = _random_source(data, 600)
    count = data.draw(st.integers(1, 6))
    seed = data.draw(st.integers(0, 2**32 - 1))
    table = _sample_paths(source, count, n, np.random.default_rng(seed), init)
    u = np.random.default_rng(seed).random((count, n))
    assert table.dtype == np.int64 and table.shape == (count, n)
    assert table.tolist() == [_searchsorted_walk(schedule, start, row) for row in u]


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_sample_paths_chain_blocks_recursively(data):
    """Rows of 3000 to 6000 steps chain the composed maps of their blocks
    through two or more levels of the recursive walk; every row of a
    table of 1 to 3 paths is still the searchsorted walk of its own
    draws."""
    from ringcoding.typicality import _block_size

    source, schedule, init, start, _ = _random_source(data, 1)
    n, count = data.draw(st.integers(3000, 6000)), data.draw(st.integers(1, 3))
    steps, levels = n, 0
    while _block_size(steps, count, len(start)) < steps:
        steps = -(-steps // _block_size(steps, count, len(start))) - 1
        levels += 1
    assert levels >= 2
    seed = data.draw(st.integers(0, 2**32 - 1))
    table = _sample_paths(source, count, n, np.random.default_rng(seed), init)
    u = np.random.default_rng(seed).random((count, n))
    assert table.tolist() == [_searchsorted_walk(schedule, start, row) for row in u]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bucket_ranks_match_searchsorted(data):
    """``_ranks`` gives ``searchsorted(cuts, u, side="right")`` on draw
    tables below and above the bucket table's 2^12 draws, laid out as the
    sampler lays them (a transposed column slice).  Cuts repeat and sit on
    multiples k/2^j of bucket widths; draws equal cuts, sit on bucket
    edges or are 0."""
    dyadic = st.builds(lambda k, j: (k % 2**j) / 2**j, st.integers(0, 2**16), st.integers(0, 14))
    values = data.draw(st.lists(st.one_of(st.floats(0, 1), dyadic, st.just(1.0)), max_size=30))
    cuts = np.sort(values + values[:data.draw(st.integers(0, len(values)))]).astype(float)
    count = data.draw(st.sampled_from([1, 3, 7]))
    steps = data.draw(st.sampled_from([1, 10, 600, 4096 // 7 + 1, 3000]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = rng.random((count, 2 * steps))
    picks = rng.random(u.shape)
    special = np.concatenate([cuts[cuts < 1], [0.0], np.arange(64) / 64,
                              rng.integers(0, 2**14, 32) / 2**14])
    u = np.where(picks < 0.3, special[rng.integers(0, len(special), u.shape)], u)
    draws = u[:, 1::2].T
    assert _ranks(cuts, draws).tolist() == np.searchsorted(cuts, draws, side="right").tolist()


def test_case_4_path_is_pinned():
    """The 100,000-step path behind ``reproduce 4`` keeps its stream."""
    path = sample_path(reference.alternating_schedule(), 100_000, 20240)
    assert path.dtype == np.int64 and path.shape == (100_000,)
    assert hashlib.sha256(path.tobytes()).hexdigest() == (
        "f3906e72b8dd90f2602ed30012f099fd78404f0003710b0298e551113907548d")


def test_alternating_schedule_matches_value_chain():
    schedule = reference.alternating_schedule()
    g = reference.target_function()
    ref_chain = reference.function_value_chain()
    path = sample_path(schedule, 40_000, 515)
    gval = [g(*st) for st in schedule[0].states]
    pos = {v: i for i, v in enumerate(ref_chain.states)}
    labeled = np.array([pos[gval[s]] for s in path])
    counts = transition_counts(labeled, 4)
    for i in range(4):
        emp = counts.pair[i] / counts.visits[i]
        se = np.sqrt(ref_chain.P[i] * (1 - ref_chain.P[i]) / counts.visits[i])
        assert (np.abs(emp - ref_chain.P[i]) <= 3 * np.maximum(se, 1e-9)).all()


def test_enumerate_typical_matches_brute_force(mixing3):
    """DFS enumeration equals the unpruned scan over all paths."""
    from itertools import product

    n, eps = 6, 0.35
    chain = MarkovChain([[0.6, 0.4], [0.3, 0.7]])
    dfs = {tuple(p) for p in enumerate_typical_paths(chain, n, eps, supremus=False)}
    brute = {
        x
        for x in product(range(2), repeat=n)
        if is_strongly_markov_typical(np.array(x), chain, eps)
    }
    assert dfs == brute


def test_enumerate_confusable_singleton_partition(source_chain):
    paths = list(enumerate_typical_paths(source_chain, 10, 0.2))
    x = paths[0]
    singles = [[0], [1], [2], [3]]
    assert enumerate_confusable(x, singles, source_chain, 0.2) == 1


def test_enumerate_confusable_huge_eps(source_chain):
    # with a huge eps every pattern-respecting word is typical
    x = np.array([1] * 12)
    count = enumerate_confusable(x, [[0, 2], [1, 3]], source_chain, eps=50.0)
    assert count == 2**12


def test_enumerate_confusable_budget(source_chain):
    x = np.array([1] * 40)
    with pytest.raises(ValueError):
        enumerate_confusable(x, [[0, 2], [1, 3]], source_chain, 0.2, budget=1000)


@pytest.mark.parametrize("budget", [True, 2.5, "1000"])
def test_enumerate_confusable_budget_must_be_an_integer(source_chain, budget):
    """A budget of True is not a budget of 1, and a float or a string is
    not compared with the candidate count."""
    with pytest.raises(ValueError, match="budget must be an integer"):
        enumerate_confusable(np.array([1] * 8), [[0, 2], [1, 3]], source_chain, 0.2,
                             budget=budget)


@pytest.mark.parametrize("coset_family", [False, True])
@pytest.mark.parametrize("blocks", [[[0, 1, 2], [1, 3]], [[0, 2], [1, 3], [2]],
                                    [[0, 1], [2, 3], []]])
def test_enumerate_confusable_refuses_non_partitions(source_chain, blocks, coset_family):
    """Blocks that repeat a state or hold an empty block are no partition,
    even when their union is every state."""
    x = sample_path(source_chain, 12, 5)
    with pytest.raises(ValueError, match="blocks must partition the state indices"):
        enumerate_confusable(x, blocks, source_chain, 0.2, coset_family=coset_family)


@pytest.mark.parametrize("coset_family", [False, True])
@pytest.mark.parametrize("blocks", [[[0, 2.7], [1, 3.2]], [[0, "2"], [1, 3]],
                                    [[0.0, 2.0], [1.0, 3.0]]])
def test_enumerate_confusable_refuses_non_integer_members(source_chain, blocks, coset_family):
    """A block member that is not an integer is refused, not truncated
    or parsed into the partition {0, 2}, {1, 3}, whose counts are 2 and 4
    here."""
    x = sample_path(source_chain, 12, 5)
    assert enumerate_confusable(x, [[0, 2], [1, 3]], source_chain, 0.3,
                                coset_family=coset_family) == 2 + 2 * coset_family
    with pytest.raises(ValueError, match="block members must be integers"):
        enumerate_confusable(x, blocks, source_chain, 0.3, coset_family=coset_family)


@pytest.mark.parametrize("subsets", [[(0, 1.5)], [(0, 1), ("2",)], [(0.0, 1.0)]])
def test_supremus_refuses_non_integer_subset_members(mixing3, subsets):
    """A given subset's members are read as integers or refused: 1.5 is
    not truncated to 1 and "2" is not parsed, whichever entry point takes
    the family."""
    x = np.array([0, 1, 2] * 3)
    with pytest.raises(ValueError, match="subset members must be integers"):
        SupremusTester(mixing3, 0.5, subsets=subsets)
    with pytest.raises(ValueError, match="subset members must be integers"):
        supremus_verdict(x, mixing3, 0.5, subsets=subsets)
    with pytest.raises(ValueError, match="subset members must be integers"):
        next(enumerate_typical_paths(mixing3, 9, 0.5, subsets=subsets))


def test_batch_and_loop_counts_agree(source_chain):
    """Both families' pruned counts match a direct loop over every
    pattern-respecting candidate at n = 12, where the prunes drop some."""
    from itertools import product

    from ringcoding.typicality import SupremusTester

    family = [tuple(range(4)), (0, 2), (1, 3)]
    testers = {True: SupremusTester(source_chain, 0.2, subsets=family),
               False: SupremusTester(source_chain, 0.2)}
    # the same partition with its blocks, and the states in them, reordered
    orders = ([[0, 2], [1, 3]], [[2, 0], [3, 1]], [[3, 1], [0, 2]])
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = sample_path(source_chain, 12, rng)
        opts = [(0, 2) if v in (0, 2) else (1, 3) for v in x]
        for coset_family, tester in testers.items():
            loop = sum(
                tester.verdict(np.array(c, dtype=int)).ok for c in product(*opts)
            )
            for blocks in orders:
                batch = enumerate_confusable(x, blocks, source_chain, 0.2,
                                             coset_family=coset_family)
                assert batch == loop


def test_counting_bound_z4(source_chain):
    """Confusable counts respect the complement-entropy bound on every
    non-zero ideal of the Z4 reference chain (measured slack)."""
    ring = make_modular_ring(4)
    n, eps = 10, 0.2
    paths = list(enumerate_typical_paths(source_chain, n, eps))
    assert paths, "typical set should not be empty"
    for ideal in enumerate_left_ideals(ring):
        if ideal.order == 1:
            continue
        cosets = quotient_partition(ideal)
        h_comp = blockdiag_complement_entropy(source_chain, cosets)
        counts = [
            enumerate_confusable(x, cosets, source_chain, eps, coset_family=True)
            for x in paths
        ]
        assert all(c >= 1 for c in counts)
        eta = max(np.log2(c) / n - h_comp for c in counts)
        assert all(c <= 2 ** (n * (h_comp + eta)) + 1e-9 for c in counts)
        # slack cannot exceed what counting the whole pattern class allows
        assert eta <= np.log2(ideal.order) - h_comp + 1e-9


def test_counting_bound_z6():
    """Same bound on the proper ideals of a 6-state chain; the full-ring
    pattern class is over budget by the documented precondition."""
    from ringcoding.typicality import SupremusTester

    ring = make_modular_ring(6)
    chain = MarkovChain(np.full((6, 6), 0.1) + np.eye(6) * 0.4)
    n, eps = 12, 0.5
    family = [tuple(range(6))]
    for ideal in enumerate_left_ideals(ring):
        if 1 < ideal.order < ring.order:
            family.extend(quotient_partition(ideal))
    tester = SupremusTester(chain, eps, subsets=family)
    rng = np.random.default_rng(21)
    paths = []
    for _ in range(2000):
        x = sample_path(chain, n, rng)
        if tester.verdict(x).ok:
            paths.append(x)
            if len(paths) == 5:
                break
    assert len(paths) == 5
    for ideal in enumerate_left_ideals(ring):
        if ideal.order == 1:
            continue
        cosets = quotient_partition(ideal)
        if ideal.order == ring.order:
            with pytest.raises(ValueError):
                enumerate_confusable(paths[0], cosets, chain, eps, coset_family=True)
            continue
        h_comp = blockdiag_complement_entropy(chain, cosets)
        counts = [
            enumerate_confusable(x, cosets, chain, eps, coset_family=True)
            for x in paths
        ]
        assert all(c >= 1 for c in counts)
        eta = max(np.log2(c) / n - h_comp for c in counts)
        assert all(c <= 2 ** (n * (h_comp + eta)) + 1e-9 for c in counts)


def test_typical_set_cardinality_bound(mixing3):
    """The typical set itself respects the 2^{n(H+eta)} size bound with the
    same calibrated slack as the probability sandwich."""
    from ringcoding import conditional_entropy

    n, eps = 10, 0.35
    pi = invariant_distribution(mixing3)
    h = conditional_entropy(mixing3.P, pi)
    delta = eps * (pi[:, None] + eps) + eps * mixing3.P
    eta = float((delta * np.abs(np.log2(mixing3.P))).sum()
                + (-np.log2(pi)).max() / n)
    count = sum(1 for _ in enumerate_typical_paths(mixing3, n, eps))
    assert 0 < count < 2 ** (n * (h + eta))


# --- the batch kernel against its definitions --------------------------------
#
# The references below test one path at a time with plain loops, the way
# the definitions read; the public predicates go through the batch kernel,
# so they cannot serve as the reference.


def _ref_strong(sub, S, pa, eps):
    """Strong test of one relabelled (sub-)path; L < 2 is vacuous."""
    L, k = len(sub), len(pa)
    if L < 2:
        return True
    pair = np.zeros((k, k), dtype=np.int64)
    for a, b in zip(sub, sub[1:]):
        pair[a, b] += 1
    N = pair.sum(axis=1)
    occupancy = np.abs(N / L - pa)
    rows = [np.abs(pair[i] / N[i] - S[i]) for i in range(k) if N[i] > 0]
    return occupancy.max() < eps and all(r.max() < eps for r in rows)


def _ref_watched(chain, family):
    """(lut, S_A, pi_A) per watched subset, in the given order."""
    from ringcoding.markov import _censored, stochastic_complement

    return [({v: i for i, v in enumerate(s)}, stochastic_complement(chain, s),
             _censored(chain, s)[1]) for s in family]


def _ref_first_fail(x, watched, eps):
    """Index of the first watched subset whose sub-path of x fails,
    ``len(watched)`` when all pass."""
    return next((f for f, (lut, S, pa) in enumerate(watched)
                 if not _ref_strong([lut[v] for v in x if v in lut], S, pa, eps)),
                len(watched))


def _ref_watch_all(x, watched, eps):
    return _ref_first_fail(x, watched, eps) == len(watched)


def _all_subsets(m):
    from itertools import combinations

    return [s for r in range(1, m + 1) for s in combinations(range(m), r)]


def _random_chain(data, m):
    weights = data.draw(st.lists(st.integers(1, 9), min_size=m * m, max_size=m * m))
    P = np.reshape(weights, (m, m)).astype(float)
    return MarkovChain(P / P.sum(axis=1, keepdims=True))


def test_enumerate_typical_keeps_exact_boundary_counts():
    """At pi = (1/2, 1/2), eps = 0.1, n = 5 the occupancy bound n(p - eps)
    is the integer 2; |2/5 - 1/2| < 0.1 holds in floats, so paths with two
    counted visits per state are typical and the prunes must keep them.
    With P = [[.4, .6], [.6, .4]] a path whose rows both read (1, 1) also
    sits on both pair bounds, N(i)(P_ij -+ eps) = 1, yet |1/2 - 0.4| < 0.1
    and |1/2 - 0.6| < 0.1 hold in floats.  At n = 1 the strong test is
    vacuous, so both one-state paths are typical however small eps is,
    and nothing may be pruned."""
    from itertools import product

    for P, n, size in (([[0.5, 0.5], [0.5, 0.5]], 5, 4), ([[0.4, 0.6], [0.6, 0.4]], 5, 4),
                       ([[0.6, 0.4], [0.3, 0.7]], 1, 2)):
        chain = MarkovChain(P)
        pi = invariant_distribution(chain)
        expected = [x for x in product(range(2), repeat=n)
                    if _ref_strong(x, chain.P, pi, 0.1)]
        got = [tuple(p.tolist()) for p in enumerate_typical_paths(chain, n, 0.1,
                                                                  supremus=False)]
        assert len(expected) == size and got == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumerate_typical_matches_definitions(data):
    """The level-by-level search yields exactly the brute-force filter of
    all m^n paths, in lexicographic order, and refuses a length below the
    Supremus floor once some path reaches the Supremus test."""
    from itertools import product

    m = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(1, 7 if m < 4 else 6))
    chain = _random_chain(data, m)
    eps = data.draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.9]))
    supremus = data.draw(st.booleans())
    subsets = None
    if supremus and data.draw(st.booleans()):
        subsets = data.draw(st.lists(st.sampled_from(_all_subsets(m)), min_size=1,
                                     max_size=4, unique=True))
    pi = invariant_distribution(chain)
    watched = _ref_watched(chain, subsets if subsets is not None else _all_subsets(m))
    floor = 2 * m if subsets is None else 2
    strong = [x for x in product(range(m), repeat=n)
              if _ref_strong(x, chain.P, pi, eps)]
    if supremus and strong and n < floor:
        with pytest.raises(ValueError):
            list(enumerate_typical_paths(chain, n, eps, subsets=subsets))
        return
    expected = [x for x in strong if not supremus or _ref_watch_all(x, watched, eps)]
    got = list(enumerate_typical_paths(chain, n, eps, supremus=supremus, subsets=subsets))
    assert all(p.dtype == np.int64 and p.shape == (n,) for p in got)
    assert [tuple(p.tolist()) for p in got] == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumerate_confusable_matches_definitions(data):
    """Both families' counts equal a per-candidate loop of the reference."""
    from itertools import product

    m = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(1, 7 if m < 4 else 6))
    chain = _random_chain(data, m)
    eps = data.draw(st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.9]))
    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[s for s in range(m) if labels[s] == b] for b in sorted(set(labels))]
    x = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    block_of = {s: b for b in blocks for s in b}
    candidates = list(product(*(block_of[int(v)] for v in x)))

    if n < 2 * m:
        with pytest.raises(ValueError):
            enumerate_confusable(x, blocks, chain, eps)
    else:
        watched = _ref_watched(chain, _all_subsets(m))
        expected = sum(_ref_watch_all(c, watched, eps) for c in candidates)
        assert enumerate_confusable(x, blocks, chain, eps) == expected

    # the coset family: the whole path against (P, pi), then every block of
    # two or more states against its complement
    full = [({v: v for v in range(m)}, chain.P, invariant_distribution(chain))]
    family = full + _ref_watched(chain, [tuple(b) for b in blocks if len(b) > 1])
    expected = sum(_ref_watch_all(c, family, eps) for c in candidates)
    assert enumerate_confusable(x, blocks, chain, eps, coset_family=True) == expected


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pair_counts_match_row_loop(data):
    """The batch kernel's pair counts and lengths equal a loop over each
    row's sub-path alone, so no pair that straddles two rows is counted:
    the whole path, one-state subsets (counted in closed form) and stacks
    of 1 to 4 watched subsets of one size in a random order, on tables of
    1 to 6 rows of length 0 to 12 and of 1 to 3 long rows.  Rows are
    random, stiff (long runs of one state), leave a watched state for an
    unwatched gap and come back to it, or have a sub-path that is empty,
    a single state or two states."""
    from ringcoding.typicality import _pair_counts

    m = data.draw(st.integers(1, 5))
    whole = data.draw(st.booleans())
    k = m if whole else data.draw(st.integers(1, m))
    subsets = [data.draw(st.permutations(range(m)))[:k]
               for _ in range(1 if whole else data.draw(st.integers(1, 4)))]
    luts = np.full((len(subsets), m), -1, dtype=data.draw(st.sampled_from([np.int8, np.int64])))
    for f, subset in enumerate(subsets):
        luts[f, subset] = np.arange(k)
    if whole:
        luts[0] = np.arange(m)
    B = data.draw(st.integers(1, 6))
    n = data.draw(st.sampled_from([0, 1, 2]) | st.integers(3, 12))
    if data.draw(st.booleans()):
        B, n = data.draw(st.integers(1, 3)), data.draw(st.integers(200, 3000))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, m, (B, n))
    unwatched = [s for s in range(m) if s not in subsets[0]]
    for row in X:
        kind = data.draw(st.sampled_from(["random", "stiff", "gap", 0, 1, 2]))
        if kind == "stiff":
            row[:] = np.repeat(rng.integers(0, m, n), rng.integers(1, 61, n))[:n]
        elif kind == "gap" and unwatched:
            lo, hi = np.sort(rng.integers(0, n + 1, 2))
            row[:] = rng.choice(subsets[0])
            row[lo:hi] = rng.choice(unwatched)
        elif kind in (0, 1, 2) and unwatched:
            # the first subset visited 0, 1 or 2 times
            row[:] = rng.choice(unwatched, n)
            row[rng.permutation(n)[:kind]] = rng.choice(subsets[0], min(kind, n))
    X = X.astype(data.draw(st.sampled_from([np.uint8, np.int64])))

    pair, L = _pair_counts(X, None if whole else luts, k)
    assert pair.shape == (len(subsets), B, k, k) and L.shape == (len(subsets), B)
    for f, lut in enumerate(luts):
        for b, row in enumerate(X):
            sub = [int(lut[v]) for v in row if lut[v] >= 0]
            expected = np.zeros((k, k), dtype=np.int64)
            for i, j in zip(sub, sub[1:]):
                expected[i, j] += 1
            assert L[f, b] == len(sub)
            assert np.array_equal(pair[f, b], expected)
    assert pair.sum() == np.maximum(L - 1, 0).sum()


def _sparse_chain(data, m):
    """A random irreducible chain with zero transitions: rows of small
    integer weights; rows in fifths, so |N(i, j)/N(i) - P_ij| can equal
    eps = 0.2 or 0.4 exactly, where floats round either way; or an
    average of permutation matrices (doubly stochastic, so pi is uniform
    and n(1/m + eps) can be an integer)."""
    kind = data.draw(st.sampled_from(["weights", "fifths", "permutations"]))
    if kind == "weights":
        weights = data.draw(st.lists(st.integers(0, 9), min_size=m * m, max_size=m * m))
        P = np.reshape(weights, (m, m)).astype(float)
    elif kind == "fifths":
        fifths = data.draw(st.lists(st.integers(0, m - 1), min_size=5 * m, max_size=5 * m))
        P = np.zeros((m, m))
        np.add.at(P, (np.repeat(np.arange(m), 5), fifths), 1.0)
    else:
        perms = data.draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
        P = sum(np.eye(m)[list(q)] for q in perms)
    assume((P.sum(axis=1) > 0).all())
    chain = MarkovChain(P / P.sum(axis=1, keepdims=True))
    try:
        invariant_distribution(chain)
    except ValueError:
        assume(False)
    return chain


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_search_matches_per_path_verdicts(data):
    """The pruned search drops no path the per-path verdicts accept: both
    enumerations equal an unpruned scan of every candidate with the public
    per-path tests, in paths, order and refusals.  The chains have zero
    transitions and the eps grid holds exact boundaries, where a count
    makes n(p + eps) or N(i)(P_ij + eps) an integer."""
    from itertools import product

    m = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(1, 7 if m < 4 else 6))
    chain = _sparse_chain(data, m)
    eps = data.draw(st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 1 / n, 2 / n, 0.6, 0.9]))

    def strong(x):  # below length 2 the strong test is vacuous
        return n < 2 or is_strongly_markov_typical(np.array(x), chain, eps)

    def run(f):
        try:
            return f()
        except ValueError:
            return "refused"

    supremus = data.draw(st.booleans())
    subsets = None
    if supremus and data.draw(st.booleans()):
        subsets = data.draw(st.lists(st.sampled_from(_all_subsets(m)), min_size=1,
                                     max_size=4, unique=True))
    family = None if subsets is None else [tuple(range(m)), *subsets]
    floor = 2 * m if subsets is None else 2
    typical = [x for x in product(range(m), repeat=n) if strong(x)]
    if supremus and typical and n < floor:
        expected = "refused"
    elif supremus:
        verdict = SupremusTester(chain, eps, subsets=family).verdict
        expected = [x for x in typical if verdict(x).ok]
    else:
        expected = typical
    got = run(lambda: [tuple(p.tolist()) for p in enumerate_typical_paths(
        chain, n, eps, supremus=supremus, subsets=subsets)])
    assert got == expected

    labels = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    blocks = [[s for s in range(m) if labels[s] == b] for b in sorted(set(labels))]
    block_of = {s: b for b in blocks for s in b}
    x = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    candidates = list(product(*(block_of[int(v)] for v in x)))
    verdict = SupremusTester(chain, eps).verdict
    expected = "refused" if n < 2 * m else sum(verdict(c).ok for c in candidates)
    assert run(lambda: enumerate_confusable(x, blocks, chain, eps)) == expected
    cosets = [range(m), *(b for b in blocks if len(b) > 1)]
    verdict = SupremusTester(chain, eps, subsets=cosets).verdict
    expected = sum(strong(c) if n < 2 else verdict(c).ok for c in candidates)
    assert run(lambda: enumerate_confusable(x, blocks, chain, eps, coset_family=True)) == expected


def test_pair_prune_fires_on_mixing_chain(monkeypatch, mixing3):
    """At n = 10 and eps = 0.35 the visit-count prunes alone hand 57,582
    leaves to the tester; the pair prunes leave little more than the 4830
    strong-typical paths themselves."""
    from ringcoding import typicality

    rows = []
    search = typicality._search

    def counted_search(P, pi, options, eps, accepts):
        return search(P, pi, options, eps,
                      lambda X, pairs: rows.append(len(X)) or accepts(X, pairs))

    monkeypatch.setattr(typicality, "_search", counted_search)
    paths = list(enumerate_typical_paths(mixing3, 10, 0.35, supremus=False))
    assert len(paths) == 4830 <= sum(rows) < 6000


def test_supremus_vacuous_subset_passes_enumeration(mixing3):
    """A path that visits some watched subset at most once is kept, and its
    verdict flags that subset instead of failing it."""
    family = [(0, 1, 2), (0,), (2,)]
    paths = list(enumerate_typical_paths(mixing3, 6, 0.9, subsets=family))
    never_two = [p for p in paths if (p == 2).sum() < 2]
    assert never_two
    for p in never_two:
        v = supremus_verdict(p, mixing3, 0.9, subsets=family)
        assert v.ok and (2,) in v.vacuous_subsets


def test_enumerate_typical_tests_each_leaf_once_on_full_set(monkeypatch, mixing3):
    """The Supremus search tests every leaf once against the full state
    set, on the pair counts it carried: its tester lists the full set
    first, no separate strong test runs before it and the whole paths are
    never recounted."""
    from ringcoding import typicality

    full_rows, leaf_rows, recounted = [], [], []
    pair_counts, strong_test, search = (typicality._pair_counts, typicality._strong_test,
                                        typicality._search)

    def counted_pair_counts(X, luts, k):
        if luts is None:
            recounted.append(len(X))
        return pair_counts(X, luts, k)

    def counted_strong_test(pair, L, P, pi, eps):
        if pair.shape[-1] == mixing3.n:
            full_rows.append(pair.shape[0] * pair.shape[1])
        return strong_test(pair, L, P, pi, eps)

    def counted_search(P, pi, options, eps, accepts):
        return search(P, pi, options, eps,
                      lambda X, pairs: leaf_rows.append(len(X)) or accepts(X, pairs))

    monkeypatch.setattr(typicality, "_pair_counts", counted_pair_counts)
    monkeypatch.setattr(typicality, "_strong_test", counted_strong_test)
    monkeypatch.setattr(typicality, "_search", counted_search)
    paths = list(enumerate_typical_paths(mixing3, 8, 0.6))
    assert paths and sum(full_rows) == sum(leaf_rows) > len(paths)
    assert not recounted


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verdict_vacuous_subsets_match_reference(data):
    """A verdict fails the first subset, in the tester's order, whose
    sub-path the per-subset reference rejects, and flags as vacuous each
    subset before it that the path visits fewer than 2 times."""
    from ringcoding.typicality import SupremusTester

    m = data.draw(st.sampled_from([2, 3, 4]))
    chain = _random_chain(data, m)
    eps = data.draw(st.sampled_from([0.25, 0.6, 0.9, 1.5]))
    subsets = None
    if data.draw(st.booleans()):
        subsets = data.draw(st.lists(st.sampled_from(_all_subsets(m)), min_size=1,
                                     max_size=5, unique=True))
    floor = 2 * m if subsets is None else 2
    # a few states carry most of the path, so some subsets are rare
    support = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    n = data.draw(st.integers(floor, floor + 8))
    x = data.draw(st.lists(st.sampled_from(support), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        x[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, m - 1))
    x = np.array(x)

    order = SupremusTester(chain, eps, subsets=subsets).subsets
    fail = _ref_first_fail(x, _ref_watched(chain, order), eps)
    verdict = supremus_verdict(x, chain, eps, subsets=subsets)
    assert verdict.ok == (fail == len(order))
    assert verdict.failed_subset == (order[fail] if fail < len(order) else None)
    assert verdict.vacuous_subsets == [s for s in order[:fail]
                                       if sum(int(v) in s for v in x) < 2]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_grouped_watch_matches_per_subset_reference(data):
    """One counting pass per subset size finds, for every row, the first
    failing subset of the per-subset reference, and a verdict flags the
    vacuous subsets before it: 2 to 5 states, the default family or a
    given one that is unsorted, repeats subsets and lists the full set or
    not, long single paths through ``verdict`` and tables of rows through
    ``_accepts``, with subsets visited 0, 1 or 2 times."""
    from ringcoding.typicality import _watch

    m = data.draw(st.integers(2, 5))
    chain = _random_chain(data, m)
    eps = data.draw(st.sampled_from([0.1, 0.25, 0.6, 0.9, 1.5]))
    subsets = None
    if data.draw(st.booleans()):
        picks = data.draw(st.lists(st.sampled_from(_all_subsets(m)), min_size=1, max_size=6))
        subsets = [data.draw(st.permutations(s)) for s in picks]
        if data.draw(st.booleans()):
            subsets.insert(data.draw(st.integers(0, len(subsets))), list(range(m))[::-1])
    tester = SupremusTester(chain, eps, subsets=subsets)
    watched = _ref_watched(chain, tester.subsets)
    floor = 2 * m if subsets is None else 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def path(n):
        if data.draw(st.booleans()):
            return _sample_paths(chain, 1, n, rng)[0]
        # a few states carry the path; others are visited 0, 1 or 2 times
        support = rng.permutation(m)[:data.draw(st.integers(1, m))]
        x = rng.choice(support, n)
        x[rng.permutation(n)[:data.draw(st.integers(0, 2))]] = rng.integers(0, m)
        return x

    if data.draw(st.booleans()):
        x = path(data.draw(st.sampled_from([floor, floor + 5, 200, 3000])))
        fail = _ref_first_fail(x, watched, eps)
        verdict = tester.verdict(x)
        assert verdict.failed_subset == (tester.subsets[fail] if fail < len(watched) else None)
        assert verdict.vacuous_subsets == [s for s in tester.subsets[:fail]
                                           if np.isin(x, s).sum() < 2]
    else:
        n = data.draw(st.integers(floor, floor + 10))
        X = np.array([path(n) for _ in range(data.draw(st.integers(1, 12)))])
        fail = [_ref_first_fail(x, watched, eps) for x in X]
        assert _watch(X, tester._groups, eps).tolist() == fail
        assert tester._accepts(X).tolist() == [f == len(watched) for f in fail]


def test_group_passes_stay_within_cell_budget(monkeypatch):
    """A size group whose rows and subsets would pass the cell budget is
    split: on a 6-state Supremus family, whose size-3 group holds 20
    subsets, each counting pass holds at most ``_CELLS`` lookups and
    counts, F B (n + k^2), and the verdicts do not change."""
    from ringcoding import typicality

    rng = np.random.default_rng(8)
    P = rng.integers(1, 9, (6, 6)).astype(float)
    chain = MarkovChain(P / P.sum(axis=1, keepdims=True))
    tester = SupremusTester(chain, 0.5)
    assert [len(pa) for _, _, _, pa in tester._groups] == [1, 6, 15, 20, 15, 6]
    X = _sample_paths(chain, 40, 60, rng)
    passes, pair_counts = [], typicality._pair_counts

    def counted_pair_counts(X, luts, k):
        passes.append((1 if luts is None else len(luts), len(X), X.shape[1], k))
        return pair_counts(X, luts, k)

    monkeypatch.setattr(typicality, "_pair_counts", counted_pair_counts)
    whole = typicality._watch(X, tester._groups, 0.5)
    assert [F for F, _, _, k in passes if k == 3] == [20]
    # rows fail in every group, and some pass all
    assert {len(tester.subsets[f]) for f in whole if f < 63} == {1, 2, 3, 4, 6}
    assert (whole == 63).any()
    budget = 3 * 40 * (60 + 9)
    monkeypatch.setattr(typicality, "_CELLS", budget)
    passes.clear()
    assert np.array_equal(typicality._watch(X, tester._groups, 0.5), whole)
    size3 = [F for F, _, _, k in passes if k == 3]
    assert len(size3) > 1 and sum(size3) == 20
    assert all(F * B * (n + k * k) <= budget for F, B, n, k in passes)


def test_path_must_be_one_dimensional(mixing3):
    """A path that is not one-dimensional is refused by every entry point,
    not counted as some other path or failed deep inside numpy."""
    tester = SupremusTester(mixing3, 0.5)
    for bad in (np.array([0, 1, 2] * 20).reshape(60, 1), np.array([0, 1, 2] * 20)[None]):
        for call in (lambda: supremus_verdict(bad, mixing3, 0.5),
                     lambda: tester.verdict(bad),
                     lambda: is_strongly_markov_typical(bad, mixing3, 0.5),
                     lambda: transition_counts(bad, 3),
                     lambda: enumerate_confusable(bad, [[0, 1], [2]], mixing3, 0.5)):
            with pytest.raises(ValueError, match="one-dimensional"):
                call()


def test_enumerate_typical_refuses_below_supremus_floor(mixing3):
    with pytest.raises(ValueError, match="length >= 6"):
        list(enumerate_typical_paths(mixing3, 5, 0.9))
    # nothing reaches the Supremus test: no refusal, empty set
    assert list(enumerate_typical_paths(mixing3, 5, 0.01)) == []


def test_batch_chunk_boundaries(monkeypatch, mixing3, source_chain):
    """Cutting the frontier and the candidate table into 5-row batches
    changes nothing: same paths in the same order, same counts."""
    from ringcoding import typicality

    def run():
        paths = [p.tolist() for p in enumerate_typical_paths(mixing3, 8, 0.6)]
        strong = [p.tolist() for p in enumerate_typical_paths(mixing3, 8, 0.6,
                                                              supremus=False)]
        x = sample_path(source_chain, 12, 5)
        counts = [enumerate_confusable(x, [[0, 2], [1, 3]], source_chain, 0.3, coset_family=c)
                  for c in (False, True)]
        return paths, strong, counts

    default = run()
    monkeypatch.setattr(typicality, "_CHUNK", 5)
    assert run() == default
    assert default[0] and default[2][0] > 1


def test_batch_kernel_memory_and_warnings(mixing3, source_chain):
    """The batched search stays small, and masked divisions raise no
    floating-point warnings on unvisited states."""
    import tracemalloc
    import warnings

    tracemalloc.start()
    try:
        paths = list(enumerate_typical_paths(mixing3, 10, 0.35))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(paths) == 1104
    assert peak < 16 * 2**20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(enumerate_typical_paths(source_chain, 10, 0.2))
        x = np.array([1] * 12)
        assert enumerate_confusable(x, [[0, 2], [1, 3]], source_chain, eps=50.0) == 2**12


def _exact_solve(A, B):
    """X with A X = B over the rationals, by Gauss-Jordan elimination."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                M[r] = [v - M[r][col] * w for v, w in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _exact_watched(P, subset):
    """(S_A, pi_A) over the rationals: S_A = P_AA + P_AB (I - P_BB)^{-1} P_BA
    and pi_A its stationary law, for B the states outside A."""
    from fractions import Fraction

    rest = [i for i in range(len(P)) if i not in subset]
    S = [[P[i][j] for j in subset] for i in subset]
    if rest:
        core = [[int(i == j) - P[i][j] for j in rest] for i in rest]
        X = _exact_solve(core, [[P[i][j] for j in subset] for i in rest])
        S = [[S[a][b] + sum(P[i][r] * X[c][b] for c, r in enumerate(rest))
              for b in range(len(subset))] for a, i in enumerate(subset)]
    k = len(subset)
    # pi (S - I) = 0 with one equation replaced by sum(pi) = 1
    A = [[S[j][i] - int(i == j) for j in range(k)] for i in range(k - 1)] + [[1] * k]
    pa = _exact_solve(A, [[0]] * (k - 1) + [[1]])
    return S, [Fraction(v[0]) for v in pa]


def _exact_supremus_set(rows, n, eps):
    """Every Supremus-typical path of length n, tested entrywise in
    rational arithmetic on the decimal rows (the all-subsets family)."""
    from fractions import Fraction
    from itertools import product

    P = [[Fraction(str(v)) for v in row] for row in rows]
    eps = Fraction(str(eps))
    m = len(P)
    watched = [(s, *_exact_watched(P, list(s))) for s in _all_subsets(m)]

    def strong(sub, S, pa):
        L, k = len(sub), len(pa)
        if L < 2:
            return True
        pair = [[0] * k for _ in range(k)]
        for a, b in zip(sub, sub[1:]):
            pair[a][b] += 1
        N = [sum(r) for r in pair]
        return (all(abs(Fraction(N[i], L) - pa[i]) < eps for i in range(k))
                and all(abs(Fraction(pair[i][j], N[i]) - S[i][j]) < eps
                        for i in range(k) if N[i] for j in range(k)))

    return [x for x in product(range(m), repeat=n)
            if all(strong([s.index(v) for v in x if v in s], S, pa) for s, S, pa in watched)]


def test_supremus_set_exact_at_boundary(mixing3):
    """mixing3 is doubly stochastic, so a two-state subset has pi_A = (1/2, 1/2)
    exactly and eps = 0.5 is the boundary: the exact Supremus set at n = 8
    is empty, and 0.6 gives the exact set."""
    rows = mixing3.P.tolist()
    assert _exact_supremus_set(rows, 8, 0.5) == []
    assert list(enumerate_typical_paths(mixing3, 8, 0.5)) == []
    exact = _exact_supremus_set(rows, 8, 0.6)
    assert len(exact) == 1023
    assert [tuple(p.tolist()) for p in enumerate_typical_paths(mixing3, 8, 0.6)] == exact


@pytest.mark.parametrize("bad", [[0, 1, 3, 1, 0, 2], [0, 1, -1, 1, 0, 2],
                                 [0.9, 1.2, 2.7, 0.1, 1.5, 2.2]])
def test_path_states_out_of_range_refused(mixing3, bad):
    """A state outside 0..m-1 is refused, not dropped or wrapped around,
    and a fractional state is refused rather than truncated."""
    with pytest.raises(ValueError, match="0..2"):
        transition_counts(bad, 3)
    with pytest.raises(ValueError, match="0..2"):
        supremus_verdict(bad, mixing3, 0.5)
    with pytest.raises(ValueError, match="0..2"):
        enumerate_confusable(bad, [[0, 1], [2]], mixing3, 0.5)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -0.1, True, "0.3"])
def test_eps_must_be_positive_and_finite(mixing3, eps):
    """NaN passes ``eps <= 0`` yet fails every verdict, True would run as
    1 (every word typical) and a string is no number: each is refused
    with the other non-positive and infinite values, by every
    typicality entry point and the typical-set simulator."""
    x = np.array([0, 1, 2] * 3)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        SupremusTester(mixing3, eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        is_strongly_markov_typical(x, mixing3, eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        supremus_verdict(x, mixing3, eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        list(enumerate_typical_paths(mixing3, 9, eps))
    cfg = SimConfig(ring=make_modular_ring(3), n=9, k=2, trials=10, chain=mixing3,
                    decoder="typicality", eps=eps)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        run_single_source_sim(cfg)
