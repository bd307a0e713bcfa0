import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_fields, small_rings
from ringcoding import (
    FunctionSpec,
    MarkovChain,
    Presentation,
    blockdiag_complement_entropy,
    canonical_presentation,
    compare_presentations,
    computing_rate,
    conditional_entropy,
    cover_region,
    entropy,
    injection_search_rate,
    invariant_distribution,
    make_modular_ring,
    make_product_ring,
    make_triangular_ring,
    quotient_entropy_rate_bounds,
    single_source_rate,
)
from ringcoding import reference
from ringcoding.rates import IdealTerm, InjectionReport, RateReport
from ringcoding.rings import FiniteRing, enumerate_left_ideals, quotient_partition


def test_field_source_collapses_to_entropy():
    z5 = make_modular_ring(5)
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.ones(5), size=5)
    chain = MarkovChain(P)
    report = single_source_rate(z5, chain)
    h = conditional_entropy(chain.P, invariant_distribution(chain))
    assert len(report.terms) == 1
    assert report.exact
    assert abs(report.r0 - h) < 1e-12


def test_reference_source_report(z4, source_chain):
    report = single_source_rate(z4, source_chain)
    h = report.source_entropy
    assert abs(h - 0.1602) < 5e-3
    pair = sorted(report.candidate_values(), reverse=True)
    assert abs(pair[0] - 0.1602) < 5e-3
    assert abs(pair[1] - 0.1474) < 5e-3
    assert report.exact
    assert abs(report.r0 - h) < 1e-12  # non-field ring reaches the optimum


def test_iid_source_slepian_wolf_collapse(z4, ml2):
    """Rows-identical sources: the union over injections reaches H(pi) on
    rings whose single proper ideal has order sqrt(|R|)."""
    w = np.array([0.4, 0.3, 0.2, 0.1])
    chain = MarkovChain(np.tile(w, (4, 1)))
    for ring in (z4, ml2):
        report = injection_search_rate(ring, chain)
        assert abs(report.best.r0 - entropy(w)) < 1e-9
        # no injection can beat the alphabet entropy
        assert all(hi >= entropy(w) - 1e-9 for _, _, hi in report.rates)


def test_iid_source_matches_marginal_formula(z4):
    """Independent check of the per-ideal term for memoryless sources:
    scale * (H(pi) - H(pi folded to cosets))."""
    w = np.array([0.45, 0.25, 0.2, 0.1])
    chain = MarkovChain(np.tile(w, (4, 1)))
    report = single_source_rate(z4, chain)
    for term in report.terms:
        ideal = term.members
        part = quotient_partition(
            next(i for i in enumerate_left_ideals(z4) if i.members == ideal)
        )
        folded = np.array([w[list(c)].sum() for c in part])
        expected = term.scale * (entropy(w) - entropy(folded))
        assert term.exact
        assert abs(term.scaled_hi - expected) < 1e-9


def test_single_source_requires_matching_order(z4, mixing3):
    with pytest.raises(ValueError):
        single_source_rate(z4, mixing3)


def test_injection_search_field_is_flat():
    z3 = make_modular_ring(3)
    chain = MarkovChain([[0.6, 0.2, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
    h = conditional_entropy(chain.P, invariant_distribution(chain))
    report = injection_search_rate(z3, chain)
    assert all(abs(hi - h) < 1e-9 for _, _, hi in report.rates)
    assert len(report.rates) == math.factorial(3)


def test_injection_search_beats_identity(z4, source_chain):
    report = injection_search_rate(z4, source_chain)
    identity = next(r for phi, _, r in report.rates if phi == (0, 1, 2, 3))
    assert report.best.r0 <= identity + 1e-12


def test_injection_search_iid_formula(z4):
    w = np.array([0.5, 0.25, 0.15, 0.1])
    chain = MarkovChain(np.tile(w, (4, 1)))
    report = injection_search_rate(z4, chain)
    part = quotient_partition(
        next(i for i in enumerate_left_ideals(z4) if i.members == (0, 2))
    )
    for phi, lo, hi in report.rates:
        terms = []
        for ideal in enumerate_left_ideals(z4):
            if ideal.order == 1:
                continue
            cosets = quotient_partition(ideal)
            folded = [
                sum(w[y] for y in range(4) if phi[y] in c) for c in cosets
            ]
            folded = np.array([v for v in folded if v > 0])
            scale = math.log2(4) / math.log2(ideal.order)
            terms.append(scale * (entropy(w) - entropy(folded)))
        assert abs(hi - max(terms)) < 1e-9


def test_injection_search_bound(z4):
    chain = MarkovChain(np.tile([0.25] * 4, (4, 1)))
    with pytest.raises(ValueError):
        injection_search_rate(z4, chain, max_injections=3)


def test_injection_rates_are_a_read_only_sequence(z4, source_chain):
    """``rates`` reads as the list of (injection, r_lo, r_hi) triples it
    stands for, of Python ints and floats: len, indexing from either end,
    slices and iteration agree, and nothing can be written."""
    rates = injection_search_rate(z4, source_chain, depth=4).rates
    listed = list(rates)
    assert len(rates) == len(listed) == 24 and listed[0][0] == (0, 1, 2, 3)
    assert [rates[i] for i in range(24)] == listed == [rates[i - 24] for i in range(24)]
    assert rates[np.int64(5)] == listed[5] and rates[True] == listed[1]
    assert rates[3:9:2] == listed[3:9:2] and rates[::-1] == listed[::-1]
    assert all(type(v) is int for v in listed[7][0])
    assert {type(lo) for _, lo, _ in rates} == {type(hi) for _, _, hi in rates} == {float}
    assert rates == listed and listed == rates and rates != listed[1:]
    again = injection_search_rate(z4, source_chain, depth=4)
    assert again.rates is not rates and again.rates == rates
    assert again == injection_search_rate(z4, source_chain, depth=4)
    with pytest.raises(IndexError):
        rates[24]
    with pytest.raises(TypeError):
        rates[0] = listed[1]
    with pytest.raises(TypeError):
        rates[1.0]
    for table in vars(rates).values():
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


def test_injection_rates_keep_arrays_not_triples():
    """The Z16 sweep of a 4-state chain (43,680 injections) keeps its rates
    as a table and two float arrays, 20 bytes an injection, not as 43,680
    tuples of boxed ints and floats (about 200 bytes each)."""
    import tracemalloc

    chain = MarkovChain(np.random.default_rng(7).dirichlet(np.ones(4), size=4))
    z16 = make_modular_ring(16)
    injection_search_rate(z16, chain, depth=3)  # warm caches outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = injection_search_rate(z16, chain, depth=3)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.rates) == 43_680
    assert kept < 40 * len(report.rates)


@pytest.mark.parametrize("bound", ["100", True, 23.5, 24.0])
def test_injection_search_refuses_non_integer_bound(z4, bound):
    """The sweep bound must be one integer: "100" is not parsed, True is
    not 1, and 23.5 or 24.0 are not compared with the 24 injections."""
    chain = MarkovChain(np.tile([0.25] * 4, (4, 1)))
    assert len(injection_search_rate(z4, chain, max_injections=24).rates) == 24
    with pytest.raises(ValueError, match="max_injections must be an integer"):
        injection_search_rate(z4, chain, max_injections=bound)


def test_computing_rate_reference(z4, joint8):
    g = reference.target_function()
    report = computing_rate(g, reference.presentation_z4(), joint8)
    assert report.mode == "lumped"
    assert report.burke_certified
    assert abs(report.r0 - 0.4422) < 5e-3
    assert report.rate.exact
    # threshold equals the sum-process conditional entropy (non-field optimum)
    assert abs(report.r0 - report.rate.source_entropy) < 1e-12


def test_computing_rate_z5(joint8):
    g = reference.target_function()
    report = computing_rate(g, reference.presentation_z5(), joint8)
    assert abs(report.r0 - 0.4623) < 5e-3
    assert report.injective_on_sums is False


def test_computing_rate_trivial_single_state():
    g = FunctionSpec.from_callable([[0]], [0], lambda x: 0)
    pres = canonical_presentation(g, 2)
    joint = MarkovChain([[1.0]], states=[(0,)])
    report = computing_rate(g, pres, joint)
    assert report.r0 == 0.0


def test_computing_rate_rejects_bad_presentation(joint8):
    g = reference.target_function()
    z4 = make_modular_ring(4)
    broken = Presentation(z4, [[0, 1], [0, 2], [0, 3]], {0: 0, 1: 1, 2: 2, 3: 0})
    with pytest.raises(ValueError):
        computing_rate(g, broken, joint8)


def test_cover_region_single_source(source_chain):
    chain = MarkovChain(source_chain.P, states=[(s,) for s in range(4)])
    constraints = cover_region(chain)
    assert len(constraints) == 1
    h = conditional_entropy(chain.P, invariant_distribution(chain))
    assert abs(constraints[0].hi - h) < 1e-12


def test_cover_region_reference_joint(joint8):
    constraints = cover_region(joint8)
    assert len(constraints) == 7
    full = next(c for c in constraints if len(c.subset) == 3)
    assert full.exact
    assert abs(full.hi - 1.4236) < 5e-3


def test_cover_region_independent_pair_decomposes():
    a = MarkovChain([[0.7, 0.3], [0.4, 0.6]])
    b = MarkovChain([[0.5, 0.5], [0.2, 0.8]])
    states = [(i, j) for i in range(2) for j in range(2)]
    P = np.kron(a.P, b.P)
    joint = MarkovChain(P, states=states)
    ha = conditional_entropy(a.P, invariant_distribution(a))
    hb = conditional_entropy(b.P, invariant_distribution(b))
    cons = {c.subset: c for c in cover_region(joint)}
    assert abs(cons[(0, 1)].hi - (ha + hb)) < 1e-9
    assert cons[(0,)].exact  # projection of a product chain is lumpable
    assert abs(cons[(0,)].hi - ha) < 1e-9
    assert abs(cons[(1,)].hi - hb) < 1e-9


@pytest.mark.parametrize("states", [[(0, 0), (1,), (1, 1)], [(0, 0), 1, (1, 1)]])
def test_cover_region_refuses_ragged_joint_states(states):
    """A joint chain whose states are not all tuples of one length names
    no sources to project on; it is refused, not an IndexError or a
    TypeError from the projection."""
    joint = MarkovChain([[0.5, 0.25, 0.25]] * 3, states=states)
    with pytest.raises(ValueError, match="tuples of one length"):
        cover_region(joint)


def test_compare_presentations_reference(joint8):
    g = reference.target_function()
    report = compare_presentations(
        g,
        {"z4": reference.presentation_z4(), "z5": reference.presentation_z5()},
        joint8,
    )
    assert report.best[0] == "z4"
    by_name = dict(report.entries)
    assert by_name["z4"].r0 < by_name["z5"].r0
    assert by_name["z5"].injective_on_sums is False


def test_compare_single_presentation_matches_computing_rate(joint8):
    g = reference.target_function()
    pres = reference.presentation_z4()
    cmp_report = compare_presentations(g, {"only": pres}, joint8)
    direct = computing_rate(g, pres, joint8)
    assert cmp_report.entries[0][1].r0 == direct.r0


def test_compare_identical_presentations_tie(joint8):
    g = reference.target_function()
    report = compare_presentations(
        g,
        {"a": reference.presentation_z4(), "b": reference.presentation_z4()},
        joint8,
    )
    (na, ra), (nb, rb) = report.entries
    assert ra.r0 == rb.r0


def test_scale_factor_at_least_one(z4, z6, ml2, source_chain):
    report = single_source_rate(z4, source_chain)
    for term in report.terms:
        assert term.scale >= 1.0
        if term.scale == 1.0:
            assert len(term.members) == z4.order


def test_min_term_never_exceeds_source_entropy(z4, source_chain, joint8):
    report = single_source_rate(z4, source_chain)
    for term in report.terms:
        assert term.min_hi <= report.source_entropy + 1e-9


def test_bounded_mode_interval_shrinks_with_depth():
    """Non-lumpable quotient: the report interval narrows as depth grows."""
    rows = np.array(
        [
            [0.125, 0.254, 0.430, 0.191],
            [0.074, 0.443, 0.053, 0.430],
            [0.245, 0.383, 0.203, 0.169],
            [0.327, 0.443, 0.038, 0.192],
        ]
    )
    z4 = make_modular_ring(4)
    chain = MarkovChain(rows)
    widths = []
    for depth in (2, 4, 6):
        report = single_source_rate(z4, chain, depth=depth)
        widths.append(report.r0_hi - report.r0_lo)
        assert report.r0_lo <= report.r0_hi
    shallow = single_source_rate(z4, chain, depth=2)
    assert not shallow.exact and widths[0] > 0.01
    assert widths[2] <= widths[1] <= widths[0]


def test_korner_marton_sum_with_memory(z2):
    """X1 and N independent binary Markov chains and X2 = X1 xor N: over Z2
    the sum process is N, so the threshold per source is N's entropy rate
    (Korner and Marton, 1979, here with memory), below half the sum rate of
    coding both sources."""
    Q1 = np.array([[0.9, 0.1], [0.3, 0.7]])
    Q2 = np.array([[0.95, 0.05], [0.4, 0.6]])
    states = [(a, b) for a in (0, 1) for b in (0, 1)]
    joint = MarkovChain([[Q1[a, c] * Q2[a ^ b, c ^ d] for c, d in states] for a, b in states],
                        states=states)
    g = FunctionSpec.from_callable([[0, 1], [0, 1]], [0, 1], lambda x1, x2: x1 ^ x2)
    report = computing_rate(g, Presentation(z2, [[0, 1], [0, 1]], {0: 0, 1: 1}), joint)
    # two-state chain: pi = (q10, q01) / (q01 + q10)
    pi_n = np.array([Q2[1, 0], Q2[0, 1]]) / (Q2[0, 1] + Q2[1, 0])
    h_noise = -(pi_n[:, None] * Q2 * np.log2(Q2)).sum()
    assert report.mode == "lumped"
    assert abs(report.r0_lo - h_noise) <= 1e-12 and abs(report.r0_hi - h_noise) <= 1e-12
    full = [c for c in cover_region(joint) if c.subset == (0, 1)]
    assert 2 * report.r0 < full[0].lo


# --- the partition-keyed memo ---------------------------------------------------


def _fresh_sweep(ring, chain, depth):
    """Reference sweep: every injection's terms by the per-ideal formula on
    a fresh chain, so no injection sees another one's memo."""
    rates, best, best_phi = [], None, None
    for phi in permutations(range(ring.order), chain.n):
        fresh = MarkovChain(chain.P)
        h = conditional_entropy(fresh.P, invariant_distribution(fresh))
        terms = []
        for ideal in enumerate_left_ideals(ring):
            if ideal.order == 1:
                continue
            cosets = quotient_partition(ideal)
            labels = [next(ci for ci, c in enumerate(cosets) if e in c) for e in phi]
            blocks = [b for b in ([s for s, e in enumerate(phi) if e in c] for c in cosets) if b]
            bounds = quotient_entropy_rate_bounds(fresh, labels, depth=depth)
            terms.append(IdealTerm(
                ideal.members, math.log2(ring.order) / math.log2(ideal.order),
                blockdiag_complement_entropy(fresh, blocks), h - bounds.upper,
                h - bounds.lower, bounds.exact, ideal.label()))
        report = RateReport(ring.description, h, terms)
        rates.append((phi, report.r0_lo, report.r0_hi))
        if best is None or report.r0_hi < best.r0_hi:
            best, best_phi = report, phi
    return InjectionReport(ring.description, best_phi, best, rates)


@pytest.mark.parametrize("ring, states, seed", [
    (make_modular_ring(4), 4, 1),
    (make_modular_ring(4), 3, 2),
    (make_modular_ring(6), 4, 3),
    (make_triangular_ring(2), 4, 4),
    (make_modular_ring(8), 3, 5),
    (make_product_ring(make_modular_ring(2), make_modular_ring(4)), 3, 6),
])
def test_memoised_sweep_matches_fresh_chains(ring, states, seed):
    """Sharing terms across injections changes no bit of the report.  Z2xZ4
    has several ideals of one order, so a term keyed across ideals would
    show."""
    chain = MarkovChain(np.random.default_rng(seed).dirichlet(np.ones(states), size=states))
    assert injection_search_rate(ring, chain, depth=4).to_dict() == \
        _fresh_sweep(ring, chain, 4).to_dict()


def test_sweep_over_the_zero_ring_is_refused():
    """The zero ring has no non-zero ideal, so there is no maximum to take:
    the sweep refuses it rather than report a threshold of -inf."""
    with pytest.raises(ValueError):
        injection_search_rate(FiniteRing(["0"], [[0]], [[0]], 0, 0), MarkovChain([[1.0]]))


def test_sweep_ties_go_to_the_first_injection():
    """16 of the 24 injections of this 3-state chain into ML2 tie at the
    least r0_hi; the first of them in permutation order is kept, as a
    strict < scan keeps it."""
    chain = MarkovChain(np.random.default_rng(1).dirichlet(np.ones(3), size=3))
    report = injection_search_rate(make_triangular_ring(2), chain, depth=3)
    least = min(hi for _, _, hi in report.rates)
    tied = [phi for phi, _, hi in report.rates if hi == least]
    assert len(tied) == 16 and report.rates[0][0] not in tied
    assert report.best_injection == tied[0] == (0, 2, 1)
    assert report.best.r0_hi == least


def test_sweep_evaluates_each_partition_once(monkeypatch):
    """On the Z6 sweep of a 4-state chain, the ideals are enumerated once,
    each labeling (up to relabelling) is filtered once and each distinct
    multi-state block has its complement eliminated once, however many
    ordered block lists share it."""
    from ringcoding import markov, rates

    z6 = make_modular_ring(6)
    labelings, block_lists = set(), set()
    for phi in permutations(range(6), 4):
        for ideal in enumerate_left_ideals(z6)[1:]:
            cosets = quotient_partition(ideal)
            coset_of = [next(ci for ci, c in enumerate(cosets) if e in c) for e in phi]
            labelings.add(tuple(sorted(set(coset_of), key=coset_of.index).index(c)
                                for c in coset_of))
            block_lists.add(tuple(tuple(s for s in range(4) if coset_of[s] == ci)
                                  for ci in sorted(set(coset_of))))
    filtered, eliminated, enumerated = [], [], []
    label_bounds, complement, ideals = (markov._label_rate_bounds, markov.stochastic_complement,
                                        rates.enumerate_left_ideals)
    monkeypatch.setattr(markov, "_label_rate_bounds", lambda chain, labels, depth, *rest: (
        filtered.append((labels, depth)) or label_bounds(chain, labels, depth, *rest)))
    monkeypatch.setattr(markov, "stochastic_complement", lambda chain, subset: (
        eliminated.append(tuple(subset)) or complement(chain, subset)))
    monkeypatch.setattr(rates, "enumerate_left_ideals", lambda ring: (
        enumerated.append(ring) or ideals(ring)))
    chain = MarkovChain(np.random.default_rng(5).dirichlet(np.ones(4), size=4))
    report = injection_search_rate(z6, chain, depth=4)
    assert len(report.rates) == 360 and len(enumerated) == 1
    assert sorted(filtered) == sorted((labels, 4) for labels in labelings)
    multi = {b for blocks in block_lists for b in blocks if len(b) > 1}
    assert sorted(eliminated) == sorted(multi)
    assert (len(labelings), len(block_lists), len(multi)) == (14, 51, 11)


# --- properties on random rings and chains --------------------------------------


def _random_chain(m, seed):
    return MarkovChain(np.random.default_rng(seed).dirichlet(np.ones(m), size=m))


@settings(max_examples=40, deadline=None)
@given(small_rings(), st.integers(0, 2**32 - 1))
def test_threshold_at_least_source_entropy(ring, seed):
    """R0_lo >= H(P|pi) for the source on the ring and for every injection
    of a 2-state source: the ideal R itself contributes H(P|pi)."""
    chain = _random_chain(ring.order, seed)
    report = single_source_rate(ring, chain, depth=3)
    assert report.r0_lo >= report.source_entropy - 1e-9
    assert report.r0_lo <= report.r0_hi + 1e-12
    pair = _random_chain(2, seed + 1)
    h = conditional_entropy(pair.P, invariant_distribution(pair))
    assert all(lo >= h - 1e-9 for _, lo, _ in injection_search_rate(ring, pair, depth=3).rates)


@settings(max_examples=20, deadline=None)
@given(small_fields(), st.integers(0, 2**32 - 1))
def test_threshold_on_fields_is_source_entropy(field, seed):
    """A field has no proper non-zero ideal, so R0 = H(P|pi) exactly."""
    chain = _random_chain(field.order, seed)
    report = single_source_rate(field, chain, depth=3)
    h = conditional_entropy(chain.P, invariant_distribution(chain))
    assert len(report.terms) == 1 and report.exact
    assert abs(report.r0_lo - h) < 1e-12 and abs(report.r0_hi - h) < 1e-12
