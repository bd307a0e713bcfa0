"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from ringcoding import (
    MarkovChain,
    SimConfig,
    blockdiag_complement_entropy,
    check_burke_form,
    compare_presentations,
    computing_rate,
    conditional_entropy,
    cover_region,
    enumerate_confusable,
    enumerate_left_ideals,
    enumerate_typical_paths,
    injectivity_obstruction_check,
    invariant_distribution,
    lump,
    make_modular_ring,
    make_product_ring,
    make_triangular_ring,
    quotient_partition,
    run_computing_sim,
    run_single_source_sim,
    sample_path,
    single_source_rate,
    stochastic_complement,
    sum_process_chain,
    supremus_verdict,
    transition_counts,
)
from ringcoding import reference
from exhaustive import brute_force_left_ideals


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_single_source_reproduction():
    start = time.perf_counter()
    ring = make_modular_ring(4)
    chain = reference.single_source_chain()
    rep = single_source_rate(ring, chain)
    h = rep.source_entropy
    pair = sorted(rep.candidate_values(), reverse=True)
    elapsed = time.perf_counter() - start
    ok = (
        abs(h - 0.1602) <= 5e-3
        and abs(pair[0] - 0.1602) <= 5e-3
        and abs(pair[1] - 0.1474) <= 5e-3
        and abs(rep.r0 - h) < 1e-12
        and rep.exact
        and elapsed < 1.0
    )
    report(
        "1",
        ok,
        f"H={h:.4f}, pair=({pair[0]:.4f}, {pair[1]:.4f}), R0=H on a "
        f"non-field ring, runtime {elapsed:.3f}s",
    )


def test_criterion_2_joint_lumping_and_burke_form():
    joint = reference.joint_chain()
    g = reference.target_function()
    labels = [g(*st) for st in joint.states]
    lumped = lump(joint, labels, tol=1e-3)
    ref = reference.function_value_chain()
    perm = [lumped.states.index(s) for s in ref.states]
    dev = float(np.abs(lumped.P[np.ix_(perm, perm)] - ref.P).max())
    burke = check_burke_form(joint, tol=1e-3)
    ok = dev <= 2e-3 and burke is not None and burke.residual < 1e-3
    report(
        "2",
        ok,
        f"lumped-vs-published max dev {dev:.2e} (<=2e-3), Burke form "
        f"c1={burke.c1:.4f} residual {burke.residual:.1e} (<1e-3)",
    )


def test_criterion_3_value_chain_and_cover_entropies():
    ref = reference.function_value_chain()
    h = conditional_entropy(ref.P, invariant_distribution(ref))
    joint = reference.joint_chain()
    full = next(c for c in cover_region(joint) if len(c.subset) == 3)
    ok = abs(h - 0.4422) <= 5e-3 and full.exact and abs(full.hi - 1.4236) <= 5e-3
    report(
        "3",
        ok,
        f"H(value chain)={h:.4f} (0.4422±5e-3), full-set cover bound "
        f"{full.hi:.4f} (1.4236±5e-3)",
    )


def test_criterion_4_field_comparison():
    joint = reference.joint_chain()
    g = reference.target_function()
    p4, p5 = reference.presentation_z4(), reference.presentation_z5()
    sp5 = sum_process_chain(joint, p5, domains=g.domains)
    h5 = conditional_entropy(sp5.chain.P, invariant_distribution(sp5.chain))
    cmp_rep = compare_presentations(g, {"z4": p4, "z5": p5}, joint)
    r = dict(cmp_rep.entries)
    inj5 = injectivity_obstruction_check(g, p5)
    ok = (
        abs(h5 - 0.4623) <= 5e-3
        and r["z4"].r0 < r["z5"].r0
        and inj5 is False
    )
    report(
        "4",
        ok,
        f"H(Z5 sum)={h5:.4f} (0.4623±5e-3), thresholds {r['z4'].r0:.4f} < "
        f"{r['z5'].r0:.4f}, Z5 h injective on sums: {inj5}",
    )


def test_criterion_5_alternating_schedule_frequencies():
    n = 100_000
    schedule = reference.alternating_schedule()
    g = reference.target_function()
    ref = reference.function_value_chain()
    path = sample_path(schedule, n, 20240)
    gval = [g(*st) for st in schedule[0].states]
    pos = {v: i for i, v in enumerate(ref.states)}
    labeled = np.array([pos[gval[s]] for s in path])
    counts = transition_counts(labeled, ref.n)
    worst = 0.0
    ok = True
    for i in range(ref.n):
        if counts.visits[i] == 0:
            ok = False
            continue
        emp = counts.pair[i] / counts.visits[i]
        se = np.maximum(np.sqrt(ref.P[i] * (1 - ref.P[i]) / counts.visits[i]), 1e-12)
        worst = max(worst, float((np.abs(emp - ref.P[i]) / se).max()))
        ok &= bool((np.abs(emp - ref.P[i]) <= 3 * se).all())
    report(
        "5",
        ok,
        f"non-homogeneous schedule, n={n}: worst pair-frequency deviation "
        f"{worst:.2f} sigma (<=3)",
    )


def test_criterion_6_counting_lemma_oracle():
    start = time.perf_counter()
    chain = reference.single_source_chain()
    ring = make_modular_ring(4)
    ideal = next(i for i in enumerate_left_ideals(ring) if i.members == (0, 2))
    cosets = quotient_partition(ideal)
    h_comp = blockdiag_complement_entropy(chain, cosets)
    eps = 0.2
    details = []
    ok = True
    for n in (10, 12):
        typical = [tuple(p) for p in enumerate_typical_paths(chain, n, eps)]
        ok &= len(typical) > 0
        # group the enumerated set by coset pattern: the group of x is
        # exactly the confusable set of x within the ideal
        groups = {}
        for x in typical:
            pattern = tuple(0 if v in (0, 2) else 1 for v in x)
            groups.setdefault(pattern, []).append(x)
        counts = {x: len(groups[tuple(0 if v in (0, 2) else 1 for v in x)])
                  for x in typical}
        eta = max(np.log2(c) / n - h_comp for c in counts.values())
        bound = 2 ** (n * (h_comp + eta))
        ok &= all(c <= bound + 1e-9 for c in counts.values())
        # cross-check the grouping against the direct counting routine
        probe = typical[0]
        direct = enumerate_confusable(np.array(probe), cosets, chain, eps)
        ok &= direct == counts[probe]
        details.append(f"n={n}: |typical|={len(typical)}, eta={eta:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300
    report("6", ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (<300s)")


def test_criterion_7_aep_sandwich_and_coverage():
    chain = MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    pi = invariant_distribution(chain)
    h = conditional_entropy(chain.P, pi)
    n, eps = 12, 0.3
    # eta calibrated from eps: |N(ij)/n - p_i p_ij| < eps(p_i + eps) + eps p_ij
    # plus the worst-case start-state cost
    delta = eps * (pi[:, None] + eps) + eps * chain.P
    eta = float((delta * np.abs(np.log2(chain.P))).sum() + (-np.log2(pi)).max() / n)
    lo, hi = 2.0 ** (-n * (h + eta)), 2.0 ** (-n * (h - eta))
    count = 0
    sandwich_ok = True
    for x in enumerate_typical_paths(chain, n, eps):
        p = pi[x[0]] * np.prod(chain.P[x[:-1], x[1:]])
        sandwich_ok &= bool(lo < p < hi)
        count += 1
    rng = np.random.default_rng(11)
    trials = 60
    hits = sum(
        supremus_verdict(sample_path(chain, 10_000, rng), chain, 0.05).ok
        for _ in range(trials)
    )
    frac = hits / trials
    ok = sandwich_ok and count > 0 and frac > 0.9
    report(
        "7",
        ok,
        f"{count} typical paths at n={n} all inside the probability sandwich "
        f"(eta={eta:.2f}); typical fraction {frac:.2f} (> 0.9) at n=1e4, eps=0.05",
    )


def test_criterion_8_simulation_monotonicity_and_identity():
    ring = make_modular_ring(4)
    chain = reference.single_source_chain()
    trials = 2000
    res = {}
    for k in (1, 4):  # 2k/n = 0.2 and 0.8 at n = 10
        cfg = SimConfig(ring=ring, n=10, k=k, trials=trials, seed=2024, chain=chain)
        res[k] = run_single_source_sim(cfg)
    gap = res[1].error_prob - res[4].error_prob
    cfg = SimConfig(
        ring=ring, n=8, k=3, trials=trials, seed=77,
        joint=reference.joint_chain(),
        function=reference.target_function(),
        presentation=reference.presentation_z4(),
    )
    comp = run_computing_sim(cfg)
    ok = (
        res[4].error_prob < res[1].error_prob
        and comp.identity_checked == trials
        and comp.identity_failures == 0
    )
    report(
        "8",
        ok,
        f"paired-seed errors: rate 0.2 -> {res[1].error_prob:.3f}, rate 0.8 -> "
        f"{res[4].error_prob:.3f} (gap {gap:.3f}); codeword-sum identity exact "
        f"on {comp.identity_checked}/{trials} trials",
    )


def test_criterion_9_oracle_equivalence():
    rings = {
        "Z4": make_modular_ring(4),
        "Z6": make_modular_ring(6),
        "ML2": make_triangular_ring(2),
        "Z2xZ3": make_product_ring(make_modular_ring(2), make_modular_ring(3)),
    }
    ideals_ok = all(
        [i.members for i in enumerate_left_ideals(r)]
        == [i.members for i in brute_force_left_ideals(r)]
        for r in rings.values()
    )

    chain = reference.single_source_chain()
    sub = [1, 3]
    S = stochastic_complement(chain, sub)
    path = sample_path(chain, 110_000, 424242)
    watched = path[np.isin(path, sub)]
    lut = np.full(4, -1)
    lut[sub] = np.arange(2)
    counts = transition_counts(lut[watched], 2)
    visits = int(counts.visits.sum())
    mc_ok = visits >= 100_000
    worst = 0.0
    for i in range(2):
        emp = counts.pair[i] / counts.visits[i]
        se = np.maximum(np.sqrt(S[i] * (1 - S[i]) / counts.visits[i]), 1e-12)
        worst = max(worst, float((np.abs(emp - S[i]) / se).max()))
        mc_ok &= bool((np.abs(emp - S[i]) <= 3 * se).all())

    inv_ok = True
    worst_resid = 0.0
    for test_chain in (
        chain,
        reference.function_value_chain(),
        reference.joint_chain(),
    ):
        pi = invariant_distribution(test_chain)
        resid = float(np.abs(pi @ test_chain.P - pi).max())
        worst_resid = max(worst_resid, resid)
        inv_ok &= resid < 1e-12

    ok = ideals_ok and mc_ok and inv_ok
    report(
        "9",
        ok,
        f"ideal lattices match brute force on {', '.join(rings)}; watch-chain "
        f"MC over {visits} visits within {worst:.2f} sigma (<=3); invariant "
        f"residuals <= {worst_resid:.1e} (<1e-12)",
    )
