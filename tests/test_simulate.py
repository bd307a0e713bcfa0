from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gf4, upper_triangular_f2
from exhaustive import _CosetIndex, solution_coset
from ringcoding import (
    MarkovChain,
    SimConfig,
    apply_linear_map,
    enumerate_typical_paths,
    make_modular_ring,
    make_product_ring,
    make_triangular_ring,
    ml_decode,
    random_linear_map,
    run_computing_sim,
    run_single_source_sim,
)
from ringcoding import reference
from ringcoding.functions import SumProcess
from ringcoding.rings import RingMatrix
from ringcoding.simulate import (
    SequenceSpace,
    TypicalSetDecoder,
    _decode_model,
    _Trellis,
)
from ringcoding.typicality import _sample_paths


def test_solution_coset_identity(z4):
    eye = RingMatrix(z4, np.eye(4, dtype=int))
    sols = solution_coset(eye, [1, 2, 3, 0])
    assert sols.shape == (1, 4)
    assert sols[0].tolist() == [1, 2, 3, 0]


def test_solution_coset_zero_matrix(z4):
    zero = RingMatrix(z4, np.zeros((2, 3), dtype=int))
    sols = solution_coset(zero, [0, 0])
    assert sols.shape == (4**3, 3)


def test_coset_sizes_uniform_and_account(z4):
    """Non-empty cosets of a linear map all have kernel size, and
    |kernel| * |image| = |R|^n."""
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_linear_map(z4, 2, 6, rng)
        space = SequenceSpace(z4, range(4), 6)
        index = _CosetIndex(space, a)
        _, counts = np.unique(index.keys, return_counts=True)
        assert counts.min() == counts.max()
        assert counts[0] * len(counts) == 4**6


def test_solution_matches_apply(z4):
    rng = np.random.default_rng(2)
    a = random_linear_map(z4, 2, 5, rng)
    z = [3, 1]
    for x in solution_coset(a, z):
        assert np.array_equal(apply_linear_map(a, x), z)


def test_ml_decode_unique_solution(z4, source_chain):
    eye = RingMatrix(z4, np.eye(5, dtype=int))
    word, tie = ml_decode(eye, [2, 0, 1, 3, 3], source_chain)
    assert word.tolist() == [2, 0, 1, 3, 3]
    assert not tie


def test_ml_decode_tie_flagged(z4):
    uniform = MarkovChain(np.full((4, 4), 0.25))
    zero = RingMatrix(z4, np.zeros((1, 2), dtype=int))
    word, tie = ml_decode(zero, [0], uniform)
    assert tie


def test_ml_decode_finds_max_probability(z4, source_chain):
    rng = np.random.default_rng(4)
    a = random_linear_map(z4, 2, 6, rng)
    space = SequenceSpace(z4, range(4), 6)
    lp = space.log_probs(source_chain)
    index = _CosetIndex(space, a)
    for z in ([1, 2], [0, 3], [2, 2]):
        word, tie = ml_decode(a, z, source_chain)
        members = index.coset_members(space.codeword_key(z))
        best = lp[members].max()
        assert abs(lp[space.index_of(word)] - best) < 1e-12
        if tie:  # the symmetric rows of this source can tie exactly
            assert (np.abs(lp[members] - best) < 1e-12).sum() >= 2


def test_typicality_decode_modes(z4, source_chain):
    n, eps = 10, 0.2
    typical = list(enumerate_typical_paths(source_chain, n, eps))
    assert typical
    x = typical[0]
    dec = TypicalSetDecoder(z4, source_chain, n, eps)
    eye = RingMatrix(z4, np.eye(n, dtype=int))
    word, failure = dec.decode(eye, x)
    assert failure is None and word.tolist() == list(x)
    atyp = np.zeros(n, dtype=int)
    _, failure = dec.decode(eye, atyp)
    assert failure == "atypical"
    collapse = RingMatrix(z4, np.zeros((1, n), dtype=int))
    _, failure = dec.decode(collapse, [0])
    assert failure == "ambiguous"


@pytest.mark.parametrize("n, k, seed", [(9, 2, 1), (10, 2, 1), (9, 4, 3)])
def test_typical_decoder_matches_row_match(z4, source_chain, n, k, seed):
    """``decode`` on every syndrome gives the row match over the typical
    words' syndromes: the one word that has it, "atypical" for none and
    "ambiguous" for several (each case meets two of the three)."""
    a = random_linear_map(z4, k, n, np.random.default_rng(seed))
    dec = TypicalSetDecoder(z4, source_chain, n, 0.3)
    syndromes = apply_linear_map(a, dec.typical_words)
    seen = Counter()
    for z in product(range(4), repeat=k):
        hits = np.flatnonzero((syndromes == z).all(axis=1))
        word, failure = dec.decode(a, list(z))
        seen[failure] += 1
        if len(hits) == 1:
            assert failure is None and word.tolist() == dec.typical_words[hits[0]].tolist()
        else:
            assert word is None and failure == ("atypical" if len(hits) == 0 else "ambiguous")
    assert len(seen) == 2


def test_typical_decoder_refuses_unpackable_syndromes(z4, source_chain):
    """Syndromes are matched by their packed int64 keys, so a k whose
    syndromes do not fit one is refused rather than wrapped."""
    dec = TypicalSetDecoder(z4, source_chain, 8, 0.3)
    a = random_linear_map(z4, 32, 8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="too large to pack"):
        dec.decode(a, [0] * 32)


def test_malformed_syndromes_refused(z4, source_chain):
    """A syndrome is k ring elements: short, long, scalar or out-of-range
    vectors are refused by every decoder, not read as some other coset."""
    a = random_linear_map(z4, 3, 8, np.random.default_rng(3))
    dec = TypicalSetDecoder(z4, source_chain, 8, 0.2)
    for z in ([1, 2], [1, 2, 0, 0], [5, 0, 0], [-1, 0, 0], [1], 2, [1.5, 0, 0]):
        with pytest.raises(ValueError, match="syndrome"):
            ml_decode(a, z, source_chain)
        with pytest.raises(ValueError, match="syndrome"):
            solution_coset(a, z)
        with pytest.raises(ValueError, match="syndrome"):
            dec.decode(a, z)


def test_error_events_match_decoder_outcomes(z4, source_chain):
    """The typical-set decoder fails exactly on the two proof events:
    source word atypical, or a typical word collides under the encoder."""
    n, eps = 8, 0.2
    rng = np.random.default_rng(6)
    a = random_linear_map(z4, 2, n, rng)
    space = SequenceSpace(z4, range(4), n)
    index = _CosetIndex(space, a)
    typical = list(enumerate_typical_paths(source_chain, n, eps))
    dec = TypicalSetDecoder(z4, source_chain, n, eps)
    typ_idx = {space.index_of(t) for t in typical}
    keys_of_typical = {}
    for t in typical:
        keys_of_typical.setdefault(int(index.keys[space.index_of(t)]), []).append(
            space.index_of(t)
        )
    probe = [space.digits[i].astype(np.int64) for i in
             rng.integers(0, space.count, 150)] + typical
    for x in probe:
        xi = space.index_of(x)
        key = int(index.keys[xi])
        word, failure = dec.decode(a, apply_linear_map(a, x))
        decoded_ok = failure is None and word is not None and np.array_equal(word, x)
        e1 = xi not in typ_idx
        e2 = any(other != xi for other in keys_of_typical.get(key, []))
        assert decoded_ok == (not e1 and not e2)


def test_single_source_error_ordering(z4, source_chain):
    results = {}
    for k in (1, 4):
        cfg = SimConfig(ring=z4, n=10, k=k, trials=400, seed=2024, chain=source_chain)
        results[k] = run_single_source_sim(cfg)
    assert results[4].error_prob < results[1].error_prob
    assert results[4].stderr <= 0.5 / np.sqrt(400)


def test_single_source_high_rate_low_error(z4, source_chain):
    cfg = SimConfig(ring=z4, n=10, k=4, trials=400, seed=2024, chain=source_chain)
    res = run_single_source_sim(cfg)
    assert res.error_prob < 0.1


def test_budget_refusal(z4, source_chain):
    cfg = SimConfig(ring=z4, n=30, k=2, trials=10, seed=0, chain=source_chain)
    with pytest.raises(ValueError):
        run_single_source_sim(cfg)


def test_trial_determinism(z4, source_chain):
    """Same seed, same run, and the counts of one ML and one typical-set
    run stay pinned."""
    all_modes = dict.fromkeys(
        ("unique_ml", "tie", "wrong", "atypical", "ambiguous", "typical_ok"), 0)
    for decoder, errors, modes in (
        ("ml", 10, {"unique_ml": 90, "wrong": 10}),
        ("typicality", 13, {"typical_ok": 87, "wrong": 7, "atypical": 6}),
    ):
        cfg = SimConfig(ring=z4, n=8, k=2, trials=100, seed=7, chain=source_chain,
                        decoder=decoder)
        a = run_single_source_sim(cfg)
        b = run_single_source_sim(cfg)
        assert a.to_dict() == b.to_dict()
        assert (a.errors, a.ties, a.coset_sizes) == (errors, 0, {4096: 100})
        assert a.decode_modes == {**all_modes, **modes}


def test_computing_identity_presentation_matches_single_source(z4, source_chain):
    """Arity-1 identity presentation: the computing pipeline reduces to
    plain single-source simulation."""
    from ringcoding import FunctionSpec, Presentation

    ident = FunctionSpec.from_callable([[0, 1, 2, 3]], [0, 1, 2, 3], lambda x: x)
    pres = Presentation(z4, [[0, 1, 2, 3]], {0: 0, 1: 1, 2: 2, 3: 3})
    joint = MarkovChain(source_chain.P, states=[(s,) for s in range(4)])
    for decoder in ("ml", "typicality"):
        cfg_c = SimConfig(ring=z4, n=8, k=2, trials=200, seed=11, joint=joint,
                          function=ident, presentation=pres, decoder=decoder)
        cfg_s = SimConfig(ring=z4, n=8, k=2, trials=200, seed=11, chain=source_chain,
                          decoder=decoder)
        rc = run_computing_sim(cfg_c).to_dict()
        rs = run_single_source_sim(cfg_s).to_dict()
        assert rc.pop("identity_checked") == 200
        assert rs.pop("identity_checked") == 0
        assert rc == rs
        assert rc["identity_failures"] == 0


def test_computing_sim_reports_decode_modes(z4):
    """Every computing trial lands in exactly one decode mode, and the
    non-success modes are the errors."""
    for decoder in ("ml", "typicality"):
        cfg = SimConfig(ring=z4, n=8, k=3, trials=50, seed=0, decoder=decoder,
                        schedule=reference.alternating_schedule(),
                        function=reference.target_function(),
                        presentation=reference.presentation_z4())
        res = run_computing_sim(cfg)
        assert sum(res.decode_modes.values()) == res.trials
        right = res.decode_modes["unique_ml"] + res.decode_modes["typical_ok"]
        assert res.errors == res.trials - right
        assert res.ties == res.decode_modes["tie"]


def test_computing_sim_reference(z4, joint8):
    cfg = SimConfig(ring=z4, n=8, k=3, trials=300, seed=3, joint=joint8,
                    function=reference.target_function(),
                    presentation=reference.presentation_z4())
    res = run_computing_sim(cfg)
    assert res.identity_checked == 300 and res.identity_failures == 0
    assert res.error_prob < 0.5


def test_computing_sim_schedule_matches_homogeneous(z4, joint8):
    """The alternating schedule drives the same function-value process, so
    its error rate is statistically indistinguishable from the
    homogeneous joint chain's."""
    g = reference.target_function()
    pres = reference.presentation_z4()
    base = dict(ring=z4, n=8, k=3, trials=600, function=g, presentation=pres)
    r_hom = run_computing_sim(SimConfig(**base, seed=21, joint=joint8))
    r_alt = run_computing_sim(
        SimConfig(**base, seed=21, schedule=reference.alternating_schedule())
    )
    assert r_alt.identity_failures == 0
    p, q = r_hom.error_prob, r_alt.error_prob
    se = np.sqrt(p * (1 - p) / 600 + q * (1 - q) / 600)
    assert abs(p - q) <= 3 * max(se, 1e-3)


def test_decode_model_requires_lumpable(z4):
    from ringcoding import FunctionSpec

    g = reference.target_function()
    rows = np.array(
        [
            [0.30, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10],
            [0.05, 0.40, 0.05, 0.10, 0.10, 0.10, 0.10, 0.10],
            [0.10, 0.10, 0.30, 0.10, 0.10, 0.10, 0.10, 0.10],
            [0.10, 0.10, 0.10, 0.30, 0.10, 0.10, 0.10, 0.10],
            [0.10, 0.10, 0.10, 0.10, 0.30, 0.10, 0.10, 0.10],
            [0.10, 0.10, 0.10, 0.10, 0.10, 0.30, 0.10, 0.10],
            [0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.30, 0.10],
            [0.05, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.35],
        ]
    )
    joint = MarkovChain(rows, states=reference.joint_chain().states)
    cfg = SimConfig(ring=z4, n=6, k=2, trials=5, seed=0, joint=joint,
                    function=g, presentation=reference.presentation_z4())
    with pytest.raises(ValueError):
        run_computing_sim(cfg)


def test_full_rate_invertible_matrix_decodes_exactly(z4, source_chain):
    """k = n with an invertible draw: singleton cosets, zero error."""
    cfg = SimConfig(ring=z4, n=6, k=6, trials=60, seed=0, chain=source_chain)
    res = run_single_source_sim(cfg)
    assert sorted(res.coset_sizes) == [1]
    assert res.error_prob == 0.0


# (ring, alphabet, largest n): the word count stays at most 4096
_TABLE_CASES = [
    (make_modular_ring(4), [0, 1, 2, 3], 6),
    (make_triangular_ring(2), [0, 1, 2, 3], 6),
    (make_modular_ring(4), [0, 1, 3], 6),
    (upper_triangular_f2(), list(range(8)), 4),
]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_word_tables_match_definitions(data):
    """The prefix-recursion tables equal their definitions word by word:
    base-m digits, packed A x, and the left-to-right log-probability sum
    (exactly, not approximately)."""
    ring, elements, n_max = data.draw(st.sampled_from(_TABLE_CASES))
    n = data.draw(st.integers(1, n_max))
    k = data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.integers(0, ring.order - 1), min_size=k * n, max_size=k * n))
    a = RingMatrix(ring, np.reshape(entries, (k, n)))
    m = len(elements)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    P = rng.dirichlet(np.ones(m), size=m)
    P[rng.random((m, m)) < 0.2] = 0.0  # zero transitions give -inf terms
    P[:, 0] += P.sum(axis=1) == 0
    chain = MarkovChain(P / P.sum(axis=1, keepdims=True))
    init = rng.dirichlet(np.ones(m))

    space = SequenceSpace(ring, elements, n)
    keys = space.encode_keys(a)
    lp = space.log_probs(chain, init)
    with np.errstate(divide="ignore"):
        l_init, l_p = np.log2(init), np.log2(chain.P)
    assert space.count == m**n == len(keys) == len(lp)
    for i in range(space.count):
        digits = [(i // m ** (n - 1 - j)) % m for j in range(n)]
        assert space.digits[i].tolist() == digits
        word = [elements[d] for d in digits]
        assert keys[i] == space.codeword_key(apply_linear_map(a, word))
        total = l_init[digits[0]]
        for s, t in zip(digits, digits[1:]):
            total += l_p[s, t]
        assert lp[i] == total


_LINEAR_RINGS = [
    make_modular_ring(4),
    make_triangular_ring(2),
    make_product_ring(make_modular_ring(2), make_modular_ring(4)),
    upper_triangular_f2(),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_apply_linear_map_tables(data):
    """A (B, n) table of words maps row by row as a one-word reference
    loop, and A(x + y) = Ax + Ay with the sums taken through ring.add
    (also on the non-commutative rings)."""
    ring = data.draw(st.sampled_from(_LINEAR_RINGS))
    k, n, b = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))

    def table(rows, cols):
        cells = st.lists(st.integers(0, ring.order - 1), min_size=rows * cols, max_size=rows * cols)
        return np.array(data.draw(cells), dtype=np.int64).reshape(rows, cols)

    a = RingMatrix(ring, table(k, n))
    x, y = table(b, n), table(b, n)

    def one_word(word):
        out = []
        for i in range(k):
            acc = ring.zero
            for j in range(n):
                acc = int(ring.add[acc, ring.mul[a.entries[i, j], word[j]]])
            out.append(acc)
        return out

    ax = apply_linear_map(a, x)
    assert ax.shape == (b, k)
    assert ax.tolist() == [one_word(w) for w in x]
    assert np.array_equal(apply_linear_map(a, ring.add[x, y]),
                          ring.add[ax, apply_linear_map(a, y)])


@pytest.mark.parametrize("k,n,dtype", [(1, 8, np.uint8), (4, 8, np.uint8), (9, 9, np.uint32)])
def test_coset_sort_matches_int64_stable_argsort(z4, k, n, dtype):
    """Sorting the keys at their narrowest width gives the permutation of
    the stable sort of the int64 keys."""
    a = random_linear_map(z4, k, n, np.random.default_rng(k))
    index = _CosetIndex(SequenceSpace(z4, range(4), n), a)
    assert np.min_scalar_type(4**k - 1) == dtype
    assert np.array_equal(index.order, np.argsort(index.keys, kind="stable"))
    assert np.array_equal(index.coset_keys, np.unique(index.keys))


def test_word_tables_peak_memory(z4, source_chain):
    """Building and deciding over Z4 words at n=9 stays under 64 bytes a
    word at peak: no count x n int64 temporaries."""
    import tracemalloc

    a = random_linear_map(z4, 3, 9, np.random.default_rng(0))
    tracemalloc.start()
    try:
        space = SequenceSpace(z4, range(4), 9)
        index = _CosetIndex(space, a)
        index.decide(space.log_probs(source_chain))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * space.count


def test_sequence_space_refuses_wide_alphabet(z4):
    with pytest.raises(ValueError):
        SequenceSpace(make_modular_ring(200), range(200), 2)


def _random_chain(rng, m, uniform):
    """A uniform chain, or a random one with zero transitions kept
    irreducible by the cycle i -> i + 1."""
    if uniform:
        return MarkovChain(np.full((m, m), 1.0 / m))
    P = rng.dirichlet(np.ones(m), size=m)
    P[rng.random((m, m)) < 0.4] = 0.0
    P[np.arange(m), (np.arange(m) + 1) % m] += 0.1
    return MarkovChain(P / P.sum(axis=1, keepdims=True))


def _check_trellis(a, elements, chain):
    """The trellis against ``_CosetIndex.decide`` on every syndrome key:
    coset keys and sizes, best log-probability bit for bit, winner word
    and tie flag."""
    space = SequenceSpace(a.ring, elements, a.cols)
    index = _CosetIndex(space, a)
    best, winner, hits = index.decide(space.log_probs(chain))
    trellis = _Trellis(a, elements)
    assert np.array_equal(trellis.keys, index.coset_keys)
    assert np.array_equal(trellis.sizes, index.sizes)
    got_best, got_winner, tie = trellis.decide(chain, trellis.coset_of(index.coset_keys))
    assert got_best.tobytes() == best.tobytes()
    assert np.array_equal(got_winner, space.digits[winner])
    assert np.array_equal(tie, hits > 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trellis_matches_coset_index(data):
    """Random rings (non-commutative and a non-prime field included),
    subset alphabets, chains with zero transitions or all words tied, and
    k from 1 to n + 2."""
    ring = data.draw(st.sampled_from([make_modular_ring(4), gf4(), upper_triangular_f2(),
                                      make_product_ring(make_modular_ring(2),
                                                        make_modular_ring(4))]))
    m = data.draw(st.integers(2, min(ring.order, 5)))
    elements = sorted(data.draw(st.lists(st.integers(0, ring.order - 1), min_size=m,
                                         max_size=m, unique=True)))
    n = data.draw(st.integers(1, {2: 10, 3: 7, 4: 6, 5: 5}[m]))
    k = data.draw(st.integers(1, n + 2))
    entries = data.draw(st.lists(st.integers(0, ring.order - 1), min_size=k * n, max_size=k * n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chain = _random_chain(rng, m, data.draw(st.booleans()))
    _check_trellis(RingMatrix(ring, np.reshape(entries, (k, n))), elements, chain)


def test_trellis_all_tied_worst_case(z4):
    """The uniform 4-state chain at n = 9, k = 1: every word of every coset
    ties.  The trellis decides all four cosets within the word tables'
    64 bytes a word."""
    import tracemalloc

    uniform = MarkovChain(np.full((4, 4), 0.25))
    a = random_linear_map(z4, 1, 9, np.random.default_rng(0))
    _check_trellis(a, range(4), uniform)
    tracemalloc.start()
    try:
        trellis = _Trellis(a, range(4))
        _, _, tie = trellis.decide(uniform, np.arange(len(trellis.keys)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tie.all()
    assert peak < 64 * 4**9


@pytest.mark.parametrize("gap,tied", [(5e-13, True), (2e-12, False)])
def test_trellis_near_tie(z2, gap, tied):
    """Words 00 and 11 share a coset of x_1 + x_2 over Z2, and their
    log-probabilities differ by log2((1/2 + d) / (1/2 - d)) ~ gap: a tie
    within 1e-12, not beyond."""
    d = gap * np.log(2) / 4
    chain = MarkovChain([[0.5, 0.5], [0.5 + d, 0.5 - d]])
    a = RingMatrix(z2, [[1, 1]])
    lp = SequenceSpace(z2, range(2), 2).log_probs(chain)
    assert 0.9 * gap < lp[0] - lp[3] < 1.1 * gap
    _check_trellis(a, range(2), chain)
    assert ml_decode(a, [0], chain)[1] == tied


def test_ml_decode_zero_probability_coset(z4):
    """A coset whose every word has probability 0 decodes to its first
    word, flagged as a tie when it holds another; a lone word is not."""
    P = np.full((4, 4), 0.25)
    P[1] = [0.5, 0.0, 0.25, 0.25]  # 1 -> 1 never happens
    chain = MarkovChain(P)
    a = RingMatrix(z4, [[1, 0, 0], [0, 1, 0]])  # fixes x_1, x_2
    word, tie = ml_decode(a, [1, 1], chain)
    assert word.tolist() == [1, 1, 0] and tie
    word, tie = ml_decode(RingMatrix(z4, np.eye(3, dtype=int)), [1, 1, 2], chain)
    assert word.tolist() == [1, 1, 2] and not tie


def test_ml_decode_unreachable_syndrome(z4, source_chain):
    """A syndrome no word has gives (None, False): outside the image of A,
    or outside what a subset alphabet reaches."""
    assert ml_decode(RingMatrix(z4, [[2, 2, 0]]), [1], source_chain) == (None, False)
    three = MarkovChain(np.full((3, 3), 1 / 3))
    word, _ = ml_decode(RingMatrix(z4, [[1, 1]]), [3], three, elements=[0, 1, 2])
    assert word.tolist() == [1, 2]
    assert ml_decode(RingMatrix(z4, np.eye(2, dtype=int)), [3, 0], three,
                     elements=[0, 1, 2]) == (None, False)


def _table_run(cfg):
    """The trial loop decided over the whole |X|^n word table: every coset
    scored by ``_CosetIndex.decide`` (log-probabilities for ML, 0 on the
    typical words and -inf elsewhere for the typical-set decoder)."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    a = random_linear_map(cfg.ring, cfg.k, cfg.n, np.random.default_rng(seeds[0]))
    if cfg.chain is not None:
        elements = list(range(cfg.ring.order))
        model, source, h = SumProcess("lumped", elements, elements, chain=cfg.chain), cfg.chain, elements
    else:
        model = _decode_model(cfg)
        source = cfg.joint if cfg.joint is not None else cfg.schedule
        h = [cfg.presentation.h.get(int(e)) for e in model.elements]
    space = SequenceSpace(cfg.ring, model.elements, cfg.n)
    index = _CosetIndex(space, a)
    if cfg.decoder == "ml":
        score, right, several = space.log_probs(model.chain), "unique_ml", "tie"
    else:
        dec = TypicalSetDecoder(cfg.ring, model.chain, cfg.n, cfg.eps, model.elements)
        score = np.full(space.count, -np.inf)
        score[space.index_of(dec.typical_digits)] = 0.0
        right, several = "typical_ok", "ambiguous"
    best, winner, hits = index.decide(score)
    digit_of = {e: d for d, e in enumerate(model.elements)}
    h_class = np.array([h.index(v) for v in h])
    paths = _sample_paths(source, cfg.trials, cfg.n, np.random.default_rng(seeds[1]))
    digits = np.array([digit_of[e] for e in model.labeling])[paths]
    c = index.coset_of(index.keys[space.index_of(digits)])
    outcomes = np.select(
        [best[c] == -np.inf, hits[c] > 1,
         (h_class[space.digits[winner[c]]] == h_class[digits]).all(axis=1)],
        ["atypical", several, right], "wrong").tolist()
    sizes = index.sizes[c].tolist()
    modes = dict.fromkeys(("unique_ml", "tie", "wrong", "atypical", "ambiguous", "typical_ok"), 0)
    modes.update(Counter(outcomes))
    errors = cfg.trials - modes[right]
    p = errors / cfg.trials
    computing = cfg.chain is None
    return {
        "trials": cfg.trials, "errors": errors, "ties": modes["tie"], "error_prob": p,
        "stderr": float(np.sqrt(p * (1 - p) / cfg.trials)),
        "coset_sizes": {str(k): v for k, v in sorted(Counter(sizes).items())},
        "decode_modes": modes, "identity_checked": cfg.trials if computing else 0,
        "identity_failures": 0,
    }, list(zip(range(cfg.trials), outcomes, sizes))


def _oracle_configs():
    z4, chain = make_modular_ring(4), reference.single_source_chain()
    computing = dict(ring=z4, n=8, k=3, trials=400, function=reference.target_function(),
                     presentation=reference.presentation_z4())
    return {
        "n10k1": SimConfig(ring=z4, n=10, k=1, trials=400, seed=1, chain=chain),
        "n10k4": SimConfig(ring=z4, n=10, k=4, trials=400, seed=1, chain=chain),
        "n11k4": SimConfig(ring=z4, n=11, k=4, trials=20, seed=2, chain=chain),
        "case3": SimConfig(**computing, seed=3, joint=reference.joint_chain()),
        "case4": SimConfig(**computing, seed=4, schedule=reference.alternating_schedule()),
        "typical": SimConfig(ring=z4, n=10, k=2, trials=200, seed=5, chain=chain,
                             decoder="typicality", eps=0.2),
        "typical_pairs": SimConfig(ring=z4, n=10, k=1, trials=100, seed=2, chain=chain,
                                   decoder="typicality", eps=0.3),
        "typical_empty": SimConfig(ring=z4, n=8, k=2, trials=50, seed=6, chain=chain,
                                   decoder="typicality", eps=0.01),
    }


@pytest.mark.parametrize("name", list(_oracle_configs()))
def test_sim_matches_table_oracle(name):
    """The benchmark's five ML configs and its typical-set config, plus one
    whose cosets hold two typical words each and one with an empty typical
    set, give the seeded report and trial rows of the table decoder
    exactly."""
    cfg = _oracle_configs()[name]
    cfg.keep_trials = True
    run = run_single_source_sim if cfg.chain is not None else run_computing_sim
    res = run(cfg)
    expected, rows = _table_run(cfg)
    assert res.to_dict() == expected
    assert res.trial_rows == rows
    if name == "typical_pairs":
        assert expected["decode_modes"]["ambiguous"] > 0
    if name == "typical_empty":
        assert expected["decode_modes"]["atypical"] == cfg.trials


def test_coset_sizes_past_int64(z2):
    """With the budget lifted, coset sizes stay exact past 2^63 words: a
    binary source at n = 64 with one check splits 2^64 words in two."""
    chain = MarkovChain([[0.9, 0.1], [0.2, 0.8]])
    cfg = SimConfig(ring=z2, n=64, k=1, trials=20, seed=0, chain=chain, budget=2**64)
    res = run_single_source_sim(cfg)
    assert res.coset_sizes == {2**63: 20}
    assert sum(res.decode_modes.values()) == 20


@pytest.mark.parametrize("elements", [[0.5, 1.7, 2.2, 3.9], [0, 1, 1, 2], [0, 1, 2, 4],
                                      [-1, 0, 1, 2]])
def test_bad_elements_refused(z4, source_chain, elements):
    """An alphabet is distinct ring elements.  Fractions are refused, not
    truncated, and a repeat or an element outside the ring is refused,
    not read as another alphabet: by the trellis (through ``ml_decode``),
    the typical-set decoder and the word space alike."""
    with pytest.raises(ValueError, match="elements must be"):
        ml_decode(RingMatrix(z4, [[1, 2, 3]]), [1], source_chain, elements=elements)
    with pytest.raises(ValueError, match="elements must be"):
        TypicalSetDecoder(z4, source_chain, 3, 0.3, elements)
    with pytest.raises(ValueError, match="elements must be"):
        SequenceSpace(z4, elements, 3)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_trial_loop_matches_table_oracle_random(data):
    """Random rings, matrices and seeds: the trial loop's report and rows
    equal the table decoder's, on uniform chains (every coset of two or
    more words ties) and on chains with zero transitions."""
    ring = data.draw(st.sampled_from([make_modular_ring(4), gf4(), upper_triangular_f2(),
                                      make_product_ring(make_modular_ring(2),
                                                        make_modular_ring(4))]))
    n = data.draw(st.integers(2, {4: 6, 8: 4}[ring.order]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    chain = _random_chain(np.random.default_rng(seed), ring.order, data.draw(st.booleans()))
    cfg = SimConfig(ring=ring, n=n, k=data.draw(st.integers(1, n + 1)), trials=40, seed=seed,
                    chain=chain, keep_trials=True)
    res = run_single_source_sim(cfg)
    expected, rows = _table_run(cfg)
    assert res.to_dict() == expected
    assert res.trial_rows == rows


def test_searches_only_tied_and_probability_zero_cosets(z4, monkeypatch):
    """The trial loop reads the top-2 table and runs no lexicographic
    search, even when every trial ties; ``decide`` runs one search per
    tied or probability-0 coset, however often it is asked for, and none
    for the others."""
    searched = []
    search = _Trellis._search

    def counted(self, *args):
        searched.append(args)
        return search(self, *args)

    monkeypatch.setattr(_Trellis, "_search", counted)
    uniform = MarkovChain(np.full((4, 4), 0.25))
    res = run_single_source_sim(SimConfig(ring=z4, n=6, k=2, trials=50, seed=0, chain=uniform))
    assert res.ties == 50 and searched == []
    # steps of +1 or +2 only, evenly split: many words of probability 0,
    # and exact ties among the others
    skip = MarkovChain([[0.0 if (j - i) % 4 not in (1, 2) else 0.5 for j in range(4)]
                        for i in range(4)])
    a = RingMatrix(z4, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 2], [0, 0, 1, 0, 3]])
    space = SequenceSpace(z4, range(4), 5)
    for chain in (uniform, skip):
        best, _, hits = _CosetIndex(space, a).decide(space.log_probs(chain))
        trellis = _Trellis(a, range(4))
        searched.clear()
        trellis.decide(chain, np.tile(np.arange(len(trellis.keys)), 2))
        assert len(searched) == ((hits > 1) | (best == -np.inf)).sum() > 0
    assert (best == -np.inf).any() and ((hits > 1) & (best > -np.inf)).any()
    assert len(searched) < len(best)
