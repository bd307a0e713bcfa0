import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_rings
from ringcoding import (
    FunctionSpec,
    MarkovChain,
    Presentation,
    canonical_presentation,
    check_burke_form,
    conditional_entropy,
    induced_sum_labeling,
    injectivity_obstruction_check,
    invariant_distribution,
    is_lumpable,
    lump,
    make_modular_ring,
    make_product_ring,
    sum_process_chain,
    verify_presentation,
)
from ringcoding import reference


@pytest.fixture(scope="module")
def g3():
    return reference.target_function()


def test_function_spec_lookup(g3):
    assert g3(0, 0, 0) == 0
    assert g3(1, 1, 1) == 2
    assert g3(0, 0, 1) == 3


@pytest.mark.parametrize("domains, codomain, message", [
    ([[0, 0], [0, 1]], [0, 1], "domain repeats a letter"),
    ([[0, 1], [0, 1]], [1, 1], "codomain repeats a value"),
])
def test_function_spec_refuses_repeats(domains, codomain, message):
    """A repeated letter would make g(0, 0) read the second copy's row; a
    repeated codomain value would give one output two indices."""
    with pytest.raises(ValueError, match=message):
        FunctionSpec(domains, codomain, [[0, 1], [1, 0]])


def test_min_presentation_over_z3():
    # min{x, y} on {0,1}^2 written as h(x + y) over Z3 with h = s - s^2
    gmin = FunctionSpec.from_callable([[0, 1], [0, 1]], [0, 1], min)
    z3 = make_modular_ring(3)
    pres = Presentation(z3, [[0, 1], [0, 1]], {0: 0, 1: 0, 2: 1})
    ok, witness = verify_presentation(gmin, pres)
    assert ok and witness is None


def test_reference_presentations_verify(g3):
    assert verify_presentation(g3, reference.presentation_z4()) == (True, None)
    assert verify_presentation(g3, reference.presentation_z5()) == (True, None)


def test_published_z5_form_verifies(g3):
    # same sum written with coefficients (1, 2, 4) and h folding 4 onto 3
    z5 = make_modular_ring(5)
    pres = Presentation(z5, [[0, 1], [0, 2], [0, 4]], {0: 0, 1: 1, 2: 2, 3: 3, 4: 3})
    assert verify_presentation(g3, pres) == (True, None)
    assert injectivity_obstruction_check(g3, pres) is False


def test_verify_presentation_counterexample(g3):
    z4 = make_modular_ring(4)
    broken = Presentation(z4, [[0, 1], [0, 2], [0, 3]], {0: 0, 1: 1, 2: 2, 3: 0})
    ok, witness = verify_presentation(g3, broken)
    assert not ok
    assert int(g3.table[tuple(witness)]) != 0


def test_canonical_presentation_single_identity():
    ident = FunctionSpec.from_callable([[0, 1]], [0, 1], lambda x: x)
    pres = canonical_presentation(ident, 2)
    assert pres.ring.order == 2
    assert verify_presentation(ident, pres) == (True, None)
    assert injectivity_obstruction_check(ident, pres) is True


def test_canonical_presentation_min():
    gmin = FunctionSpec.from_callable([[0, 1], [0, 1]], [0, 1], min)
    pres = canonical_presentation(gmin, 2)
    assert pres.ring.order == 4  # (Z2)^2
    assert verify_presentation(gmin, pres) == (True, None)


def test_canonical_presentation_reference_function(g3):
    pres = canonical_presentation(g3, 2)
    assert pres.ring.order == 8  # (Z2)^3
    assert verify_presentation(g3, pres) == (True, None)


def test_canonical_presentation_prime_too_small():
    g = FunctionSpec.from_callable([[0, 1, 2]], [0, 1, 2], lambda x: x)
    with pytest.raises(ValueError):
        canonical_presentation(g, 2)


def test_induced_sum_labeling_patterns(joint8, g3):
    labels = induced_sum_labeling(joint8, reference.presentation_z4(), domains=g3.domains)
    assert labels == [0, 3, 2, 1, 1, 0, 3, 2]
    labels5 = induced_sum_labeling(joint8, reference.presentation_z5(), domains=g3.domains)
    assert sorted(set(labels5)) == [0, 1, 2, 3, 4]


def test_induced_sum_labeling_single_source():
    ident = FunctionSpec.from_callable([[0, 1]], [0, 1], lambda x: x)
    pres = canonical_presentation(ident, 2)
    chain = MarkovChain([[0.5, 0.5], [0.4, 0.6]], states=[(0,), (1,)])
    assert induced_sum_labeling(chain, pres, domains=ident.domains) == [0, 1]


def test_sum_process_iid_rows_always_lumps(g3):
    row = np.full(8, 1 / 8)
    joint = MarkovChain(np.tile(row, (8, 1)), states=reference.joint_chain().states)
    assert check_burke_form(joint).c1 == pytest.approx(1.0)
    sp = sum_process_chain(joint, reference.presentation_z4(), domains=g3.domains)
    assert sp.mode == "lumped" and sp.burke


def test_sum_process_reference_lump(joint8, value_chain, g3):
    sp = sum_process_chain(joint8, reference.presentation_z4(), domains=g3.domains)
    assert sp.mode == "lumped"
    perm = [sp.chain.states.index(s) for s in value_chain.states]
    assert np.abs(sp.chain.P[np.ix_(perm, perm)] - value_chain.P).max() < 2e-3


def test_sum_process_z5_entropy(joint8, g3):
    sp = sum_process_chain(joint8, reference.presentation_z5(), domains=g3.domains)
    h = conditional_entropy(sp.chain.P, invariant_distribution(sp.chain))
    assert abs(h - 0.4623) < 5e-3


def test_sum_process_bounded_mode(g3):
    # a joint chain that is not lumpable for the sum labeling
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
    pres = reference.presentation_z4()
    labels = induced_sum_labeling(joint, pres, domains=g3.domains)
    assert not is_lumpable(joint, labels)
    sp = sum_process_chain(joint, pres, depth=5, domains=g3.domains)
    assert sp.mode == "bounded"
    assert sp.bounds.lower <= sp.bounds.upper


def test_burke_implies_every_labeling_lumpable(joint8):
    """With the identical-rows + identity form, every labeling lumps."""
    assert check_burke_form(joint8, tol=1e-6) is not None
    rng = np.random.default_rng(0)
    for _ in range(25):
        labels = rng.integers(0, 3, joint8.n).tolist()
        assert is_lumpable(joint8, labels, tol=1e-6)


def test_lumped_entropy_never_exceeds_joint(joint8, g3):
    pi = invariant_distribution(joint8)
    h_joint = conditional_entropy(joint8.P, pi)
    for pres in (reference.presentation_z4(), reference.presentation_z5()):
        sp = sum_process_chain(joint8, pres, domains=g3.domains)
        h = conditional_entropy(sp.chain.P, invariant_distribution(sp.chain))
        assert h <= h_joint + 1e-9


def test_injectivity_reference_cases(g3):
    assert injectivity_obstruction_check(g3, reference.presentation_z4()) is True
    assert injectivity_obstruction_check(g3, reference.presentation_z5()) is False


# --- the sum table against per-tuple loops ---------------------------------------


def loop_sums(p, shape):
    """sum_t k_t(x_t) per argument tuple, folded one tuple at a time."""
    if len(shape) != p.arity:
        raise ValueError("presentation arity does not match the function")
    for t, m in enumerate(p.maps):
        if len(m) != shape[t]:
            raise ValueError(f"k_{t} does not cover alphabet {t}")
    sums = {}
    for combo in product(*(range(m) for m in shape)):
        acc = p.ring.zero
        for t, i in enumerate(combo):
            acc = int(p.ring.add[acc, p.maps[t][i]])
        sums[combo] = acc
    return sums


def loop_verify(g, p):
    for combo, z in loop_sums(p, g.table.shape).items():
        if z not in p.h or p.h[z] != int(g.table[tuple(combo)]):
            return False, combo
    return True, None


def loop_injective(g, p):
    seen = {}
    for z in loop_sums(p, g.table.shape).values():
        if z not in p.h:
            raise ValueError("h does not cover the reachable sum set")
        seen[z] = p.h[z]
    return len(set(seen.values())) == len(seen)


def loop_canonical(g, prime):
    sizes = [len(d) for d in g.domains]
    if prime < max(sizes):
        raise ValueError(f"prime {prime} smaller than the largest alphabet")
    s = g.arity
    ring = make_modular_ring(prime)
    if s > 1:
        ring = make_product_ring(*[make_modular_ring(prime) for _ in range(s)])
    weights = [prime ** (s - 1 - t) for t in range(s)]
    h = {sum(c * w for c, w in zip(combo, weights)): int(g.table[tuple(combo)])
         for combo in product(*(range(m) for m in sizes))}
    return ring.description, [[v * weights[t] for v in range(m)] for t, m in enumerate(sizes)], h


def loop_labeling(joint, p, domains):
    labels = []
    for state in joint.states:
        if not isinstance(state, (tuple, list)) or len(state) != p.arity:
            raise ValueError(f"state {state!r} is not an {p.arity}-tuple")
        acc = p.ring.zero
        for t, letter in enumerate(state):
            i = domains[t].index(letter) if letter in domains[t] else -1
            if not 0 <= i < len(p.maps[t]):
                raise ValueError(f"letter {letter!r} outside alphabet {t}")
            acc = int(p.ring.add[acc, p.maps[t][i]])
        labels.append(acc)
    return labels


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "refused", str(exc)


@st.composite
def presentation_cases(draw):
    """A random ring, function and presentation: h partial or matching g,
    and now and then an arity or a map length that does not fit g."""
    ring = draw(small_rings())
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    msizes = list(sizes)
    shape_fault = draw(st.sampled_from(["none"] * 6 + ["arity", "length"]))
    if shape_fault == "arity":
        msizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda m: len(m) != len(sizes)))
    elif shape_fault == "length":
        t = draw(st.integers(0, len(sizes) - 1))
        msizes[t] = draw(st.integers(1, 4).filter(lambda m: m != sizes[t]))
    maps = [draw(st.lists(st.integers(0, ring.order - 1), min_size=m, max_size=m))
            for m in msizes]
    codomain = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(0, codomain - 1), min_size=ring.order,
                           max_size=ring.order))
    partial = draw(st.booleans())
    h = {z: v for z, v in enumerate(values) if not (partial and draw(st.booleans()))}
    p = Presentation(ring, maps, h)
    if shape_fault == "none" and draw(st.booleans()):
        # g = h(sum) wherever h is defined, so verification can pass
        sums = loop_sums(p, sizes)
        table = np.array([h.get(sums[c], 0) for c in product(*(range(m) for m in sizes))])
    else:
        table = np.array(draw(st.lists(st.integers(0, codomain - 1),
                                       min_size=math.prod(sizes), max_size=math.prod(sizes))))
    domains = [[f"x{t}{i}" for i in range(m)] for t, m in enumerate(sizes)]
    g = FunctionSpec(domains, range(codomain), table.reshape(sizes))
    return g, p


@settings(max_examples=150, deadline=None)
@given(presentation_cases(), st.sampled_from([2, 3, 5]))
def test_sum_table_matches_tuple_loops(case, prime):
    """``Presentation.sums`` and the four functions built on it give the
    per-tuple loops' answers, refusal messages included."""
    g, p = case
    shape = g.table.shape
    got = outcome(p.sums, shape)
    expected = outcome(loop_sums, p, shape)
    if expected[0] == "ok":
        assert got[0] == "ok" and got[1].shape == shape
        assert {c: int(got[1][c]) for c in np.ndindex(*shape)} == expected[1]
        assert [int(z) for z in got[1].ravel()] == list(expected[1].values())  # C order
    else:
        assert got == expected
    assert outcome(verify_presentation, g, p) == outcome(loop_verify, g, p)
    assert outcome(injectivity_obstruction_check, g, p) == outcome(loop_injective, g, p)
    canon = outcome(canonical_presentation, g, prime)
    if canon[0] == "ok":
        c = canon[1]
        canon = "ok", (c.ring.description, [m.tolist() for m in c.maps], c.h)
        assert list(c.h) == list(loop_canonical(g, prime)[2])  # product order
    assert canon == outcome(loop_canonical, g, prime)


@settings(max_examples=100, deadline=None)
@given(presentation_cases(), st.data())
def test_labeling_matches_tuple_loop(case, data):
    """``induced_sum_labeling`` gives the per-state loop's labels, and
    refuses a state letter outside its alphabet with the same message."""
    g, p = case
    states = [tuple(g.domains[t][i] for t, i in enumerate(combo))
              for combo in np.ndindex(*g.table.shape)]
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(states) - 1))
        t = data.draw(st.integers(0, g.arity - 1))
        states[j] = states[j][:t] + (data.draw(st.sampled_from([2, "stray"])),) + states[j][t + 1:]
    joint = MarkovChain(np.full((len(states), len(states)), 1 / len(states)), states=states)
    assert (outcome(induced_sum_labeling, joint, p, g.domains)
            == outcome(loop_labeling, joint, p, g.domains))


def test_non_integer_letters_refused():
    """Without domains a letter is an alphabet index: a float is refused,
    not truncated, and a digit string is refused, not parsed.  A numpy
    integer is an index."""
    import re

    P = np.full((2, 2), 0.5)
    for letter in (1.7, "1"):
        joint = MarkovChain(P, states=[(letter, 0, 0), (0, 0, 1)])
        with pytest.raises(ValueError, match=re.escape(f"letter {letter!r} outside alphabet 0")):
            induced_sum_labeling(joint, reference.presentation_z4())
    joint = MarkovChain(P, states=[(np.int64(1), 0, 0), (0, 0, 1)])
    assert induced_sum_labeling(joint, reference.presentation_z4()) == [1, 3]


def test_out_of_domain_letter_refused(joint8, g3):
    """A joint state whose letter is not in its alphabet is refused with
    ValueError naming the letter and the alphabet, not a KeyError."""
    states = list(joint8.states)
    states[1] = (0, 0, 2)
    joint = MarkovChain(joint8.P, states=states)
    with pytest.raises(ValueError, match="letter 2 outside alphabet 2"):
        induced_sum_labeling(joint, reference.presentation_z4(), domains=g3.domains)
    with pytest.raises(ValueError, match="letter 2 outside alphabet 2"):
        sum_process_chain(joint, reference.presentation_z4(), domains=g3.domains)


def test_presentation_h_refuses_non_integers(z4):
    """h is read without truncation: 2.5 or 1.9 is refused, while an
    integer or a string of integer form (a JSON object key) is kept."""
    assert Presentation(z4, [[0, 1]], {"0": 2, np.int64(1): 0}).h == {0: 2, 1: 0}
    for h in ({0: 2.5, 1: 0}, {0: 2, 1.9: 0}, {0: True}, {"1.5": 0}):
        with pytest.raises(ValueError, match="h (argument|value) must be an integer"):
            Presentation(z4, [[0, 1]], h)
