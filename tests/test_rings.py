import numpy as np
import pytest
from hypothesis import given, settings

from conftest import gf4, small_rings
from exhaustive import brute_force_left_ideals
from ringcoding import (
    LeftIdeal,
    apply_linear_map,
    enumerate_left_ideals,
    make_modular_ring,
    make_product_ring,
    make_triangular_ring,
    quotient_partition,
    random_linear_map,
    verify_ring_axioms,
)
from ringcoding.rings import FiniteRing, RingMatrix


def test_modular_ring_characteristics():
    assert make_modular_ring(4).characteristic == 4
    assert make_modular_ring(2).is_field()
    z6 = make_modular_ring(6)
    assert z6.characteristic == 6
    acc = z6.zero
    for _ in range(6):
        acc = int(z6.add[acc, z6.one])
    assert acc == z6.zero


def test_modular_ring_rejects_small_q():
    with pytest.raises(ValueError):
        make_modular_ring(1)


def test_triangular_ring_basics(ml2):
    assert ml2.order == 4
    assert ml2.characteristic == 2
    assert not ml2.is_field()
    two = ml2.add[ml2.one, ml2.one]
    assert two == ml2.zero
    ml3 = make_triangular_ring(3)
    assert ml3.order == 9
    assert ml3.characteristic == 3
    assert verify_ring_axioms(ml3).ok


def test_triangular_requires_prime():
    with pytest.raises(ValueError):
        make_triangular_ring(4)


def test_triangular_unique_proper_ideal(ml2):
    proper = [i for i in enumerate_left_ideals(ml2) if 1 < i.order < ml2.order]
    assert len(proper) == 1
    assert proper[0].order == 2


def test_product_ring_characteristic():
    z2, z3 = make_modular_ring(2), make_modular_ring(3)
    z2z2 = make_product_ring(z2, z2)
    assert z2z2.order == 4 and z2z2.characteristic == 2
    z2z3 = make_product_ring(z2, z3)
    assert z2z3.characteristic == 6
    # lcm check by repeated addition of one
    acc, steps = z2z3.one, 1
    while acc != z2z3.zero:
        acc = int(z2z3.add[acc, z2z3.one])
        steps += 1
    assert steps == 6
    big = make_product_ring(make_triangular_ring(2), z3)
    assert big.order == 12
    assert verify_ring_axioms(big).ok


def test_axioms_pass_on_reference_rings(z4, ml2):
    assert verify_ring_axioms(z4).ok
    assert verify_ring_axioms(ml2).ok


def test_axioms_catch_broken_distributivity(z4):
    mul = z4.mul.copy()
    mul[2, 3] = 1  # 2*3 should be 2
    broken = type(z4)(z4.labels, z4.add, mul, z4.zero, z4.one)
    report = verify_ring_axioms(broken)
    assert not report.ok
    assert not (report.distributive_left and report.distributive_right)


def test_ideal_enumeration_matches_brute_force(z4, z6, ml2, z2xz3):
    for ring in (z4, z6, ml2, z2xz3):
        fast = [i.members for i in enumerate_left_ideals(ring)]
        slow = [i.members for i in brute_force_left_ideals(ring)]
        assert fast == slow


@settings(max_examples=40, deadline=None)
@given(small_rings())
def test_ideal_enumeration_matches_brute_force_on_random_rings(ring):
    assert verify_ring_axioms(ring).ok
    fast = [i.members for i in enumerate_left_ideals(ring)]
    assert fast == [i.members for i in brute_force_left_ideals(ring)]


def test_gf4_table_ring_is_a_field():
    ring = gf4()
    assert verify_ring_axioms(ring).ok
    assert [i.members for i in enumerate_left_ideals(ring)] == [(0,), (0, 1, 2, 3)]


def test_field_has_only_trivial_ideals(z5):
    assert [i.members for i in enumerate_left_ideals(z5)] == [
        (0,),
        (0, 1, 2, 3, 4),
    ]


def test_z4_and_z6_ideals(z4, z6):
    assert [i.members for i in enumerate_left_ideals(z4)] == [(0,), (0, 2), (0, 1, 2, 3)]
    assert [i.members for i in enumerate_left_ideals(z6)] == [
        (0,),
        (0, 3),
        (0, 2, 4),
        (0, 1, 2, 3, 4, 5),
    ]


def test_quotient_partitions(z4):
    ideals = {i.members: i for i in enumerate_left_ideals(z4)}
    assert quotient_partition(ideals[(0, 2)]) == ((0, 2), (1, 3))
    assert quotient_partition(ideals[(0, 1, 2, 3)]) == ((0, 1, 2, 3),)
    singletons = quotient_partition(ideals[(0,)])
    assert singletons == ((0,), (1,), (2,), (3,))


def test_cosets_partition_evenly(z6, ml2):
    for ring in (z6, ml2):
        for ideal in enumerate_left_ideals(ring):
            cosets = quotient_partition(ideal)
            assert len(cosets) == ring.order // ideal.order
            assert all(len(c) == ideal.order for c in cosets)
            flat = sorted(x for c in cosets for x in c)
            assert flat == list(range(ring.order))


def test_ideal_must_contain_zero(z4):
    with pytest.raises(ValueError):
        LeftIdeal(z4, (1, 3))


def test_random_linear_map_deterministic(z4):
    a = random_linear_map(z4, 2, 3, 123)
    b = random_linear_map(z4, 2, 3, 123)
    assert np.array_equal(a.entries, b.entries)
    c = random_linear_map(z4, 2, 3, 124)
    assert not np.array_equal(a.entries, c.entries)


def test_random_linear_map_uniformity(z4):
    draws = random_linear_map(z4, 100, 1000, 7).entries.reshape(-1)
    counts = np.bincount(draws, minlength=4)
    expected = len(draws) / 4
    sigma = np.sqrt(len(draws) * 0.25 * 0.75)
    assert np.abs(counts - expected).max() < 3 * sigma


@pytest.mark.parametrize("k, n", [(2.5, 8), (True, 8), (2, 8.0), ("2", 8)],
                         ids=["k2.5", "kTrue", "n8.0", "kstring"])
def test_random_linear_map_refuses_non_integer_sizes(z4, k, n):
    """Matrix sizes are integers: 2.5 is not truncated and True is not
    read as 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        random_linear_map(z4, k, n, 1)


def test_random_linear_map_binary(z2):
    a = random_linear_map(z2, 1, 1, 0)
    assert a.entries[0, 0] in (0, 1)


def test_apply_linear_map_special_matrices(z4):
    eye = RingMatrix(z4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    x = np.array([2, 3, 1])
    assert np.array_equal(apply_linear_map(eye, x), x)
    zero = RingMatrix(z4, np.zeros((2, 3), dtype=int))
    assert np.array_equal(apply_linear_map(zero, x), [0, 0])


def test_apply_linear_map_hand_example(z4):
    a = RingMatrix(z4, [[1, 2], [3, 1]])
    y = apply_linear_map(a, np.array([2, 3]))
    assert np.array_equal(y, [0, 1])  # (2+6, 6+3) mod 4


def test_apply_linear_map_dimension_mismatch(z4):
    a = RingMatrix(z4, [[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        apply_linear_map(a, np.array([1, 2, 3]))


def test_apply_linear_map_refuses_out_of_range_words(z4):
    """-1 must not wrap to the last element, nor |R| hit a bare IndexError."""
    a = RingMatrix(z4, [[1, 2, 3]])
    for bad in ([-1, 0, 0], [4, 0, 0], [[0, 0, 0], [0, 9, 0]]):
        with pytest.raises(ValueError, match="out of range"):
            apply_linear_map(a, bad)


def test_apply_linear_map_refuses_fractional_words(z4):
    """A fractional entry is refused, not truncated to an element."""
    a = RingMatrix(z4, [[1, 2, 3]])
    for bad in ([1.7, 0.2, 2.9], [[0, 0, 0], [0, 0.5, 0]]):
        with pytest.raises(ValueError, match="integers"):
            apply_linear_map(a, bad)
    with pytest.raises(ValueError, match="integers"):
        RingMatrix(z4, [[1.5, 2.2]])


def test_left_linearity_additivity(z4, ml2, z2xz3):
    rng = np.random.default_rng(5)
    for ring in (z4, ml2, z2xz3):
        a = random_linear_map(ring, 3, 4, rng)
        for _ in range(25):
            x = rng.integers(0, ring.order, 4)
            y = rng.integers(0, ring.order, 4)
            xy = ring.add[x, y]
            lhs = apply_linear_map(a, xy)
            rhs = ring.add[apply_linear_map(a, x), apply_linear_map(a, y)]
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("zero, one, message", [
    (0.5, 1, "zero must be an integer"), (0, 1.0, "one must be an integer"),
    (7, 1, "must be elements in 0..3"), (0, -1, "must be elements in 0..3"),
])
def test_ring_refuses_bad_identities(z4, zero, one, message):
    """``zero`` and ``one`` are ring elements: a fraction is refused, not
    truncated, and an index outside the ring is refused, not read later."""
    with pytest.raises(ValueError, match=message):
        FiniteRing(z4.labels, z4.add, z4.mul, zero, one)
