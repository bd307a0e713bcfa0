from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from ringcoding import (
    FiniteRing,
    MarkovChain,
    make_modular_ring,
    make_product_ring,
    make_triangular_ring,
)
from ringcoding import reference


@pytest.fixture(scope="session")
def z2():
    return make_modular_ring(2)


@pytest.fixture(scope="session")
def z4():
    return make_modular_ring(4)


@pytest.fixture(scope="session")
def z5():
    return make_modular_ring(5)


@pytest.fixture(scope="session")
def z6():
    return make_modular_ring(6)


@pytest.fixture(scope="session")
def ml2():
    return make_triangular_ring(2)


@pytest.fixture(scope="session")
def z2xz3():
    return make_product_ring(make_modular_ring(2), make_modular_ring(3))


@pytest.fixture(scope="session")
def source_chain():
    """The 4-state reference source on Z4."""
    return reference.single_source_chain()


@pytest.fixture(scope="session")
def joint8():
    """The 8-state joint chain of three binary sources."""
    return reference.joint_chain()


@pytest.fixture(scope="session")
def value_chain():
    """The 4-state function-value chain."""
    return reference.function_value_chain()


@pytest.fixture(scope="session")
def mixing3():
    """A fast-mixing 3-state chain with all-positive entries."""
    return MarkovChain([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])


def exact_invariant(P_rows):
    """Rational-arithmetic solve of pi P = pi, sum pi = 1 (test oracle)."""
    from fractions import Fraction

    P = [[Fraction(v) for v in row] for row in P_rows]
    n = len(P)
    # system: (P^T - I) pi = 0 with the last equation replaced by sum = 1
    A = [[P[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    A[-1] = [Fraction(1)] * n
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    # gaussian elimination with partial pivoting over the rationals
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
                b[r] -= f * b[col]
    return np.array([float(v) for v in b])


def upper_triangular_f2():
    """Upper-triangular 2x2 matrices over F2: the smallest non-commutative
    ring with identity (order 8)."""
    mats = [np.array([[a, b], [0, c]]) for a, b, c in product((0, 1), repeat=3)]
    index = {m.tobytes(): i for i, m in enumerate(mats)}
    add = [[index[((x + y) % 2).tobytes()] for y in mats] for x in mats]
    mul = [[index[((x @ y) % 2).tobytes()] for y in mats] for x in mats]
    return FiniteRing([str(m.ravel().tolist()) for m in mats], add, mul,
                      index[np.zeros((2, 2), dtype=int).tobytes()],
                      index[np.eye(2, dtype=int).tobytes()], "table ring")


def gf4():
    """GF(4) = F2[a]/(a^2 + a + 1) as a table ring; element bits are the
    coefficients of 1 and a."""
    def mul(x, y):
        p = (x if y & 1 else 0) ^ (x << 1 if y & 2 else 0)
        return p ^ 0b111 if p & 0b100 else p

    return FiniteRing(["0", "1", "a", "a+1"], [[x ^ y for y in range(4)] for x in range(4)],
                      [[mul(x, y) for y in range(4)] for x in range(4)], 0, 1, "GF4")


def small_rings():
    """Modular, product, triangular and table rings of order at most 9."""
    modular = st.integers(2, 9).map(make_modular_ring)
    products = st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]).map(
        lambda q: make_product_ring(make_modular_ring(q[0]), make_modular_ring(q[1])))
    triangular = st.sampled_from([2, 3]).map(make_triangular_ring)
    tables = st.sampled_from([gf4, upper_triangular_f2]).map(lambda make: make())
    return st.one_of(modular, products, triangular, tables)


def small_fields():
    """Prime fields up to 7 and GF(4) as a table ring."""
    return st.one_of(st.sampled_from([2, 3, 5, 7]).map(make_modular_ring), st.just(gf4()))
