"""Small finite rings: construction, left-ideal lattices, quotient partitions
and linear maps.

Elements are opaque indices ``0..order-1`` carrying display labels; all
arithmetic goes through explicit addition/multiplication tables so that
modular rings, matrix rings and product rings share one representation.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteRing",
    "LeftIdeal",
    "RingMatrix",
    "AxiomReport",
    "make_modular_ring",
    "make_triangular_ring",
    "make_product_ring",
    "verify_ring_axioms",
    "enumerate_left_ideals",
    "quotient_partition",
    "random_linear_map",
    "apply_linear_map",
]

_ORDER_BOUND = 64


def _integers(x, what: str) -> np.ndarray:
    """``x`` as an int64 array.  Non-empty input of any kind but integers
    or booleans (1.7, "1") is refused with ValueError rather than
    truncated or parsed."""
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iub":
        raise ValueError(f"{what} must be integers, not {x.dtype}")
    return x.astype(np.int64, copy=False)


def _integer(x, what: str) -> int:
    """``x`` as an int.  Anything but one integer (2.5, 8.0, "8", True) is
    refused with ValueError rather than truncated or parsed."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return int(x)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


class FiniteRing:
    """A finite ring given by full operation tables.

    Attributes:
        order: number of elements.
        labels: display label per element index.
        add, mul: ``order x order`` integer tables.
        zero, one: indices of the additive and multiplicative identities.
        characteristic: smallest m with the m-fold sum of ``one`` equal to
            ``zero`` (0 if the orbit of ``one`` never returns, i.e. the
            table is broken; ``verify_ring_axioms`` reports the breakage).
    """

    def __init__(self, labels, add, mul, zero, one, description=""):
        self.labels = [str(l) for l in labels]
        self.order = len(self.labels)
        self.add = _integers(add, "add table")
        self.mul = _integers(mul, "mul table")
        self.zero = _integer(zero, "zero")
        self.one = _integer(one, "one")
        if not (0 <= self.zero < self.order and 0 <= self.one < self.order):
            raise ValueError(f"zero and one must be elements in 0..{self.order - 1}")
        self.description = description or f"ring of order {self.order}"
        for name, table in (("add", self.add), ("mul", self.mul)):
            if table.shape != (self.order, self.order):
                raise ValueError(f"{name} table must be {self.order}x{self.order}")
            if table.min() < 0 or table.max() >= self.order:
                raise ValueError(f"{name} table has out-of-range entries")
        self.characteristic = self._characteristic()

    def _characteristic(self) -> int:
        acc = self.one
        for m in range(1, self.order + 1):
            if acc == self.zero:
                return m
            acc = int(self.add[acc, self.one])
        return 0

    def is_field(self) -> bool:
        """True iff every non-zero element has a multiplicative inverse."""
        return all(
            self.one in self.mul[a] for a in range(self.order) if a != self.zero
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteRing)
            and self.order == other.order
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
            and self.zero == other.zero
            and self.one == other.one
        )

    def __repr__(self):
        return f"FiniteRing({self.description!r}, order={self.order})"


@dataclass(frozen=True)
class LeftIdeal:
    """A left ideal, stored as a sorted tuple of element indices."""

    ring: FiniteRing
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if self.ring.zero not in self.members:
            raise ValueError("a left ideal must contain zero")

    @property
    def order(self) -> int:
        return len(self.members)

    def label(self) -> str:
        return "{" + ", ".join(self.ring.labels[i] for i in self.members) + "}"


@dataclass
class RingMatrix:
    """A k x n matrix of ring element indices (coefficients of a linear map)."""

    ring: FiniteRing
    entries: np.ndarray

    def __post_init__(self):
        self.entries = _integers(self.entries, "matrix entries")
        if self.entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        if self.entries.min() < 0 or self.entries.max() >= self.ring.order:
            raise ValueError("entries out of range for the ring")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def make_modular_ring(q: int) -> FiniteRing:
    """Integers modulo q with modular arithmetic; Char = q."""
    if q < 2:
        raise ValueError("modular ring needs q >= 2")
    idx = np.arange(q)
    add = (idx[:, None] + idx[None, :]) % q
    mul = (idx[:, None] * idx[None, :]) % q
    return FiniteRing([str(i) for i in range(q)], add, mul, 0, 1, f"Z{q}")


def make_triangular_ring(p: int) -> FiniteRing:
    """Lower-triangular 2x2 matrices [[x,0],[y,x]] over Z_p, p prime.

    Order p^2, characteristic p, exactly one proper non-trivial left ideal
    (the x = 0 slice) of order p.
    """
    if not _is_prime(p):
        raise ValueError("triangular matrix ring needs a prime p")
    elems = [(x, y) for x in range(p) for y in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    m = len(elems)
    add = np.zeros((m, m), dtype=np.int64)
    mul = np.zeros((m, m), dtype=np.int64)
    for i, (x1, y1) in enumerate(elems):
        for j, (x2, y2) in enumerate(elems):
            add[i, j] = index[((x1 + x2) % p, (y1 + y2) % p)]
            mul[i, j] = index[((x1 * x2) % p, (y1 * x2 + x1 * y2) % p)]
    labels = [f"[{x},0;{y},{x}]" for (x, y) in elems]
    return FiniteRing(labels, add, mul, index[(0, 0)], index[(1, 0)], f"ML{p}")


def make_product_ring(*factors: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations; Char = lcm of factors."""
    if len(factors) < 2:
        raise ValueError("product ring needs at least two factors")
    ring = factors[0]
    for other in factors[1:]:
        ring = _product_pair(ring, other)
    return ring


def _product_pair(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    m = a.order * b.order
    ia, ja = np.divmod(np.arange(m), b.order)
    add = a.add[np.ix_(ia, ia)] * b.order + b.add[np.ix_(ja, ja)]
    mul = a.mul[np.ix_(ia, ia)] * b.order + b.mul[np.ix_(ja, ja)]
    labels = [f"({a.labels[i]},{b.labels[j]})" for i, j in zip(ia, ja)]
    return FiniteRing(
        labels,
        add,
        mul,
        a.zero * b.order + b.zero,
        a.one * b.order + b.one,
        f"{a.description}x{b.description}",
    )


@dataclass
class AxiomReport:
    """Per-axiom pass/fail from an exhaustive scan over element triples."""

    add_associative: bool
    add_commutative: bool
    add_identity: bool
    add_inverses: bool
    mul_identity: bool
    mul_associative: bool
    distributive_left: bool
    distributive_right: bool
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self):
        names = [f.name for f in self.__dataclass_fields__.values() if f.type is bool]
        return [f"{n:<20} {'pass' if getattr(self, n) else 'FAIL'}" for n in names]


def verify_ring_axioms(ring: FiniteRing) -> AxiomReport:
    """Exhaustively check the ring axioms; failures are reported, not raised."""
    add, mul, zero, one, m = ring.add, ring.mul, ring.zero, ring.one, ring.order
    idx = np.arange(m)
    col = idx[:, None, None]
    failures = []

    def check(name, lhs, rhs):
        ok = bool(np.array_equal(lhs, rhs))
        if not ok:
            bad = np.argwhere(lhs != rhs)[0]
            failures.append((name, tuple(int(v) for v in bad)))
        return ok

    # (a+b)+c == a+(b+c), indexed [a, b, c]
    add_assoc = check("add_associative", add[add[:, :, None], idx[None, None, :]], add[col, add[None, :, :]])
    add_comm = check("add_commutative", add, add.T)
    add_ident = check("add_identity", np.stack([add[zero], add[:, zero]]), np.stack([idx, idx]))
    add_inv = all(zero in add[a] for a in range(m))
    if not add_inv:
        failures.append(("add_inverses", tuple(a for a in range(m) if zero not in add[a])[:1]))
    mul_ident = check("mul_identity", np.stack([mul[one], mul[:, one]]), np.stack([idx, idx]))
    mul_assoc = check("mul_associative", mul[mul[:, :, None], idx[None, None, :]], mul[col, mul[None, :, :]])
    # a*(b+c) == a*b + a*c
    dist_left = check("distributive_left", mul[col, add[None, :, :]], add[mul[:, :, None], mul[:, None, :]])
    # (b+c)*a == b*a + c*a
    mul_t = mul.T  # mul_t[a, b] = b*a
    dist_right = check("distributive_right", mul[add[None, :, :], col], add[mul_t[:, :, None], mul_t[:, None, :]])

    return AxiomReport(
        add_associative=add_assoc,
        add_commutative=add_comm,
        add_identity=add_ident,
        add_inverses=add_inv,
        mul_identity=mul_ident,
        mul_associative=mul_assoc,
        distributive_left=dist_left,
        distributive_right=dist_right,
        failures=failures,
    )


def principal_left_ideal(ring: FiniteRing, a: int) -> frozenset:
    """R*a; closed under addition via right distributivity, so no extra closure."""
    return frozenset(int(ring.mul[r, a]) for r in range(ring.order))


def enumerate_left_ideals(ring: FiniteRing):
    """All left ideals, sorted by cardinality then members.

    Closes the principal left ideals R*a under pairwise sums to a fixpoint;
    every left ideal is a finite sum of principal ones, so the sweep is
    complete.  The tests check it against a scan of all 2^|R| subsets
    (``brute_force_left_ideals`` in ``tests/exhaustive.py``), an oracle
    no library path needs.
    """
    if ring.order > _ORDER_BOUND:
        raise ValueError(
            f"ring order {ring.order} exceeds the enumeration bound {_ORDER_BOUND}"
        )
    principals = {principal_left_ideal(ring, a) for a in range(ring.order)}
    ideals = set(principals)
    frontier = set(principals)
    while frontier:
        fresh = set()
        for i in frontier:
            for j in principals:
                s = frozenset(int(ring.add[x, y]) for x in i for y in j)
                if s not in ideals:
                    fresh.add(s)
        ideals |= fresh
        frontier = fresh
    return sorted(
        (LeftIdeal(ring, tuple(sorted(i))) for i in ideals),
        key=lambda ideal: (ideal.order, ideal.members),
    )


def quotient_partition(ideal: LeftIdeal) -> tuple:
    """The coset partition R/I: cosets x + I as sorted tuples, the coset
    containing zero first, then by representative."""
    ring = ideal.ring
    seen = set()
    cosets = []
    for x in range(ring.order):
        if x in seen:
            continue
        coset = tuple(sorted(int(ring.add[x, y]) for y in ideal.members))
        seen.update(coset)
        cosets.append(coset)
    return tuple(sorted(cosets, key=lambda c: (ring.zero not in c, c)))


def random_linear_map(ring: FiniteRing, k: int, n: int, rng) -> RingMatrix:
    """k x n matrix with i.i.d. entries uniform over the ring."""
    k, n = _integer(k, "k"), _integer(n, "n")
    if k < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = np.random.default_rng(rng)
    return RingMatrix(ring, rng.integers(0, ring.order, size=(k, n)))


def apply_linear_map(a: RingMatrix, x) -> np.ndarray:
    """y_i = sum_j a_ij * x_j using the ring tables (left-linear).

    ``x`` is one word of length n or a ``(..., n)`` table of words, and the
    result is ``(k,)`` or ``(..., k)``.  The sum runs left to right, one
    table step per column for every word and output at once.  Entries
    outside 0..|R|-1, or not integers, are refused with ValueError.
    """
    ring = a.ring
    x = _integers(x, "word")
    if x.ndim < 1 or x.shape[-1] != a.cols:
        raise ValueError(f"word shape {x.shape} does not end in {a.cols} columns")
    if x.size and (x.min() < 0 or x.max() >= ring.order):
        raise ValueError(f"word entries out of range 0..{ring.order - 1}")
    acc = np.full(x.shape[:-1] + (a.rows,), ring.zero, dtype=np.int64)
    for j in range(a.cols):
        acc = ring.add[acc, ring.mul[a.entries[:, j], x[..., j, None]]]
    return acc
