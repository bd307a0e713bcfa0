"""Achievable-rate computations for linear coding over a finite ring.

For a Markov source on (a subset of) a ring R the achievable threshold is

    R0 = max over non-zero left ideals I of
         (log|R| / log|I|) * min( H(S_{R/I} | pi),
                                  H(P | pi) - rate of the coset process )

where S_{R/I} stacks the stochastic complements of the cosets of I and the
coset process is the chain watched through the quotient map R -> R/I.  When
the coset process is lumpable its rate is exact; otherwise truncated
entropy-rate bounds make every downstream quantity an interval
[lo, hi], and consumers use the hi end conservatively.  All rates are in
bits per symbol; a k-of-n code over R spends (k/n) log2|R| bits per symbol.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain as _chain, combinations, permutations

import numpy as np

from .functions import (
    FunctionSpec,
    Presentation,
    injectivity_obstruction_check,
    sum_process_chain,
    verify_presentation,
)
from .markov import (
    MarkovChain,
    blockdiag_complement_entropy,
    conditional_entropy,
    invariant_distribution,
    quotient_entropy_rate_bounds,
)
from .rings import FiniteRing, _integer, enumerate_left_ideals, quotient_partition

__all__ = [
    "IdealTerm",
    "RateReport",
    "InjectionReport",
    "ComputingReport",
    "CoverConstraint",
    "ComparisonReport",
    "single_source_rate",
    "injection_search_rate",
    "computing_rate",
    "cover_region",
    "compare_presentations",
]


@dataclass
class IdealTerm:
    """Rate contribution of one non-zero left ideal.

    ``complement`` is H(S_{R/I} | pi) (always exact).  The quotient-side
    term H(P|pi) - rate(coset process) and everything derived from it are
    intervals that collapse when the coset process is lumpable.
    ``scaled_complement`` is the complement branch alone times the scale;
    this is the per-ideal candidate as conventionally displayed.
    """

    members: tuple
    scale: float
    complement: float
    quotient_lo: float
    quotient_hi: float
    quotient_exact: bool
    label: str = ""

    @property
    def min_lo(self) -> float:
        return min(self.complement, self.quotient_lo)

    @property
    def min_hi(self) -> float:
        return min(self.complement, self.quotient_hi)

    @property
    def scaled_lo(self) -> float:
        return self.scale * self.min_lo

    @property
    def scaled_hi(self) -> float:
        return self.scale * self.min_hi

    @property
    def scaled_complement(self) -> float:
        return self.scale * self.complement

    @property
    def exact(self) -> bool:
        return self.quotient_exact or self.complement <= self.quotient_lo


@dataclass
class RateReport:
    """Threshold R0 with its per-ideal breakdown.

    ``r0_lo == r0_hi`` whenever every contributing term is exact; otherwise
    the true threshold lies in [r0_lo, r0_hi].
    """

    ring: str
    source_entropy: float
    terms: list
    notes: list = field(default_factory=list)

    @property
    def r0_lo(self) -> float:
        return max(t.scaled_lo for t in self.terms)

    @property
    def r0_hi(self) -> float:
        return max(t.scaled_hi for t in self.terms)

    @property
    def exact(self) -> bool:
        return bool(all(t.exact for t in self.terms) or self.r0_lo == self.r0_hi)

    @property
    def r0(self) -> float:
        """Conservative threshold (upper end of the interval)."""
        return self.r0_hi

    def candidate_values(self) -> list:
        """Per-ideal complement-branch candidates, largest scale last."""
        return [t.scaled_complement for t in self.terms]

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "source_entropy": self.source_entropy,
            "r0": [self.r0_lo, self.r0_hi],
            "exact": self.exact,
            "terms": [
                {
                    "ideal": list(t.members),
                    "label": t.label,
                    "scale": t.scale,
                    "complement": t.complement,
                    "quotient": [t.quotient_lo, t.quotient_hi],
                    "quotient_exact": t.quotient_exact,
                    "min": [t.min_lo, t.min_hi],
                    "scaled": [t.scaled_lo, t.scaled_hi],
                    "scaled_complement": t.scaled_complement,
                }
                for t in self.terms
            ],
            "notes": self.notes,
        }

    def format_table(self) -> str:
        lines = [
            f"ring: {self.ring}   H(P|pi) = {self.source_entropy:.4f}",
            f"{'ideal':<22}{'scale':>7}{'complement':>12}{'quotient':>20}{'scaled term':>20}",
        ]
        for t in self.terms:
            quot = _interval(t.quotient_lo, t.quotient_hi, t.quotient_exact)
            scaled = _interval(t.scaled_lo, t.scaled_hi)
            lines.append(f"{t.label:<22}{t.scale:>7.3f}{t.complement:>12.4f}{quot:>20}{scaled:>20}")
        lines.append(f"R0 = {_interval(self.r0_lo, self.r0_hi)}  "
                     f"({'exact' if self.exact else 'bounded'})")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def _interval(lo: float, hi: float, exact: bool | None = None) -> str:
    """``hi`` at 4 decimals when exact, else ``[lo, hi]``; exactness is
    ``lo == hi`` unless a flag says otherwise."""
    if exact is None:
        exact = lo == hi
    return f"{hi:.4f}" if exact else f"[{lo:.4f}, {hi:.4f}]"


def _quotients(ring: FiniteRing) -> list:
    """(ideal, coset index of every element, scale) per non-zero left ideal."""
    quotients = []
    for ideal in enumerate_left_ideals(ring):
        if ideal.order == 1:
            continue  # the zero ideal is excluded from the max
        coset_of = [0] * ring.order
        for ci, coset in enumerate(quotient_partition(ideal)):
            for e in coset:
                coset_of[e] = ci
        quotients.append((ideal, coset_of, math.log2(ring.order) / math.log2(ideal.order)))
    return quotients


def _rate_report(ring: FiniteRing, chain: MarkovChain, element_of_state, depth: int,
                 quotients=None, h_source=None) -> RateReport:
    """Per-ideal report for a chain whose states carry distinct ring elements.

    A sweep over element maps passes the ring's ``quotients`` and the
    chain's H(P|pi) in, so both are found once.
    """
    elements = [int(e) for e in element_of_state]
    if len(set(elements)) != len(elements):
        raise ValueError("states must map to distinct ring elements")
    if chain.n != len(elements):
        raise ValueError("element map must cover every state")
    if h_source is None:
        h_source = conditional_entropy(chain.P, invariant_distribution(chain))
    terms = [_ideal_term(chain, ideal, scale, [coset_of[e] for e in elements], depth, h_source)
             for ideal, coset_of, scale in quotients or _quotients(ring)]
    return RateReport(ring=ring.description, source_entropy=h_source, terms=terms)


def _ideal_term(chain: MarkovChain, ideal, scale: float, labels, depth: int,
                h_source: float) -> IdealTerm:
    """One ideal's term for states labelled by their cosets.

    The term depends only on the ordered block list, the states of each
    label in increasing label order, so the chain's memo evaluates a
    coset partition once however many element maps induce it.
    """
    blocks = [[s for s, c in enumerate(labels) if c == ci] for ci in sorted(set(labels))]
    complement = blockdiag_complement_entropy(chain, blocks)
    bounds = quotient_entropy_rate_bounds(chain, labels, depth=depth)
    return IdealTerm(
        members=ideal.members,
        scale=scale,
        complement=complement,
        quotient_lo=h_source - bounds.upper,
        quotient_hi=h_source - bounds.lower,
        quotient_exact=bounds.exact,
        label=ideal.label(),
    )


def single_source_rate(ring: FiniteRing, chain: MarkovChain, depth: int = 6) -> RateReport:
    """Threshold for losslessly coding a Markov source on the ring itself.

    The chain's i-th state is identified with ring element i.  For a field
    the only non-zero ideal is R and the report collapses to H(P|pi).
    """
    if chain.n != ring.order:
        raise ValueError(
            f"chain has {chain.n} states but the ring has order {ring.order}"
        )
    return _rate_report(ring, chain, range(ring.order), depth)


class _InjectionRates(Sequence):
    """The sweep's (injection, r_lo, r_hi) triples, read-only, kept as its
    (count, m) table of injections and two float arrays: a triple of
    Python ints and floats is built only when it is read, and iteration
    builds them 2^14 at a time."""

    def __init__(self, phis: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        for a in (phis, lo, hi):
            a.setflags(write=False)
        self._phis, self._lo, self._hi = phis, lo, hi

    def __len__(self) -> int:
        return len(self._lo)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        return tuple(self._phis[i].tolist()), float(self._lo[i]), float(self._hi[i])

    def __eq__(self, other):
        # equal to the list it stands for, so reports keep comparing by value
        if not isinstance(other, (list, _InjectionRates)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __iter__(self):
        for a in range(0, len(self), 1 << 14):
            b = a + (1 << 14)
            yield from zip(map(tuple, self._phis[a:b].tolist()), self._lo[a:b].tolist(),
                           self._hi[a:b].tolist())


@dataclass
class InjectionReport:
    """Best injection of the source alphabet into the ring (smallest r)."""

    ring: str
    best_injection: tuple
    best: RateReport
    rates: Sequence  # (injection, r_lo, r_hi) per injection

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "best_injection": list(self.best_injection),
            "best": self.best.to_dict(),
            "rates": [
                {"injection": list(phi), "r": [lo, hi]} for phi, lo, hi in self.rates
            ],
        }


def injection_search_rate(
    ring: FiniteRing,
    chain: MarkovChain,
    depth: int = 6,
    max_injections: int = 50_000,
) -> InjectionReport:
    """Sweep all injections of the source alphabet into the ring.

    Relabeling the alphabet changes which states share a coset, hence the
    threshold; the achievable region is the union over injections, so the
    report keeps the injection minimizing the (conservative) threshold.
    The ideals, their cosets and H(P|pi) are found once per sweep.  Per
    ideal, one array pass over the table of injections finds the distinct
    ordered block lists, builds one term for each and scatters its values
    back; ties go to the first injection in permutation order.  A
    ``max_injections`` that is not one integer is refused.
    """
    max_injections = _integer(max_injections, "max_injections")
    m = chain.n
    if m > ring.order:
        raise ValueError("alphabet larger than the ring")
    count = math.perm(ring.order, m)
    if count > max_injections:
        raise ValueError(
            f"{count} injections exceed the sweep bound {max_injections}"
        )
    quotients = _quotients(ring)
    h_source = conditional_entropy(chain.P, invariant_distribution(chain))
    phis = np.fromiter(_chain.from_iterable(permutations(range(ring.order), m)), count=count * m,
                       dtype=np.min_scalar_type(ring.order - 1)).reshape(count, m)
    rows = np.arange(count)[:, None]
    lo, hi = [], []
    for ideal, coset_of, scale in quotients:
        labels = np.asarray(coset_of)[phis]
        # each label's rank among the row's distinct labels: equal rank
        # rows have equal ordered block lists, hence equal terms
        k = ring.order // ideal.order
        present = np.zeros((count, k), dtype=int)
        present[rows, labels] = 1
        ranks = np.take_along_axis(np.cumsum(present, axis=1) - present, labels, axis=1)
        # a row's ranks as one base-k integer: k^m passes 2^63 only for
        # tables far too large to build
        _, first, inverse = np.unique(ranks @ k ** np.arange(m), return_index=True,
                                      return_inverse=True)
        terms = [_ideal_term(chain, ideal, scale, key, depth, h_source)
                 for key in ranks[first].tolist()]
        lo.append(np.array([t.scaled_lo for t in terms])[inverse])
        hi.append(np.array([t.scaled_hi for t in terms])[inverse])
    # a ring without a non-zero ideal has no threshold: the max refuses it
    r0_lo, r0_hi = np.max(lo, axis=0), np.max(hi, axis=0)
    # the first injection of least r0_hi, as a strict < scan would keep
    best = int(np.argmin(r0_hi))
    best_phi = tuple(phis[best].tolist())
    return InjectionReport(ring.description, best_phi,
                           _rate_report(ring, chain, best_phi, depth, quotients, h_source),
                           _InjectionRates(phis, r0_lo, r0_hi))


@dataclass
class ComputingReport:
    """Symmetric-rate threshold for computing g through identical encoders.

    The region is the diagonal { [R, ..., R] : R > r0 } in bits per symbol
    per source.  mode = "lumped" means the sum process was certified
    Markov and the full per-ideal machinery applies; mode = "bounded"
    falls back to the sum process's entropy-rate interval.
    """

    mode: str
    arity: int
    ring: str
    rate: RateReport | None
    r0_lo: float
    r0_hi: float
    injective_on_sums: bool
    burke_certified: bool
    notes: list = field(default_factory=list)

    @property
    def r0(self) -> float:
        return self.r0_hi

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "arity": self.arity,
            "ring": self.ring,
            "r0": [self.r0_lo, self.r0_hi],
            "injective_on_sums": self.injective_on_sums,
            "burke_certified": self.burke_certified,
            "rate": self.rate.to_dict() if self.rate else None,
            "notes": self.notes,
        }


def computing_rate(
    g: FunctionSpec,
    p: Presentation,
    joint: MarkovChain,
    depth: int = 6,
) -> ComputingReport:
    """Threshold for computing g = h(sum k_t) when every source uses the
    same linear encoder over the presentation's ring."""
    ok, witness = verify_presentation(g, p)
    if not ok:
        raise ValueError(f"presentation does not realize the function (at {witness})")
    sp = sum_process_chain(joint, p, depth=depth, domains=g.domains)
    injective = injectivity_obstruction_check(g, p)
    if sp.mode == "lumped":
        report = _rate_report(p.ring, sp.chain, sp.elements, depth)
        return ComputingReport(
            mode="lumped",
            arity=g.arity,
            ring=p.ring.description,
            rate=report,
            r0_lo=report.r0_lo,
            r0_hi=report.r0_hi,
            injective_on_sums=injective,
            burke_certified=sp.burke,
        )
    return ComputingReport(
        mode="bounded",
        arity=g.arity,
        ring=p.ring.description,
        rate=None,
        r0_lo=sp.bounds.lower,
        r0_hi=sp.bounds.upper,
        injective_on_sums=injective,
        burke_certified=False,
        notes=[
            "sum process not certified Markov; threshold interval is its "
            f"entropy-rate bound at depth {sp.bounds.depth}"
        ],
    )


@dataclass
class CoverConstraint:
    """One sum-rate constraint: sum over T of R_t > bound."""

    subset: tuple
    lo: float
    hi: float
    exact: bool


def cover_region(joint: MarkovChain, depth: int = 6) -> list:
    """Sum-rate constraints for losslessly coding all sources jointly.

    For every non-empty T the constraint is the joint conditional entropy
    minus the entropy rate of the complementary sources' projection; the
    projection process is generally hidden-Markov, so non-lumpable cases
    yield interval constraints.  For T = every source the projection is
    constant, hence lumpable with rate 0, and the bound is exact.  A
    joint chain whose states are not all tuples of one length is refused.
    """
    lengths = {len(state) if isinstance(state, (tuple, list)) else None
               for state in joint.states}
    if len(lengths) != 1 or None in lengths:
        raise ValueError("joint chain states must be tuples of one length")
    (s,) = lengths
    pi = invariant_distribution(joint)
    h_joint = conditional_entropy(joint.P, pi)
    constraints = []
    for r in range(1, s + 1):
        for T in combinations(range(s), r):
            comp = tuple(t for t in range(s) if t not in T)
            labels = [tuple(state[t] for t in comp) for state in joint.states]
            bounds = quotient_entropy_rate_bounds(joint, labels, depth=depth)
            constraints.append(
                CoverConstraint(
                    T, h_joint - bounds.upper, h_joint - bounds.lower, bounds.exact
                )
            )
    return constraints


@dataclass
class ComparisonReport:
    """Thresholds of several presentations of one function, best first."""

    entries: list  # (name, ComputingReport)

    @property
    def best(self):
        return min(self.entries, key=lambda e: e[1].r0_hi)

    def to_dict(self) -> dict:
        return {
            "best": self.best[0],
            "entries": [
                {"name": name, "report": rep.to_dict()} for name, rep in self.entries
            ],
        }

    def format_table(self) -> str:
        lines = [f"{'presentation':<18}{'ring':<14}{'r0':>20}{'h injective on sums':>22}"]
        for name, rep in self.entries:
            r0 = _interval(rep.r0_lo, rep.r0_hi)
            lines.append(
                f"{name:<18}{rep.ring:<14}{r0:>20}{str(rep.injective_on_sums):>22}"
            )
        lines.append(f"best threshold: {self.best[0]}")
        return "\n".join(lines)


def compare_presentations(g: FunctionSpec, presentations, joint: MarkovChain,
                          depth: int = 6) -> ComparisonReport:
    """Evaluate named presentations of g side by side.

    ``presentations`` maps names to Presentation objects; conservative
    (upper) thresholds decide the ranking.
    """
    entries = []
    for name, p in presentations.items():
        entries.append((name, computing_rate(g, p, joint, depth=depth)))
    return ComparisonReport(entries)
