"""Discrete target functions and their additive presentations over a ring.

A presentation of g factors it as g(x_1..x_s) = h(sum_t k_t(x_t)) with the
sum taken in a finite ring.  With such a factorization every source can use
the *same* linear encoder and the codewords combine by ring addition, so
the decoder only has to recover the sum process.
"""

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .markov import (
    EntropyRateBounds,
    MarkovChain,
    _lumped,
    check_burke_form,
    lump,
    quotient_entropy_rate_bounds,
)
from .rings import FiniteRing, _integer, _integers, make_modular_ring, make_product_ring

__all__ = [
    "FunctionSpec",
    "Presentation",
    "SumProcess",
    "verify_presentation",
    "canonical_presentation",
    "induced_sum_labeling",
    "sum_process_chain",
    "injectivity_obstruction_check",
]


class FunctionSpec:
    """A total function on a product of finite alphabets, as a dense table.

    A letter repeated within one domain, or a repeated codomain value, is
    refused with ValueError."""

    def __init__(self, domains, codomain, table):
        self.domains = [list(d) for d in domains]
        self.codomain = list(codomain)
        self.table = _integers(table, "function table")
        shape = tuple(len(d) for d in self.domains)
        if self.table.shape != shape:
            raise ValueError(f"table shape {self.table.shape} != domain shape {shape}")
        if self.table.min() < 0 or self.table.max() >= len(self.codomain):
            raise ValueError("table entries must index the codomain")
        self._dom_index = [{v: i for i, v in enumerate(d)} for d in self.domains]
        if any(len(index) < len(d) for index, d in zip(self._dom_index, self.domains)):
            raise ValueError("a domain repeats a letter")
        if any(v in self.codomain[:i] for i, v in enumerate(self.codomain)):
            raise ValueError("the codomain repeats a value")

    @classmethod
    def from_callable(cls, domains, codomain, fn):
        domains = [list(d) for d in domains]
        codomain = list(codomain)
        out_index = {v: i for i, v in enumerate(codomain)}
        shape = tuple(len(d) for d in domains)
        table = np.empty(shape, dtype=np.int64)
        for combo in product(*(range(len(d)) for d in domains)):
            args = tuple(domains[t][i] for t, i in enumerate(combo))
            table[combo] = out_index[fn(*args)]
        return cls(domains, codomain, table)

    @property
    def arity(self) -> int:
        return len(self.domains)

    def __call__(self, *args):
        idx = tuple(self._dom_index[t][a] for t, a in enumerate(args))
        return self.codomain[self.table[idx]]


def _h_argument(key) -> int:
    """A key of h: an integer, or a string of integer form (JSON object
    keys are strings)."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            pass
    return _integer(key, "h argument")


class Presentation:
    """Maps k_t into a ring plus a partial h on the reachable sum set.

    ``maps[t][i]`` is the ring element for the i-th letter of alphabet t;
    ``h`` maps ring element -> codomain index and only needs to cover the
    sums that actually occur (unreached elements stay absent).
    """

    def __init__(self, ring: FiniteRing, maps, h: dict):
        self.ring = ring
        self.maps = [_integers(m, f"k_{t} map") for t, m in enumerate(maps)]
        for m in self.maps:
            if m.min() < 0 or m.max() >= ring.order:
                raise ValueError("k_t image outside the ring")
        self.h = {_h_argument(k): _integer(v, "h value") for k, v in h.items()}

    @property
    def arity(self) -> int:
        return len(self.maps)

    def sums(self, shape) -> np.ndarray:
        """sum_t k_t(x_t) for every tuple of argument indices, as one table
        of ``shape`` (one axis per alphabet, so C order is
        ``itertools.product`` order), folded left to right by ``ring.add``.

        Refuses a shape whose arity or alphabet sizes the maps do not
        match.
        """
        if len(shape) != self.arity:
            raise ValueError("presentation arity does not match the function")
        acc = np.full((1,) * self.arity, self.ring.zero)
        for t, (m, size) in enumerate(zip(self.maps, shape)):
            if len(m) != size:
                raise ValueError(f"k_{t} does not cover alphabet {t}")
            acc = self.ring.add[acc, m.reshape((-1,) + (1,) * (self.arity - 1 - t))]
        return acc


def verify_presentation(g: FunctionSpec, p: Presentation):
    """Exhaustive check of g(x) == h(sum_t k_t(x_t)); returns (ok, witness).

    The witness is the first failing tuple of argument indices, or None.
    """
    h = np.array([p.h.get(z, -1) for z in range(p.ring.order)])
    bad = np.argwhere(h[p.sums(g.table.shape)] != g.table)
    return (False, tuple(bad[0].tolist())) if len(bad) else (True, None)


def canonical_presentation(g: FunctionSpec, prime: int) -> Presentation:
    """Presentation over the product ring (Z_p)^s with coordinatewise
    injections (Z_p itself when s = 1).

    k_t embeds alphabet t into coordinate t (zero elsewhere), so the sum
    determines the whole argument tuple and h = g on the reachable set.
    Valid by construction whenever p >= |X_t| for every t.
    """
    sizes = [len(d) for d in g.domains]
    if prime < max(sizes):
        raise ValueError(f"prime {prime} smaller than the largest alphabet")
    s = g.arity
    factors = [make_modular_ring(prime) for _ in range(s)]
    ring = factors[0] if s == 1 else make_product_ring(*factors)
    # element index of the tuple with value v in coordinate t, zero elsewhere
    weights = [prime ** (s - 1 - t) for t in range(s)]
    p = Presentation(ring, [np.arange(sizes[t]) * weights[t] for t in range(s)], {})
    p.h = dict(zip(p.sums(sizes).ravel().tolist(), g.table.ravel().tolist()))
    return p


def _letter_indices(states, p: Presentation, domains=None) -> np.ndarray:
    """Each joint-chain state's tuple of alphabet indices, one row per
    state: letters are looked up in ``domains``, or are the indices
    themselves without it.  A state that is not an s-tuple, or a letter
    outside its alphabet, is refused with ValueError; without ``domains``
    a letter must be an integer (``operator.index``), so 1.7 or "1" is
    refused rather than truncated or parsed."""
    lookup = [{v: i for i, v in enumerate(d)} for d in domains or ()]
    idx = np.empty((len(states), p.arity), dtype=np.int64)
    for r, state in enumerate(states):
        if not isinstance(state, (tuple, list)) or len(state) != p.arity:
            raise ValueError(f"state {state!r} is not an {p.arity}-tuple")
        for t, letter in enumerate(state):
            try:
                i = lookup[t].get(letter, -1) if lookup else operator.index(letter)
            except TypeError:
                i = -1
            if not 0 <= i < len(p.maps[t]):
                raise ValueError(f"letter {letter!r} outside alphabet {t}")
            idx[r, t] = i
    return idx


def induced_sum_labeling(joint: MarkovChain, p: Presentation, domains=None) -> list:
    """Per-state ring element sum_t k_t(x_t) for a joint chain whose states
    are s-tuples of alphabet letters.

    ``domains`` supplies the alphabets for letter lookup; without it the
    letters are taken to be the alphabet indices themselves.
    """
    idx = _letter_indices(joint.states, p, domains)
    return p.sums([len(m) for m in p.maps])[tuple(idx.T)].tolist()


@dataclass
class SumProcess:
    """The process Z = sum_t k_t(X_t) derived from a joint chain.

    mode = "lumped": Z is certified Markov (strong lumpability, with the
    Burke/identical-rows form as a sufficient witness) and ``chain`` holds
    its transition matrix on the reachable elements.  mode = "bounded":
    only truncated entropy-rate bounds are available.
    """

    mode: str
    labeling: list
    elements: list
    chain: MarkovChain | None = None
    bounds: EntropyRateBounds | None = None
    burke: bool = False


def sum_process_chain(joint: MarkovChain, p: Presentation, depth: int = 6,
                      domains=None, tol: float = 1e-9) -> SumProcess:
    """Derive the sum process: a lumped chain when certified Markov, else
    truncated entropy-rate bounds at the given depth.

    ``tol`` is the lumpability slack; matrices transcribed at few decimals
    need a correspondingly loose tolerance.
    """
    labels = induced_sum_labeling(joint, p, domains=domains)
    burke = check_burke_form(joint, tol=tol) is not None
    # a Burke-form chain certifies every labeling, so lump refuses a miss
    chain = lump(joint, labels, tol=tol) if burke else _lumped(joint, labels, tol)
    if chain is not None:
        elements = list(chain.states)
        return SumProcess("lumped", labels, elements, chain=chain, burke=burke)
    bounds = quotient_entropy_rate_bounds(joint, labels, depth=depth)
    elements = sorted(set(labels))
    return SumProcess("bounded", labels, elements, bounds=bounds, burke=False)


def injectivity_obstruction_check(g: FunctionSpec, p: Presentation) -> bool:
    """True iff h restricted to the reachable sum set is injective.

    Non-injectivity is the mechanism that makes a presentation lossy: the
    sum process then carries strictly more entropy than the function
    process it encodes.
    """
    reached = np.unique(p.sums(g.table.shape)).tolist()
    if any(z not in p.h for z in reached):
        raise ValueError("h does not cover the reachable sum set")
    values = [p.h[z] for z in reached]
    return len(set(values)) == len(values)
