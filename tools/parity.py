"""Print one SHA-256 digest over what the rate calculator's and the
typicality module's kernels return on seeded random inputs, so two trees
can be compared bit for bit:

- the entropy-rate bounds at depths 1-8 of a random labeling of each
  chain (lower, upper and the exact flag),
- each chain's invariant distribution and one stochastic complement on a
  random subset in random order,
- ``entropy`` of random weight arrays with and without zeros, of one to
  three dimensions, some of them non-contiguous,
- sampled paths: ``sample_path`` and ``_sample_paths`` tables of 1, 3 or
  400 paths on chains (some of them stiff) and 2-chain schedules, with
  and without a given start, of up to 10^5 steps for one path,
- ``supremus_verdict`` on sampled paths of 10^3 to 2 10^4 steps,
- ``enumerate_typical_paths`` (strong and Supremus) and
  ``enumerate_confusable`` (both families) at n up to 9.

Half of the chains have zero transitions (a cycle through every state
keeps them irreducible).  A refusal is digested as its message.  Run it
on each tree with that tree's package:

    PYTHONPATH=src python3 tools/parity.py [--chains N] [--paths N] [--seed S]
"""

import argparse
import hashlib
import struct

import numpy as np

from ringcoding import (
    MarkovChain,
    enumerate_confusable,
    enumerate_typical_paths,
    entropy,
    invariant_distribution,
    quotient_entropy_rate_bounds,
    sample_path,
    stochastic_complement,
    supremus_verdict,
)
from ringcoding.typicality import _sample_paths

DEPTHS = range(1, 9)


def random_chain(rng, n=None) -> MarkovChain:
    n = int(rng.integers(2, 9)) if n is None else n
    P = rng.dirichlet(np.ones(n), size=n)
    if rng.random() < 0.5:
        cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        P[(rng.random((n, n)) < 0.4) & ~cycle] = 0.0
        P /= P.sum(axis=1, keepdims=True)
    return MarkovChain(P)


def random_weights(rng) -> np.ndarray:
    shape = tuple(int(s) for s in rng.integers(1, 7, size=int(rng.integers(1, 4))))
    w = rng.random(shape) * 10.0 ** rng.integers(-6, 3)
    if rng.random() < 0.5:
        w[rng.random(shape) < 0.3] = 0.0
    if w.ndim > 1 and rng.random() < 0.5:
        w = w.T[::-1]
    elif rng.random() < 0.5:
        w = w[..., ::2]
    return w


def random_source(rng, max_states: int):
    """A chain, a stiff chain (mostly staying put) or a 2-chain schedule,
    and a start: None (pi, or uniform for a schedule) or a random one."""
    m = int(rng.integers(2, max_states + 1))
    chain = random_chain(rng, m)
    kind = int(rng.integers(3))
    if kind == 1:
        stay = rng.uniform(0.8, 0.99)
        chain = MarkovChain(stay * np.eye(m) + (1 - stay) * chain.P)
    source = [chain, random_chain(rng, m)] if kind == 2 else chain
    init = rng.dirichlet(np.ones(m)) if rng.random() < 0.5 else None
    return source, chain, init


def refusal_or(digest, f):
    """Digest f()'s bytes, or the message of the ValueError it raises."""
    try:
        digest.update(f())
    except ValueError as exc:
        digest.update(str(exc).encode())


def path_checks(rng, digest, counts):
    """Sampled paths and tables, a Supremus verdict on a long path, and the
    two enumeration oracles at small n."""
    source, chain, init = random_source(rng, 8)
    count, top = [(1, 100_000), (3, 20_000), (400, 250)][int(rng.integers(3))]
    n, seed = int(rng.integers(1, top + 1)), int(rng.integers(2**32))
    table = _sample_paths(source, count, n, np.random.default_rng(seed), init)
    digest.update(table.tobytes())
    digest.update(sample_path(source, n, seed, init).tobytes())
    counts["tables"] += 1
    counts["samples"] += 1

    _, chain, _ = random_source(rng, 5)
    x = sample_path(chain, int(rng.integers(1_000, 20_001)), rng)
    v = supremus_verdict(x, chain, float(rng.choice([0.01, 0.02, 0.05, 0.1])))
    digest.update(repr((v.ok, v.failed_subset, v.vacuous_subsets)).encode())
    counts["verdicts"] += 1

    chain = random_chain(rng, int(rng.integers(2, 4)))
    n, eps = int(rng.integers(1, 10 - chain.n)), float(rng.choice([0.15, 0.25, 0.4]))
    for supremus in (False, True):
        refusal_or(digest, lambda: np.array(
            list(enumerate_typical_paths(chain, n, eps, supremus=supremus))).tobytes())
        counts["typical_sets"] += 1
    x = sample_path(chain, int(rng.integers(2 * chain.n, 10)), rng)
    labels = rng.integers(0, 2, size=chain.n)
    blocks = [np.flatnonzero(labels == b).tolist() for b in (0, 1) if (labels == b).any()]
    for family in (False, True):
        refusal_or(digest, lambda: struct.pack("<q", enumerate_confusable(
            x, blocks, chain, eps, coset_family=family)))
        counts["confusable"] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=200)
    parser.add_argument("--paths", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    counts = dict.fromkeys(("bounds", "pi", "complements", "entropies", "samples", "tables",
                            "verdicts", "typical_sets", "confusable"), 0)
    for i in range(args.chains):
        rng = np.random.default_rng([args.seed, i])
        chain = random_chain(rng)
        n = chain.n
        digest.update(invariant_distribution(chain).tobytes())
        counts["pi"] += 1
        subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        digest.update(stochastic_complement(chain, subset).tobytes())
        counts["complements"] += 1
        labels = rng.integers(0, int(rng.integers(2, min(n, 5) + 1)), size=n).tolist()
        for depth in DEPTHS:
            b = quotient_entropy_rate_bounds(chain, labels, depth=depth)
            digest.update(struct.pack("<dd?", b.lower, b.upper, b.exact))
            counts["bounds"] += 1
        for _ in range(5):
            digest.update(struct.pack("<d", entropy(random_weights(rng))))
            counts["entropies"] += 1
    for i in range(args.paths):
        path_checks(np.random.default_rng([args.seed, i, 1]), digest, counts)
    print(digest.hexdigest(), " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
