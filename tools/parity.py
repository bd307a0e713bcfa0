"""Print one SHA-256 digest over what the rate calculator's kernels return
on seeded random inputs, so two trees can be compared bit for bit:

- the entropy-rate bounds at depths 1-8 of a random labeling of each
  chain (lower, upper and the exact flag),
- each chain's invariant distribution and one stochastic complement on a
  random subset in random order,
- ``entropy`` of random weight arrays with and without zeros, of one to
  three dimensions, some of them non-contiguous.

Half of the chains have zero transitions (a cycle through every state
keeps them irreducible).  Run it on each tree with that tree's package:

    PYTHONPATH=src python3 tools/parity.py [--chains N] [--seed S]
"""

import argparse
import hashlib
import struct

import numpy as np

from ringcoding import (
    MarkovChain,
    entropy,
    invariant_distribution,
    quotient_entropy_rate_bounds,
    stochastic_complement,
)

DEPTHS = range(1, 9)


def random_chain(rng) -> MarkovChain:
    n = int(rng.integers(2, 9))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    counts = dict.fromkeys(("bounds", "pi", "complements", "entropies"), 0)
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
    print(digest.hexdigest(), " ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
