"""Reference computations the benchmark checks ringcoding against.

Everything here is written apart from the package: plain numpy on
transition matrices and integer arrays, never a call into ``ringcoding``.
The methods differ from the package's where that is cheap: the invariant
distribution comes from power iteration (the package solves a linear
system) and stochastic complements from state-by-state censoring (the
package inverts I - P_AcAc).
"""

from itertools import combinations

import numpy as np


def power_pi(P, tol: float = 1e-16, max_steps: int = 1_000_000) -> np.ndarray:
    """Invariant distribution by power iteration from the uniform vector."""
    P = np.asarray(P, dtype=float)
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(0, max_steps, 100):
        prev = pi
        for _ in range(100):
            pi = pi @ P
            pi /= pi.sum()
        if np.abs(pi - prev).max() <= tol:
            return pi
    raise ArithmeticError("power iteration did not converge")


def entropy_rate(P, pi) -> float:
    """H(P | pi) in bits: -sum_i pi_i sum_j P_ij log2 P_ij."""
    P = np.asarray(P, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0, P * np.log2(P), 0.0)
    return float(-(pi * terms.sum(axis=1)).sum())


def censor(P, keep) -> np.ndarray:
    """Stochastic complement on ``keep`` by eliminating the other states one
    at a time (P_ij += P_ik P_kj / (1 - P_kk), with 1 - P_kk taken as the
    off-diagonal row sum)."""
    M = np.array(P, dtype=float)
    alive = list(range(M.shape[0]))
    for k in [s for s in range(M.shape[0]) if s not in set(keep)]:
        alive.remove(k)
        out = M[k, alive].sum()
        M[np.ix_(alive, alive)] += np.outer(M[alive, k], M[k, alive]) / out
    return M[np.ix_(list(keep), list(keep))]


def sample_paths(P, pi, length: int, count: int, rng) -> np.ndarray:
    """``count`` stationary paths of the chain, sampled side by side."""
    P = np.asarray(P, dtype=float)
    cum = np.cumsum(P, axis=1)
    m = P.shape[0]
    u = rng.random((count, length))
    out = np.empty((count, length), dtype=np.int64)
    out[:, 0] = np.minimum(np.searchsorted(np.cumsum(pi), u[:, 0], side="right"), m - 1)
    for t in range(1, length):
        out[:, t] = np.minimum((u[:, t, None] >= cum[out[:, t - 1]]).sum(axis=1), m - 1)
    return out


def _strong(path, m, S, pa, eps) -> bool:
    """Entrywise strong typicality of one path on states 0..m-1."""
    pair = np.zeros((m, m), dtype=np.int64)
    np.add.at(pair, (path[:-1], path[1:]), 1)
    visits = pair.sum(axis=1)
    if (np.abs(visits / len(path) - pa) >= eps).any():
        return False
    seen = visits > 0
    rows = pair[seen] / visits[seen, None]
    return bool((np.abs(rows - S[seen]) < eps).all())


class SupremusOracle:
    """Supremus typicality: the sub-path watched on every non-empty subset
    of states is strongly typical for that subset's stochastic complement;
    a subset visited at most once carries no transitions and passes."""

    def __init__(self, P, eps: float):
        P = np.asarray(P, dtype=float)
        self.m = P.shape[0]
        self.eps = eps
        pi = power_pi(P)
        self.subsets = []
        for r in range(1, self.m + 1):
            for s in combinations(range(self.m), r):
                s = list(s)
                lut = np.full(self.m, -1, dtype=np.int64)
                lut[s] = np.arange(len(s))
                pa = pi[s] / pi[s].sum()
                self.subsets.append((np.array(s), lut, censor(P, s), pa))

    def __call__(self, path) -> bool:
        path = np.asarray(path, dtype=np.int64)
        if len(path) < 2 * self.m:
            raise ValueError("path shorter than twice the state count")
        for s, lut, S, pa in self.subsets:
            sub = path[np.isin(path, s)]
            if len(sub) >= 2 and not _strong(lut[sub], len(s), S, pa, self.eps):
                return False
        return True


def all_words(m: int, n: int) -> np.ndarray:
    """Every length-n word over 0..m-1, in lexicographic order."""
    idx = np.arange(m**n, dtype=np.int64)
    radix = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // radix[None, :]) % m


def strong_typical_words(P, n: int, eps: float) -> set:
    """All strongly typical words of length n, by one vectorised pass over
    the whole word space."""
    P = np.asarray(P, dtype=float)
    m = P.shape[0]
    pi = power_pi(P)
    words = all_words(m, n)
    total = len(words)
    codes = words[:, :-1] * m + words[:, 1:] + np.arange(total)[:, None] * (m * m)
    pair = np.bincount(codes.ravel(), minlength=total * m * m).reshape(total, m, m)
    visits = pair.sum(axis=2)
    ok = (np.abs(visits / n - pi) < eps).all(axis=1)
    rows = np.abs(pair / np.maximum(visits, 1)[:, :, None] - P) < eps
    ok &= (rows | (visits == 0)[:, :, None]).all(axis=(1, 2))
    return {tuple(int(v) for v in w) for w in words[ok]}


def aep_window(P, n: int, eps: float):
    """Probability window (lo, hi) every typical word must fall in, and the
    count bound 2^{n(H + eta)}, with eta calibrated from eps as in the
    package's AEP acceptance check."""
    P = np.asarray(P, dtype=float)
    pi = power_pi(P)
    h = entropy_rate(P, pi)
    delta = eps * (pi[:, None] + eps) + eps * P
    eta = float((delta * np.abs(np.log2(P))).sum() + (-np.log2(pi)).max() / n)
    return pi, 2.0 ** (-n * (h + eta)), 2.0 ** (-n * (h - eta)), 2.0 ** (n * (h + eta))


def ml_decode_mod4(A, z, P, tie_tol: float = 1e-10):
    """Most probable word x over Z4 with A x = z (mod 4), by scanning all
    4^n words; returns (word or None, tie flag).  Ties go to the
    lexicographically smallest word."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[1]
    words = all_words(4, n)
    members = np.nonzero(((words @ A.T) % 4 == np.asarray(z)).all(axis=1))[0]
    if len(members) == 0:
        return None, False
    pi = power_pi(P)
    with np.errstate(divide="ignore"):
        lpi, lP = np.log2(pi), np.log2(np.asarray(P, dtype=float))
    w = words[members]
    lp = lpi[w[:, 0]] + lP[w[:, :-1], w[:, 1:]].sum(axis=1)
    hits = members[lp >= lp.max() - tie_tol]
    return words[hits.min()], len(hits) > 1
