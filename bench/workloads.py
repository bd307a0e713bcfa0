"""The benchmark's workloads and their parts.

Each part has these steps:

- ``setup(seed, workdir)`` makes the raw inputs from the seed alone (seeds,
  decimal-string matrices, sampled paths, documents on disk) and builds the
  package objects once;
- ``prepare(inputs)`` computes the reference values the checks compare
  against, with ``oracles`` only;
- ``round(inputs)`` is the timed unit: it rebuilds every package object
  from the raw inputs, so nothing computed in one round reaches the next,
  and makes the workload's fixed sequence of calls;
- ``check(outputs, expected)`` turns one round's outputs into checks;
- ``once(inputs, expected)`` makes the checks that run once per run, after
  the rounds.

A check is ``(name, ok, known_fault)``; ``known_fault`` marks a check that
fails at the current commit because of a fault recorded in CHANGES.md.
Calls go through module attributes (``simulate.run_single_source_sim``)
so that the tracer's wrappers see them.
"""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np

import oracles
from ringcoding import cli, documents, markov, rates, reference, rings, simulate, typicality

JOINT_STATES = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def _decimal_rows(rng, m: int) -> list:
    """A dense random m x m stochastic matrix as 6-decimal strings."""
    w = rng.uniform(0.05, 1.0, size=(m, m))
    w /= w.sum(axis=1, keepdims=True)
    return [[f"{v:.6f}" for v in row] for row in w]


def _exact_matrix(rows) -> np.ndarray:
    """The matrix a decimal-row document denotes, each row renormalized."""
    out = []
    for row in rows:
        frac = [Fraction(v) for v in row]
        total = sum(frac)
        out.append([float(v / total) for v in frac])
    return np.array(out)


def _chain(rows, states=None):
    states = states if states is not None else [str(i) for i in range(len(rows))]
    return documents.chain_from_doc(documents.chain_doc(states, rows))


class MLSim:
    """Monte Carlo with the exact ML decoder: word tables, key encoding,
    coset sort, log-probabilities, per-trial decisions, path sampling."""

    TRIALS = 400  # the n=10 runs and the computing runs
    TRIALS_N11 = 20

    def setup(self, seed, workdir):
        rng = _rng(seed, 0)
        self._objects()
        return {
            "seeds": [int(s) for s in rng.integers(0, 2**31, size=4)],
            "matrix": rng.integers(0, 4, size=(3, 8)),
            "words": rng.integers(0, 4, size=(4, 8)),
        }

    @staticmethod
    def _objects():
        return (rings.make_modular_ring(4), reference.single_source_chain(),
                reference.joint_chain(), reference.alternating_schedule(),
                reference.target_function(), reference.presentation_z4())

    def prepare(self, inp):
        P = reference.single_source_chain().P
        A = inp["matrix"]
        zs = [(A @ x) % 4 for x in inp["words"]]
        return {"syndromes": zs, "decoded": [oracles.ml_decode_mod4(A, z, P) for z in zs]}

    def round(self, inp):
        ring, chain, joint, schedule, g, pres = self._objects()
        s = inp["seeds"]
        out = {}
        # k=1 and k=4 share seed s[0]: the same trial paths, one matrix each
        for key, n, k, trials, seed in (("n10k1", 10, 1, self.TRIALS, s[0]),
                                        ("n10k4", 10, 4, self.TRIALS, s[0]),
                                        ("n11k4", 11, 4, self.TRIALS_N11, s[1])):
            cfg = simulate.SimConfig(ring=ring, n=n, k=k, trials=trials, seed=seed, chain=chain)
            out[key] = (n, k, simulate.run_single_source_sim(cfg))
        out["case3"] = simulate.run_computing_sim(simulate.SimConfig(
            ring=ring, n=8, k=3, trials=self.TRIALS, seed=s[2],
            joint=joint, function=g, presentation=pres))
        out["case4"] = simulate.run_computing_sim(simulate.SimConfig(
            ring=ring, n=8, k=3, trials=self.TRIALS, seed=s[3],
            schedule=schedule, function=g, presentation=pres))
        return out

    def check(self, out, expected):
        checks = []
        for key in ("n10k1", "n10k4", "n11k4"):
            n, k, res = out[key]
            checks.append((f"{key}.decode_modes_sum_to_trials",
                           sum(res.decode_modes.values()) == res.trials, False))
            # every solution coset is a coset of ker A: one size, a power
            # of 2, at least 4^(n-k)
            sizes = list(res.coset_sizes)
            size = sizes[0] if len(sizes) == 1 else 0
            checks.append((f"{key}.coset_size",
                           size > 0 and size & (size - 1) == 0 and size >= 4 ** (n - k)
                           and res.coset_sizes[size] == res.trials, False))
        for key in ("case3", "case4"):
            res = out[key]
            checks.append((f"{key}.codeword_sum_identity",
                           res.identity_checked == res.trials and res.identity_failures == 0,
                           False))
        checks.append(("paired_seed.k4_errs_less_than_k1",
                       out["n10k4"][2].errors < out["n10k1"][2].errors, False))
        return checks

    def once(self, inp, expected):
        """ml_decode against the brute force, once per run."""
        ring = rings.make_modular_ring(4)
        chain = reference.single_source_chain()
        a = rings.RingMatrix(ring, inp["matrix"])
        checks = []
        for i, (z, (word, tie)) in enumerate(zip(expected["syndromes"], expected["decoded"])):
            got, got_tie = simulate.ml_decode(a, z, chain)
            checks.append((f"ml_decode.brute_force_{i}",
                           got is not None and np.array_equal(got, word) and got_tie == tie,
                           False))
        return checks


MIXING = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
Z4_COSETS_OF_0_2 = [[0, 2], [1, 3]]


class Typical:
    """The typical-set side: depth-first typical-set enumeration, the
    Supremus test and its stochastic complements, confusable counting."""

    SIM_TRIALS = 200
    PATHS = 20

    def setup(self, seed, workdir):
        rng = _rng(seed, 1)
        markov.MarkovChain(np.array(MIXING))
        ref = reference.single_source_chain()
        # the mixing chain is doubly stochastic, so its pi is uniform
        paths = oracles.sample_paths(MIXING, np.full(3, 1 / 3), 10_000, self.PATHS, rng)
        # a typical reference path of length 12 as the confusability probe
        is_typical = oracles.SupremusOracle(ref.P, 0.2)
        pi = oracles.power_pi(ref.P)
        probe = None
        while probe is None:
            for cand in oracles.sample_paths(ref.P, pi, 12, 16, rng):
                if is_typical(cand):
                    probe = cand
                    break
        return {"sim_seed": int(rng.integers(0, 2**31)), "paths": paths, "probe": probe}

    def prepare(self, inp):
        pi, lo, hi, count_bound = oracles.aep_window(MIXING, 10, 0.35)
        verdict = oracles.SupremusOracle(MIXING, 0.05)
        return {
            "strong": oracles.strong_typical_words(MIXING, 10, 0.35),
            "pi": pi, "lo": lo, "hi": hi, "count_bound": count_bound,
            "verdicts": [verdict(p) for p in inp["paths"]],
        }

    def round(self, inp):
        ring = rings.make_modular_ring(4)
        ref = reference.single_source_chain()
        mix = markov.MarkovChain(np.array(MIXING))
        out = {}
        out["sim"] = simulate.run_single_source_sim(simulate.SimConfig(
            ring=ring, n=10, k=2, trials=self.SIM_TRIALS, seed=inp["sim_seed"],
            chain=ref, decoder="typicality", eps=0.2))
        out["strong"] = list(typicality.enumerate_typical_paths(mix, 10, 0.35, supremus=False))
        out["supremus"] = list(typicality.enumerate_typical_paths(mix, 10, 0.35))
        out["ref12"] = list(typicality.enumerate_typical_paths(ref, 12, 0.2))
        out["exhaustive"] = typicality.enumerate_confusable(
            inp["probe"], Z4_COSETS_OF_0_2, ref, 0.2)
        out["family"] = typicality.enumerate_confusable(
            inp["probe"], Z4_COSETS_OF_0_2, ref, 0.2, coset_family=True)
        out["verdicts"] = [typicality.supremus_verdict(p, mix, 0.05).ok for p in inp["paths"]]
        out["probe"] = inp["probe"]
        return out

    def check(self, out, expected):
        P = np.array(MIXING)
        sim = out["sim"]
        strong = [tuple(int(v) for v in p) for p in out["strong"]]
        supremus = [tuple(int(v) for v in p) for p in out["supremus"]]
        probs = [expected["pi"][x[0]] * np.prod(P[list(x[:-1]), list(x[1:])]) for x in supremus]
        block = np.array([0, 1, 0, 1])  # coset index of each Z4 element
        pattern = tuple(block[out["probe"]])
        ref12 = [tuple(int(v) for v in p) for p in out["ref12"]]
        same_pattern = sum(tuple(block[list(p)]) == pattern for p in ref12)
        return [
            ("typicality_sim.decode_modes_sum_to_trials",
             sum(sim.decode_modes.values()) == sim.trials, False),
            ("strong_set.equals_brute_force",
             len(strong) == len(set(strong)) and set(strong) == expected["strong"], False),
            ("supremus_set.inside_strong_set", set(supremus) <= expected["strong"], False),
            ("supremus_set.aep_sandwich",
             all(expected["lo"] < p < expected["hi"] for p in probs), False),
            ("supremus_set.count_bound", 0 < len(supremus) < expected["count_bound"], False),
            ("confusable.probe_is_typical", tuple(int(v) for v in out["probe"]) in set(ref12),
             False),
            ("confusable.exhaustive_at_most_family", out["exhaustive"] <= out["family"], False),
            ("confusable.exhaustive_equals_pattern_group", out["exhaustive"] == same_pattern,
             False),
            ("supremus_verdicts.match_oracle", out["verdicts"] == expected["verdicts"], False),
        ]

    def once(self, inp, expected):
        return []


RING_MAKERS = {
    "ML2": lambda: rings.make_triangular_ring(2),
    "Z8": lambda: rings.make_modular_ring(8),
    "Z2xZ4": lambda: rings.make_product_ring(rings.make_modular_ring(2),
                                             rings.make_modular_ring(4)),
    "Z5": lambda: rings.make_modular_ring(5),
    "Z7": lambda: rings.make_modular_ring(7),
}
RING_ORDERS = {"ML2": 4, "Z8": 8, "Z2xZ4": 8, "Z5": 5, "Z7": 7}
FIELDS = ("Z5", "Z7")

# (name, published value) of the reference rows, in the order printed
PUBLISHED = [
    ("H(P|pi)", 0.1602),
    ("ideal candidate", 0.1602),
    ("ideal candidate", 0.1474),
    ("H of function-value chain", 0.4422),
    ("full-set sum-rate bound", 1.4236),
    ("symmetric threshold R0", 0.4422),
    ("H of Z5 sum process", 0.4623),
]
PUBLISHED_TOL = 5e-3

# symmetric path chains whose transitions between neighbours are coupled
# at these values; (coupling, fails at the current commit)
COUPLINGS = [(1e-3, False), (1e-9, True), (1e-12, True)]


def _path_chain(c: float) -> np.ndarray:
    return np.array([[1 - c, c, 0, 0], [c, 1 - 2 * c, c, 0],
                     [0, c, 1 - 2 * c, c], [0, 0, c, 1 - c]])


def _reproduce_rows(stdout: str) -> list:
    """(status, name, value) of every row ``reproduce`` printed."""
    rows = []
    for line in stdout.splitlines():
        if line.startswith("  [") and line[7:9] == "] ":
            rest = line[9:]
            rows.append((line[3:7].strip(), rest[:38].strip(), rest[39:].split()[0]))
    return rows


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Analysis:
    """The rate calculator and its reports: ideal enumeration, invariant
    solves, stochastic complements, entropy-rate filtering, document I/O."""

    def setup(self, seed, workdir):
        rng = _rng(seed, 2)
        inp = {
            "rings": {name: _decimal_rows(rng, m) for name, m in RING_ORDERS.items()},
            "injection": _decimal_rows(rng, 4),
            "joint8": _decimal_rows(rng, 8),
            "workdir": workdir,
        }
        documents.dump_document(
            documents.chain_doc([str(i) for i in range(8)], inp["rings"]["Z8"]),
            workdir / "chain_z8.json")
        documents.dump_document(documents.chain_doc(JOINT_STATES, inp["joint8"]),
                                workdir / "joint8.json")
        for name, rows in inp["rings"].items():
            RING_MAKERS[name]()
            _chain(rows)
        return inp

    def prepare(self, inp):
        def entropy(P):
            return oracles.entropy_rate(P, oracles.power_pi(P))

        z8 = _exact_matrix(inp["rings"]["Z8"])
        return {
            "h_case1": entropy(reference.single_source_chain().P),
            "h_rings": {n: entropy(_exact_matrix(r)) for n, r in inp["rings"].items()},
            "h_injection": entropy(_exact_matrix(inp["injection"])),
            "h_joint": entropy(reference.joint_chain().P),
            "h_joint8": entropy(_exact_matrix(inp["joint8"])),
            "z8_pi": oracles.power_pi(z8),
            "h_z8": entropy(z8),
            "workdir": inp["workdir"],
        }

    def round(self, inp):
        wd = inp["workdir"]
        out = {"case1": rates.single_source_rate(rings.make_modular_ring(4),
                                                 reference.single_source_chain())}
        out["rings"] = {name: rates.single_source_rate(RING_MAKERS[name](), _chain(rows))
                        for name, rows in inp["rings"].items()}
        out["injection"] = rates.injection_search_rate(
            rings.make_modular_ring(6), _chain(inp["injection"]), depth=4)
        g = reference.target_function()
        pres = {"z4": reference.presentation_z4(), "z5": reference.presentation_z5()}
        joint = reference.joint_chain()
        out["case3"] = (rates.computing_rate(g, pres["z4"], joint), rates.cover_region(joint),
                        rates.compare_presentations(g, pres, joint))
        j8 = _chain(inp["joint8"], JOINT_STATES)
        out["nl6"] = (rates.computing_rate(g, pres["z4"], j8, depth=6),
                      rates.cover_region(j8, depth=6))
        out["nl8"] = (rates.computing_rate(g, pres["z4"], j8, depth=8),
                      rates.cover_region(j8, depth=8),
                      rates.compare_presentations(g, pres, j8, depth=8))
        out["reproduce"] = _run_cli(["reproduce", "all"])
        # `rate cover`: `rate single` and `reproduce` with --out-dir crash on
        # numpy booleans in their reports (FOUND in CHANGES.md)
        out["rate_cli"] = _run_cli(["--workspace", str(wd), "--out-dir", str(wd / "rate_out"),
                                    "rate", "cover", "joint8.json"])
        out["chain_cli"] = _run_cli(["--workspace", str(wd), "--out-dir", str(wd / "chain_out"),
                                     "chain", "analyze", "chain_z8.json", "--subset", "0,1,2"])
        out["stiff"] = []
        for c, _ in COUPLINGS:
            chain = markov.MarkovChain(_path_chain(c))
            try:
                out["stiff"].append(markov.invariant_distribution(chain))
            except ArithmeticError:
                out["stiff"].append(None)
        return out

    def check(self, out, expected):
        tol = 1e-9
        checks = []

        def bracket(name, report, h):
            checks.append((f"{name}.h_le_r0_lo_le_r0_hi",
                           h - tol <= report.r0_lo <= report.r0_hi + 1e-12, False))

        bracket("case1", out["case1"], expected["h_case1"])
        for name, report in out["rings"].items():
            h = expected["h_rings"][name]
            bracket(name, report, h)
            if name in FIELDS:
                checks.append((f"{name}.r0_equals_h",
                               abs(report.r0_lo - h) <= tol and abs(report.r0_hi - h) <= tol,
                               False))
        inj = out["injection"]
        his = [hi for _, _, hi in inj.rates]
        checks.append(("injection.best_is_min",
                       len(inj.rates) == 360 and inj.best.r0_hi == min(his), False))
        checks.append(("injection.every_lo_at_least_h",
                       all(lo >= expected["h_injection"] - tol and lo <= hi + 1e-12
                           for _, lo, hi in inj.rates), False))

        comp, cover, compare = out["case3"]
        full = [c for c in cover if len(c.subset) == 3]
        checks.append(("case3.full_cover_equals_h_joint",
                       len(full) == 1 and abs(full[0].lo - expected["h_joint"]) <= tol
                       and abs(full[0].hi - expected["h_joint"]) <= tol, False))
        checks.append(("case3.z4_beats_z5", comp.mode == "lumped" and compare.best[0] == "z4",
                       False))

        comp6, cover6 = out["nl6"]
        comp8, cover8, compare8 = out["nl8"]
        checks.append(("nonlumpable.computing_interval_narrows",
                       comp6.mode == comp8.mode == "bounded"
                       and comp8.r0_lo >= comp6.r0_lo - 1e-12 and comp8.r0_hi <= comp6.r0_hi + 1e-12
                       and comp8.r0_hi - comp8.r0_lo < comp6.r0_hi - comp6.r0_lo, False))
        checks.append(("nonlumpable.cover_intervals_narrow",
                       [c.subset for c in cover6] == [c.subset for c in cover8]
                       and all(b.lo >= a.lo - 1e-12 and b.hi <= a.hi + 1e-12
                               for a, b in zip(cover6, cover8)), False))
        full8 = [c for c in cover8 if len(c.subset) == 3]
        checks.append(("nonlumpable.full_cover_equals_h_joint",
                       len(full8) == 1 and abs(full8[0].hi - expected["h_joint8"]) <= tol, False))
        z4_entry = dict(compare8.entries)["z4"]
        checks.append(("nonlumpable.compare_matches_computing_rate",
                       (z4_entry.r0_lo, z4_entry.r0_hi) == (comp8.r0_lo, comp8.r0_hi), False))

        code, stdout = out["reproduce"]
        rows = _reproduce_rows(stdout)
        pinned = [(name, value) for status, name, value in rows
                  if name in {n for n, _ in PUBLISHED}]
        checks.append(("cli.reproduce_all",
                       code == 0 and bool(rows) and all(s != "FAIL" for s, _, _ in rows)
                       and [n for n, _ in pinned] == [n for n, _ in PUBLISHED]
                       and all(abs(float(v) - want) <= PUBLISHED_TOL
                               for (_, v), (_, want) in zip(pinned, PUBLISHED)), False))

        checks.append(self._check_rate_cli(out, expected))
        checks.append(self._check_chain_cli(out, expected))

        for (c, known), pi in zip(COUPLINGS, out["stiff"]):
            # a symmetric stochastic matrix is doubly stochastic: pi is uniform
            ok = pi is not None and np.abs(pi * len(pi) - 1.0).max() <= 1e-9
            checks.append((f"invariant_distribution.uniform_at_coupling_{c:g}", ok, known))
        return checks

    def _check_rate_cli(self, out, expected):
        code, _ = out["rate_cli"]
        path = expected["workdir"] / "rate_out" / "cover.json"
        library = out["nl6"][1]  # cover_region at the CLI's default depth 6
        ok = False
        if code == 0 and path.exists():
            with open(path, encoding="utf-8") as fh:
                constraints = json.load(fh)["constraints"]
            path.unlink()
            ok = len(constraints) == len(library) and all(
                tuple(c["subset"]) == lib.subset
                and abs(c["bound"][0] - lib.lo) <= 1e-12 and abs(c["bound"][1] - lib.hi) <= 1e-12
                for c, lib in zip(constraints, library))
        return ("cli.rate_cover_matches_library", ok, False)

    def _check_chain_cli(self, out, expected):
        code, _ = out["chain_cli"]
        path = expected["workdir"] / "chain_out" / "chain.json"
        ok = False
        if code == 0 and path.exists():
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            path.unlink()
            pi = expected["z8_pi"]
            S = np.array(doc["complement"]["matrix"])
            pa = pi[:3] / pi[:3].sum()
            ok = (np.abs(np.array(doc["pi"]) - pi).max() <= 1e-9
                  and abs(doc["entropy"] - expected["h_z8"]) <= 1e-9
                  and np.abs(S.sum(axis=1) - 1).max() <= 1e-9
                  and np.abs(pa @ S - pa).max() <= 1e-9)
        return ("cli.chain_analyze_matches_oracle", ok, False)

    def once(self, inp, expected):
        return []


class Suite:
    """A workload made of parts that run one after the other in each round."""

    def __init__(self, *parts):
        self.parts = parts

    def setup(self, seed, workdir):
        return [p.setup(seed, workdir) for p in self.parts]

    def prepare(self, inputs):
        return [p.prepare(i) for p, i in zip(self.parts, inputs)]

    def round(self, inputs):
        return [p.round(i) for p, i in zip(self.parts, inputs)]

    def check(self, outputs, expected):
        return [c for p, o, e in zip(self.parts, outputs, expected) for c in p.check(o, e)]

    def once(self, inputs, expected):
        return [c for p, i, e in zip(self.parts, inputs, expected) for c in p.once(i, e)]


# The typical-set calls run inside `analysis` rather than as a workload of
# their own: two Python-bound workloads at 30 s a run spread too widely from
# run to run, one at 50 s a run spreads less (README.md, "Host noise").
WORKLOADS = {"ml_sim": MLSim(), "analysis": Suite(Analysis(), Typical())}
