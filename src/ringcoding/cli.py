"""Command-line front end: inspect rings and chains, compute rate regions,
run simulations and re-check the built-in reference cases.

Exit codes: 0 success, 1 validation failure (bad documents/arguments),
2 numeric failure (a reproduction check missed its pinned value, or a
computation refused an input it cannot solve accurately).

Document paths are resolved against --workspace (or the
RINGCODING_WORKSPACE environment variable) when relative.
"""

import argparse
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import reference
from .documents import DocumentError, dump_document, load_path
from .functions import FunctionSpec, Presentation
from .markov import (
    MarkovChain,
    conditional_entropy,
    invariant_distribution,
    is_irreducible,
    stochastic_complement,
)
from .rates import (
    _interval,
    compare_presentations,
    computing_rate,
    cover_region,
    single_source_rate,
)
from .rings import FiniteRing, enumerate_left_ideals, quotient_partition, verify_ring_axioms
from .simulate import SimConfig, run_computing_sim, run_single_source_sim

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2

ENV_WORKSPACE = "RINGCODING_WORKSPACE"


@dataclass
class Workspace:
    """Path resolution and optional machine-readable output directory."""

    root: Path
    out_dir: Path | None = None

    def resolve(self, ref: str) -> Path:
        p = Path(ref)
        return p if p.is_absolute() else self.root / p

    def emit(self, name: str, payload: dict):
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        dump_document(payload, self.out_dir / name)


def _load_as(ws: Workspace, ref: str, expected: type, what: str):
    obj = load_path(ws.resolve(ref))
    if not isinstance(obj, expected):
        raise DocumentError(f"{ref} is not a {what} document")
    return obj


def cmd_ring(args, ws: Workspace) -> int:
    ring = _load_as(ws, args.doc, FiniteRing, "ring")
    if args.action == "inspect":
        report = verify_ring_axioms(ring)
        print(f"{ring.description}: order {ring.order}, Char {ring.characteristic}, "
              f"{'field' if ring.is_field() else 'non-field ring'}")
        for line in report.lines():
            print(" ", line)
        if not report.ok:
            for name, witness in report.failures:
                print(f"  counterexample for {name}: {witness}")
        ws.emit("ring.json", {"order": ring.order, "characteristic": ring.characteristic,
                              "axioms_ok": report.ok})
        return EXIT_OK if report.ok else EXIT_NUMERIC
    ideals = enumerate_left_ideals(ring)
    print(f"{ring.description}: {len(ideals)} left ideals")
    for ideal in ideals:
        cosets = " | ".join(
            "{" + ",".join(ring.labels[i] for i in c) + "}" for c in quotient_partition(ideal)
        )
        print(f"  order {ideal.order:>3}  {ideal.label():<24} cosets: {cosets}")
    ws.emit("ideals.json", {"ideals": [list(i.members) for i in ideals]})
    return EXIT_OK


def cmd_chain(args, ws: Workspace) -> int:
    chain = _load_as(ws, args.doc, MarkovChain, "chain")
    if not is_irreducible(chain):
        print("chain is reducible: no unique invariant distribution", file=sys.stderr)
        return EXIT_VALIDATION
    pi = invariant_distribution(chain)
    h = conditional_entropy(chain.P, pi)
    print(f"states: {chain.n}, irreducible: yes")
    print("invariant distribution:")
    for s, p in zip(chain.states, pi):
        print(f"  {s!s:<12} {p:.6f}")
    print(f"H(P|pi) = {h:.4f} bits/symbol")
    payload = {"states": [str(s) for s in chain.states], "pi": pi.tolist(), "entropy": h}
    if args.subset:
        labels = [s.strip() for s in args.subset.split(",")]
        idx = [chain.index(_coerce_state(l, chain)) for l in labels]
        S = stochastic_complement(chain, idx)
        print(f"stochastic complement on {labels}:")
        for row in S:
            print("  " + "  ".join(f"{v:.4f}" for v in row))
        payload["complement"] = {"subset": labels, "matrix": S.tolist()}
    ws.emit("chain.json", payload)
    return EXIT_OK


def _coerce_state(label: str, chain: MarkovChain):
    for s in chain.states:
        if str(s) == label:
            return s
    raise DocumentError(f"state {label!r} not in the chain")


def cmd_rate_single(args, ws: Workspace) -> int:
    ring = _load_as(ws, args.ring, FiniteRing, "ring")
    chain = _load_as(ws, args.chain, MarkovChain, "chain")
    report = single_source_rate(ring, chain, depth=args.depth)
    print(report.format_table())
    ws.emit("rate.json", report.to_dict())
    return EXIT_OK


def cmd_rate_compute(args, ws: Workspace) -> int:
    g = _load_as(ws, args.function, FunctionSpec, "function")
    pres = _load_as(ws, args.presentation, Presentation, "presentation")
    joint = _load_as(ws, args.joint, MarkovChain, "chain")
    report = computing_rate(g, pres, joint, depth=args.depth)
    if report.rate is not None:
        print(report.rate.format_table())
    print(f"mode: {report.mode}; symmetric threshold per source: "
          f"{_interval(report.r0_lo, report.r0_hi)} bits/symbol")
    print(f"h injective on reachable sums: {report.injective_on_sums}")
    for n in report.notes:
        print(f"note: {n}")
    ws.emit("rate.json", report.to_dict())
    return EXIT_OK


def cmd_rate_cover(args, ws: Workspace) -> int:
    joint = _load_as(ws, args.joint, MarkovChain, "chain")
    constraints = cover_region(joint, depth=args.depth)
    print(f"{'sources':<16}{'sum-rate bound':>24}")
    for c in constraints:
        label = "{" + ",".join(str(t + 1) for t in c.subset) + "}"
        print(f"{label:<16}{_interval(c.lo, c.hi, c.exact):>24}")
    ws.emit("cover.json", {
        "constraints": [
            {"subset": list(c.subset), "bound": [c.lo, c.hi], "exact": c.exact}
            for c in constraints
        ]
    })
    return EXIT_OK


def cmd_rate_compare(args, ws: Workspace) -> int:
    g = _load_as(ws, args.function, FunctionSpec, "function")
    joint = _load_as(ws, args.joint, MarkovChain, "chain")
    named = {}
    for spec in args.presentation:
        if "=" not in spec:
            raise DocumentError("--presentation expects NAME=PATH")
        name, ref = spec.split("=", 1)
        if name in named:
            raise DocumentError(f"--presentation {name!r} is given twice")
        named[name] = _load_as(ws, ref, Presentation, "presentation")
    report = compare_presentations(g, named, joint, depth=args.depth)
    print(report.format_table())
    ws.emit("compare.json", report.to_dict())
    return EXIT_OK


def cmd_simulate(args, ws: Workspace) -> int:
    cfg = _load_as(ws, args.config, SimConfig, "simulation config")
    if args.csv:
        cfg.keep_trials = True
    if cfg.presentation is not None:
        result = run_computing_sim(cfg)
    else:
        result = run_single_source_sim(cfg)
    if args.csv:
        with open(ws.resolve(args.csv), "w", encoding="utf-8") as fh:
            fh.write("trial,outcome,coset_size\n")
            for trial, outcome, size in result.trial_rows:
                fh.write(f"{trial},{outcome},{size}\n")
    print(f"trials: {result.trials}  errors: {result.errors}  ties: {result.ties}")
    print(f"error probability: {result.error_prob:.4f} (stderr {result.stderr:.4f})")
    sizes = ", ".join(f"{k}x{v}" for k, v in sorted(result.coset_sizes.items()))
    print(f"solution-coset sizes encountered: {sizes}")
    if result.identity_checked:
        print(
            f"codeword-sum identity: {result.identity_checked - result.identity_failures}"
            f"/{result.identity_checked} trials exact"
        )
    ws.emit("simresult.json", result.to_dict())
    return EXIT_OK


def cmd_reproduce(args, ws: Workspace) -> int:
    cases = sorted(reference.REPRODUCIBLE_CASES) if args.case == "all" else [args.case]
    failed = 0
    payload = {}
    for case in cases:
        rows = reference.reproduce(case)
        print(f"case {case}")
        for row in rows:
            status = "info" if row.ok is None else ("pass" if row.ok else "FAIL")
            print(f"  [{status:^4}] {row.name:<38} {row.value:<28} expected {row.expected}")
            if row.note:
                print(f"         {row.note}")
            if row.ok is False:
                failed += 1
        payload[case] = [asdict(row) for row in rows]
    ws.emit("reproduce.json", payload)
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting as validation failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _depth(text: str) -> int:
    """``--depth``: an integer of at least 1; anything else is a usage error."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringcoding",
        description="rate regions and simulations for linear coding over finite rings",
    )
    parser.add_argument(
        "--workspace", "-w",
        default=os.environ.get(ENV_WORKSPACE, "."),
        help=f"base directory for relative document paths (env {ENV_WORKSPACE})",
    )
    parser.add_argument(
        "--out-dir", "-o", default=None,
        help="directory for machine-readable JSON reports (optional)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="inspect a ring or list its left ideals")
    p_ring.add_argument("action", choices=["inspect", "ideals"])
    p_ring.add_argument("doc", help="ring document")
    p_ring.set_defaults(handler=cmd_ring)

    p_chain = sub.add_parser("chain", help="analyze a Markov chain document")
    p_chain.add_argument("action", choices=["analyze"])
    p_chain.add_argument("doc", help="chain document")
    p_chain.add_argument("--subset", help="comma-separated states for a stochastic complement")
    p_chain.set_defaults(handler=cmd_chain)

    p_rate = sub.add_parser("rate", help="compute achievable-rate reports")
    modes = p_rate.add_subparsers(dest="mode", required=True)
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=_depth, default=6,
                       help="truncation depth for entropy-rate bounds")
    p_modes = {}
    for mode, docs, handler, text in (
        ("single", ["ring", "chain"], cmd_rate_single,
         "threshold of a Markov source on the ring itself"),
        ("compute", ["function", "presentation", "joint"], cmd_rate_compute,
         "symmetric threshold for computing a function"),
        ("cover", ["joint"], cmd_rate_cover, "sum-rate constraints for coding every source"),
        ("compare", ["function", "joint"], cmd_rate_compare,
         "thresholds of several presentations of a function"),
    ):
        p_modes[mode] = modes.add_parser(mode, parents=[depth], help=text)
        for doc in docs:
            p_modes[mode].add_argument(doc, metavar=doc.upper(), help=f"{doc} document")
        p_modes[mode].set_defaults(handler=handler)
    p_modes["compare"].add_argument("--presentation", action="append", required=True,
                                    metavar="NAME=PATH", help="a named presentation document")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo coding simulation")
    p_sim.add_argument("config", help="simulation config document")
    p_sim.add_argument("--csv", help="write a per-trial log for external plotting")
    p_sim.set_defaults(handler=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="re-check a built-in reference case")
    p_rep.add_argument("case", choices=sorted(reference.REPRODUCIBLE_CASES) + ["all"])
    p_rep.set_defaults(handler=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ws = Workspace(
        root=Path(args.workspace),
        out_dir=Path(args.out_dir) if args.out_dir else None,
    )
    try:
        return args.handler(args, ws)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DocumentError, ValueError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
