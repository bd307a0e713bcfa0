"""Benchmark of ringcoding: one workload per process, timed in whole rounds
of calls into the package's public API, every output checked.

Run from the root of the repository:

    python3 bench/run.py --workload ml_sim --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``round_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones, from wrappers the tracer
installs around the package's functions, and every span is written to
``bench/out/trace-<workload>-<seed>.json``.  See bench/README.md.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one thread for BLAS and OpenMP, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ml_sim", "analysis"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_numpy() -> None:
    """Put this checkout's src/ first on the path and import numpy, or exit
    without a result when the checkout has no package."""
    if not (SRC / "ringcoding" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ringcoding'} not found; run from a ringcoding checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401


def import_package():
    """A fresh import of ringcoding and of the workloads built on it."""
    for name in [m for m in sys.modules
                 if m in ("ringcoding", "workloads") or m.startswith("ringcoding.")]:
        del sys.modules[name]
    import ringcoding
    from ringcoding import cli  # noqa: F401  (the one module the package does not import)
    import workloads

    if Path(ringcoding.__file__).resolve().parent != (SRC / "ringcoding").resolve():
        sys.exit(f"error: ringcoding was imported from {ringcoding.__file__}, not {SRC}")
    return ringcoding, workloads


def main(argv=None) -> int:
    args = parse_args(argv)
    import_numpy()
    numpy_s = time.perf_counter() - _START
    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, numpy_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, numpy_s) -> int:
    # set-up: everything from process start through numpy's import happens
    # once; importing ringcoding afresh and building the seed's inputs is
    # repeated, and the median repeat is added
    repeats = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        package, workloads = import_package()
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.setup(args.seed, workdir)
        repeats.append(time.perf_counter() - t0)
    setup_s = numpy_s + statistics.median(repeats)
    expected = workload.prepare(inputs)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(package)

    checks = []
    raised = False
    round_times = []
    started = time.perf_counter()
    while not round_times or time.perf_counter() - started < args.seconds:
        gc.collect()
        if tracer:
            tracer.begin_round(watch_memory=not tracer.rounds)
        t0 = time.perf_counter()
        try:
            outputs = workload.round(inputs)
            round_times.append(time.perf_counter() - t0)
        except Exception:  # the run ends at a round that raises
            traceback.print_exc()
            raised = True
            break
        finally:
            if tracer:
                tracer.end_round()
        checks.extend(workload.check(outputs, expected))
        del outputs
    checks.extend(workload.once(inputs, expected))
    if not round_times:
        print("error: no round completed", file=sys.stderr)
        return 1
    failures = [(name, known_fault) for name, ok, known_fault in checks if not ok]
    for name, known_fault in failures:
        print(f"check failed: {name}{' (known fault)' if known_fault else ''}", file=sys.stderr)
    # a round that raised counts as one more failed operation
    attempted = len(checks) + raised
    failed = len(failures) + raised
    correct = not raised and all(known_fault for _, known_fault in failures)

    if tracer:
        metrics = per_layer(tracer, args, round_times)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.median(round_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(f"{args.workload}: {len(round_times)} rounds, round_s "
          f"{', '.join(f'{t:.3f}' for t in round_times)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer(tracer, args, round_times) -> dict:
    from tracing import PER_LAYER

    summaries = [tracer.summary(i) for i in range(len(tracer.rounds))]
    # the first round also runs tracemalloc: it gives the memory peak, and
    # the later rounds (when there are any) give the times
    timed = summaries[1:] or summaries
    metrics = {name: {"value": statistics.median(s[name] for s in timed), "unit": unit}
               for name, unit in PER_LAYER.items()}
    metrics["simulate.peak_alloc_mb"]["value"] = summaries[0]["simulate.peak_alloc_mb"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "round_s": round_times,
        "per_round": summaries,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
