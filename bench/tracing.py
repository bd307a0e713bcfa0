"""Spans and counts around ringcoding's public functions, installed from
outside the package.

Each traced function is replaced, at every module attribute that binds it,
by a wrapper that records a span (label, start, end, parent).  Methods are
replaced on their class.  Spans are kept in memory per round; ``summary``
turns one round's spans into the per-layer metrics and ``dump`` writes
every span to a JSON file when the run ends.  tracemalloc runs only inside
the simulation runs of the first traced round: its cost (about a fifth of
an ``ml_sim`` round) would swell every time measured inside those runs.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc

# (module, attribute) -> span label; "Class.method" names a method
FUNCTIONS = {
    ("rings", "enumerate_left_ideals"): "rings.enumerate_left_ideals",
    ("markov", "invariant_distribution"): "markov.invariant_distribution",
    ("markov", "stochastic_complement"): "markov.stochastic_complement",
    ("markov", "quotient_entropy_rate_bounds"): "markov.quotient_entropy_rate_bounds",
    ("functions", "sum_process_chain"): "functions.sum_process_chain",
    ("rates", "single_source_rate"): "rates.single_source_rate",
    ("rates", "injection_search_rate"): "rates.injection_search_rate",
    ("rates", "computing_rate"): "rates.computing_rate",
    ("rates", "cover_region"): "rates.cover_region",
    ("rates", "compare_presentations"): "rates.compare_presentations",
    ("typicality", "sample_path"): "typicality.sample_path",
    ("typicality", "enumerate_typical_paths"): "typicality.enumerate_typical_paths",
    ("typicality", "enumerate_confusable"): "typicality.enumerate_confusable",
    ("typicality", "SupremusTester.__init__"): "typicality.SupremusTester",
    ("typicality", "SupremusTester.verdict"): "typicality.supremus_verdict",
    ("simulate", "SequenceSpace.__init__"): "simulate.SequenceSpace",
    ("simulate", "SequenceSpace.encode_keys"): "simulate.encode_keys",
    ("simulate", "SequenceSpace.log_probs"): "simulate.log_probs",
    ("simulate", "TypicalSetDecoder.__init__"): "simulate.TypicalSetDecoder",
    ("simulate", "run_single_source_sim"): "simulate.run_single_source_sim",
    ("simulate", "run_computing_sim"): "simulate.run_computing_sim",
    ("documents", "load_path"): "documents.load_path",
    ("documents", "dump_document"): "documents.dump_document",
    ("reference", "reproduce"): "reference.reproduce",
    ("cli", "main"): "cli.main",
}

SIM_RUNS = ("simulate.run_single_source_sim", "simulate.run_computing_sim")

# per-layer metric -> unit
PER_LAYER = {
    "simulate.sequence_space_s": "s",
    "simulate.encode_keys_s": "s",
    "simulate.log_probs_s": "s",
    "simulate.run_self_s": "s",
    "simulate.typical_decoder_build_s": "s",
    "simulate.words_enumerated": "count",
    "simulate.trials": "count",
    "simulate.peak_alloc_mb": "MB",
    "typicality.sample_path_calls": "count",
    "typicality.sample_path_s": "s",
    "typicality.enumerate_typical_paths_s": "s",
    "typicality.supremus_tester_build_s": "s",
    "typicality.supremus_verdicts": "count",
    "typicality.typical_paths": "count",
    "typicality.leaf_yield_ratio": "ratio",
    "typicality.enumerate_confusable_s": "s",
    "markov.invariant_distribution_calls": "count",
    "markov.invariant_distribution_s": "s",
    "markov.stochastic_complement_calls": "count",
    "markov.stochastic_complement_s": "s",
    "markov.quotient_entropy_rate_bounds_s": "s",
    "rings.enumerate_left_ideals_calls": "count",
    "rings.enumerate_left_ideals_s": "s",
    "functions.sum_process_chain_calls": "count",
    "functions.sum_process_chain_s": "s",
    "rates.single_source_rate_s": "s",
    "rates.injection_search_rate_s": "s",
    "rates.computing_rate_s": "s",
    "rates.cover_region_s": "s",
    "rates.compare_presentations_s": "s",
    "documents.load_path_s": "s",
    "documents.dump_document_s": "s",
    "reference.reproduce_s": "s",
    "cli.main_self_s": "s",
}

# inclusive time metrics: metric -> span label
_TIMES = {
    "simulate.sequence_space_s": "simulate.SequenceSpace",
    "simulate.encode_keys_s": "simulate.encode_keys",
    "simulate.log_probs_s": "simulate.log_probs",
    "simulate.typical_decoder_build_s": "simulate.TypicalSetDecoder",
    "typicality.sample_path_s": "typicality.sample_path",
    "typicality.enumerate_typical_paths_s": "typicality.enumerate_typical_paths",
    "typicality.supremus_tester_build_s": "typicality.SupremusTester",
    "typicality.enumerate_confusable_s": "typicality.enumerate_confusable",
    "markov.invariant_distribution_s": "markov.invariant_distribution",
    "markov.stochastic_complement_s": "markov.stochastic_complement",
    "markov.quotient_entropy_rate_bounds_s": "markov.quotient_entropy_rate_bounds",
    "rings.enumerate_left_ideals_s": "rings.enumerate_left_ideals",
    "functions.sum_process_chain_s": "functions.sum_process_chain",
    "rates.single_source_rate_s": "rates.single_source_rate",
    "rates.injection_search_rate_s": "rates.injection_search_rate",
    "rates.computing_rate_s": "rates.computing_rate",
    "rates.cover_region_s": "rates.cover_region",
    "rates.compare_presentations_s": "rates.compare_presentations",
    "documents.load_path_s": "documents.load_path",
    "documents.dump_document_s": "documents.dump_document",
    "reference.reproduce_s": "reference.reproduce",
}

# call-count metrics: metric -> span label
_CALLS = {
    "typicality.sample_path_calls": "typicality.sample_path",
    "markov.invariant_distribution_calls": "markov.invariant_distribution",
    "markov.stochastic_complement_calls": "markov.stochastic_complement",
    "rings.enumerate_left_ideals_calls": "rings.enumerate_left_ideals",
    "functions.sum_process_chain_calls": "functions.sum_process_chain",
}


class Span:
    __slots__ = ("label", "parent", "start", "end", "busy", "nested", "resumed")

    def __init__(self, label, parent, start, nested):
        self.label = label
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0  # time the call itself was running (generators pause)
        self.nested = nested  # an enclosing span has the same label
        self.resumed = start


class Tracer:
    """Records spans while ``active``; one list of spans per round."""

    def __init__(self):
        self.active = False
        self.watch_memory = False
        self.rounds = []  # list of (spans, counts)
        self._spans = []
        self._stack = []
        self._counts = {}

    # ------------------------------------------------------------ install

    def install(self, package) -> None:
        """Wrap every traced function at each module attribute binding it."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for (mod_name, attr), label in FUNCTIONS.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], label))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, label)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)

    def _wrap(self, fn, label):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if label in SIM_RUNS and tracer.watch_memory:
                tracemalloc.start()
            span = tracer._open(label)
            tracer._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(span)
                tracer._after(label, args)

        return wrapper

    def _wrap_generator(self, fn, label):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            supremus = signature.bind(*args, **kwargs).arguments.get("supremus", True)
            inner = fn(*args, **kwargs)
            span = tracer._open(label)
            try:
                while True:
                    tracer._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(span)
                    if supremus:
                        tracer._count("typical_paths")
                    yield item
            finally:
                inner.close()

        return wrapper

    # ------------------------------------------------------------ spans

    def _open(self, label) -> Span:
        parent = self._stack[-1] if self._stack else None
        nested = any(s.label == label for s in self._stack)
        span = Span(label, parent, time.perf_counter(), nested)
        self._spans.append(span)
        return span

    def _enter(self, span: Span) -> None:
        span.resumed = time.perf_counter()
        self._stack.append(span)

    def _leave(self, span: Span) -> None:
        now = time.perf_counter()
        span.busy += now - span.resumed
        span.end = now
        self._stack.pop()

    def _count(self, key, amount=1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def _after(self, label, args) -> None:
        if label in SIM_RUNS:
            self._count("trials", args[0].trials)
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self._counts["peak_alloc_mb"] = max(self._counts.get("peak_alloc_mb", 0.0), peak)
        elif label == "simulate.SequenceSpace":
            self._count("words", getattr(args[0], "count", 0))
        elif label == "typicality.supremus_verdict":
            if any(s.label == "typicality.enumerate_typical_paths" for s in self._stack):
                self._count("supremus_verdicts")

    # ------------------------------------------------------------ rounds

    def begin_round(self, watch_memory: bool) -> None:
        self._spans, self._counts, self._stack = [], {}, []
        self.watch_memory = watch_memory
        self.active = True

    def end_round(self) -> None:
        self.active = False
        self.rounds.append((self._spans, self._counts))

    def summary(self, index: int) -> dict:
        """Per-layer metrics of one round."""
        spans, counts = self.rounds[index]
        busy, calls, child_busy = {}, {}, {}
        for s in spans:
            calls[s.label] = calls.get(s.label, 0) + 1
            if not s.nested:
                busy[s.label] = busy.get(s.label, 0.0) + s.busy
            if s.parent is not None:
                child_busy[id(s.parent)] = child_busy.get(id(s.parent), 0.0) + s.busy

        def self_time(labels):
            return sum(s.busy - child_busy.get(id(s), 0.0)
                       for s in spans if s.label in labels and not s.nested)

        out = {metric: busy.get(label, 0.0) for metric, label in _TIMES.items()}
        out.update({metric: calls.get(label, 0) for metric, label in _CALLS.items()})
        out["simulate.run_self_s"] = self_time(SIM_RUNS)
        out["cli.main_self_s"] = self_time(("cli.main",))
        out["simulate.words_enumerated"] = counts.get("words", 0)
        out["simulate.trials"] = counts.get("trials", 0)
        out["simulate.peak_alloc_mb"] = counts.get("peak_alloc_mb", 0.0)
        verdicts = counts.get("supremus_verdicts", 0)
        paths = counts.get("typical_paths", 0)
        out["typicality.supremus_verdicts"] = verdicts
        out["typicality.typical_paths"] = paths
        out["typicality.leaf_yield_ratio"] = paths / verdicts if verdicts else 0.0
        return out

    def dump(self, path, header: dict) -> None:
        """Write every recorded span, round by round, as JSON."""
        rounds = []
        for spans, counts in self.rounds:
            index = {id(s): i for i, s in enumerate(spans)}
            rounds.append({
                "counts": counts,
                "spans": [
                    [s.label, index[id(s.parent)] if s.parent is not None else -1,
                     s.start, s.end, s.busy]
                    for s in spans
                ],
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "span_fields": ["label", "parent", "start", "end", "busy"],
                       "rounds": rounds}, fh)
