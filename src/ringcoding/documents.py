"""Self-describing JSON documents for rings, chains, functions,
presentations, schedules and simulation configs.

Every document is an object with a ``kind`` field.  Chain probabilities
are stored as decimal strings so published 4-decimal matrices survive a
round trip exactly; rows are renormalized at load time, never in the
stored document.  Nested references (a presentation's ring, a sim
config's ring, function, presentation and source) may be inline documents
or string paths relative to the file that holds the reference.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .functions import FunctionSpec, Presentation
from .markov import MarkovChain
from .rings import (FiniteRing, _integer, make_modular_ring, make_product_ring,
                    make_triangular_ring)
from .simulate import SimConfig

__all__ = [
    "DocumentError",
    "load_document",
    "load_path",
    "dump_document",
    "ring_to_doc",
    "ring_from_doc",
    "chain_to_doc",
    "chain_from_doc",
    "function_to_doc",
    "function_from_doc",
    "presentation_to_doc",
    "presentation_from_doc",
    "schedule_to_doc",
    "schedule_from_doc",
    "simconfig_from_doc",
]


class DocumentError(ValueError):
    """Raised for malformed or mismatched documents."""


def _require(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} must be a JSON object, not {type(doc).__name__}")
    if key not in doc:
        raise DocumentError(f"{kind} document is missing {key!r}")
    return doc[key]


# ---------------------------------------------------------------- rings


def ring_to_doc(ring: FiniteRing) -> dict:
    """Serialize a ring as its full tables (construction \"table\")."""
    return {
        "kind": "ring",
        "construction": "table",
        "labels": ring.labels,
        "add": ring.add.tolist(),
        "mul": ring.mul.tolist(),
        "zero": ring.zero,
        "one": ring.one,
        "description": ring.description,
    }


def modular_ring_doc(q: int) -> dict:
    return {"kind": "ring", "construction": "modular", "q": q}


def triangular_ring_doc(p: int) -> dict:
    return {"kind": "ring", "construction": "triangular", "p": p}


def _integer_field(doc: dict, key: str, kind: str) -> int:
    """An integer field of a document; 2.5 or "8" is refused, not
    truncated or parsed."""
    value = _require(doc, key, kind)
    try:
        return _integer(value, f"{kind} {key!r}")
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def ring_from_doc(doc: dict) -> FiniteRing:
    construction = _require(doc, "construction", "ring")
    if construction == "modular":
        return make_modular_ring(_integer_field(doc, "q", "ring"))
    if construction == "triangular":
        return make_triangular_ring(_integer_field(doc, "p", "ring"))
    if construction == "product":
        factors = [ring_from_doc(f) for f in _require(doc, "factors", "ring")]
        return make_product_ring(*factors)
    if construction == "table":
        return FiniteRing(
            _require(doc, "labels", "ring"),
            _require(doc, "add", "ring"),
            _require(doc, "mul", "ring"),
            _integer_field(doc, "zero", "ring"),
            _integer_field(doc, "one", "ring"),
            doc.get("description", "table ring"),
        )
    raise DocumentError(f"unknown ring construction {construction!r}")


# ---------------------------------------------------------------- chains


def _state_to_json(state):
    return list(state) if isinstance(state, tuple) else state


def _state_from_json(state):
    return tuple(state) if isinstance(state, list) else state


def chain_to_doc(chain: MarkovChain) -> dict:
    # the shortest string that reads back to the same float: a fixed
    # number of decimals would zero the entries of a stiff chain
    rows = [[repr(float(v)) for v in row] for row in chain.P]
    return {
        "kind": "chain",
        "states": [_state_to_json(s) for s in chain.states],
        "rows": rows,
    }


def chain_doc(states, rows) -> dict:
    """Chain document from decimal-string rows, stored verbatim."""
    return {
        "kind": "chain",
        "states": [_state_to_json(s) for s in states],
        "rows": [[str(v) for v in row] for row in rows],
    }


def chain_from_doc(doc: dict) -> MarkovChain:
    states = [_state_from_json(s) for s in _require(doc, "states", "chain")]
    rows = _require(doc, "rows", "chain")
    try:
        return MarkovChain.from_decimal_rows(rows, states=states)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad chain document: {exc}") from exc


# ---------------------------------------------------------------- schedules


def schedule_to_doc(chains, init=None) -> dict:
    doc = {"kind": "schedule", "chains": [chain_to_doc(c) for c in chains]}
    if init is not None:
        doc["init"] = [str(v) for v in init]
    return doc


def schedule_from_doc(doc: dict):
    chains = [chain_from_doc(c) for c in _require(doc, "chains", "schedule")]
    init = doc.get("init")
    if init is not None:
        try:
            if not isinstance(init, list):
                raise TypeError
            init = np.array([float(Fraction(str(v))) for v in init])
        except (TypeError, ValueError, ArithmeticError):  # 1e400 overflows a float
            raise DocumentError("schedule 'init' must be a list of finite numbers") from None
        states = {c.n for c in chains}
        if states != {len(init)} or (init < 0).any() or not init.sum() > 0:
            raise DocumentError(f"schedule 'init' must give one non-negative weight per state "
                                f"of its chains ({sorted(states)}), not all zero")
        init = init / init.sum()
    return chains, init


# ---------------------------------------------------------------- functions


def function_to_doc(g: FunctionSpec) -> dict:
    return {
        "kind": "function",
        "domains": [list(d) for d in g.domains],
        "codomain": list(g.codomain),
        "table": g.table.reshape(-1).tolist(),
    }


def function_from_doc(doc: dict) -> FunctionSpec:
    domains = _require(doc, "domains", "function")
    codomain = _require(doc, "codomain", "function")
    # FunctionSpec refuses entries that are not integers
    flat = np.asarray(_require(doc, "table", "function"))
    shape = tuple(len(d) for d in domains)
    if flat.size != int(np.prod(shape)):
        raise DocumentError("function table size does not match the domains")
    return FunctionSpec(domains, codomain, flat.reshape(shape))


# ---------------------------------------------------------------- presentations


def presentation_to_doc(p: Presentation, ring_doc: dict | None = None) -> dict:
    return {
        "kind": "presentation",
        "ring": ring_doc or ring_to_doc(p.ring),
        "maps": [m.tolist() for m in p.maps],
        "h": {str(k): v for k, v in p.h.items()},
    }


def presentation_from_doc(doc: dict, base: Path | None = None) -> Presentation:
    ring = ring_from_doc(_deref(_require(doc, "ring", "presentation"), base)[0])
    maps = _require(doc, "maps", "presentation")
    h = _require(doc, "h", "presentation")
    try:
        return Presentation(ring, maps, h)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# ---------------------------------------------------------------- sim configs


def simconfig_from_doc(doc: dict, base: Path | None = None) -> SimConfig:
    ring = ring_from_doc(_deref(_require(doc, "ring", "simconfig"), base)[0])
    eps = doc.get("eps", 0.3)
    if isinstance(eps, bool):  # float() would run true as eps 1.0
        raise DocumentError(f"simconfig 'eps' must be a number, not {eps!r}")
    kwargs = {
        "ring": ring,
        # SimConfig refuses integer fields that are not integers
        "n": _require(doc, "n", "simconfig"),
        "k": _require(doc, "k", "simconfig"),
        "trials": _require(doc, "trials", "simconfig"),
        "seed": doc.get("seed", 0),
        "decoder": doc.get("decoder", "ml"),
        "eps": float(eps),
    }
    if "budget" in doc:
        kwargs["budget"] = doc["budget"]
    if "function" in doc:
        kwargs["function"] = function_from_doc(_deref(doc["function"], base)[0])
    if "presentation" in doc:
        kwargs["presentation"] = presentation_from_doc(*_deref(doc["presentation"], base))
    computing = "presentation" in kwargs
    source = _deref(_require(doc, "source", "simconfig"), base)[0]
    kind = _require(source, "kind", "simconfig source")
    if kind == "chain":
        kwargs["joint" if computing else "chain"] = chain_from_doc(source)
    elif kind == "schedule":
        chains, init = schedule_from_doc(source)
        if init is not None:
            raise DocumentError("simconfig schedule source sets 'init', but simulations "
                                "start a schedule from the uniform distribution")
        kwargs["schedule"] = chains
    else:
        raise DocumentError(f"unsupported simconfig source kind {kind!r}")
    if kwargs.get("schedule") is not None and not computing:
        raise DocumentError("schedule sources are only supported for computing runs")
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


# ---------------------------------------------------------------- generic I/O


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def _deref(ref, base: Path | None):
    """A nested reference as (document, directory its own references are
    relative to): an inline document keeps ``base``; a string path is read
    relative to ``base``, and its references are relative to its file."""
    if not isinstance(ref, str):
        return ref, base
    path = Path(ref) if base is None else Path(base) / ref
    return _read_json(path), path.parent


_LOADERS = {
    "ring": lambda doc, base: ring_from_doc(doc),
    "chain": lambda doc, base: chain_from_doc(doc),
    "schedule": lambda doc, base: schedule_from_doc(doc),
    "function": lambda doc, base: function_from_doc(doc),
    "presentation": presentation_from_doc,
    "simconfig": simconfig_from_doc,
}


def load_document(doc: dict, base: Path | None = None):
    """Instantiate whatever object a document describes."""
    kind = _require(doc, "kind", "document")
    if kind not in _LOADERS:
        raise DocumentError(f"unknown document kind {kind!r}")
    return _LOADERS[kind](doc, base)


def load_path(path) -> object:
    """Read a JSON document file and instantiate it."""
    path = Path(path)
    return load_document(_read_json(path), base=path.parent)


def dump_document(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
