import json

import numpy as np
import pytest

from ringcoding import (MarkovChain, invariant_distribution, make_modular_ring, make_product_ring,
                        make_triangular_ring)
from ringcoding import reference
from ringcoding.documents import (
    DocumentError,
    chain_doc,
    chain_from_doc,
    chain_to_doc,
    dump_document,
    function_from_doc,
    function_to_doc,
    load_path,
    modular_ring_doc,
    presentation_from_doc,
    presentation_to_doc,
    ring_from_doc,
    ring_to_doc,
    schedule_from_doc,
    schedule_to_doc,
    simconfig_from_doc,
    triangular_ring_doc,
)


def test_ring_doc_round_trip_table(ml2):
    doc = ring_to_doc(ml2)
    again = ring_from_doc(doc)
    assert again == ml2


def test_ring_doc_constructions():
    assert ring_from_doc(modular_ring_doc(6)) == make_modular_ring(6)
    assert ring_from_doc(triangular_ring_doc(2)) == make_triangular_ring(2)
    doc = {
        "kind": "ring",
        "construction": "product",
        "factors": [modular_ring_doc(2), modular_ring_doc(3)],
    }
    assert ring_from_doc(doc) == make_product_ring(
        make_modular_ring(2), make_modular_ring(3)
    )


def test_ring_doc_unknown_construction():
    with pytest.raises(DocumentError):
        ring_from_doc({"kind": "ring", "construction": "swirl"})


def test_chain_doc_preserves_decimals(source_chain):
    doc = chain_doc(["0", "1", "2", "3"], [[".8142", ".1773", ".0042", ".0042"]] * 4)
    chain = chain_from_doc(doc)
    assert np.abs(chain.P.sum(axis=1) - 1).max() < 1e-15
    # stored strings untouched by loading
    assert doc["rows"][0][0] == ".8142"


def test_chain_doc_tuple_states(joint8):
    doc = chain_to_doc(joint8)
    again = chain_from_doc(doc)
    assert again.states == joint8.states
    assert np.abs(again.P - joint8.P).max() < 1e-9


@pytest.mark.parametrize("coupling", [1e-9, 1e-12, 1e-13])
def test_chain_doc_round_trips_stiff_chain(coupling):
    """A dumped chain reads back within an ulp per entry, however weak its
    coupling: no entry is rounded to zero, so the reloaded chain keeps its
    invariant distribution."""
    chain = MarkovChain([[1 - coupling, coupling], [2 * coupling, 1 - 2 * coupling]])
    again = chain_from_doc(json.loads(json.dumps(chain_to_doc(chain))))
    assert (np.abs(again.P - chain.P) <= np.spacing(chain.P)).all()
    assert np.allclose(invariant_distribution(again), invariant_distribution(chain),
                       rtol=1e-15, atol=0)


def test_chain_doc_rejects_garbage():
    with pytest.raises(DocumentError):
        chain_from_doc({"kind": "chain", "states": ["a"], "rows": [["x"]]})
    # a row summing to zero cannot be renormalized
    with pytest.raises(DocumentError):
        chain_from_doc({"kind": "chain", "states": ["a", "b"], "rows": [[".5", ".5"], ["0", "0"]]})


def test_schedule_round_trip():
    sched = reference.alternating_schedule()
    doc = schedule_to_doc(sched, init=["0.125"] * 8)
    chains, init = schedule_from_doc(doc)
    assert len(chains) == 2
    assert abs(init.sum() - 1) < 1e-12
    assert np.abs(chains[0].P - sched[0].P).max() < 1e-9


@pytest.mark.parametrize("init", [["1"], ["-1", "1", "0", "1"], ["0"] * 4, 5, ["1e400"] * 4])
def test_schedule_refuses_bad_init(init):
    """An ``init`` of the wrong length, with a negative weight, all zeros
    (which cannot be normalized), not a list, or with an entry past the
    float range is refused, naming ``init``."""
    uniform = MarkovChain(np.full((4, 4), 0.25))
    doc = dict(schedule_to_doc([uniform, uniform]), init=init)
    with pytest.raises(DocumentError, match="init"):
        schedule_from_doc(doc)


def test_function_doc_round_trip():
    g = reference.target_function()
    again = function_from_doc(function_to_doc(g))
    assert again.domains == g.domains
    assert np.array_equal(again.table, g.table)


def test_presentation_doc_round_trip():
    p = reference.presentation_z5()
    doc = presentation_to_doc(p, ring_doc=modular_ring_doc(5))
    again = presentation_from_doc(doc)
    assert again.ring == p.ring
    assert again.h == p.h
    assert all(np.array_equal(a, b) for a, b in zip(again.maps, p.maps))


def test_load_path_dispatch(tmp_path):
    path = tmp_path / "ring.json"
    dump_document(modular_ring_doc(4), path)
    ring = load_path(path)
    assert ring == make_modular_ring(4)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentError):
        load_path(bad)
    unknown = tmp_path / "unknown.json"
    dump_document({"kind": "sculpture"}, unknown)
    with pytest.raises(DocumentError):
        load_path(unknown)


def test_simconfig_doc_with_nested_paths(tmp_path):
    dump_document(modular_ring_doc(4), tmp_path / "z4.json")
    dump_document(
        chain_doc(["0", "1", "2", "3"], reference._SOURCE_ROWS), tmp_path / "chain.json"
    )
    doc = {
        "kind": "simconfig",
        "ring": "z4.json",
        "source": "chain.json",
        "n": 8,
        "k": 2,
        "trials": 10,
        "seed": 3,
    }
    dump_document(doc, tmp_path / "sim.json")
    cfg = load_path(tmp_path / "sim.json")
    assert cfg.ring == make_modular_ring(4)
    assert isinstance(cfg.chain, MarkovChain)
    assert cfg.trials == 10


def test_simconfig_validation(tmp_path):
    doc = {
        "kind": "simconfig",
        "ring": modular_ring_doc(4),
        "source": chain_doc(["0", "1", "2", "3"], reference._SOURCE_ROWS),
        "n": 1,
        "k": 1,
        "trials": 5,
    }
    with pytest.raises(DocumentError):
        simconfig_from_doc(doc)


def test_simconfig_refuses_schedule_init():
    """Simulations start a schedule from the uniform distribution, so a
    schedule source that sets ``init`` is refused rather than ignored."""
    doc = {
        "kind": "simconfig",
        "ring": modular_ring_doc(4),
        "source": schedule_to_doc(reference.alternating_schedule(), init=["0.125"] * 8),
        "function": function_to_doc(reference.target_function()),
        "presentation": presentation_to_doc(
            reference.presentation_z4(), ring_doc=modular_ring_doc(4)
        ),
        "n": 6,
        "k": 2,
        "trials": 5,
    }
    with pytest.raises(DocumentError, match="init"):
        simconfig_from_doc(doc)
    del doc["source"]["init"]
    assert len(simconfig_from_doc(doc).schedule) == 2


def test_dump_document_stable(tmp_path):
    doc = modular_ring_doc(4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_document(doc, p1)
    dump_document(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["construction"] == "modular"


def test_simconfig_computing_doc_routes_to_joint(tmp_path):
    from ringcoding.documents import function_to_doc, presentation_to_doc

    doc = {
        "kind": "simconfig",
        "ring": modular_ring_doc(4),
        "source": chain_to_doc(reference.joint_chain()),
        "function": function_to_doc(reference.target_function()),
        "presentation": presentation_to_doc(
            reference.presentation_z4(), ring_doc=modular_ring_doc(4)
        ),
        "n": 6,
        "k": 2,
        "trials": 5,
        "seed": 1,
    }
    cfg = simconfig_from_doc(doc)
    assert cfg.joint is not None and cfg.chain is None
    from ringcoding import run_computing_sim

    res = run_computing_sim(cfg)
    assert res.identity_failures == 0


def test_nested_reference_resolves_against_its_own_file(tmp_path):
    """A presentation loaded through a simconfig reads its ring relative to
    the presentation's own file, as when it is loaded directly."""
    sub = tmp_path / "sub"
    sub.mkdir()
    dump_document(modular_ring_doc(4), sub / "z4.json")
    pres = presentation_to_doc(reference.presentation_z4(), ring_doc=modular_ring_doc(4))
    pres["ring"] = "z4.json"
    dump_document(pres, sub / "pres.json")
    doc = {
        "kind": "simconfig",
        "ring": "sub/z4.json",
        "source": chain_to_doc(reference.joint_chain()),
        "function": function_to_doc(reference.target_function()),
        "presentation": "sub/pres.json",
        "n": 6,
        "k": 2,
        "trials": 5,
    }
    dump_document(doc, tmp_path / "sim.json")
    cfg = load_path(tmp_path / "sim.json")
    assert cfg.presentation.ring == make_modular_ring(4)
    assert load_path(sub / "pres.json").ring == cfg.presentation.ring


def _simconfig_doc(**fields):
    return {"kind": "simconfig", "ring": modular_ring_doc(4),
            "source": chain_doc(["0", "1", "2", "3"], reference._SOURCE_ROWS),
            "n": 8, "k": 2, "trials": 5, **fields}


@pytest.mark.parametrize("field, value", [("n", 8.7), ("k", 2.2), ("trials", 5.9),
                                          ("seed", 1.5), ("budget", 1e7), ("n", "8")])
def test_simconfig_integer_fields_refused(field, value):
    """A simconfig's integer fields are refused when they are not
    integers, rather than truncated (8.7 used to run as n = 8) or parsed."""
    with pytest.raises(DocumentError, match=f"^{field} must be an integer"):
        simconfig_from_doc(_simconfig_doc(**{field: value}))
    assert simconfig_from_doc(_simconfig_doc(seed=3, budget=10**6)).budget == 10**6


@pytest.mark.parametrize("doc, field", [
    ({"kind": "ring", "construction": "modular", "q": 4.5}, "q"),
    ({"kind": "ring", "construction": "triangular", "p": 2.5}, "p"),
    ({**ring_to_doc(make_modular_ring(3)), "zero": 0.5}, "zero"),
    ({**ring_to_doc(make_modular_ring(3)), "one": 1.2}, "one"),
])
def test_ring_integer_fields_refused(doc, field):
    with pytest.raises(DocumentError, match=f"ring '{field}' must be an integer"):
        ring_from_doc(doc)


def test_presentation_h_refuses_fractions_keeps_string_keys():
    """h's JSON keys of integer form ("3") are read as integers, while a
    fractional argument or value is a document error, not truncated."""
    doc = presentation_to_doc(reference.presentation_z4(), ring_doc=modular_ring_doc(4))
    assert all(isinstance(k, str) for k in doc["h"])
    assert presentation_from_doc(doc).h == reference.presentation_z4().h
    for bad in ({"0": 2.5}, {"1.9": 0}, {"x": 0}, {"0": "2"}):
        with pytest.raises(DocumentError, match="h (argument|value) must be an integer"):
            presentation_from_doc({**doc, "h": bad})
