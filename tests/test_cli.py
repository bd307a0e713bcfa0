import json

import numpy as np
import pytest

from ringcoding import MarkovChain, make_modular_ring, reference
from ringcoding.cli import main
from ringcoding.documents import (
    chain_doc,
    chain_to_doc,
    dump_document,
    function_to_doc,
    load_path,
    modular_ring_doc,
    presentation_to_doc,
    ring_to_doc,
    schedule_to_doc,
    triangular_ring_doc,
)
from ringcoding.rates import computing_rate, cover_region, single_source_rate
from ringcoding.simulate import run_single_source_sim


@pytest.fixture()
def docs(tmp_path):
    dump_document(modular_ring_doc(4), tmp_path / "z4.json")
    dump_document(triangular_ring_doc(2), tmp_path / "ml2.json")
    dump_document(
        chain_doc(["0", "1", "2", "3"], reference._SOURCE_ROWS), tmp_path / "source.json"
    )
    dump_document(chain_to_doc(reference.joint_chain()), tmp_path / "joint.json")
    dump_document(
        chain_doc(reference._VALUE_STATES, reference._VALUE_ROWS),
        tmp_path / "values.json",
    )
    dump_document(function_to_doc(reference.target_function()), tmp_path / "g.json")
    dump_document(
        presentation_to_doc(reference.presentation_z4(), ring_doc=modular_ring_doc(4)),
        tmp_path / "pres4.json",
    )
    dump_document(
        presentation_to_doc(reference.presentation_z5(), ring_doc=modular_ring_doc(5)),
        tmp_path / "pres5.json",
    )
    reducible = chain_doc(["a", "b"], [["1", "0"], ["0", "1"]])
    dump_document(reducible, tmp_path / "reducible.json")
    (tmp_path / "broken.json").write_text("{oops")
    return tmp_path


def run(args, tmp_path):
    return main(["--workspace", str(tmp_path)] + args)


def test_ring_ideals_lists_three(docs, capsys):
    assert run(["ring", "ideals", "z4.json"], docs) == 0
    out = capsys.readouterr().out
    assert "3 left ideals" in out


def test_ring_inspect_triangular(docs, capsys):
    assert run(["ring", "inspect", "ml2.json"], docs) == 0
    out = capsys.readouterr().out
    assert "order 4" in out and "Char 2" in out


def test_malformed_doc_fails_validation(docs, capsys):
    assert run(["ring", "inspect", "broken.json"], docs) == 1
    assert "error:" in capsys.readouterr().err


def test_chain_analyze_reference(docs, capsys):
    assert run(["chain", "analyze", "source.json"], docs) == 0
    out = capsys.readouterr().out
    assert "H(P|pi) = 0.1595" in out


def test_chain_analyze_value_chain(docs, capsys):
    assert run(["chain", "analyze", "values.json"], docs) == 0
    out = capsys.readouterr().out
    assert "H(P|pi) = 0.44" in out


def test_chain_analyze_subset(docs, capsys):
    assert run(["chain", "analyze", "source.json", "--subset", "0,2"], docs) == 0
    assert "stochastic complement" in capsys.readouterr().out


def test_chain_analyze_reducible(docs, capsys):
    assert run(["chain", "analyze", "reducible.json"], docs) == 1
    assert "reducible" in capsys.readouterr().err


def test_chain_analyze_repeated_subset_state_refused(docs, capsys):
    assert run(["chain", "analyze", "source.json", "--subset", "0,0"], docs) == 1
    assert "distinct states" in capsys.readouterr().err


def test_chain_analyze_stiff_chain_is_answered(docs, capsys):
    """Blocks {a,b} and {c,d} coupled at 1e-14: censoring subtracts
    nothing, so pi and the complement are exact rather than refused."""
    e = "0.00000000000001"
    rows = [["0.5", "0.5", e, "0"], ["0.5", "0.5", "0", e],
            [e, "0", "0.5", "0.5"], ["0", e, "0.5", "0.5"]]
    dump_document(chain_doc(["a", "b", "c", "d"], rows), docs / "stiff.json")
    assert run(["chain", "analyze", "stiff.json", "--subset", "a"], docs) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("invariant distribution:") + 1
    assert [line.split() for line in lines[start:start + 4]] == [
        [s, "0.250000"] for s in "abcd"]
    assert lines[lines.index("stochastic complement on ['a']:") + 1].split() == ["1.0000"]


def test_chain_analyze_numeric_refusal_exits_2(docs, capsys, monkeypatch):
    """A computation that refuses its input is a numeric failure (exit 2),
    not bad input."""
    from ringcoding import cli

    def refuse(chain, subset):
        raise ArithmeticError("refused")

    monkeypatch.setattr(cli, "stochastic_complement", refuse)
    assert run(["chain", "analyze", "source.json", "--subset", "0"], docs) == 2
    assert "error: refused" in capsys.readouterr().err


def test_rate_single(docs, capsys):
    assert run(["rate", "single", "z4.json", "source.json"], docs) == 0
    out = capsys.readouterr().out
    assert "R0 = 0.1595" in out


def test_rate_single_emits_json_on_dense_chain(docs, capsys):
    """On this dense chain ``exact`` comes from a numpy comparison."""
    w = np.random.default_rng(0).uniform(0.05, 1.0, size=(4, 4))
    w /= w.sum(axis=1, keepdims=True)
    rows = [[f"{v:.6f}" for v in row] for row in w]
    dump_document(chain_doc(["0", "1", "2", "3"], rows), docs / "dense.json")
    out_dir = docs / "rate"
    assert run(["-o", str(out_dir), "rate", "single", "z4.json", "dense.json"], docs) == 0
    assert json.loads((out_dir / "rate.json").read_text())["exact"] in (True, False)


def _dense_rows(seed, m):
    w = np.random.default_rng(seed).uniform(0.05, 1.0, size=(m, m))
    w /= w.sum(axis=1, keepdims=True)
    return [[f"{v:.6f}" for v in row] for row in w]


def test_rate_intervals_print_bracketed(docs, capsys):
    """On dense chains the coset and projection processes are not
    lumpable: a bounded quantity prints as ``[lo, hi]`` at 4 decimals and
    an exact one as its value alone."""
    def bracket(lo, hi):
        return f"[{lo:.4f}, {hi:.4f}]"

    dump_document(chain_doc(["0", "1", "2", "3"], _dense_rows(0, 4)), docs / "dense.json")
    dump_document(chain_doc(reference.joint_chain().states, _dense_rows(1, 8)),
                  docs / "dense8.json")
    dense, dense8 = load_path(docs / "dense.json"), load_path(docs / "dense8.json")

    assert run(["rate", "single", "z4.json", "dense.json"], docs) == 0
    lines = capsys.readouterr().out.splitlines()
    report = single_source_rate(load_path(docs / "z4.json"), dense)
    bounded = [t for t in report.terms if not t.quotient_exact]
    assert bounded
    for t in report.terms:
        quot = f"{t.quotient_hi:.4f}" if t.quotient_exact else bracket(t.quotient_lo,
                                                                       t.quotient_hi)
        assert f"{t.complement:>12.4f}{quot:>20}" in next(
            line for line in lines if line.startswith(t.label))

    assert run(["rate", "compute", "g.json", "pres4.json", "dense8.json"], docs) == 0
    out = capsys.readouterr().out
    rep = computing_rate(reference.target_function(), reference.presentation_z4(), dense8)
    assert rep.mode == "bounded"
    assert (f"mode: bounded; symmetric threshold per source: "
            f"{bracket(rep.r0_lo, rep.r0_hi)} bits/symbol") in out.splitlines()

    assert run(["rate", "cover", "dense8.json"], docs) == 0
    lines = capsys.readouterr().out.splitlines()
    constraints = cover_region(dense8)
    assert not all(c.exact for c in constraints)
    assert lines[1:] == [
        f"{'{' + ','.join(str(t + 1) for t in c.subset) + '}':<16}"
        f"{f'{c.hi:.4f}' if c.exact else bracket(c.lo, c.hi):>24}"
        for c in constraints
    ]


def test_rate_compute(docs, capsys):
    assert run(["rate", "compute", "g.json", "pres5.json", "joint.json"], docs) == 0
    out = capsys.readouterr().out
    assert "0.4635" in out
    assert "injective on reachable sums: False" in out


def test_rate_cover(docs, capsys):
    assert run(["rate", "cover", "joint.json"], docs) == 0
    out = capsys.readouterr().out
    assert "{1,2,3}" in out and "1.4247" in out


@pytest.mark.parametrize("states", [[[0, 0], [1], [1, 1]], [[0, 0], 1, [1, 1]]])
def test_rate_cover_refuses_ragged_joint_states(docs, capsys, states):
    """Joint states that are not all tuples of one length are bad input
    (exit 1) with a message, not a traceback."""
    dump_document({"kind": "chain", "states": states, "rows": [[".5", ".25", ".25"]] * 3},
                  docs / "ragged.json")
    assert run(["rate", "cover", "ragged.json"], docs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tuples of one length" in err
    assert "Traceback" not in err


def test_rate_compare_refuses_repeated_presentation_name(docs, capsys):
    """A name given twice would drop the first presentation unseen."""
    code = run(["rate", "compare", "g.json", "joint.json",
                "--presentation", "a=pres4.json", "--presentation", "a=pres5.json"], docs)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "'a' is given twice" in captured.err


def test_function_with_repeated_letter_refused(docs, capsys):
    doc = function_to_doc(reference.target_function())
    doc["domains"][0] = [0, 0]
    dump_document(doc, docs / "twice.json")
    assert run(["rate", "compute", "twice.json", "pres4.json", "joint.json"], docs) == 1
    assert "error: a domain repeats a letter" in capsys.readouterr().err


def test_rate_compare(docs, capsys):
    code = run(
        [
            "rate", "compare", "g.json", "joint.json",
            "--presentation", "z4=pres4.json",
            "--presentation", "z5=pres5.json",
        ],
        docs,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "best threshold: z4" in out


def test_simulate_deterministic_output(docs, tmp_path, capsys):
    doc = {
        "kind": "simconfig",
        "ring": "z4.json",
        "source": "source.json",
        "n": 8,
        "k": 2,
        "trials": 50,
        "seed": 5,
    }
    dump_document(doc, docs / "sim.json")
    out1 = docs / "out1"
    out2 = docs / "out2"
    assert run(["-o", str(out1), "simulate", "sim.json"], docs) == 0
    assert run(["-o", str(out2), "simulate", "sim.json"], docs) == 0
    b1 = (out1 / "simresult.json").read_bytes()
    b2 = (out2 / "simresult.json").read_bytes()
    assert b1 == b2
    assert "error probability" in capsys.readouterr().out


def test_simulate_budget_refusal(docs, capsys):
    doc = {
        "kind": "simconfig",
        "ring": "z4.json",
        "source": "source.json",
        "n": 40,
        "k": 6,
        "trials": 5,
        "budget": 1000,
    }
    dump_document(doc, docs / "big.json")
    assert run(["simulate", "big.json"], docs) == 1
    assert "over the state budget 1000" in capsys.readouterr().err


def test_simulate_csv_log(docs):
    """``--csv`` resolves a relative path against the workspace and writes
    a header and one row per trial, the run's kept trial rows."""
    doc = {"kind": "simconfig", "ring": "z4.json", "source": "source.json",
           "n": 8, "k": 3, "trials": 20, "seed": 3}
    dump_document(doc, docs / "sim.json")
    assert run(["simulate", "sim.json", "--csv", "trials.csv"], docs) == 0
    lines = (docs / "trials.csv").read_text().splitlines()
    assert lines[0] == "trial,outcome,coset_size"
    cfg = load_path(docs / "sim.json")
    cfg.keep_trials = True
    rows = run_single_source_sim(cfg).trial_rows
    assert len(rows) == cfg.trials
    assert lines[1:] == [f"{t},{o},{s}" for t, o, s in rows]


def test_simulate_csv_into_missing_directory(docs, capsys):
    """An unwritable ``--csv`` path is an error message and exit 1, not a
    traceback."""
    dump_document({"kind": "simconfig", "ring": "z4.json", "source": "source.json",
                   "n": 6, "k": 2, "trials": 5}, docs / "sim.json")
    assert run(["simulate", "sim.json", "--csv", "absent/trials.csv"], docs) == 1
    assert "error:" in capsys.readouterr().err


def test_out_dir_that_is_a_file(docs, capsys):
    """An ``--out-dir`` that names an existing file is an error message and
    exit 1, not a traceback."""
    (docs / "taken.json").write_text("{}")
    assert run(["-o", str(docs / "taken.json"), "reproduce", "1"], docs) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_refuses_schedule_init(docs, capsys):
    dump_document(schedule_to_doc(reference.alternating_schedule(), init=["1", "0", "0", "0",
                                                                          "0", "0", "0", "0"]),
                  docs / "sched.json")
    doc = {
        "kind": "simconfig",
        "ring": "z4.json",
        "source": "sched.json",
        "function": "g.json",
        "presentation": "pres4.json",
        "n": 6,
        "k": 2,
        "trials": 5,
    }
    dump_document(doc, docs / "sim.json")
    assert run(["simulate", "sim.json"], docs) == 1
    assert "init" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["rate", "compute", "g.json", "pres4.json", "stray.json"],
    ["rate", "compare", "g.json", "stray.json", "--presentation", "z4=pres4.json"],
    ["simulate", "sim.json"],
])
def test_out_of_domain_letter_refused(docs, capsys, command):
    """A joint state whose letter lies outside the function's binary
    alphabet is bad input (exit 1) with a message, not a traceback."""
    joint = reference.joint_chain()
    states = list(joint.states)
    states[1] = (0, 0, 2)
    dump_document(chain_to_doc(MarkovChain(joint.P, states=states)), docs / "stray.json")
    dump_document({"kind": "simconfig", "ring": "z4.json", "source": "stray.json",
                   "function": "g.json", "presentation": "pres4.json",
                   "n": 6, "k": 2, "trials": 5}, docs / "sim.json")
    assert run(command, docs) == 1
    assert "error: letter 2 outside alphabet 2" in capsys.readouterr().err


@pytest.mark.parametrize("kind, command", [
    ("simconfig source", ["simulate", "sim.json"]),
    ("ring", ["rate", "compare", "g.json", "joint.json", "--presentation", "p=pres.json"]),
])
def test_non_object_nested_document_refused(docs, capsys, kind, command):
    """A nested reference that is neither a path nor a JSON object is a
    document error (exit 1) naming what was expected, not a traceback."""
    dump_document({"kind": "simconfig", "ring": "z4.json", "source": 5,
                   "n": 8, "k": 2, "trials": 5}, docs / "sim.json")
    dump_document({"kind": "presentation", "ring": 7, "maps": [], "h": {}},
                  docs / "pres.json")
    assert run(command, docs) == 1
    assert f"error: {kind} must be a JSON object, not int" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["rate", "compute", "g.json", "frac_pres.json", "joint.json"],
    ["ring", "inspect", "frac_ring.json"],
    ["rate", "compute", "frac_g.json", "pres4.json", "joint.json"],
])
def test_fractional_entries_refused(docs, capsys, command):
    """A fractional presentation map, ring table or function table entry
    is bad input (exit 1) with a message, not truncated to an integer."""
    pres = presentation_to_doc(reference.presentation_z4(), ring_doc=modular_ring_doc(4))
    pres["maps"][1][1] = 2.7
    dump_document(pres, docs / "frac_pres.json")
    ring = ring_to_doc(make_modular_ring(4))
    ring["add"][0][0] = 0.9
    dump_document(ring, docs / "frac_ring.json")
    g = function_to_doc(reference.target_function())
    g["table"][2] = 2.5
    dump_document(g, docs / "frac_g.json")
    assert run(command, docs) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "must be integers" in err


def test_reproduce_case_1(docs, capsys):
    assert run(["reproduce", "1"], docs) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_reproduce_case_4_row_is_pinned(docs, capsys):
    """Case 4's row comes from one sampled 100,000-step path: its text
    pins that path's stream."""
    assert run(["reproduce", "4"], docs) == 0
    assert capsys.readouterr().out == (
        "case 4\n"
        "  [pass] pair frequencies over n=100000         worst 2.33 sigma"
        "             expected within 3 sigma/entry\n"
        "         non-homogeneous schedule, function process still matches\n")


def test_reproduce_emits_json(docs, capsys):
    for case in ("6", "all"):
        out_dir = docs / f"rep_{case}"
        assert run(["-o", str(out_dir), "reproduce", case], docs) == 0
        payload = json.loads((out_dir / "reproduce.json").read_text())
        assert all(row["ok"] is not False for row in payload["6"])


def test_reproduce_all_prints_the_same_stdout_every_run(docs, capsys):
    """The runtime row prints its verdict; the measured seconds go only to
    the JSON report, so two runs print the same text."""
    outs = []
    for i in range(2):
        assert run(["-o", str(docs / f"rep{i}"), "reproduce", "all"], docs) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "runtime                                under 1s" in outs[0]
    runtime = [row for row in json.loads((docs / "rep0" / "reproduce.json").read_text())["1"]
               if row["name"] == "runtime"]
    assert len(runtime) == 1 and 0 < runtime[0]["seconds"] < 1 and runtime[0]["ok"] is True


def test_reproduce_case_3_flags_intermediates(docs, capsys):
    assert run(["reproduce", "3"], docs) == 0
    out = capsys.readouterr().out
    assert "info" in out
    assert "do not match the published intermediates" in out


@pytest.mark.parametrize("args, message", [
    (["reproduce", "7"], "invalid choice"),
    ([], "required"),
    (["--bogus", "ring", "ideals", "z4.json"], "unrecognized arguments"),
    (["rate", "single", "z4.json"], "required: CHAIN"),
    (["rate", "compare", "g.json", "joint.json"], "required: --presentation"),
    (["rate", "cover", "joint.json", "--presentation", "a=b"], "unrecognized arguments"),
    (["rate", "cover", "joint.json", "--depth", "0"], "--depth: must be an integer of at least 1"),
    (["rate", "cover", "joint.json", "--depth", "-2"], "--depth: must be an integer of at least 1"),
    (["rate", "single", "z4.json", "source.json", "--depth", "0"], "at least 1, not '0'"),
    (["rate", "compute", "g.json", "pres4.json", "joint.json", "--depth", "x"], "not 'x'"),
    (["rate", "compare", "g.json", "joint.json", "--presentation", "z4=pres4.json",
      "--depth", "-1"], "at least 1, not '-1'"),
])
def test_usage_errors_exit_validation(docs, capsys, args, message):
    """argparse's usage errors end with the validation exit code, 1, and
    keep their message on stderr."""
    with pytest.raises(SystemExit) as exc:
        run(args, docs)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("field, value, doc", [
    ("n", 8.7, "sim.json"), ("trials", 5.9, "sim.json"), ("q", 4.5, "z4.json"),
])
def test_fractional_document_field_refused(docs, capsys, field, value, doc):
    """A fractional simconfig or ring field is bad input (exit 1) with a
    message, not truncated to an integer."""
    sim = {"kind": "simconfig", "ring": "z4.json", "source": "source.json",
           "n": 8, "k": 2, "trials": 5}
    dump_document(sim, docs / "sim.json")
    target = json.loads((docs / doc).read_text())
    dump_document({**target, field: value}, docs / doc)
    assert run(["simulate", "sim.json"], docs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}" in err
    assert f"must be an integer, not {value}" in err


def test_chain_with_repeated_state_labels_refused(docs, capsys):
    dump_document(chain_doc(["a", "a"], [["0.5", "0.5"], ["0.5", "0.5"]]), docs / "twice.json")
    assert run(["chain", "analyze", "twice.json"], docs) == 1
    assert "state labels must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["zero", "one"])
def test_ring_identity_outside_the_ring_refused(docs, capsys, field):
    """A table ring whose zero or one is no element is bad input (exit 1)
    with a message, not an IndexError traceback."""
    ring = ring_to_doc(make_modular_ring(4))
    ring[field] = 7
    dump_document(ring, docs / "bad_ring.json")
    assert run(["ring", "inspect", "bad_ring.json"], docs) == 1
    assert "zero and one must be elements in 0..3" in capsys.readouterr().err


def test_simulate_refuses_nan_eps(docs, capsys):
    """A NaN eps would fail every typicality verdict and report an error
    probability of 1; it is refused with the validation exit code."""
    dump_document({"kind": "simconfig", "ring": "z4.json", "source": "source.json",
                   "n": 6, "k": 2, "trials": 5, "decoder": "typicality", "eps": "nan"},
                  docs / "sim.json")
    assert run(["simulate", "sim.json"], docs) == 1
    assert "eps must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [True, False])
def test_simulate_refuses_boolean_eps(docs, capsys, eps):
    """A JSON boolean is not an eps: true would otherwise run as eps 1.0
    and report an error probability of 1 with exit code 0."""
    dump_document({"kind": "simconfig", "ring": "z4.json", "source": "source.json",
                   "n": 6, "k": 2, "trials": 5, "decoder": "typicality", "eps": eps},
                  docs / "sim.json")
    assert run(["simulate", "sim.json"], docs) == 1
    assert "'eps' must be a number" in capsys.readouterr().err
