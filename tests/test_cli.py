"""Command-line behavior: exit codes, output shapes, file handling."""

import copy
import functools
import hashlib
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import querysynth
from querysynth import cli
from querysynth.boolfun import TruthTable, table_and, table_exact, table_parity
from querysynth.qprogram import (Output, elaborate_xor, parity_program,
                                 program_to_json)
from querysynth.synth import (VerificationReport, certificate_from_json,
                              certificate_to_json, synthesize,
                              verify_certificate)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_human_symmetric(capsys):
    rc, out, err = run_cli(capsys, "analyze", "--fn", "profile:0,1,0,1,0")
    assert rc == 0 and err == ""
    assert "symmetric:      01010" in out
    assert "degree:         4" in out
    assert "depth:          4" in out
    assert "AND-isomorphic: no" in out


def test_analyze_json_fields(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--fn", "hex:8000",
                         "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == 1 and obj["kind"] == "analysis"
    assert obj["arity"] == 4
    assert obj["popcount"] == 1
    assert obj["monotone"] is True
    assert obj["andIsomorphic"] is True
    assert obj["symmetricProfile"] == [0, 0, 0, 0, 1]
    assert obj["readOnce"] == "(x1 & x2 & x3 & x4)"


def test_analyze_read_once_rendering(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--fn", "formula:x1&(x2|~x3)",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out)["readOnce"] == "(x1 & (x2 | ~x3))"


def test_analyze_non_read_once(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--fn", "bin:0110",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out)["readOnce"] is None


def test_analyze_bad_function(capsys):
    rc, _, err = run_cli(capsys, "analyze", "--fn", "hex:zz")
    assert rc == 2
    assert err.startswith("error:")


def test_analyze_writes_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "analyze", "--fn", "bin:0110",
                         "--out", str(target))
    assert rc == 0
    obj = json.loads(target.read_text())
    assert obj["kind"] == "analysis" and obj["arity"] == 2


def analyze_population():
    """Seeded tables at n=1..8: random, with a dead variable, symmetric,
    and one point away from a dead variable."""
    rng = random.Random(20261018)
    for n, count in ((1, 4), (2, 16), (3, 40), (4, 40), (5, 24), (6, 16),
                     (7, 6), (8, 3)):
        half = 1 << (n - 1)
        for i in range(count):
            kind = i % 4
            if kind == 0:
                bits = rng.getrandbits(1 << n)
            elif kind == 1:
                low = rng.getrandbits(half)
                bits = low | (low << half)
            elif kind == 2:
                bits = TruthTable.from_profile(
                    [rng.getrandbits(1) for _ in range(n + 1)]).bits
            else:
                low = rng.getrandbits(half)
                bits = low | ((low ^ (1 << rng.randrange(half))) << half)
            yield TruthTable(n, bits)


# sha256 of the `analyze --format json` output for analyze_population(),
# recorded before npn_canonical, degree and depth were rewritten
FROZEN_ANALYSIS_SHA256 = (
    "adf6c5e253effa577ac2b0f41fda5482177b7f2886d59b9658e0428077bbf55c")


def test_analyze_json_frozen(capsys):
    digest = hashlib.sha256()
    for f in analyze_population():
        text = f.to_hex_text() if f.arity >= 2 else f.to_bin_text()
        rc, out, err = run_cli(capsys, "analyze", "--fn", text,
                               "--format", "json")
        assert rc == 0 and err == "", text
        digest.update(out.encode())
    assert digest.hexdigest() == FROZEN_ANALYSIS_SHA256


# ---------------------------------------------------------------------------
# synth


def test_synth_human_summary(capsys):
    rc, out, err = run_cli(capsys, "synth", "--fn", "hex:8000")
    assert rc == 0 and err == ""
    assert "4 queries" in out
    assert "ClassicalOnly" in out
    assert "optimal" in out


def test_synth_json_payload(capsys):
    rc, out, _ = run_cli(capsys, "synth", "--fn", "profile:0,1,0,1",
                         "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "synthesis"
    assert obj["certificate"]["claimedQueries"] == 2
    assert obj["verification"] == {"ok": True, "level": "FullySimulated"}


def test_synth_out_file_is_a_loadable_certificate(tmp_path, capsys):
    target = tmp_path / "cert.json"
    rc, _, _ = run_cli(capsys, "synth", "--fn", "profile:0,1,0,1,0",
                       "--out", str(target))
    assert rc == 0
    cert = certificate_from_json(json.loads(target.read_text()))
    assert cert.function == table_parity(4)
    assert cert.claimed_queries == 2


def test_synth_refuses_unverified(monkeypatch, capsys):
    bad = VerificationReport(False, "ClassicalOnly", ("deliberate failure",))
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: bad)
    rc, out, err = run_cli(capsys, "synth", "--fn", "hex:8000")
    assert rc == 1
    assert out == ""
    assert "refusing to emit an unverified certificate" in err
    assert "deliberate failure" in err


def test_synth_above_arity_12_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "synth", "--fn", "profile:" + ",".join(
        "1" if w == 3 else "0" for w in range(14)))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "arity <= 12" in err


def test_synth_exact73_is_certified(capsys):
    # the leaf is wider than NPN canonical forms reach
    rc, out, err = run_cli(capsys, "synth", "--fn", "profile:0,0,0,1,0,0,0,0")
    assert rc == 0 and err == ""
    assert "4 queries, CountCertified, optimal" in out


# ---------------------------------------------------------------------------
# simulate


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_simulate_certificate_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    run_cli(capsys, "synth", "--fn", "profile:0,1,0,1,0", "--out", str(target))
    rc, out, _ = run_cli(capsys, "simulate", str(target))
    assert rc == 0
    assert "exact:                yes" in out


def test_arity_one_function_reads_as_bin(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--fn", "bin:01")
    assert rc == 0 and "function:       bin:01" in out
    rc, out, _ = run_cli(capsys, "analyze", "--fn", "bin:01",
                         "--format", "json")
    obj = json.loads(out)
    assert rc == 0 and obj["function"] == obj["npnCanonical"] == "bin:01"
    target = tmp_path / "cert.json"
    rc, out, _ = run_cli(capsys, "synth", "--fn", "bin:01",
                         "--out", str(target))
    assert rc == 0 and out.startswith("bin:01: 1 queries")
    assert json.loads(target.read_text())["function"]["table"] == "bin:01"
    rc, out, _ = run_cli(capsys, "simulate", str(target), "--format", "json")
    assert rc == 0 and json.loads(out)["function"] == "bin:01"


def test_simulate_bare_program_needs_fn(tmp_path, capsys):
    path = _write(tmp_path, "prog.json", program_to_json(parity_program(2)))
    rc, _, err = run_cli(capsys, "simulate", path)
    assert rc == 2
    assert "needs --fn" in err
    rc, out, _ = run_cli(capsys, "simulate", path, "--fn", "bin:0110",
                         "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "simulation"
    assert obj["report"]["exact"] is True
    assert obj["report"]["queriesWorstCase"] == 1


def test_simulate_certificate_without_function(tmp_path, capsys):
    obj = certificate_to_json(synthesize(table_parity(3)))
    del obj["function"]
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err == "error: certificate lacks the 'function' field\n"
    obj["function"] = "bin:01101001"
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: not a valid certificate file:")
    assert err.count("\n") == 1


def test_simulate_reports_failing_inputs(tmp_path, capsys):
    path = _write(tmp_path, "const.json", program_to_json(Output(1)))
    rc, out, _ = run_cli(capsys, "simulate", path, "--fn", "bin:0110",
                         "--format", "json")
    assert rc == 1
    obj = json.loads(out)
    assert obj["report"]["exact"] is False
    assert obj["failingInputs"] == [0, 3]
    rc, out, _ = run_cli(capsys, "simulate", path, "--fn", "bin:0110")
    assert rc == 1
    assert "failing inputs:       00, 11" in out


def test_simulate_failing_inputs_frozen_at_arity_six(tmp_path, capsys):
    # parity(6) run against not-all-equal(6) fails on the 30 inputs of
    # even weight other than 000000 and 111111
    path = _write(tmp_path, "parity6.json", program_to_json(parity_program(6)))
    fn = "profile:0,1,1,1,1,1,0"
    rc, out, _ = run_cli(capsys, "simulate", path, "--fn", fn,
                         "--format", "json")
    assert rc == 1
    assert json.loads(out)["failingInputs"] == [
        3, 5, 6, 9, 10, 12, 15, 17, 18, 20, 23, 24, 27, 29, 30, 33, 34, 36,
        39, 40, 43, 45, 46, 48, 51, 53, 54, 57, 58, 60]
    # the whole JSON, outcome map and amplitudes included
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d45a663c501f66f2f481e2bd605bae53eef6eb46d357a4dde25490753e90c2f4")
    rc, out, _ = run_cli(capsys, "simulate", path, "--fn", fn)
    assert rc == 1
    assert out.splitlines()[-1] == (
        "failing inputs:       110000, 101000, 011000, 100100, 010100, "
        "001100, 111100, 100010")


def test_simulate_axiom_certificates_are_refused(tmp_path, capsys):
    target = tmp_path / "cert.json"
    run_cli(capsys, "synth", "--fn", table_exact(4, 2).to_hex_text(),
            "--out", str(target))
    rc, _, err = run_cli(capsys, "simulate", str(target))
    assert rc == 1
    assert "not simulatable: axiom leaf at" in err


@pytest.mark.parametrize("k", ["x", 2.5, True])
def test_simulate_rejects_non_integer_axiom_k(tmp_path, capsys, k):
    obj = certificate_to_json(synthesize(table_exact(4, 2)))
    leaf = obj["program"]
    assert leaf["kind"] == "axiom" and leaf["k"] == 2
    leaf["k"] = k
    with pytest.raises(ValueError, match="axiom k"):
        certificate_from_json(obj)
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: not a valid certificate file:")
    assert err.count("\n") == 1


def _ub_certificate():
    """A certificate for 2-bit parity whose program is a unitary block."""
    obj = certificate_to_json(synthesize(table_parity(2)))
    obj["program"] = program_to_json(
        elaborate_xor(certificate_from_json(obj).program))
    return obj


def _integer_field_cases():
    """Field name -> (certificate, path to that integer field) for each
    integer field the loaders read."""
    and2 = certificate_to_json(synthesize(table_and(2)))
    xor2 = certificate_to_json(synthesize(table_parity(2)))
    leaf = certificate_to_json(synthesize(table_exact(4, 2)))
    block = _ub_certificate()
    label = next(i for i, v in enumerate(block["program"]["labels"])
                 if v is not None)
    return {
        "var": (and2, ("program", "var")),
        "i": (xor2, ("program", "i")),
        "j": (xor2, ("program", "j")),
        "labels": (block, ("program", "labels", label)),
        "normExp": (block, ("program", "matrices", 0, "normExp")),
        "vars": (leaf, ("program", "vars", 0)),
        "queries": (leaf, ("program", "queries")),
        "claimedQueries": (and2, ("claimedQueries",)),
        "arity": (and2, ("function", "arity")),
    }


INTEGER_FIELDS = ("var", "i", "j", "labels", "normExp", "vars", "queries",
                  "claimedQueries", "arity")


def test_integer_field_cases_load_as_written(tmp_path, capsys):
    cases = _integer_field_cases()
    assert set(cases) == set(INTEGER_FIELDS)
    for name, (obj, path) in cases.items():
        node = obj
        for key in path:
            node = node[key]
        assert type(node) is int, name
        certificate_from_json(obj)
    rc, out, _ = run_cli(capsys, "simulate",
                         _write(tmp_path, "ub.json", _ub_certificate()))
    assert rc == 0 and "exact:                yes" in out


@pytest.mark.parametrize("value", [1.9, "2", True])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_simulate_rejects_non_integer_fields(tmp_path, capsys, field, value):
    obj, path = _integer_field_cases()[field]
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValueError, match="must be an integer"):
        certificate_from_json(obj)
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: not a valid certificate file:")
    assert err.count("\n") == 1


def _bad_program(case):
    """A certificate whose program loads but cannot be simulated."""
    obj = _ub_certificate()
    block = obj["program"]
    if case == "non-unitary block":
        block["matrices"][0]["rows"][0][0] = [2, 0]
    elif case == "label beyond arity":
        block["labels"][0] = 3
    elif case == "var beyond arity":
        obj = certificate_to_json(synthesize(table_parity(2)))
        obj["program"]["j"] = 3
    elif case == "empty block":
        obj["program"] = {"kind": "ub", "labels": [], "children": [],
                          "matrices": [{"normExp": 0, "rows": []}]}
    else:  # the scale 2**100000 overflows a float
        block["matrices"][0]["normExp"] = -100000
    return obj


BAD_PROGRAMS = ("non-unitary block", "label beyond arity", "var beyond arity",
                "empty block", "huge scale")


@pytest.mark.parametrize("case", BAD_PROGRAMS)
def test_simulate_rejects_unsimulatable_programs(tmp_path, capsys, case):
    obj = _bad_program(case)
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot simulate") and err.count("\n") == 1
    rep = verify_certificate(certificate_from_json(obj))
    assert not rep.ok and rep.failures


@pytest.mark.parametrize("case", ["entry beyond float range", "string entry",
                                  "table not a string", "table a number"])
def test_simulate_rejects_malformed_values(tmp_path, capsys, case):
    obj = _ub_certificate()
    rows = obj["program"]["matrices"][0]["rows"]
    if case == "entry beyond float range":
        rows[0][0] = [10 ** 400, 0]
    elif case == "string entry":
        rows[0][0] = ["0.5", 0]
    elif case == "table a number":
        obj["function"]["table"] = 5
    else:
        obj["function"]["table"] = [":"]
    with pytest.raises(ValueError):
        certificate_from_json(obj)
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: not a valid certificate file:")
    assert err.count("\n") == 1


# a mistyped value for each field the loader takes as written
MISTYPED_FIELDS = [
    ("optimal", "no"), ("optimal", 1), ("optimal", None),
    ("level", 3), ("level", None), ("level", ["FullySimulated"]),
    ("rulesUsed", "R3"), ("rulesUsed", {"rule": "R3"}),
    ("rulesUsed", [["R3"]]), ("rulesUsed", [{"detail": "chain"}]),
    ("rulesUsed", [{"rule": 3}]),
    ("rulesUsed", [{"rule": "R9", "detail": [1, {"a": 2}]}]),
    ("rulesUsed", [{"rule": "R9", "detail": None}]),
    ("rulesUsed", [{"rule": "R9", "detail": 7}]),
    ("rulesUsed", [{"rule": "R9", "citation": 7}]),
    ("rulesUsed", [{"rule": "R9", "detail": "chain", "citation": ["x"]}]),
    ("rulesUsed", [{"rule": "R9", "citation": False}]),
]


@pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
def test_certificate_loader_rejects_mistyped_fields(field, value):
    obj = certificate_to_json(synthesize(table_parity(3)))
    obj[field] = value
    with pytest.raises(ValueError, match=field):
        certificate_from_json(obj)


@pytest.mark.parametrize("doc", [[], "certificate", 5, None])
def test_certificate_loader_rejects_non_objects(doc):
    with pytest.raises(ValueError, match="not a certificate document"):
        certificate_from_json(doc)


def test_certificate_loader_reads_optimal_as_written():
    obj = certificate_to_json(synthesize(table_parity(3)))
    for optimal in (True, False):
        obj["optimal"] = optimal
        assert certificate_from_json(obj).optimal is optimal
    del obj["optimal"], obj["rulesUsed"]
    cert = certificate_from_json(obj)
    assert cert.optimal is False and cert.rules_used == ()


def test_certificate_loader_reads_rules_as_written():
    obj = certificate_to_json(synthesize(table_parity(3)))
    obj["rulesUsed"] = [{"rule": "R9"},
                        {"rule": "R3", "detail": "x", "citation": None},
                        {"rule": "R4", "detail": "", "citation": "ref"}]
    assert [(r.rule, r.detail, r.citation)
            for r in certificate_from_json(obj).rules_used] == [
        ("R9", "", None), ("R3", "x", None), ("R4", "", "ref")]


def test_simulate_rejects_a_mistyped_rule(tmp_path, capsys):
    obj = _ub_certificate()
    obj["rulesUsed"] = [{"rule": "R9", "detail": [1, {"a": 2}],
                         "citation": 7}]
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: not a valid certificate file: rulesUsed")
    assert err.count("\n") == 1


def test_simulate_rejects_a_string_optimal(tmp_path, capsys):
    obj = _ub_certificate()
    obj["optimal"] = "no"
    rc, out, err = run_cli(capsys, "simulate", _write(tmp_path, "c.json", obj))
    assert rc == 2 and out == ""
    assert err.startswith("error: not a valid certificate file: optimal")
    assert err.count("\n") == 1


@functools.cache
def _fuzz_bases():
    """Valid certificate documents, one per program node kind and level."""
    return [certificate_to_json(synthesize(f))
            for f in (table_and(2), table_parity(3), table_exact(4, 2),
                      TruthTable(3, 0x19))] + [_ub_certificate()]

# values of every JSON type, integers out of every range the loaders
# check, and integers beyond float range
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.sampled_from([0, -1, 2, 13, -100000, 100000, 10 ** 400, -10 ** 400]),
    st.just([]), st.just({}), st.just([[1, 0]]))


def _slots(doc, path=()):
    """(container path, key) of every value in a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _slots(value, path + (key,))


@st.composite
def mutated_certificates(draw):
    """A valid certificate with one to three keys dropped or values
    replaced by a value of another type or range."""
    bases = _fuzz_bases()
    doc = copy.deepcopy(bases[draw(st.integers(0, len(bases) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        node = doc
        for step in path:
            node = node[step]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            # a copy: a later mutation may edit inside the new value
            node[key] = copy.deepcopy(draw(_ODD_VALUES))
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=mutated_certificates())
def test_simulate_survives_mutated_certificates(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(path)]) in (0, 1, 2)


def test_simulate_deeply_nested_certificate(tmp_path, capsys):
    obj = certificate_to_json(synthesize(table_and(2)))
    obj["program"] = "@"
    head, tail = json.dumps(obj).split('"@"')
    depth = 5000
    leaf = '{"kind": "output", "bit": 0}'
    program = ('{"kind": "cq", "var": 1, "child0": ' * depth + leaf
               + (', "child1": %s}' % leaf) * depth)
    path = tmp_path / "deep.json"
    path.write_text(head + program + tail)
    rc, out, err = run_cli(capsys, "simulate", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


def test_simulate_deeply_nested_blocks(tmp_path, capsys):
    # json.loads nests twice per block (the object and its children), the
    # fold and the input-set walk once each: what the reader admits runs
    block = ('{"kind": "ub", "labels": [null], "matrices": '
             '[{"normExp": 0, "rows": [[[1, 0]]]}], "children": [')
    depth = 450
    program = block * depth + '{"kind": "output", "bit": 0}' + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text(program)
    rc, out, err = run_cli(capsys, "simulate", str(path), "--fn", "bin:00")
    assert rc == 0 and err == ""
    assert out.startswith("exact:                yes\n")


def test_simulate_unreadable_or_garbage_files(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "simulate", str(tmp_path / "missing.json"))
    assert rc == 2 and "cannot read" in err
    path = _write(tmp_path, "junk.json", [1, 2, 3])
    rc, _, err = run_cli(capsys, "simulate", path)
    assert rc == 2 and "not a program or certificate" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite_human(capsys):
    rc, out, err = run_cli(capsys, "verify", "--suite", "counting")
    assert rc == 0 and err == ""
    assert out.startswith("counting:")
    assert "passed over" in out


def test_verify_json_reports(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "counting",
                         "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "verification"
    assert [r["suite"] for r in obj["reports"]] == ["counting"]
    assert obj["reports"][0]["failed"] == 0


def test_verify_multiple_suites(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "counting,sample5",
                         "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert [r["suite"] for r in obj["reports"]] == ["counting", "sample5"]


def test_verify_unknown_suite(capsys):
    rc, _, err = run_cli(capsys, "verify", "--suite", "everything")
    assert rc == 2
    assert "unknown suite" in err


def test_verify_reports_failures_with_exit_1(monkeypatch, capsys):
    from querysynth.suites import SuiteReport

    def fake(name, max_n=None, seed=0, jobs=1):
        return SuiteReport(name, 5, 5, 4, 1, ["one bad case"], 0.01, {})

    monkeypatch.setattr(cli, "run_suite", fake)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "counting")
    assert rc == 1
    assert "FAIL one bad case" in out


def test_verify_max_n_env_and_flag(monkeypatch, capsys):
    monkeypatch.setenv("QUERYSYNTH_MAX_N", "4")
    rc, out, _ = run_cli(capsys, "verify", "--suite", "symmetric",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out)["reports"][0]["population"] == 4 + 8 + 16 + 32
    # an explicit flag wins over the environment
    rc, out, _ = run_cli(capsys, "verify", "--suite", "symmetric",
                         "--max-n", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["reports"][0]["population"] == 4 + 8 + 16


@pytest.mark.parametrize("value", ["0", "-3", "13", "100"])
def test_verify_rejects_max_n_below_one(monkeypatch, capsys, value):
    # above 12 is rejected too: synthesis, depth and read-once
    # recognition all stop at arity 12
    bound = "at least 1" if int(value) < 1 else "at most 12"
    monkeypatch.delenv("QUERYSYNTH_MAX_N", raising=False)
    rc, out, err = run_cli(capsys, "verify", "--suite", "primitives",
                           "--max-n", value)
    assert (rc, out) == (2, "")
    assert err == "error: --max-n must be %s\n" % bound
    monkeypatch.setenv("QUERYSYNTH_MAX_N", value)
    rc, out, err = run_cli(capsys, "verify", "--suite", "primitives")
    assert (rc, out) == (2, "")
    assert err == "error: QUERYSYNTH_MAX_N must be %s\n" % bound


def test_verify_accepts_max_n_twelve(monkeypatch, capsys):
    from querysynth.suites import SuiteReport
    seen = []

    def fake(name, max_n=None, seed=0, jobs=1):
        seen.append(max_n)
        return SuiteReport(name, 1, 1, 1, 0, [], 0.0, {})

    monkeypatch.setattr(cli, "run_suite", fake)
    monkeypatch.delenv("QUERYSYNTH_MAX_N", raising=False)
    rc, _, _ = run_cli(capsys, "verify", "--suite", "depth", "--max-n", "12")
    assert rc == 0
    monkeypatch.setenv("QUERYSYNTH_MAX_N", "12")
    rc, _, _ = run_cli(capsys, "verify", "--suite", "depth")
    assert rc == 0
    assert seen == [12, 12]


def test_verify_jobs_rejected_below_one_and_clamped(monkeypatch, capsys):
    from querysynth.suites import SuiteReport
    seen = []

    def fake(name, max_n=None, seed=0, jobs=1):
        seen.append(jobs)
        return SuiteReport(name, 1, 1, 1, 0, [], 0.0, {})

    monkeypatch.setattr(cli, "run_suite", fake)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for jobs in ("0", "-2"):
        rc, out, err = run_cli(capsys, "verify", "--suite", "counting",
                               "--jobs", jobs)
        assert (rc, out) == (2, "")
        assert err == "error: --jobs must be at least 1\n"
    assert seen == []
    for jobs, want in (("1", 1), ("3", 3), ("1000000", 3)):
        rc, _, _ = run_cli(capsys, "verify", "--suite", "counting",
                           "--jobs", jobs)
        assert rc == 0
        assert seen.pop() == want


def test_verify_bad_env_value(monkeypatch, capsys):
    monkeypatch.setenv("QUERYSYNTH_MAX_N", "four")
    rc, _, err = run_cli(capsys, "verify", "--suite", "counting")
    assert rc == 2
    assert "QUERYSYNTH_MAX_N" in err


# ---------------------------------------------------------------------------
# entry point wiring


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["querysynth"]
    m = re.fullmatch(r"\s*([\w.]+)\s*:\s*(\w+)\s*", target)
    assert m, f"[project.scripts] querysynth = {target!r} is not module:attr"
    module, attr = m.groups()
    assert callable(getattr(importlib.import_module(module), attr))
    return module, attr


def _launchers():
    """Ways to start the `querysynth` command, each as (argv prefix, env).

    The first runs the declared entry point the way the generated console
    script does, against the package this test imports, so it needs no
    install. The second is the installed script, when one is on PATH.
    """
    module, attr = _declared_entry_point()
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'querysynth'; sys.exit({attr}())")
    src = str(Path(querysynth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    yield [sys.executable, "-c", code], env
    exe = shutil.which("querysynth")
    if exe:
        yield [exe], None


def test_console_script_installed():
    for prefix, env in _launchers():
        proc = subprocess.run([*prefix, "analyze", "--fn", "bin:0110"],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, (prefix, proc.stderr)
        assert "symmetric:      010" in proc.stdout
        # sys.exit(main()) must hand main's return code to the shell
        proc = subprocess.run([*prefix, "analyze", "--fn", "hex:zz"],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 2, (prefix, proc.stderr)
        assert proc.stderr.startswith("error:"), (prefix, proc.stderr)
