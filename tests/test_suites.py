"""Suite plumbing: report shape, orbit helpers, reduced-size runs.

The expensive full-population campaigns run from the acceptance module;
here the suites execute at small caps so a plumbing regression (merge
order, recorder counts, extras schema) surfaces in seconds.
"""

import dataclasses
import json
import random

import pytest

from querysynth import suites
from querysynth.boolfun import NpnTransform, TruthTable, _degree_table
from querysynth.qprogram import ClassicalQuery, Output
from querysynth.suites import (
    FAILURE_CAP,
    SUITES,
    SuiteReport,
    _census4,
    _certify_chunk,
    _Recorder,
    and_orbit,
    run_suite,
)
from querysynth.synth import Certificate, _cost_table


def one_point_tables(n):
    size = 1 << n
    out = set()
    for m in range(size):
        out.add(1 << m)
        out.add(((1 << size) - 1) ^ (1 << m))
    return out


# ---------------------------------------------------------------------------
# orbit and census helpers


def test_and_orbit_matches_one_point_criterion():
    for n in (2, 3, 4):
        assert and_orbit(n) == one_point_tables(n)


def test_and_orbit_sizes():
    assert {n: len(and_orbit(n)) for n in (2, 3, 4, 5)} == \
        {2: 8, 3: 16, 4: 32, 5: 64}


def test_per_arity_tables_are_built_once():
    for build in (lambda: _cost_table(4), lambda: and_orbit(4),
                  lambda: _degree_table(4)):
        assert build() is build()


def test_census_is_orbit_invariant():
    census = _census4()
    rng = random.Random(11)
    for _ in range(200):
        t = TruthTable(4, rng.getrandbits(16))
        perm = list(range(4))
        rng.shuffle(perm)
        g = NpnTransform(tuple(perm), rng.getrandbits(4), rng.getrandbits(1))
        assert census[t.bits] == census[g.apply(t).bits]


def test_census_class_count_frozen():
    import numpy as np
    assert int(np.unique(_census4()).size) == 222


# ---------------------------------------------------------------------------
# registry and report shape


def test_registry_contents():
    assert set(SUITES) == {"symmetric", "primitives", "depth", "sweep4",
                           "structural", "counting", "sample5"}
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def _assert_coherent(rep: SuiteReport):
    assert rep.checked == rep.passed + rep.failed
    assert rep.ok == (rep.failed == 0)
    obj = rep.to_json()
    assert set(obj) == {"suite", "population", "checked", "passed", "failed",
                        "failures", "wallTime", "extras"}
    json.dumps(obj)  # must be serializable as-is


def test_symmetric_suite_small():
    rep = run_suite("symmetric", max_n=4)
    _assert_coherent(rep)
    assert rep.ok, rep.failures
    assert rep.population == 4 + 8 + 16 + 32
    assert set(rep.extras["countsByArity"]) == {"1", "2", "3", "4"}
    # 3-bit symmetric costs: two constants, AND/OR patterns at three,
    # everything else at two
    assert rep.extras["countsByArity"]["3"] == {"0": 2, "2": 10, "3": 4}


def test_symmetric_suite_at_arity_seven():
    # best mode, synthesize then verify, on all 256 profiles at n = 7,
    # one arity past the default campaign's max_n = 6
    rep = run_suite("symmetric", max_n=7)
    _assert_coherent(rep)
    assert rep.ok, rep.failures
    assert rep.population == sum(1 << (n + 1) for n in range(1, 8))
    assert rep.extras["countsByArity"]["7"] == {"0": 2, "4": 8, "5": 30,
                                                "6": 212, "7": 4}


def test_primitives_suite_small():
    rep = run_suite("primitives", max_n=6)
    _assert_coherent(rep)
    assert rep.ok, rep.failures


def test_depth_suite_small():
    rep = run_suite("depth", max_n=4)
    _assert_coherent(rep)
    assert rep.ok, rep.failures
    assert rep.extras["readOncePerArity"] == 1000


def test_structural_suite_small():
    rep = run_suite("structural", max_n=4)
    _assert_coherent(rep)
    assert rep.ok, rep.failures
    assert "gluedCostCounts4" in rep.extras
    assert rep.extras["gluedCostCounts4"] == {"3": 256}


def test_counting_suite():
    rep = run_suite("counting")
    _assert_coherent(rep)
    assert rep.ok, rep.failures
    assert rep.extras["populationByArity"] == {"3": 16, "4": 32, "5": 64}


def test_sample5_results_do_not_depend_on_jobs():
    a = run_suite("sample5", seed=3, jobs=1).to_json()
    b = run_suite("sample5", seed=3, jobs=2).to_json()
    a.pop("wallTime")
    b.pop("wallTime")
    assert a == b
    assert a["extras"]["stretch"] is True
    assert a["extras"]["findings"] == []


def test_sample5_seed_changes_draws():
    a = run_suite("sample5", seed=1)
    b = run_suite("sample5", seed=2)
    _assert_coherent(a)
    _assert_coherent(b)
    assert a.ok and b.ok


# ---------------------------------------------------------------------------
# the synthesize-and-verify driver behind sweep4 and sample5


def full_tree(t, var=1, m=0):
    """Classical program reading every variable: arity queries per path."""
    if var > t.arity:
        return Output(t.value(m))
    return ClassicalQuery(var, full_tree(t, var + 1, m),
                          full_tree(t, var + 1, m | 1 << (var - 1)))


RAISES, REJECTED, FOUR_QUERIES = 0x6996, 0x0ff0, 0x1234


@pytest.fixture
def faulty_synthesize(monkeypatch):
    real = suites.synth.synthesize

    def fake(t):
        if t.bits == RAISES:
            raise RuntimeError("boom")
        if t.bits == REJECTED:
            cert = real(t)
            return dataclasses.replace(
                cert, claimed_queries=cert.claimed_queries + 1)
        if t.bits == FOUR_QUERIES:
            # a valid certificate that breaks the dichotomy: 4 queries
            # on a table that is not AND-isomorphic
            return Certificate(t, full_tree(t), 4, "ClassicalOnly", (),
                               False)
        return real(t)

    monkeypatch.setattr(suites.synth, "synthesize", fake)


def test_certify_chunk_one_check_per_table(faulty_synthesize):
    tables = [0x8000, RAISES, 0xff00, REJECTED, FOUR_QUERIES, 0x0001]
    rec, counts, levels, mono, mono_full = _certify_chunk((4, tables))
    assert (rec.checked, rec.passed, rec.failed) == (6, 3, 3)
    assert len(rec.failures) == 3
    assert rec.failures[0] == "hex:6996: synthesis raised RuntimeError('boom')"
    assert rec.failures[1].startswith("hex:0ff0: certificate rejected: ")
    assert "certificate claims" in rec.failures[1]
    assert rec.failures[2] == ("hex:1234: 4 queries but "
                               "AND-isomorphic=False")
    # the raising table is in no tally
    assert sum(counts.values()) == sum(levels.values()) == 5
    assert counts[4] == 3
    # 8000 (AND_4) and ff00 (x4) are monotone; AND_4 costs 4
    assert (mono, mono_full) == (2, [0x8000])


def test_recorder_merge_keeps_first_failures_in_chunk_order():
    parts = []
    for c in range(3):
        rec = _Recorder()
        rec.check(True, "unused")
        for i in range(30):
            rec.check(False, "chunk %d failure %d" % (c, i))
        parts.append(rec)
    merged = _Recorder()
    for rec in parts:
        merged.merge(rec)
    assert (merged.checked, merged.passed, merged.failed) == (93, 3, 90)
    assert len(merged.failures) == FAILURE_CAP == 50
    assert merged.failures == (["chunk 0 failure %d" % i for i in range(30)]
                               + ["chunk 1 failure %d" % i
                                  for i in range(20)])


def test_sample5_reports_synthesis_errors_as_findings(monkeypatch):
    real = suites.synth.synthesize
    bad = min(and_orbit(5))

    def fake(t):
        if t.bits == bad:
            raise RuntimeError("boom")
        return real(t)

    monkeypatch.setattr(suites.synth, "synthesize", fake)
    rep = run_suite("sample5", seed=3, jobs=1)
    _assert_coherent(rep)
    assert rep.failed == 0 and rep.passed == rep.checked == 664
    assert rep.extras["findings"] == [
        "%s: synthesis raised RuntimeError('boom')"
        % TruthTable(5, bad).to_hex_text()]
