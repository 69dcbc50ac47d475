"""Self-test of the benchmark at tiny sizes: python3 -m pytest -q perfbench"""

import json
import random
import shutil
import subprocess
import sys

import pytest

from sourcetree import ROOT, use_source_tree

use_source_tree()

import workloads  # noqa: E402
from querysynth import synth, table_and, table_parity, TruthTable  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seconds="0.3"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.input_digest(workload, 3, count=40)
    assert first == workloads.input_digest(workload, 3, count=40)
    assert first != workloads.input_digest(workload, 4, count=40)


def test_check_verdicts_at_small_arity():
    # tampered certificates are rejected at every arity; valid ones are
    # accepted where the verifier has no known defect
    items = workloads.check_round(random.Random(9))
    assert any(not item.expect_ok for item in items)
    for item in items:
        if item.expect_ok and item.arity > 6:
            continue
        cert, report = workloads._check_op(item)
        assert report.ok == item.expect_ok, (item.label, report.failures)


def test_reference_facts():
    assert workloads.reference_facts(TruthTable(3, 0)) == (0, 0, False)
    assert workloads.reference_facts(table_parity(5)) == (5, 5, False)
    assert workloads.reference_facts(table_and(4)) == (4, 4, True)
    # x1 alone, on three variables
    assert workloads.reference_facts(TruthTable(3, 0b10101010)) == (1, 1, True)
    assert workloads.reference_facts(TruthTable(3, 0b01100110)) == (2, 2, False)


def test_synthesis_check_catches_a_wrong_count():
    f = TruthTable(4, 0x1ee8)
    cert = synth.synthesize(f)
    report = synth.verify_certificate(cert)
    assert not workloads.check_synthesis(f, cert, report).problems
    wrong = synth.Certificate(f, cert.program, f.arity, cert.level,
                              cert.rules_used, cert.optimal)
    assert workloads.check_synthesis(f, wrong, report).problems


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("synth4", 0, cwd=tmp_path, seconds="1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
