"""querysynth benchmark: one workload, a closed loop with one client.

    python3 perfbench/run.py --workload search --seed 7 --seconds 20 --trace 0

Workloads: synth4, search, check and analyze (see perfbench/README.md).
The run executes the workload's operations back to back in rounds of a
fixed composition, checking each result, until the operations have
taken --seconds; the round in progress is finished. Set-up is timed in
fresh interpreters started between rounds. The run prints one line per
metric, a `# info` line with the environment, the raw times and the
verdict details, and as its last line a JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 wraps the package's
public functions in spans, reports the per-layer metrics instead and
writes the spans to perfbench/out/.

Operation times in the end-to-end metrics are calibrated: a shared
machine runs the same code up to twice as slowly for seconds at a time,
so each raw time is scaled by REF_NOMINAL_S over the time of a fixed
reference loop measured just before it. Each set-up time is scaled the
same way, by REF_PROBE_NOMINAL_S over the time of a reference interpreter
started right after it.

An operation misses when its result disagrees with the reference
answer. Misses caused by the known defect that workloads.KNOWN_DEFECT
names are expected: the inputs that hit it stay in the workloads, and
they lower ok_frac. Every other miss, a raising operation included,
counts in `failed` and makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sourcetree import ROOT, use_source_tree

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
# about the time of `setup_probe.py --reference` on an unloaded 2-core
# virtual machine
REF_PROBE_NOMINAL_S = 0.21
# about the reference loop's time on an unloaded 2-core virtual machine
REF_NOMINAL_S = 0.0035
CALIBRATE_EVERY_S = 0.1
# The factor uses the median of the last CALIBRATE_WINDOW reference times:
# one reference time is noisy, and that noise widens the tails of the
# calibrated latencies, while slow phases last seconds.
CALIBRATE_WINDOW = 5
# The tail is the workload's tail percentile over windows of TAIL_WINDOW
# consecutive operations, at least ten samples beyond it in each, and the
# median over the windows, so that a short burst of load on a shared
# machine moves one window only. Runs with fewer operations fall back to
# the highest rung of TAIL_LADDER with ten samples beyond it over the
# whole run.
TAIL_WINDOW = 1000
TAIL_LADDER = (97.5, 95.0, 90.0, 75.0, 50.0)
# peak_rss_mb is read at the end of the first round that brings the run
# to RSS_AFTER_OPS operations, so that it measures a fixed amount of work:
# the memos grow with every operation, and how many operations fit in
# --seconds depends on the machine's speed. The run goes on until it has
# made that reading.
RSS_AFTER_OPS = 1000
PRIMITIVES = ("restrict", "substitute_xor", "degree", "drop_dead",
              "symmetric_profile", "prime_normal_forms")


def reference_loop() -> int:
    """Fixed work that shares no code with the package but mixes what it
    spends time on: small numpy calls, big-int bit operations and tuple
    allocation."""
    a = np.arange(64)
    x = (1 << 200) - 12345
    acc = 0
    for i in range(1200):
        acc += int((a ^ i).sum())
        x = ((x << 3) ^ (x >> 5)) & ((1 << 256) - 1)
        acc += len(tuple(range(i % 7))) + (x & 255)
    return acc


class Calibration:
    """The factor REF_NOMINAL_S / recent reference time, renewed every
    CALIBRATE_EVERY_S seconds of operations."""

    def __init__(self):
        self.references = []
        self.since = 0.0
        self.factor = 1.0
        self.measure()

    def measure(self) -> None:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        self.references.append(best)
        self.factor = REF_NOMINAL_S / statistics.median(
            self.references[-CALIBRATE_WINDOW:])
        self.since = 0.0

    def before_op(self) -> None:
        if self.since >= CALIBRATE_EVERY_S:
            self.measure()


class SetupProbes:
    """SETUP_RUNS fresh interpreters, each timed from its start to the
    workload's first result, and each followed by a reference
    interpreter that does fixed set-up work without the package. They run
    spread over the measurement, between rounds, so that one slow phase
    does not set the median."""

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.due = [seconds * i / SETUP_RUNS for i in range(SETUP_RUNS)]
        self.walls, self.references = [], []
        self.imports, self.tables = [], []

    def _probe(self, arg: str):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), arg],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        took = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed:\n"
                             + proc.stderr)
        return took, json.loads(proc.stdout.splitlines()[-1])

    def __call__(self, busy: float) -> None:
        """Run the probes due once operations have taken `busy` seconds."""
        while self.due and self.due[0] <= busy:
            self.due.pop(0)
            took, got = self._probe(self.workload)
            self.walls.append(took)
            self.imports.append(got["import_s"])
            self.tables.append(got["tables_s"])
            self.references.append(self._probe("--reference")[0])

    def medians(self):
        """Medians over the probes: calibrated set-up time, raw set-up
        time, reference time, import time and first-result time. Each
        set-up time is calibrated by the reference interpreter run right
        after it: wall * REF_PROBE_NOMINAL_S / reference wall."""
        self(float("inf"))
        return (statistics.median(
                    w * REF_PROBE_NOMINAL_S / r
                    for w, r in zip(self.walls, self.references)),
                statistics.median(self.walls),
                statistics.median(self.references),
                statistics.median(self.imports),
                statistics.median(self.tables))


def install_spans(tracer, boolfun, formula, synth) -> None:
    """Wrap the public functions that name the layers. simulate and
    program_from_json are wrapped where verify_certificate and
    certificate_from_json look them up."""
    for name in PRIMITIVES + ("npn_canonical", "decision_tree_depth"):
        tracer.wrap(boolfun.TruthTable, name, "boolfun." + name)
    tracer.wrap(formula, "recognize_read_once", "formula.recognize_read_once")
    for name in ("query_complexity", "synthesize", "verify_certificate",
                 "certificate_from_json"):
        tracer.wrap(synth, name, "synth." + name)
    tracer.wrap(synth, "program_from_json", "qprogram.program_from_json")
    tracer.wrap(synth, "simulate", "qprogram.simulate",
                count=lambda args: args[1].size)


class Tally:
    """Latencies and verdicts of the operations of one run."""

    def __init__(self):
        self.raw = []          # seconds per operation
        self.calibrated = []
        self.rounds = []       # per round: (ops, raw s, calibrated s, median)
        self.failed = 0        # misses other than the known defect
        self.known_defects = 0
        self.unexpected = []
        self.queries = []
        self.certified = []
        self.engine_entries_added = 0
        self.images = self.images_missed = self.images_excess = 0
        self.peak_rss_mb = self.rss_ops = None

    def add(self, item, result, outcome) -> None:
        if outcome.known_defect:
            self.known_defects += 1
        elif outcome.problems:
            self.failed += 1
            if len(self.unexpected) < 5:
                self.unexpected.append(outcome.problems[0])
        if outcome.queries is not None:
            self.queries.append(outcome.queries)
        if outcome.certified is not None:
            self.certified.append(outcome.certified)
        if isinstance(result, tuple) and len(result) == 3:
            # a traced synth operation also returns the memo entries
            # that synthesize added
            self.engine_entries_added += result[2]
        class_queries = getattr(item, "class_queries", None)
        if class_queries is not None and outcome.queries is not None:
            self.images += 1
            self.images_missed += bool(outcome.problems)
            self.images_excess += outcome.queries - class_queries

    def close_round(self, first: int) -> None:
        raw = self.raw[first:]
        cal = self.calibrated[first:]
        self.rounds.append((len(raw), sum(raw), sum(cal),
                            statistics.median(cal)))

    def ops_per_s(self, calibrated: bool = True) -> float:
        """Median over rounds of the round's throughput."""
        col = 2 if calibrated else 1
        return statistics.median(r[0] / r[col] for r in self.rounds)


def run_loop(wl, seconds: float, tracer, cal: Calibration,
             between_rounds) -> Tally:
    """Run whole rounds until the operations have taken `seconds` and,
    untraced, the run has reached RSS_AFTER_OPS operations."""
    from workloads import Outcome
    tally = Tally()
    op = wl.traced_op if tracer else wl.op
    busy = 0.0
    for batch in _untraced(wl.rounds, tracer):
        first = len(tally.raw)
        for item in batch:
            cal.before_op()
            result = None
            start = time.perf_counter()
            try:
                result = tracer.run_op(op, item) if tracer else op(item)
            except Exception as e:  # a raising operation is a failed one
                error = "%s: %s" % (type(e).__name__, e)
            else:
                error = None
            took = time.perf_counter() - start
            factor = cal.factor
            cal.since += took
            if took >= CALIBRATE_EVERY_S:
                # a long operation may span a change of machine speed
                cal.measure()
                factor = (factor + cal.factor) / 2
            busy += took
            tally.raw.append(took)
            tally.calibrated.append(took * factor)
            outcome = (Outcome([error]) if error is not None
                       else wl.check(item, result))
            tally.add(item, result, outcome)
        tally.close_round(first)
        if tally.peak_rss_mb is None and len(tally.raw) >= RSS_AFTER_OPS:
            tally.peak_rss_mb = peak_rss_mb()
            tally.rss_ops = len(tally.raw)
        if busy >= seconds and (tracer or tally.peak_rss_mb is not None):
            return tally
        between_rounds(busy)


def _untraced(rounds, tracer):
    """The batches of `rounds`, each made with tracing off: making a
    check round synthesizes certificates, which is not the operation."""
    while True:
        if tracer:
            tracer.active = False
        batch = next(rounds)
        if tracer:
            tracer.active = True
        yield batch


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_tail(latencies, percentile: float):
    """(percentile, windows, value): the median over windows of
    TAIL_WINDOW consecutive operations of their latency at `percentile`,
    or one window holding the whole run at a lower rung."""
    n = len(latencies)
    if n >= TAIL_WINDOW:
        windows = [latencies[i:i + TAIL_WINDOW]
                   for i in range(0, n - TAIL_WINDOW + 1, TAIL_WINDOW)]
        return percentile, len(windows), statistics.median(
            float(np.percentile(w, percentile)) for w in windows)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10 or p == TAIL_LADDER[-1]:
            return p, 1, float(np.percentile(latencies, p))


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer, synth, tally, import_s, tables_s) -> dict:
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    busy = sum(tally.raw)
    out = {}
    for name in PRIMITIVES + ("npn_canonical", "decision_tree_depth"):
        out["boolfun.%s.calls" % name] = (calls["boolfun." + name], "count")
        out["boolfun.%s.s" % name] = (self_s["boolfun." + name], "s")
    out["formula.recognize_read_once.calls"] = (
        calls["formula.recognize_read_once"], "count")
    out["formula.recognize_read_once.s"] = (
        self_s["formula.recognize_read_once"], "s")
    out["synth.engine.s"] = (self_s["synth.query_complexity"], "s")
    out["synth.engine.memo_entries"] = (len(synth._cost_memo), "count")
    out["synth.build.s"] = (self_s["synth.synthesize"], "s")
    out["synth.build.engine_entries_added"] = (tally.engine_entries_added,
                                               "count")
    sim_s = total_s["qprogram.simulate"]
    inputs = tracer.counts["qprogram.simulate"]
    out["qprogram.simulate.calls"] = (calls["qprogram.simulate"], "count")
    out["qprogram.simulate.s"] = (sim_s, "s")
    out["qprogram.simulate.inputs"] = (inputs, "count")
    out["qprogram.simulate.us_per_input"] = (
        sim_s / inputs * 1e6 if inputs else 0.0, "us")
    out["qprogram.simulate.op_share"] = (sim_s / busy, "frac")
    verify_s = total_s["synth.verify_certificate"]
    out["synth.verify.s"] = (self_s["synth.verify_certificate"], "s")
    out["synth.verify.simulate_share"] = (
        sim_s / verify_s if verify_s else 0.0, "frac")
    out["qprogram.program_from_json.s"] = (
        self_s["qprogram.program_from_json"], "s")
    out["synth.certificate_from_json.s"] = (
        self_s["synth.certificate_from_json"], "s")
    out["synth.engine_and_primitives.op_share"] = (
        (self_s["synth.query_complexity"]
         + sum(self_s["boolfun." + p] for p in PRIMITIVES)) / busy, "frac")
    out["synth.count_certified_frac"] = (
        statistics.fmean(tally.certified) if tally.certified else 0.0,
        "frac")
    out["setup.import_s"] = (import_s, "s")
    out["setup.tables_s"] = (tables_s, "s")
    out["trace.ops_per_s"] = (tally.ops_per_s(), "1/s")
    out["trace.span_coverage"] = (
        (total_s["op"] - self_s["op"]) / total_s["op"], "frac")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    use_source_tree()
    from querysynth import boolfun, formula, synth
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("workload must be one of "
                     + ", ".join(workloads.WORKLOADS))
    wl = workloads.Workload(args.workload, args.seed)
    workloads.first_result(args.workload)
    tracer = None
    if args.trace:
        # the primitives run millions of times: they are not kept as spans
        tracer = spans.Tracer("boolfun." + p for p in PRIMITIVES)
        install_spans(tracer, boolfun, formula, synth)
    cal = Calibration()
    probes = SetupProbes(args.workload, args.seconds)
    probes(0.0)
    wall0 = time.perf_counter()
    try:
        tally = run_loop(wl, args.seconds, tracer, cal, probes)
    finally:
        if tracer:
            tracer.unwrap_all()
    wall = time.perf_counter() - wall0
    setup_s, setup_raw_s, probe_ref_s, import_s, tables_s = probes.medians()

    attempted = len(tally.raw)
    tail_p, tail_windows, tail_s = latency_tail(tally.calibrated,
                                                wl.tail_percentile)
    queries_per_fn = statistics.fmean(tally.queries)
    misses = tally.failed + tally.known_defects
    if args.trace:
        metrics = layer_metrics(tracer, synth, tally, import_s, tables_s)
        tracer.dump(HERE / "out" / ("spans-%s-seed%d.json"
                                    % (args.workload, args.seed)))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (tally.ops_per_s(), "1/s"),
            "latency_p50_ms": (
                statistics.median(r[3] for r in tally.rounds) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "ok_frac": ((attempted - misses) / attempted, "frac"),
            "queries_per_fn": (queries_per_fn, "queries"),
            "peak_rss_mb": (tally.peak_rss_mb, "MB"),
        }

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit_id(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "loop": "closed", "clients": 1,
        "input_digest": workloads.input_digest(args.workload, args.seed),
        "busy_s": sum(tally.raw), "wall_s": wall, "rounds": len(tally.rounds),
        "reference_ms": statistics.median(cal.references) * 1e3,
        "setup_reference_s": probe_ref_s,
        "raw": {"ops_per_s": tally.ops_per_s(calibrated=False),
                "latency_p50_ms": statistics.median(tally.raw) * 1e3,
                "setup_s": setup_raw_s,
                "latency_tail_ms": latency_tail(
                    tally.raw, wl.tail_percentile)[2] * 1e3},
        "latency_tail": {"percentile": tail_p, "windows": tail_windows,
                         "samples": attempted},
        "miss_frac": misses / attempted,
        "known_defect_misses": tally.known_defects,
        "failed_frac": tally.failed / attempted,
        "first_failures": tally.unexpected,
        "queries_per_fn": queries_per_fn,
        "peak_rss_mb": {"after_ops": tally.rss_ops,
                        "at_end": peak_rss_mb()},
        "count_certified_frac": (statistics.fmean(tally.certified)
                                 if tally.certified else None),
    }
    if tally.images:
        info["catalogued_images"] = {
            "ops": tally.images, "missed": tally.images_missed,
            "excess_queries_per_fn": tally.images_excess / tally.images}
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (name, value, unit))
    print("# info " + json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
