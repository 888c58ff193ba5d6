"""Runs one workload in its own process and prints one JSON line of results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR [--trace-file PATH]

Ops run back to back in a closed loop with one client, after one untimed
warm-up op. The loop stops once the timed ops add up to ``--seconds``.
Untraced (``--trace 0``), every op is timed bare, and a fixed reference
computation is timed between ops so that each op's time can be expressed in
units of the reference. Traced (``--trace 1``), each input runs once bare
and once with the tracer's wrappers installed, so the tracing overhead is
measured on the same inputs in the same process.

After each op, outside its timed window, the worker hashes the op's output
and, the first time an input runs, checks the output's content. Every later
run of the same input must reproduce the first digest exactly; an input
that ran only once is run a second time after the loop.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tradeflow
import workloads
from tracing import Tracer

#: The reference computation is timed again once this much op time has
#: passed since its last sample (so before every op longer than this).
REF_EVERY_S = 0.05
#: Each op is divided by the median of this many latest reference samples.
REF_SAMPLES = 5
#: Fresh interpreters timed importing tradeflow.cli, spread evenly over the
#: untraced run so that set-up is sampled in the same host conditions as
#: the ops; ``setup_s`` is their median.
SETUP_REPEATS = 8

#: Per-layer metrics, in the order BENCHMARK.json lists them, with units.
LAYER_UNITS = {
    "cli.self_ms": "ms",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "cli.self_us_per_row": "us",
    "integrator.integrate_ms": "ms",
    "integrator.samples": "count",
    "integrator.events": "count",
    "integrator.us_per_sample": "us",
    "analytic.simulate_ms": "ms",
    "analytic.segments": "count",
    "analytic.states_at_ms": "ms",
    "analytic.state_at_calls": "count",
    "analytic.state_at_ms": "ms",
    "region.scan_ms": "ms",
    "region.nodes": "count",
    "region.feasible_nodes": "count",
    "region.k_interval_ms": "ms",
    "money.feasibility_calls": "count",
    "scenario.parse_ms": "ms",
    "scenario.parse_calls": "count",
    "crosscheck.compare_ms": "ms",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.harness_ms": "ms",
    "trace.overhead_frac": "ratio",
    "check.max_discrepancy": "eta",
}


def reference_work() -> int:
    """A fixed computation that never touches tradeflow: interpreter float
    arithmetic, 17-digit float formatting and a small numpy expression, the
    kinds of work the ops do. Timing it next to the ops tracks how fast the
    host runs this process at that moment."""
    acc = 0.0
    parts = []
    for i in range(1500):
        acc = acc * 0.999 + i * 1e-3
        if i % 4 == 0:
            parts.append(f"{acc:.17g}")
    grid = np.linspace(0.0, 2.0, 512)
    acc += float((np.maximum(grid - 1.0, 0.0) - np.maximum(1.0 - grid, 0.0)).sum())
    return len(",".join(parts)) + int(acc)


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def time_setup() -> float:
    """Seconds for a fresh interpreter to import tradeflow.cli. No timeout is
    passed: with one, the wait polls with sleeps of up to 50 ms and the
    times come out in 25-50 ms steps."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import tradeflow.cli"], check=True)
    return perf_counter() - t0


class Run:
    """Bookkeeping of one measured loop: op times, failures, digests."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.bare_s: list[float] = []
        self.bare_ref: list[float] = []  # reference time in force at each bare op
        self.setup_s: list[float] = []
        self.traced_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, dict] = {}
        self.digests: dict[int, str] = {}
        self.runs_per_input: dict[int, int] = {}
        self.bad_inputs: set[int] = set()
        self.max_discrepancy = 0.0

    def _fail(self, inp: workloads.Input, reason: str) -> None:
        entry = self.failures.setdefault(
            inp.index,
            {"seed": self.seed, "input": inp.index, "reasons": [], "ops": 0,
             "scenario": inp.text},
        )
        entry["ops"] += 1
        if reason not in entry["reasons"]:
            entry["reasons"].append(reason)

    def op(self, inp: workloads.Input, tracer: Tracer | None = None) -> tuple[float, bool]:
        """Run one op, time it, then digest and check its output. Returns the
        op's duration in seconds and whether it succeeded."""
        for path in self.workload.output_files():  # no stale file can pass for output
            path.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            if tracer is None:
                outcome = self.workload.run(inp)
                elapsed = perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = perf_counter()
                    with tracer.span("op"):
                        outcome = self.workload.run(inp)
                    elapsed = perf_counter() - t0
        except Exception:  # an op that raises is a failed op, not a crash
            self._fail(inp, traceback.format_exc(limit=-3).strip())
            return perf_counter() - t0, False
        return elapsed, self.after_op(inp, outcome)

    def after_op(self, inp: workloads.Input, outcome: workloads.Outcome) -> bool:
        if outcome.rc != 0:
            self._fail(inp, f"exit code {outcome.rc}: {outcome.stderr.strip()}")
            return False
        digest = self.workload.digest(outcome)
        seen = self.digests.setdefault(inp.index, digest)
        self.runs_per_input[inp.index] = self.runs_per_input.get(inp.index, 0) + 1
        if seen != digest:
            self._fail(inp, "output differs from an earlier run of the same input")
            return False
        if self.runs_per_input[inp.index] == 1:
            problems = self.workload.check(inp, outcome)
            if outcome.discrepancy is not None:
                self.max_discrepancy = max(self.max_discrepancy, outcome.discrepancy)
            if problems:
                self.bad_inputs.add(inp.index)
                for p in problems:
                    self._fail(inp, p)
        elif inp.index in self.bad_inputs:
            self._fail(inp, "output failed its check on the first run")
        return inp.index not in self.bad_inputs


def measure(run: Run, inputs: list[workloads.Input], seconds: float, traced: bool,
            tracer: Tracer) -> None:
    run.op(inputs[0])  # untimed warm-up, still digested and checked
    refs = [time_reference() for _ in range(REF_SAMPLES + 1)][1:]  # first one warms up
    spent = since_ref = next_setup = 0.0
    i = 0
    while spent < seconds:
        if not traced and spent >= next_setup:
            run.setup_s.append(time_setup())
            next_setup += seconds / SETUP_REPEATS
        if since_ref >= REF_EVERY_S:
            # Between ops, as a fresh CLI process would, start from a
            # collected heap; otherwise when the cyclic collector last ran
            # decides how much garbage a later op's peak memory includes.
            gc.collect()
            refs = refs[1:] + [time_reference()]
            since_ref = 0.0
        inp = inputs[i % len(inputs)]
        i += 1
        bare, ok = run.op(inp)
        spent += bare
        since_ref += bare
        run.attempted += 1
        if ok:
            run.bare_s.append(bare)
            run.bare_ref.append(statistics.median(refs))
        else:
            run.failed += 1
        if traced:
            tracer.op_index = len(run.traced_s)
            mark = tracer.mark()
            with_trace, ok = run.op(inp, tracer)
            spent += with_trace
            run.attempted += 1
            if ok:
                run.traced_s.append(with_trace)
                layer_counts(run, tracer)
            else:
                run.failed += 1
                tracer.rollback(mark)
    # Every input that ran must have run twice with identical output.
    for inp in inputs:
        if run.runs_per_input.get(inp.index) == 1:
            run.op(inp)


def layer_counts(run: Run, tracer: Tracer) -> None:
    """Counts read from what the traced op returned and wrote, taken after
    the op so they add nothing to its spans."""
    c = tracer.counts
    for series in tracer.returned["integrator.integrate"]:
        c["integrator.samples"] += len(series)
        c["integrator.events"] += len(series.events)
    for traj in tracer.returned["analytic.simulate"]:
        c["analytic.segments"] += len(traj.segments)
    for scan in tracer.returned["region.scan"]:
        c["region.nodes"] += len(scan.sigma1) * len(scan.eta_a1)
        c["region.feasible_nodes"] += int(scan.feasible_mask().sum())
    rows, size = run.workload.rows_and_bytes()
    c["cli.rows_written"] += rows
    c["cli.bytes_written"] += size
    for kept in tracer.returned.values():
        kept.clear()


def layer_metrics(run: Run, tracer: Tracer) -> dict[str, float]:
    n = len(run.traced_s)
    own = tracer.self_seconds()
    spans = tracer.span_counts()
    c = tracer.counts

    def per_op_ms(name: str) -> float:
        return 1e3 * own.get(name, 0.0) / n

    def per_op(count: float) -> float:
        return count / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "cli.self_ms": per_op_ms("cli"),
        "cli.rows_written": per_op(c["cli.rows_written"]),
        "cli.bytes_written": per_op(c["cli.bytes_written"]),
        "integrator.integrate_ms": per_op_ms("integrator.integrate"),
        "integrator.samples": per_op(c["integrator.samples"]),
        "integrator.events": per_op(c["integrator.events"]),
        "analytic.simulate_ms": per_op_ms("analytic.simulate"),
        "analytic.segments": per_op(c["analytic.segments"]),
        "analytic.states_at_ms": per_op_ms("analytic.states_at"),
        "analytic.state_at_calls": per_op(spans.get("analytic.state_at", 0)),
        "analytic.state_at_ms": per_op_ms("analytic.state_at"),
        "region.scan_ms": per_op_ms("region.scan"),
        "region.nodes": per_op(c["region.nodes"]),
        "region.feasible_nodes": per_op(c["region.feasible_nodes"]),
        "region.k_interval_ms": per_op_ms("region.k_interval"),
        "money.feasibility_calls": per_op(c["money.feasibility_calls"]),
        "scenario.parse_ms": per_op_ms("scenario.parse"),
        "scenario.parse_calls": per_op(spans.get("scenario.parse", 0)),
        "crosscheck.compare_ms": per_op_ms("crosscheck.compare"),
        "trace.op_ms": 1e3 * statistics.fmean(run.traced_s),
        "trace.untraced_op_ms": 1e3 * statistics.fmean(run.bare_s),
        "trace.harness_ms": per_op_ms("op"),
        "check.max_discrepancy": run.max_discrepancy,
    }
    m["cli.self_us_per_row"] = ratio(1e3 * m["cli.self_ms"], m["cli.rows_written"])
    m["integrator.us_per_sample"] = ratio(
        1e3 * m["integrator.integrate_ms"], m["integrator.samples"])
    m["trace.overhead_frac"] = m["trace.op_ms"] / m["trace.untraced_op_ms"] - 1.0
    return {name: m[name] for name in LAYER_UNITS}


def summarize(run: Run, traced: bool, tracer: Tracer) -> dict:
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.failed == 0 and not run.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_samples": len(run.bare_s),
        "setup_samples_s": run.setup_s,
        "fail_frac": run.failed / run.attempted,
        "max_discrepancy": run.max_discrepancy,
        "failures": list(run.failures.values()),
        "digest": hashlib.sha256(
            "".join(run.digests[i] for i in sorted(run.digests)).encode()).hexdigest(),
        "inputs_repeated": sum(1 for v in run.runs_per_input.values() if v >= 2),
        "version": tradeflow.__version__,
    }
    if run.bare_s:
        rel = [op / ref for op, ref in zip(run.bare_s, run.bare_ref)]
        result["op_p50_ref"] = statistics.median(rel)
        result["ops_per_ref"] = len(rel) / sum(rel)
        result["op_p50_ms"] = 1e3 * statistics.median(run.bare_s)
        result["ops_per_s"] = len(run.bare_s) / sum(run.bare_s)
        result["ref_ms"] = 1e3 * statistics.median(run.bare_ref)
        if len(run.bare_s) >= 100:
            result["op_p90_ms"] = 1e3 * statistics.quantiles(run.bare_s, n=10)[-1]
    if traced and run.traced_s:
        result["layers"] = layer_metrics(run, tracer)
        result["layer_units"] = LAYER_UNITS
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    work_dir = Path(args.work_dir)
    (work_dir / "in").mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work_dir)
    inputs = workloads.generate(workload, args.seed, work_dir / "in")
    run = Run(workload, args.seed)
    tracer = Tracer()
    measure(run, inputs, args.seconds, bool(args.trace), tracer)
    result = summarize(run, bool(args.trace), tracer)
    if args.trace and args.trace_file:
        tracer.write(Path(args.trace_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
