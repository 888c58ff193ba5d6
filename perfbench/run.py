"""tradeflow benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed. The workload runs in a child
process of its own (perfbench/worker.py) with ``TRADEFLOW_THREADS`` removed
from its environment, so it gets the program's default thread count and its
peak memory is its own.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time for a
fresh interpreter to import ``tradeflow.cli``, over several interpreters),
``op_p50_ref`` and ``ops_per_ref`` (op time in units of a reference
computation timed alongside, see perfbench/README.md) and ``peak_rss_mb``. ``--trace 1`` prints the
per-layer metrics of a traced run instead. Both print informational fields
(package version, ``src/`` line count, output digest, failures with their
seed and scenario text) before the last line, which is the JSON result, and
keep them in ``.perfbench_runs/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
#: Runs of ``-X importtime`` behind the traced run's import breakdown.
IMPORTTIME_REPEATS = 5
#: Wall-clock budget of the whole run, below the 180 s a run may take.
BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref": "ref", "ops_per_ref": "1/ref",
                    "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TRADEFLOW_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_breakdown(env: dict[str, str]) -> dict[str, float]:
    """Median numpy and tradeflow import times in ms from ``-X importtime``.
    tradeflow's share is the cumulative time of ``tradeflow.cli``, which
    encloses every other import, minus numpy's."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import tradeflow.cli"]
    numpy_ms, own_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            name = name.strip()
            if name in ("numpy", "tradeflow.cli"):
                cumulative[name] = int(cum) / 1e3
        numpy_ms.append(cumulative["numpy"])
        own_ms.append(cumulative["tradeflow.cli"] - cumulative["numpy"])
    return {
        "setup.numpy_import_ms": statistics.median(numpy_ms),
        "setup.tradeflow_import_ms": statistics.median(own_ms),
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    t_start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "tradeflow" / "cli.py").is_file():
        print(f"error: no tradeflow sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = RUNS / "work" / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        # One untimed import first writes the byte-code caches.
        subprocess.run([sys.executable, "-c", "import tradeflow.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        breakdown = import_breakdown(env) if args.trace else {}
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
        if args.trace:
            # Only the latest trace of each workload is kept: they are large.
            cmd += ["--trace-file", str(RUNS / "traces" / f"{args.workload}.npz")]
        # A session of its own, so that a timeout also stops the interpreters
        # the worker starts to time set-up.
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, BUDGET_S - (perf_counter() - t_start)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"error: workload {args.workload} did not finish within the "
                  f"{BUDGET_S:.0f} s budget", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(err)
        print(f"error: workload {args.workload} exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    child = json.loads(out.strip().splitlines()[-1])
    if ("layers" if args.trace else "op_p50_ref") not in child:
        print(f"error: no op of workload {args.workload} succeeded", file=sys.stderr)
        for f in child["failures"]:
            print(f"failure: {f}", file=sys.stderr)
        return 1

    if args.trace:
        values = {**child["layers"], **breakdown}
        units = {**child["layer_units"], "setup.numpy_import_ms": "ms",
                 "setup.tradeflow_import_ms": "ms"}
    else:
        values = {
            "setup_s": statistics.median(child["setup_samples_s"]),
            "op_p50_ref": child["op_p50_ref"],
            "ops_per_ref": child["ops_per_ref"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "version": child["version"], "src_lines": src_lines(),
        "setup_samples_s": child["setup_samples_s"],
        **{k: child[k] for k in ("op_samples", "fail_frac", "max_discrepancy", "digest",
                                 "inputs_repeated", "failures")},
        **{k: child.get(k) for k in ("op_p50_ms", "op_p90_ms", "ops_per_s", "ref_ms")},
        "metrics": metrics,
    }
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "results" / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    for key in ("version", "src_lines", "op_samples", "op_p50_ms", "op_p90_ms", "ops_per_s",
                "ref_ms", "fail_frac", "max_discrepancy", "digest", "inputs_repeated"):
        print(f"{key:28s} {details[key]}")
    for f in child["failures"]:
        print(f"failure: seed {f['seed']} input {f['input']} ({f['ops']} ops): "
              f"{'; '.join(f['reasons'])}\n{f['scenario']}")
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
