"""Mutants of the package, each a fault that the tests must notice, and a
runner for them.

A mutant is a file of ``src/tradeflow``, an exact old text that occurs once
in it, the new text, the test ids expected to fail, and one line on the fault
it stands for. ``tests/test_mutants.py`` checks that every old text still
occurs exactly once and that every named test exists, so the list cannot rot
silently; it does not run the mutants. Run them with

    python tests/mutants.py [NAME ...]

Each mutant is applied in a temporary copy of the tree, its tests run there
with pytest, and the runner prints one line per mutant: ``killed`` with the
failing tests, or ``SURVIVED``. It exits 1 when a mutant survives or no longer
matches its source. A change to ``src/`` adds the mutants of its own change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tradeflow"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/tradeflow
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root of the tree
    fault: str


MUTANTS = [
    Mutant(
        "start-state-dropped", "analytic.py",
        'past = np.searchsorted(times, starts, side="right").tolist()',
        "past = bounds",
        ("tests/test_analytic.py::test_states_at_uses_the_owner_rule_of_segment_indices",
         "tests/test_analytic.py::test_states_at_matches_per_time_evaluation_bit_for_bit",
         "tests/test_cli.py::test_states_at_gives_the_stored_state_at_every_segment_start",
         "tests/test_cli.py::test_t0_and_event_rows_of_the_files_are_the_stored_states"),
        "states_at evaluates the form at a segment's start instead of returning "
        "its stored start state"),
    Mutant(
        "rule-at-t-end", "analytic.py",
        "        if order is not None:\n            out[order] = out.copy()",
        "        end = self.segments[-1].state_end\n"
        "        out[times == self.horizon] = end.eta_a, end.eta_b\n"
        "        if order is not None:\n            out[order] = out.copy()",
        ("tests/test_analytic.py::test_states_at_matches_per_time_evaluation_bit_for_bit",),
        "states_at also returns the stored end state at a segment's end: only the "
        "horizon row differs from the next segment's start"),
    Mutant(
        "segment-indices-side-left", "analytic.py",
        'np.searchsorted(starts, times, side="right") - 1',
        'np.searchsorted(starts, times, side="left") - 1',
        ("tests/test_analytic.py::test_states_at_uses_the_owner_rule_of_segment_indices",
         "tests/test_analytic.py::test_states_at_matches_per_time_evaluation_bit_for_bit",
         "tests/test_cli.py::test_analytic_series_regimes_match_the_owning_segment"),
        "a boundary time belongs to the earlier segment, so an event row shows "
        "the regime before the crossing"),
    Mutant(
        "late-start-accepted", "analytic.py",
        "if self.segments[0].t_start != 0.0:",
        "if False:",
        ("tests/test_analytic.py::test_a_trajectory_starts_at_zero",),
        "a trajectory whose first segment starts after t = 0 is accepted, and "
        "states_at leaves its earlier rows unset"),
    Mutant(
        "per-block-fallback", "floatfmt.py",
        "        slots[other] = _percent_slots(x[other])",
        "        slots = _percent_slots(x)",
        ("tests/test_cli.py::test_float_blocks_match_percent_17g_one_block_at_a_time",
         "tests/test_cli.py::test_uncertified_digits_take_percent_17g"),
        "a whole block goes to %.17g once one of its values needs it"),
    Mutant(
        "23-byte-slots", "floatfmt.py",
        "SLOT = 24",
        "SLOT = 23",
        ("tests/test_cli.py::test_float_blocks_match_percent_17g_one_block_at_a_time",),
        "a slot one byte short of the longest %.17g text (the templates no longer "
        "fit, and importing floatfmt fails)"),
    Mutant(
        "nuls-kept", "cli.py",
        "yield (rows[rows != 0].tobytes()",
        "yield (rows.tobytes()",
        ("tests/test_cli.py::test_write_csv_matches_per_value_rendering",
         "tests/test_cli.py::test_simulate_steady_state_is_flat"),
        "the NUL padding of the slots reaches the file"),
    Mutant(
        "settle-rule-dropped", "analytic.py",
        "bisect(past, max(los), min(his), tol, lambda g: abs(g) <= GUARD_STATE_TOL)[1]",
        "bisect(past, max(los), min(his), tol)[1]",
        ("tests/test_analytic.py::test_every_bisection_runs_with_the_settle_rule",
         "tests/test_analytic.py::test_the_bisection_settles_every_stock_past_the_threshold"),
        "the closed-form crossing bisection stops at event_tol with the crossed "
        "stock off the guard"),
    Mutant(
        "flow-free-shortcut-disabled", "integrator.py",
        "if ea + reach_a <= 1.0 and eb + reach_b <= 1.0:",
        "if False:",
        ("tests/test_integrator.py::test_flow_free_steps_skip_the_kernel",),
        "every full RK4 step below the threshold runs the four-stage kernel"),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "scenarios", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(mutant: Mutant) -> tuple[bool, list[str]]:
    """Apply ``mutant`` in a temporary copy of the tree and run its tests
    there. Returns (killed, the ids of the tests that failed or errored);
    it is killed when there is at least one."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        path = tree / "src" / "tradeflow" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return bool(failed), failed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        try:
            killed, failed = run(mutant)
        except ValueError as exc:
            print(f"STALE     {exc}")
            bad += 1
            continue
        bad += not killed
        print(f"{'killed   ' if killed else 'SURVIVED '} {mutant.name}: {mutant.fault}")
        for test in failed:
            print(f"          failed {test}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
