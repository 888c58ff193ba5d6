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
    # the regime codes, from both engines to the file
    Mutant(
        "regime-code-bits-swapped", "integrator.py",
        "regimes = regime_code(ea_arr > 1.0, eb_arr > 1.0)",
        "regimes = regime_code(eb_arr > 1.0, ea_arr > 1.0)",
        ("tests/test_integrator.py::test_series_columns_are_float_arrays_and_regimes_follow_the_stocks",
         "tests/test_events.py::test_engines_agree_on_the_crossing_events"),
        "the RK4 series codes its samples 2*a_above + b_above, so A exports "
        "prints as b_exports"),
    Mutant(
        "row-0-by-threshold", "integrator.py",
        "regimes[0] = regime_code(*sides(ea_arr[0], eb_arr[0], econ))",
        "regimes[0] = regime_code(ea_arr[0] > 1.0, eb_arr[0] > 1.0)",
        ("tests/test_cli.py::test_a_start_exactly_at_the_threshold_is_sided_by_its_derivative[numeric]",),
        "row 0 of an RK4 series is coded by eta > 1, so a stock that starts at 1 "
        "and rises shows the regime below the threshold"),
    Mutant(
        "analytic-regime-from-the-segment-before", "cli.py",
        "regimes = codes[traj.segment_indices(times)]",
        "regimes = codes[traj.segment_indices(times) - 1]",
        ("tests/test_cli.py::test_analytic_series_regimes_match_the_owning_segment",
         "tests/test_cli.py::test_a_start_exactly_at_the_threshold_is_sided_by_its_derivative[analytic]"),
        "the --analytic regime column takes each row's regime from the segment "
        "before the one that owns it"),
    Mutant(
        "regime-names-in-another-order", "cli.py",
        "[r.value for r in Regime]",
        "[r.value for r in reversed(Regime)]",
        ("tests/test_cli.py::test_regime_codes_are_the_order_of_regime",
         "tests/test_cli.py::test_write_csv_of_coded_and_bool_columns_matches_per_value_rendering"),
        "the writer decodes the regime codes through a name table in another "
        "order than Regime"),
    # one expression per closed-form value, one way to build a segment
    Mutant(
        "rows-with-math", "analytic.py",
        "out[mid:hi, 0] = seg.form_a.value(tau, np)\n"
        "                out[mid:hi, 1] = seg.form_b.value(tau, np)",
        "out[mid:hi] = [[seg.form_a.value(x), seg.form_b.value(x)] for x in tau.tolist()]",
        ("tests/test_analytic.py::test_states_at_uses_the_owner_rule_of_segment_indices",
         "tests/test_analytic.py::test_states_at_matches_per_time_evaluation_bit_for_bit"),
        "states_at evaluates its rows with math.exp, one time at a time; killed only "
        "where np.exp and math.exp differ in the last bit (as on an AVX-512 host)"),
    Mutant(
        "no-crossing-segment-ends-at-t-plus-remaining", "analytic.py",
        "tau, t_end = remaining, horizon",
        "tau, t_end = remaining, t + remaining",
        ("tests/test_analytic.py::test_the_last_segment_ends_at_exactly_the_horizon",),
        "the segment without a crossing ends at t + (horizon - t), which rounds "
        "off the horizon for some t"),
    Mutant(
        "every-stock-re-sided", "analytic.py",
        "if bracket_a is not None:\n"
        "            a_above = end.eta_a > 1.0\n"
        "        if bracket_b is not None:\n"
        "            b_above = end.eta_b > 1.0",
        "a_above, b_above = end.eta_a > 1.0, end.eta_b > 1.0",
        ("tests/test_events.py::test_engines_log_the_same_events[unbracketed-stock-at-1]",),
        "at a closed-form crossing every stock is re-sided from its end value, so "
        "a stock that rises from 1 but still rounds to 1 there goes below"),
    Mutant(
        "region-search-stops-at-1e30", "region.py",
        "if hi == sys.float_info.max:",
        "if hi > 1e30:",
        ("tests/test_region.py::test_the_switch_search_covers_every_finite_k",
         "tests/test_region.py::test_an_interval_above_1e30_is_found[1.0]"),
        "the search for a feasibility bound gives up above 1e30, so region reports "
        "[inf, inf] and exits 2 where the feasible k lie beyond it"),
    # faults that earlier changes checked by hand (CHANGES.md)
    Mutant(
        "regime-table-one-byte-short", "cli.py",
        "len(Regime), -1)",
        "len(Regime), -1)[:, :-1]",
        ("tests/test_cli.py::test_regime_codes_are_the_order_of_regime",
         "tests/test_cli.py::test_write_csv_of_coded_and_bool_columns_matches_per_value_rendering"),
        "the regime name table is one byte short, so no_exchange prints as "
        "no_exchang"),
    Mutant(
        "bools-as-1-2", "cli.py",
        "np.uint8(48)",
        "np.uint8(49)",
        ("tests/test_cli.py::test_write_csv_of_coded_and_bool_columns_matches_per_value_rendering",
         "tests/test_cli.py::test_region_fig2"),
        "bool columns print as 1/2 instead of 0/1"),
    Mutant(
        "region-axis-codes-swapped", "cli.py",
        "nodes % n),\n               _Coded(float_slots(scan.eta_a1), nodes // n)",
        "nodes // n),\n               _Coded(float_slots(scan.eta_a1), nodes % n)",
        ("tests/test_cli.py::test_region_file_matches_rows_rendered_per_value[fig2]",),
        "the region file's sigma1 column takes the eta_a1 node index and the "
        "other way round"),
    Mutant(
        "rounding-half-up", "floatfmt.py",
        "nearest = np.rint(t)",
        "nearest = np.floor(t + 0.5)",
        ("tests/test_cli.py::test_float_blocks_match_percent_17g_one_block_at_a_time",
         "tests/test_cli.py::test_uncertified_digits_take_percent_17g"),
        "the 17 digits round a tie up instead of to even, as %.17g does"),
    Mutant(
        "log10-guess-trusted", "floatfmt.py",
        "    i += a >= up[1:].take(i)\n    i -= a < up.take(i)\n",
        "",
        ("tests/test_cli.py::test_a_log10_guess_off_by_one_is_settled",),
        "the exponent is floor(log10 a) uncorrected, one off about powers of ten"),
    Mutant(
        "every-bracketed-stock-flipped", "analytic.py",
        "a_above = end.eta_a > 1.0\n"
        "        if bracket_b is not None:\n"
        "            b_above = end.eta_b > 1.0",
        "a_above = not a_above\n"
        "        if bracket_b is not None:\n"
        "            b_above = not b_above",
        ("tests/test_analytic.py::test_the_bisection_settles_every_stock_past_the_threshold",
         "tests/test_analytic.py::test_two_bracketed_stocks_locate_the_earlier_crossing"),
        "at a closed-form crossing every bracketed stock flips, also one that "
        "has not crossed yet"),
    Mutant(
        "extremum-moved-1e-14", "analytic.py",
        "return -math.log(q) / form.rate if q > 0.0 else None",
        "return -math.log(q) / form.rate * (1.0 + 1e-14) if q > 0.0 else None",
        ("tests/test_analytic.py::test_the_extremum_is_within_a_few_ulps_of_the_derivative_sign_change",),
        "a dip's bracket ends 1e-14 (relative) past the form's stationary point"),
    Mutant(
        "endpoint-flows-as-midpoints", "cli.py",
        "sf[:-1], sf_mid, sf_mid, sf[1:])",
        "sf_mid, sf_mid, sf_mid, sf_mid)",
        ("tests/test_cli.py::test_array_money_matches_the_per_sample_quadrature",),
        "closed-form money takes the midpoint flow at the interval ends too"),
    Mutant(
        "b-flow-sign", "money.py",
        "lambda sf: base_b - y * sf",
        "lambda sf: base_b + y * sf",
        ("tests/test_money.py::test_money_holdings_adds_rk4_increments_in_sequence",
         "tests/test_cli.py::test_array_money_matches_the_per_sample_quadrature"),
        "country B earns on its imports instead of paying for them"),
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
