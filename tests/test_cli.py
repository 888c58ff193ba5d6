import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from tradeflow.cli import EXIT_DEPLETION, EXIT_INPUT, EXIT_OK, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _rows(path):
    text = Path(path).read_text()
    header, *rows = [line.split(",") for line in text.strip().splitlines()]
    return header, rows


def test_simulate_steady_state_is_flat(tmp_path, capsys):
    out = tmp_path / "steady.csv"
    code = main(["simulate", str(SCENARIO_DIR / "steady_state.scenario"),
                 "--both", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = _rows(out)
    assert header == ["t", "eta_a", "eta_b", "regime", "f", "m_a", "m_b"]
    etas = {(row[1], row[2]) for row in rows}
    assert etas == {("1.5", "1")}
    assert "sup-norm discrepancy: 0" in capsys.readouterr().out
    cmp_header, cmp_rows = _rows(tmp_path / "steady.compare.csv")
    assert cmp_header[-1] == "discrepancy"
    assert {row[-1] for row in cmp_rows} == {"0"}


def test_simulate_crossing_reports_the_event(tmp_path, capsys):
    out = tmp_path / "crossing.csv"
    code = main(["simulate", str(SCENARIO_DIR / "crossing.scenario"),
                 "--numeric", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "eta_a crossed the threshold upward" in printed
    header, rows = _rows(out)
    event_rows = [r for r in rows if abs(float(r[0]) - 2.0) < 1e-6]
    assert event_rows, "the crossing time must appear as a sample row"
    regimes = [r[3] for r in rows]
    assert "no_exchange" in regimes and "a_exports" in regimes


def test_simulate_analytic_straight_line_with_sigma_zero(tmp_path):
    text = (SCENARIO_DIR / "crossing.scenario").read_text().replace(
        "sigma = 1", "sigma = 0"
    )
    path = tmp_path / "line.scenario"
    path.write_text(text)
    out = tmp_path / "line.csv"
    assert main(["simulate", str(path), "--analytic", "--out", str(out)]) == EXIT_OK
    header, rows = _rows(out)
    assert header == ["t", "eta_a", "eta_b", "regime", "f"]  # no prices, no money
    for row in rows:
        t, eta_a = float(row[0]), float(row[1])
        assert abs(eta_a - (0.5 + 0.25 * t)) <= 1e-9
        assert float(row[2]) == 0.5


def test_simulate_output_is_byte_stable(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["simulate", str(SCENARIO_DIR / "crossing.scenario"),
                     "--both", "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_depletion_exit_code(tmp_path):
    path = tmp_path / "drain.scenario"
    path.write_text("""
[model]
kind = one-good

[good1]
p_a = 1
p_b = 0
c_a = 1
c_b = 0.2
sigma = 0

[initial]
eta_a = 0.9
eta_b = 0.5

[solver]
horizon = 10
depletion_policy = halt
""")
    out = tmp_path / "drain.csv"
    code = main(["simulate", str(path), "--numeric", "--out", str(out)])
    assert code == EXIT_DEPLETION
    _, rows = _rows(out)
    assert abs(float(rows[-1][0]) - 2.5) <= 1e-6  # truncated at the crossing


def test_simulate_rejects_two_good(tmp_path):
    code = main(["simulate", str(SCENARIO_DIR / "fig2.scenario"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_INPUT


def test_simulate_plot_script(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["simulate", str(SCENARIO_DIR / "crossing.scenario"),
                 "--numeric", "--out", str(out), "--plot"]) == EXIT_OK
    script = (tmp_path / "run.gnuplot").read_text()
    assert "run.csv" in script and "eta_a" in script


def test_fixed_point_table(capsys):
    code = main(["fixed-point", str(SCENARIO_DIR / "steady_state.scenario")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "p_a     = 2" in out
    assert "p_b     = 1" in out
    assert "dm_a/dt = 2" in out   # (y - x_a) * p_a = 1 * 2
    assert "dm_b/dt = -1" in out  # (y - x_b) * p_b = -1 * 1
    assert "eta_a = 2" in out     # threshold 1 + c_b/sigma


def test_fixed_point_boundary_eta(capsys):
    code = main(["fixed-point", str(SCENARIO_DIR / "steady_state.scenario"),
                 "--eta-star", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "p_b     = 0" in out
    assert "dm_b/dt = 0" in out or "dm_b/dt = -0" in out


def test_fixed_point_rejects_eta_below_threshold(capsys):
    code = main(["fixed-point", str(SCENARIO_DIR / "steady_state.scenario"),
                 "--eta-star", "0.5"])
    assert code == EXIT_INPUT
    assert ">= 1" in capsys.readouterr().err


def test_fixed_point_rejects_infeasible_eta(capsys):
    code = main(["fixed-point", str(SCENARIO_DIR / "steady_state.scenario"),
                 "--eta-star", "5"])
    assert code == EXIT_INPUT
    assert "exceeds" in capsys.readouterr().err


def test_region_fig2(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code = main(["region", str(SCENARIO_DIR / "fig2.scenario"), "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "feasible k interval: [2.666666666666667, 7]" in printed
    header, rows = _rows(out)
    assert header == ["sigma1", "eta_a1", "k", "dm_a", "dm_b", "p_a2", "p_b1", "feasible"]
    assert len(rows) == 200 * 200
    feasible = np.array([row[-1] == "1" for row in rows])
    ks = np.array([float(row[2]) for row in rows])
    assert np.array_equal(feasible, (ks >= 8.0 / 3.0 - 1e-12) & (ks <= 7.0 + 1e-12))


def test_region_is_byte_stable(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["region", str(SCENARIO_DIR / "fig2.scenario"),
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_region_overflow_is_an_input_error(tmp_path, capsys):
    text = (SCENARIO_DIR / "fig2.scenario").read_text()
    path = tmp_path / "overflow.scenario"
    path.write_text(text[: text.index("[grid]")] + """
[grid]
sigma1_min = 0.5
sigma1_max = 1e308
sigma1_steps = 3
eta_min = 1.5
eta_max = 1e308
eta_steps = 3
""")
    out = tmp_path / "overflow.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["region", str(path), "--out", str(out)])
    assert code == EXIT_INPUT
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")]
    assert not out.exists()


# sha256 of outputs computed with IEEE + - * / only (no exp), so the same on
# every platform; refactors must keep these files byte-identical
PINNED_OUTPUTS = [
    (["region", "fig2.scenario"],
     "29d5e828bc9b506107f6bbea8a5110fcad8c749e6656e9c60738378ccc0f5c43"),
    (["simulate", "crossing.scenario", "--numeric"],
     "a4f7c5e3a6582dda7611fecc6b922d2c0cf4bea005d2bd901eeb77dd94034275"),
    (["simulate", "steady_state.scenario", "--numeric"],
     "766de9b5d8dffc226080c8264fd0a36bf5e7d43029bc984493ea26bc049a1f72"),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_bytes_match_pinned_digest(tmp_path, argv, digest):
    command, scenario, *flags = argv
    out = tmp_path / "out.csv"
    assert main([command, str(SCENARIO_DIR / scenario), *flags, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_region_empty_is_still_success(tmp_path, capsys):
    path = tmp_path / "empty.scenario"
    path.write_text("""
[model]
kind = two-good

[good1]
c_a = 1
c_b = 0.1
eta_star = 1.05

[prices1]
x_a = 1
x_b = 3
y = 2

[good2]
c_a = 5
c_b = 2
eta_star = 1.05

[prices2]
x_a = 5
x_b = 2
y = 4

[grid]
sigma1_min = 0.5
sigma1_max = 5
sigma1_steps = 2
eta_min = 1.5
eta_max = 5
eta_steps = 2
""")
    out = tmp_path / "empty.csv"
    assert main(["region", str(path), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "empty region" in printed
    _, rows = _rows(out)
    assert len(rows) == 4  # one row per node of the 2x2 grid
    assert all(row[-1] == "0" for row in rows)


def test_region_requires_grid(tmp_path, capsys):
    text = (SCENARIO_DIR / "fig2.scenario").read_text()
    stripped = text[: text.index("[grid]")]
    path = tmp_path / "nogrid.scenario"
    path.write_text(stripped)
    assert main(["region", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_INPUT
    assert "grid" in capsys.readouterr().err


def test_invalid_scenario_file_lists_problems(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text("[model]\nkind = one-good\n")
    assert main(["simulate", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_INPUT
    assert "good1" in capsys.readouterr().err


def test_usage_errors_exit_with_input_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required arguments
    assert exc.value.code == EXIT_INPUT
