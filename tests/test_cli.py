import errno
import hashlib
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tradeflow import cli
from tradeflow.analytic import PiecewiseTrajectory, simulate_analytic
from tradeflow.cli import EXIT_DEPLETION, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet, Regime
from tradeflow.exchange import exchange_flow
from tradeflow.integrator import integrate_with_events
from tradeflow.region import KInterval
from tradeflow.scenario import parse_scenario

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


@pytest.mark.parametrize("mode", ["numeric", "analytic", "both"])
def test_non_finite_state_exits_numeric(tmp_path, capsys, mode):
    path = tmp_path / "overflow.scenario"
    path.write_text("""
[model]
kind = one-good

[good1]
p_a = 1e308
p_b = 1
c_a = 1
c_b = 1
sigma = 1e308

[initial]
eta_a = 1e308
eta_b = 0.5

[solver]
horizon = 1
step = 0.1
""")
    out = tmp_path / "overflow.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", str(path), f"--{mode}", "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert not list(tmp_path.glob("overflow*.csv"))


# (scenario copy, --out, flags) where an output file is the scenario being read
READS_ITSELF = {
    "simulate": [("s.scenario", "s.scenario", ["--numeric"]), ("x.gnuplot", "x.csv", ["--plot"])],
    "region": [("r.scenario", "r.scenario", []), ("x.gnuplot", "x.csv", ["--plot"])],
}


@pytest.mark.parametrize("command, scenario, engines", [
    ("simulate", "crossing.scenario", ("integrate_with_events", "simulate_analytic")),
    ("region", "fig2.scenario", ("scan_region",)),
])
def test_unusable_out_exits_before_any_compute(tmp_path, capsys, monkeypatch,
                                               command, scenario, engines):
    reads_itself = READS_ITSELF[command]

    def no_compute(*args, **kwargs):
        raise AssertionError("compute ran before the output path was checked")

    for name in engines:
        monkeypatch.setattr(cli, name, no_compute)
    (tmp_path / "plot.gnuplot").mkdir()
    original = (SCENARIO_DIR / scenario).read_bytes()
    inputs = tmp_path / "in"  # scenario copies that an output would replace
    inputs.mkdir()
    cases = [(SCENARIO_DIR / scenario, out, flags) for out, flags in (
        (tmp_path, []), (tmp_path / "missing" / "out.csv", []),
        (tmp_path / "plot.csv", ["--plot"]),
        (tmp_path / "data.gnuplot", ["--plot"]))]  # script is the data file
    for name, out, flags in reads_itself:
        (inputs / name).write_bytes(original)
        cases.append((inputs / name, inputs / out, flags))
    for path, out, flags in cases:
        code = main([command, str(path), "--out", str(out), *flags])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert err.count("\n") == 1
        assert path.read_bytes() == original
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "plot.gnuplot"]
    assert sorted(p.name for p in inputs.iterdir()) == sorted(n for n, _, _ in reads_itself)


def test_output_reached_through_a_symlink_coincides(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "integrate_with_events", None)  # must not be reached
    out = tmp_path / "run.csv"
    (tmp_path / "run.compare.csv").symlink_to(out)
    code = main(["simulate", str(SCENARIO_DIR / "crossing.scenario"), "--both",
                 "--out", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'run.compare.csv'}: it would be both the data "
        "file and the comparison file\n")
    assert not out.exists()


CROSSING = (SCENARIO_DIR / "crossing.scenario").read_text()
FIG2 = (SCENARIO_DIR / "fig2.scenario").read_text()


@pytest.mark.parametrize("mode", ["numeric", "both", "analytic"])
def test_step_beyond_horizon_is_an_input_error(tmp_path, capsys, mode):
    path = tmp_path / "step.scenario"
    path.write_text(CROSSING.replace("step = 0.001", "step = 20"))
    out = tmp_path / "step.csv"
    assert main(["simulate", str(path), f"--{mode}", "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: [solver]: step (20.0) must not exceed the horizon (10.0)\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("simulate", CROSSING.replace("horizon = 10\nstep = 0.001",
                                  "horizon = 1e300\nstep = 1e-300")),
    ("region", FIG2.replace("eta_steps = 200", "eta_steps = 1000000")),
], ids=["samples", "grid_nodes"])
def test_runaway_sizes_are_input_errors(tmp_path, capsys, command, text):
    path = tmp_path / "huge.scenario"
    path.write_text(text)
    out = tmp_path / "huge.csv"
    assert main([command, str(path), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    section = "[solver]" if command == "simulate" else "[grid]"
    assert err.startswith(f"error: {section}: ") and "exceeds the cap" in err
    assert not out.exists()


@pytest.mark.parametrize("command, scenario", [
    ("simulate", "crossing.scenario"), ("region", "fig2.scenario"),
])
def test_write_error_exits_with_one_line(tmp_path, capsys, monkeypatch, command, scenario):
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write_csv", full_disk)
    out = tmp_path / "out.csv"
    assert main([command, str(SCENARIO_DIR / scenario), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"


def _per_value_csv(header, columns):
    """The row-at-a-time rendering the batched writer must reproduce."""
    rows = [",".join(v if isinstance(v, str) else f"{int(v)}" if isinstance(v, bool)
                     else f"{v:.17g}" for v in row)
            for row in zip(*(list(c) for c in columns))]
    return "\n".join([header, *rows]) + "\n"


AWKWARD = [-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0, -7.0, 1e16, 2.5e-8]


@pytest.mark.parametrize("n", [1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_write_csv_matches_per_value_rendering(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = np.array([AWKWARD[i % len(AWKWARD)] for i in range(n)])
    randoms = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    flags = rng.random(n) < 0.5
    regimes = [list(Regime)[i % len(Regime)].value for i in range(n)]
    columns = [floats, regimes, randoms, flags, floats[::-1].copy()]
    path = tmp_path / "out.csv"
    cli._write_csv(path, "a,b,c,d,e", columns)
    expected = _per_value_csv(
        "a,b,c,d,e", [floats.tolist(), regimes, randoms.tolist(), flags.tolist(),
                      floats[::-1].tolist()])
    assert path.read_bytes() == expected.encode()


def test_write_csv_with_runs_matches_per_value_rendering(tmp_path):
    # four blocks, the last of one row: in `paired` the first block is
    # exactly half repeats (run heads only), the second one repeat short of
    # it (every value), and a run of 1/3 crosses into the last block
    size = cli._CHUNK_ROWS
    n = 3 * size + 1
    paired = np.concatenate([np.repeat(np.arange(size // 2) / 7, 2),
                             np.repeat(np.arange(size // 2) / 11 + 1.0, 2),
                             np.full(size + 1, 1 / 3)])
    paired[2 * size - 1] = -5.0
    assert cli._block_column(paired[:size], "%.17g")[0] == "%s"
    assert cli._block_column(paired[size:2 * size], "%.17g")[0] == "%.17g"
    zeros = np.zeros(n)
    zeros[::97] = -0.0  # -0.0 prints apart from the 0.0 runs around it
    zeros[500:510] = -0.0
    zeros[3000:3005] = 5e-324
    reference = np.empty((n, 2))
    reference[:, 0] = np.resize(np.repeat(AWKWARD, 300), n)
    reference[:, 1] = np.random.default_rng(3).standard_normal(n)
    flags = (np.arange(n) // 700) % 2 == 0
    regimes = [list(Regime)[i // 1000 % len(Regime)].value for i in range(n)]
    columns = [paired, zeros, reference[:, 0], regimes, flags, reference[:, 1]]
    path = tmp_path / "out.csv"
    cli._write_csv(path, "a,b,c,d,e,f", columns)
    expected = _per_value_csv("a,b,c,d,e,f", [c.tolist() if isinstance(c, np.ndarray) else c
                                              for c in columns])
    assert path.read_bytes() == expected.encode()


ANALYTIC_MONEY = """[model]
kind = one-good

[good1]
p_a = 1.5
p_b = 0.5
c_a = 1
c_b = 1
sigma = 1

[prices1]
x_a = 1
x_b = 3
y = 2

[initial]
eta_a = 2.75
eta_b = 1.75
m_a = 0.5
m_b = -0.25

[solver]
horizon = 100
step = 0.01
"""


def test_analytic_money_file_matches_per_value_rendering(tmp_path, monkeypatch):
    # off the export fixed point (1.5, eta_b) the stocks settle to constants
    # long before the horizon, so the tail blocks of eta_a, eta_b and f are runs
    fired = []  # per array-column block: were only the run heads formatted?
    block_column = cli._block_column

    def watched(a, spec):
        written = block_column(a, spec)
        fired.append(written[0] != spec)
        return written

    monkeypatch.setattr(cli, "_block_column", watched)
    path = tmp_path / "run.scenario"
    path.write_text(ANALYTIC_MONEY)
    sc = parse_scenario(path)
    traj = simulate_analytic(sc.initial, sc.good1, sc.solver.horizon,
                             event_tol=sc.solver.event_tol)
    series = cli._analytic_series(traj, sc.good1, sc.prices1, sc.initial_money, sc.solver.step)
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--analytic", "--out", str(out)]) == EXIT_OK
    flow = [exchange_flow(NormalizedState(a, b))
            for a, b in zip(series.eta_a.tolist(), series.eta_b.tolist())]
    expected = _per_value_csv(
        "t,eta_a,eta_b,regime,f,m_a,m_b",
        [series.times.tolist(), series.eta_a.tolist(), series.eta_b.tolist(),
         [r.value for r in series.regimes], flow, series.m_a.tolist(), series.m_b.tolist()])
    assert out.read_bytes() == expected.encode()
    assert any(fired) and not all(fired)


def test_compare_file_matches_per_value_rendering(tmp_path):
    sc = parse_scenario(SCENARIO_DIR / "crossing.scenario")
    numeric = integrate_with_events(sc.initial, sc.good1, sc.solver)
    reference = simulate_analytic(sc.initial, sc.good1, sc.solver.horizon,
                                  event_tol=sc.solver.event_tol).states_at(numeric.times)
    disc = np.maximum(np.abs(numeric.eta_a - reference[:, 0]),
                      np.abs(numeric.eta_b - reference[:, 1]))
    out = tmp_path / "run.csv"
    assert main(["simulate", str(SCENARIO_DIR / "crossing.scenario"), "--both",
                 "--out", str(out)]) == EXIT_OK
    expected = _per_value_csv(
        "t,eta_a_numeric,eta_b_numeric,eta_a_analytic,eta_b_analytic,discrepancy",
        [numeric.times.tolist(), numeric.eta_a.tolist(), numeric.eta_b.tolist(),
         reference[:, 0].tolist(), reference[:, 1].tolist(), disc.tolist()])
    assert (tmp_path / "run.compare.csv").read_bytes() == expected.encode()


def _region_text(sigma1_min, sigma1_max, sigma1_steps, eta_min, eta_max, eta_steps):
    return FIG2[: FIG2.index("[grid]")] + (
        f"[grid]\nsigma1_min = {sigma1_min!r}\nsigma1_max = {sigma1_max!r}\n"
        f"sigma1_steps = {sigma1_steps}\neta_min = {eta_min!r}\neta_max = {eta_max!r}\n"
        f"eta_steps = {eta_steps}\n")


def _random_region_texts(n):
    rng = random.Random(11)
    texts = []
    while len(texts) < n:
        sigma1_steps, eta_steps = rng.randint(2, 40), rng.randint(2, 40)
        if sigma1_steps == eta_steps:
            continue  # a square grid hides a swap of the two axes
        sigma1_min = 0.0 if len(texts) % 3 == 0 else rng.uniform(0.0, 5.0)
        eta_min = rng.uniform(1.0, 5.0)
        texts.append(_region_text(sigma1_min, sigma1_min + rng.uniform(0.1, 20.0),
                                  sigma1_steps, eta_min, eta_min + rng.uniform(0.1, 20.0),
                                  eta_steps))
    return texts


@pytest.mark.parametrize("text", [FIG2] + _random_region_texts(20),
                         ids=["fig2"] + [f"random{i}" for i in range(20)])
def test_region_file_matches_rows_rendered_per_value(tmp_path, text):
    path = tmp_path / "grid.scenario"
    path.write_text(text)
    sc = parse_scenario(path)
    rows = list(cli.scan_region(sc.two_good(), sc.grid).rows())
    out = tmp_path / "region.csv"
    assert main(["region", str(path), "--out", str(out)]) == EXIT_OK
    expected = _per_value_csv("sigma1,eta_a1,k,dm_a,dm_b,p_a2,p_b1,feasible",
                              [list(c) for c in zip(*rows)])
    assert out.read_bytes() == expected.encode()


def test_sample_times_match_the_scalar_rule():
    rng = random.Random(7)
    for _ in range(300):
        horizon = rng.uniform(0.01, 50.0)
        step = horizon / rng.uniform(1.0, 2000.0)
        extra = [rng.uniform(-1.0, horizon + 1.0) for _ in range(rng.randint(0, 4))]
        n = int(horizon / step)
        grid = [v for v in (i * step for i in range(n + 1)) if v <= horizon] + [horizon]
        expected = np.unique(np.array(grid + [t for t in extra if 0.0 <= t <= horizon]))
        got = cli._sample_times(horizon, step, extra)
        assert got.tobytes() == expected.tobytes()


def test_sample_times_match_np_unique_on_grid_nodes_and_the_horizon():
    # event times equal to grid nodes, to the horizon and past it, plus
    # repeats: the same bytes as np.unique over the kept times
    rng = np.random.default_rng(8)
    for _ in range(300):
        horizon = rng.uniform(0.01, 50.0)
        step = horizon / rng.uniform(1.0, 500.0)
        grid = np.arange(int(horizon / step) + 1) * step
        pool = np.concatenate([grid, [horizon, horizon, np.nextafter(horizon, np.inf),
                                      horizon + step, -step],
                               rng.uniform(-1.0, horizon + 1.0, 4)])
        extra = rng.choice(pool, size=rng.integers(0, 8)).tolist()
        kept = [t for t in extra if 0.0 <= t <= horizon]
        expected = np.unique(np.concatenate([grid[grid <= horizon], [horizon], kept]))
        assert cli._sample_times(horizon, step, extra).tobytes() == expected.tobytes()


def test_simulate_analytic_does_not_import_numpy_ma(tmp_path):
    code = (
        "import sys\n"
        "from tradeflow.cli import main\n"
        f"code = main(['simulate', {str(SCENARIO_DIR / 'crossing.scenario')!r}, '--analytic',"
        f" '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_analytic_series_regimes_match_regime_at():
    econ = GoodEconomy(p_a=1.0, p_b=0.9, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(2.0, 0.1 + np.log(10.0) / 10.0 + 1e-7),
                             econ, 5.0)
    assert len(traj.segments) > 2
    series = cli._analytic_series(traj, econ, None, None, 1e-3)
    assert series.regimes == [traj.regime_at(t) for t in series.times.tolist()]


def test_region_mismatch_reports_the_last_node_in_row_major_order(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(cli, "feasible_k_interval", lambda s: KInterval(3.0, 6.0))
    sc = parse_scenario(SCENARIO_DIR / "fig2.scenario")
    last = None
    for sig, eta, k, *_, feasible in cli.scan_region(sc.two_good(), sc.grid).rows():
        if feasible != (3.0 <= k <= 6.0):
            last = (sig, eta, k, feasible)
    sig, eta, k, feasible = last
    assert main(["region", str(SCENARIO_DIR / "fig2.scenario"),
                 "--out", str(tmp_path / "r.csv")]) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        f"error: scanner and closed form disagree at sigma1={sig:.17g}, "
        f"eta_a1={eta:.17g} (k={k:.17g}, scanner says {feasible})\n"
    )


CROSSING_WITH_PRICES = CROSSING.replace(
    "eta_b = 0.5\n", "eta_b = 0.5\nm_a = 0.5\nm_b = -0.25\n"
) + "\n[prices1]\nx_a = 1\nx_b = 3\ny = 2\n"


@pytest.mark.parametrize("text", [
    (SCENARIO_DIR / "steady_state.scenario").read_text(),
    CROSSING_WITH_PRICES,
], ids=["steady_state", "crossing_with_prices"])
def test_closed_form_money_matches_rk4_co_integration(tmp_path, text):
    path = tmp_path / "run.scenario"
    path.write_text(text)
    sc = parse_scenario(path)
    numeric = integrate_with_events(sc.initial, sc.good1, sc.solver,
                                    prices=sc.prices1, money0=sc.initial_money)
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--analytic", "--out", str(out)]) == EXIT_OK
    header, rows = _rows(out)
    assert header[-2:] == ["m_a", "m_b"]
    assert {row[3] for row in rows} == {r.value for r in numeric.regimes}
    for analytic, rk4 in ((float(rows[-1][-2]), numeric.m_a[-1]),
                          (float(rows[-1][-1]), numeric.m_b[-1])):
        assert abs(analytic - rk4) <= 1e-7 * max(1.0, abs(rk4))


@pytest.mark.parametrize("text", [
    (SCENARIO_DIR / "steady_state.scenario").read_text(),
    CROSSING_WITH_PRICES,
], ids=["steady_state", "crossing_with_prices"])
def test_analytic_money_makes_no_scalar_lookups(tmp_path, monkeypatch, text):
    def scalar_lookup(*args, **kwargs):
        raise AssertionError("a per-sample scalar lookup ran")

    for name in ("state_at", "segment_at", "regime_at"):
        monkeypatch.setattr(PiecewiseTrajectory, name, scalar_lookup)
    path = tmp_path / "run.scenario"
    path.write_text(text)
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--analytic", "--out", str(out)]) == EXIT_OK


def _simpson_money_per_sample(traj, econ, prices, money0, times):
    """Simpson quadrature one sample interval at a time on scalar state_at
    lookups: the reference the array form of `_money_along` must match."""
    sig, y = econ.sigma, prices.y
    base_a = -prices.x_a * econ.p_a + y * econ.c_a
    base_b = -prices.x_b * econ.p_b + y * econ.c_b

    def money_rates(t):
        sf = sig * exchange_flow(traj.state_at(t))
        return base_a + y * sf, base_b - y * sf

    ma, mb = money0.m_a, money0.m_b
    mas, mbs = [ma], [mb]
    ts = times.tolist()
    for t0, t1 in zip(ts, ts[1:]):
        h = t1 - t0
        ra0, rb0 = money_rates(t0)
        ram, rbm = money_rates(t0 + 0.5 * h)
        ra1, rb1 = money_rates(t1)
        ma += h / 6.0 * (ra0 + 4.0 * ram + ra1)
        mb += h / 6.0 * (rb0 + 4.0 * rbm + rb1)
        mas.append(ma)
        mbs.append(mb)
    return np.array(mas), np.array(mbs)


def _money_both_ways(traj, econ, prices, money0, step):
    times = cli._sample_times(traj.horizon, step, [e.t for e in traj.events])
    got = cli._money_along(traj, econ, prices, money0, times, traj.states_at(times))
    return got, _simpson_money_per_sample(traj, econ, prices, money0, times)


def _random_prices(rng):
    x_a = rng.uniform(0.5, 2.0)
    y = x_a + rng.uniform(0.1, 2.0)
    return PriceSet(x_a=x_a, x_b=y + rng.uniform(0.1, 2.0), y=y)


def test_array_money_matches_the_per_sample_quadrature():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        econ = GoodEconomy(p_a=rng.uniform(0.0, 4.0), p_b=rng.uniform(0.0, 4.0),
                           c_a=rng.uniform(0.2, 3.0), c_b=rng.uniform(0.2, 3.0),
                           sigma=rng.uniform(0.1, 3.0))
        horizon = rng.choice([1.0, 10.0, 37.5])
        traj = simulate_analytic(NormalizedState(rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)),
                                 econ, horizon)
        if len(traj.segments) < 2:
            continue
        money0 = MoneyState(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        got, want = _money_both_ways(traj, econ, _random_prices(rng), money0,
                                     horizon / rng.randint(50, 2000))
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-13 * np.maximum(1.0, np.abs(w)))
        checked += 1


def test_array_money_is_bit_equal_on_a_linear_segment():
    rng = random.Random(12)
    steady = parse_scenario(SCENARIO_DIR / "steady_state.scenario")
    cases = [(steady.good1, steady.initial, steady.prices1, steady.initial_money, 100.0)]
    for _ in range(20):  # sigma = 0, both stocks below threshold and falling
        c_a, c_b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        econ = GoodEconomy(p_a=c_a - rng.uniform(0.0, 0.5), p_b=c_b - rng.uniform(0.0, 0.5),
                           c_a=c_a, c_b=c_b, sigma=0.0)
        cases.append((econ, NormalizedState(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)),
                      _random_prices(rng), MoneyState(rng.uniform(-1.0, 1.0), 0.0),
                      rng.uniform(1.0, 50.0)))
    for econ, state0, prices, money0, horizon in cases:
        traj = simulate_analytic(state0, econ, horizon)
        assert len(traj.segments) == 1 and traj.segments[0].form_a.coef == 0.0
        assert traj.segments[0].form_b.coef == 0.0
        got, want = _money_both_ways(traj, econ, prices, money0, horizon / 997)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("contents, reason", [
    (b"\xff[model]\nkind = one-good\n", "can't decode byte 0xff in position 0"),
    (b"garbage\n", None),
], ids=["not_utf8", "no_section_header"])
def test_unreadable_scenario_is_one_error_line(tmp_path, capsys, contents, reason):
    path = tmp_path / "bad.scenario"
    path.write_bytes(contents)
    assert main(["fixed-point", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    if reason is not None:
        assert captured.err.startswith(f"error: cannot read scenario file {path}: ")
        assert reason in captured.err
    else:
        assert captured.err == (
            "error: syntax error: File contains no section headers. "
            f"file: '{path}', line: 1 'garbage\\n'\n"
        )
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("good, prices", [
    ("p_a = 1e308\np_b = 1\nc_a = 1e308\nc_b = 1\nsigma = 1", "x_a = 0\nx_b = 1e308\ny = 1e308"),
    ("p_a = 1\np_b = 2\nc_a = 1\nc_b = 2\nsigma = 5e-324", "x_a = 1\nx_b = 3\ny = 2"),
], ids=["dm_a", "threshold"])
def test_fixed_point_non_finite_value_is_an_input_error(tmp_path, capsys, good, prices):
    path = tmp_path / "huge.scenario"
    path.write_text(f"[model]\nkind = one-good\n[good1]\n{good}\n[prices1]\n{prices}\n")
    assert main(["fixed-point", str(path), "--eta-star", "1.5"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("value, problem", [
    ("-1e+16", ">= 1 (at or above the exchange threshold)"),
    ("-2E3", ">= 1 (at or above the exchange threshold)"),
    ("-.5e-3", ">= 1 (at or above the exchange threshold)"),
    ("-7.e1", ">= 1 (at or above the exchange threshold)"),
    ("-inf", "finite"),
])
def test_negative_eta_star_with_exponent_is_a_number(capsys, value, problem):
    scenario = str(SCENARIO_DIR / "steady_state.scenario")
    assert main(["fixed-point", scenario, f"--eta-star={value}"]) == EXIT_INPUT
    joined = capsys.readouterr()
    assert main(["fixed-point", scenario, "--eta-star", value]) == EXIT_INPUT
    assert capsys.readouterr() == joined
    assert joined.out == ""
    assert joined.err == f"error: eta_star must be {problem}, got {float(value)!r}\n"


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
    # a single segment with coef == 0: the money columns take no exp either
    (["simulate", "steady_state.scenario", "--analytic"],
     "dc5949a3360201c3465c4f7308adbb3e73e83796708aca813df229b90b4cb597"),
    # --both writes a comparison file beside the data file: {file: digest}
    (["simulate", "steady_state.scenario", "--both"],
     {"out.csv": "766de9b5d8dffc226080c8264fd0a36bf5e7d43029bc984493ea26bc049a1f72",
      "out.compare.csv": "025102f5795b92560ec48e57aebe51eb04fe5340673bfd16fc7d736ed60ad234"}),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_bytes_match_pinned_digest(tmp_path, argv, digest):
    command, scenario, *flags = argv
    out = tmp_path / "out.csv"
    assert main([command, str(SCENARIO_DIR / scenario), *flags, "--out", str(out)]) == EXIT_OK
    digests = digest if isinstance(digest, dict) else {out.name: digest}
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


# The depletion repro: eta_a falls at rate 0.5 and reaches zero at t = 1.
DEPLETING = """[model]
kind = one-good

[good1]
p_a = 0.5
p_b = 1
c_a = 1
c_b = 1
sigma = 1

[initial]
eta_a = 0.5
eta_b = 0.5

[solver]
horizon = 10
step = 0.01
"""
CLAMPED = DEPLETING + "depletion_policy = clamp_to_zero\n"

# sha256 of stdout, NUL, stderr, NUL, exit code of `simulate run.scenario
# --MODE --out out.csv`: every event line, the depletion halt and the
# discrepancy error, byte for byte. The closed-form switch times and the
# sup-norm take exp, so unlike PINNED_OUTPUTS these hold where exp rounds alike.
PINNED_STDOUT = {
    "crossing-numeric": (CROSSING, 0,
                         "cfba13f5b686dca40ddeb626a221a7a27fe603493e317ff208eca05a421bd3d8"),
    "crossing-analytic": (CROSSING, 0,
                          "cedf7c9d4c6d2638dc5bf7d18d2ae6401ca23c09aca908f1cadd81abf1fb29a2"),
    "crossing-both": (CROSSING, 0,
                      "5a20f146b21ba4b4924899a6b8b0ca4466b4529634e42b1cf8f4b7ce0f1dab5a"),
    "depleting-numeric": (DEPLETING, EXIT_DEPLETION,
                          "48eb792f7e5590afe1d021277aee9118ada054aaf061b8b1fede760d4a04bdbe"),
    "depleting-both": (DEPLETING, EXIT_DEPLETION,
                       "bb53289072509c01a2bdbb524f06ef07b35a0bcd116883dca27b6f83932233e8"),
    "clamped-numeric": (CLAMPED, EXIT_OK,
                        "bd6fc00795515e1dd6e178bc6cfc5255aa86cd2be334cda7d4b728a19166053c"),
    "clamped-both": (CLAMPED, EXIT_NUMERIC,
                     "f31e877662ea9b45eca564c868f4650da1ca02cf24b50cc55d09c3deb19fb1bb"),
}


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_simulate_stdout_matches_pinned_digest(tmp_path, monkeypatch, capsys, case):
    text, code, digest = PINNED_STDOUT[case]
    monkeypatch.chdir(tmp_path)
    Path("run.scenario").write_text(text)
    mode = case.split("-")[1]
    assert main(["simulate", "run.scenario", f"--{mode}", "--out", "out.csv"]) == code
    captured = capsys.readouterr()
    blob = f"{captured.out}\0{captured.err}\0{code}".encode()
    assert hashlib.sha256(blob).hexdigest() == digest


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


@pytest.mark.parametrize("money", ["m_a = 5\n", "m_b = -0.5\n"], ids=["m_a", "m_b"])
def test_holdings_without_prices_are_an_input_error(tmp_path, capsys, money):
    path = tmp_path / "run.scenario"
    path.write_text(CROSSING.replace("eta_b = 0.5\n", "eta_b = 0.5\n" + money))
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), "--numeric", "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "[prices1]" in err[0]
    assert not out.exists()


def test_zero_holdings_without_prices_are_accepted(tmp_path):
    path = tmp_path / "run.scenario"
    path.write_text(CROSSING.replace("eta_b = 0.5\n", "eta_b = 0.5\nm_a = 0\nm_b = -0\n"))
    assert main(["simulate", str(path), "--numeric", "--out", str(tmp_path / "o.csv")]) == EXIT_OK


def test_usage_errors_exit_with_input_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required arguments
    assert exc.value.code == EXIT_INPUT
