"""Command-line front end: scenario-driven simulation, fixed-point tables and
region scans, with deterministic comma-separated output files.

Exit codes: 0 success, 1 input or validation error, 2 numerical-check
failure, 3 depletion halt.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analytic import PiecewiseTrajectory, simulate_analytic
from .core import GoodEconomy, MoneyState, PriceSet
from .integrator import (
    DepletionPolicy,
    TimeSeries,
    _make_deriv,
    integrate_with_events,
)
from .money import one_good_money_rates
from .region import feasible_k_interval, scan_region
from .scenario import Scenario, ScenarioError, parse_scenario
from .steady import fixed_point_production

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_DEPLETION = 3

#: Largest analytic/numeric discrepancy tolerated by `simulate --both`.
SUP_DISCREPANCY_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors; keep exit code 2 for numerical checks.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fail(*messages: str) -> int:
    for m in messages:
        print(f"error: {m}", file=sys.stderr)
    return EXIT_INPUT


def _load(path: str) -> Scenario | None:
    try:
        return parse_scenario(path)
    except ScenarioError as exc:
        for p in exc.problems:
            print(f"error: {p}", file=sys.stderr)
        return None


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _flow_array(eta_a: np.ndarray, eta_b: np.ndarray) -> np.ndarray:
    return np.maximum(eta_a - 1.0, 0.0) - np.maximum(eta_b - 1.0, 0.0)


def _write_timeseries(path: Path, series: TimeSeries) -> None:
    flow = _flow_array(series.eta_a, series.eta_b)
    with_money = series.m_a is not None
    header = "t,eta_a,eta_b,regime,f" + (",m_a,m_b" if with_money else "")
    lines = [header]
    for i in range(len(series)):
        row = (
            f"{_fmt(series.times[i])},{_fmt(series.eta_a[i])},{_fmt(series.eta_b[i])},"
            f"{series.regimes[i].value},{_fmt(flow[i])}"
        )
        if with_money:
            row += f",{_fmt(series.m_a[i])},{_fmt(series.m_b[i])}"
        lines.append(row)
    _write_lines(path, lines)


def _timeseries_plot_script(data_name: str, with_money: bool) -> list[str]:
    lines = [
        "set datafile separator ','",
        "set xlabel 'time'",
        "set ylabel 'stock level'",
        f"plot '{data_name}' skip 1 using 1:2 with lines title 'eta_a', \\",
        f"     '{data_name}' skip 1 using 1:3 with lines title 'eta_b', \\",
        "     1 with lines dashtype 2 title 'threshold'",
    ]
    if with_money:
        lines += [
            "pause -1 'press return for the money view'",
            "set ylabel 'money holdings'",
            f"plot '{data_name}' skip 1 using 1:6 with lines title 'm_a', \\",
            f"     '{data_name}' skip 1 using 1:7 with lines title 'm_b'",
        ]
    return lines


def _sample_times(horizon: float, step: float, extra: list[float]) -> np.ndarray:
    n = int(horizon / step)
    grid = [v for v in (i * step for i in range(n + 1)) if v <= horizon]
    grid.append(horizon)
    return np.unique(np.array(grid + [t for t in extra if 0.0 <= t <= horizon]))


def _money_along(
    traj: PiecewiseTrajectory,
    econ: GoodEconomy,
    prices: PriceSet,
    money0: MoneyState | None,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the money rates along a closed-form trajectory.

    The rates depend on time only through the known state, so fourth-order
    stepping reduces to Simpson quadrature over each sample interval.
    """
    deriv = _make_deriv(econ, prices)

    def money_rates(t: float) -> tuple[float, float]:
        s = traj.state_at(float(t))
        _, _, dma, dmb = deriv(s.eta_a, s.eta_b)
        return dma, dmb

    ma = money0.m_a if money0 is not None else 0.0
    mb = money0.m_b if money0 is not None else 0.0
    mas = [ma]
    mbs = [mb]
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        h = t1 - t0
        ra0, rb0 = money_rates(t0)
        ram, rbm = money_rates(t0 + 0.5 * h)
        ra1, rb1 = money_rates(t1)
        ma += h / 6.0 * (ra0 + 4.0 * ram + ra1)
        mb += h / 6.0 * (rb0 + 4.0 * rbm + rb1)
        mas.append(ma)
        mbs.append(mb)
    return np.array(mas), np.array(mbs)


def _analytic_series(
    traj: PiecewiseTrajectory,
    econ: GoodEconomy,
    prices: PriceSet | None,
    money0: MoneyState | None,
    step: float,
) -> TimeSeries:
    times = _sample_times(traj.horizon, step, traj.switch_times())
    states = traj.states_at(times)
    regimes = [traj.regime_at(float(t)) for t in times]
    if prices is not None:
        m_a, m_b = _money_along(traj, econ, prices, money0, times)
    else:
        m_a = m_b = None
    events = [
        (seg.t_start, f"regime switch to {seg.regime.value}")
        for seg in traj.segments[1:]
    ]
    return TimeSeries(
        times=times,
        eta_a=states[:, 0],
        eta_b=states[:, 1],
        regimes=regimes,
        m_a=m_a,
        m_b=m_b,
        events=events,
    )


def _depletion_time(series: TimeSeries) -> float | None:
    for t, desc in series.events:
        if desc.startswith("depletion"):
            return t
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INPUT
    if sc.kind != "one-good":
        return _fail("simulate requires a one-good scenario")
    if sc.initial is None:
        return _fail("simulate requires an [initial] section")
    if sc.solver is None:
        return _fail("simulate requires a [solver] section (horizon)")
    econ, prices, opts = sc.good1, sc.prices1, sc.solver
    state0, money0 = sc.initial, sc.initial_money
    out = Path(args.out)

    numeric = None
    if args.mode in ("numeric", "both"):
        numeric = integrate_with_events(state0, econ, opts, prices=prices, money0=money0)
    traj = None
    if args.mode in ("analytic", "both"):
        traj = simulate_analytic(state0, econ, opts.horizon, event_tol=opts.event_tol)

    if args.mode == "analytic":
        series = _analytic_series(traj, econ, prices, money0, opts.step)
    else:
        series = numeric
    _write_timeseries(out, series)
    print(f"wrote {len(series)} samples to {out}")
    for t, desc in series.events:
        print(f"event t={_fmt(t)}: {desc}")
    if args.plot:
        script = out.with_suffix(".gnuplot")
        _write_lines(script, _timeseries_plot_script(out.name, series.m_a is not None))
        print(f"wrote plot script {script}")

    sup = None
    if args.mode == "both":
        reference = traj.states_at(numeric.times)
        diff_a = np.abs(numeric.eta_a - reference[:, 0])
        diff_b = np.abs(numeric.eta_b - reference[:, 1])
        disc = np.maximum(diff_a, diff_b)
        sup = float(disc.max()) if len(disc) else 0.0
        cmp_path = out.with_name(out.stem + ".compare" + out.suffix)
        lines = ["t,eta_a_numeric,eta_b_numeric,eta_a_analytic,eta_b_analytic,discrepancy"]
        for i in range(len(numeric)):
            lines.append(
                f"{_fmt(numeric.times[i])},{_fmt(numeric.eta_a[i])},{_fmt(numeric.eta_b[i])},"
                f"{_fmt(reference[i, 0])},{_fmt(reference[i, 1])},{_fmt(disc[i])}"
            )
        _write_lines(cmp_path, lines)
        print(f"wrote comparison to {cmp_path}")
        print(f"sup-norm discrepancy: {_fmt(sup)}")

    if sup is not None and sup > SUP_DISCREPANCY_TOL:
        print(
            f"error: analytic/numeric discrepancy {_fmt(sup)} exceeds "
            f"{_fmt(SUP_DISCREPANCY_TOL)}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    if numeric is not None:
        t_dep = _depletion_time(numeric)
        if t_dep is not None and opts.depletion_policy is DepletionPolicy.HALT:
            print(f"depletion halt at t={_fmt(t_dep)}", file=sys.stderr)
            return EXIT_DEPLETION
    return EXIT_OK


def cmd_fixed_point(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INPUT
    if sc.kind != "one-good":
        return _fail("fixed-point requires a one-good scenario")
    if sc.prices1 is None:
        return _fail("fixed-point requires a [prices1] section")
    eta_star = args.eta_star if args.eta_star is not None else sc.eta_star1
    if eta_star is None:
        return _fail("supply --eta-star or an eta_star key in [good1]")
    econ, prices = sc.good1, sc.prices1
    try:
        p_a, p_b = fixed_point_production(eta_star, econ.c_a, econ.c_b, econ.sigma)
        dm_a, dm_b = one_good_money_rates(econ, prices, eta_star)
    except ValueError as exc:
        return _fail(str(exc))
    print(f"fixed point at eta_a = {_fmt(eta_star)} (sigma = {_fmt(econ.sigma)})")
    print(f"  p_a     = {_fmt(p_a)}")
    print(f"  p_b     = {_fmt(p_b)}")
    print(f"  dm_a/dt = {_fmt(dm_a)}")
    print(f"  dm_b/dt = {_fmt(dm_b)}")
    print(
        "  p_b reaches zero at sigma*(eta_a - 1) = c_b = "
        f"{_fmt(econ.c_b)}"
        + (
            f", i.e. eta_a = {_fmt(1.0 + econ.c_b / econ.sigma)}"
            if econ.sigma > 0.0
            else " (unreachable with sigma = 0)"
        )
    )
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INPUT
    if sc.kind != "two-good":
        return _fail("region requires a two-good scenario")
    if sc.grid is None:
        return _fail("region requires a [grid] section")
    two = sc.two_good()
    try:
        scan = scan_region(two, sc.grid)
    except ValueError as exc:
        return _fail(str(exc))
    interval = feasible_k_interval(two)

    lines = ["sigma1,eta_a1,k,dm_a,dm_b,p_a2,p_b1,feasible"]
    feasible_count = 0
    mismatch = None
    for sig, eta, k, dm_a, dm_b, p_a2, p_b1, feasible in scan.rows():
        if feasible != interval.contains(k):
            mismatch = (sig, eta, k, feasible)
        feasible_count += feasible
        lines.append(
            f"{_fmt(sig)},{_fmt(eta)},{_fmt(k)},{_fmt(dm_a)},{_fmt(dm_b)},"
            f"{_fmt(p_a2)},{_fmt(p_b1)},{int(feasible)}"
        )
    out = Path(args.out)
    _write_lines(out, lines)
    total = scan.grid.sigma1_steps * scan.grid.eta_steps
    print(f"wrote {total} nodes to {out}")
    if args.plot:
        script = out.with_suffix(".gnuplot")
        _write_lines(
            script,
            [
                "set datafile separator ','",
                "set xlabel 'sigma1'",
                "set ylabel 'eta_a1'",
                f"plot '{out.name}' skip 1 using ($8 == 1 ? $1 : 1/0):2 "
                "with points pt 7 ps 0.4 title 'feasible'",
            ],
        )
        print(f"wrote plot script {script}")
    if interval.empty:
        print("empty region: no k satisfies all four conditions")
    else:
        print(f"feasible k interval: [{_fmt(interval.lo)}, {_fmt(interval.hi)}]")
    print(f"feasible nodes: {feasible_count} of {total}")
    if mismatch is not None:
        sig, eta, k, feas = mismatch
        print(
            f"error: scanner and closed form disagree at sigma1={_fmt(sig)}, "
            f"eta_a1={_fmt(eta)} (k={_fmt(k)}, scanner says {feas})",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tradeflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a one-good scenario")
    p_sim.add_argument("scenario", help="path to a scenario file")
    mode = p_sim.add_mutually_exclusive_group()
    mode.add_argument("--analytic", dest="mode", action="store_const", const="analytic",
                      help="closed-form solution only")
    mode.add_argument("--numeric", dest="mode", action="store_const", const="numeric",
                      help="Runge-Kutta integration only")
    mode.add_argument("--both", dest="mode", action="store_const", const="both",
                      help="run both and compare (default)")
    p_sim.set_defaults(mode="both", func=cmd_simulate)
    p_sim.add_argument("--out", required=True, help="output data file")
    p_sim.add_argument("--plot", action="store_true", help="emit a gnuplot script")

    p_fp = sub.add_parser("fixed-point", help="implied productions and money rates")
    p_fp.add_argument("scenario")
    p_fp.add_argument("--eta-star", type=float, default=None,
                      help="fixed-point stock of country A (overrides the scenario)")
    p_fp.set_defaults(func=cmd_fixed_point)

    p_reg = sub.add_parser("region", help="scan the (sigma1, eta_a1) feasibility region")
    p_reg.add_argument("scenario")
    p_reg.add_argument("--out", required=True, help="output data file")
    p_reg.add_argument("--plot", action="store_true", help="emit a gnuplot script")
    p_reg.set_defaults(func=cmd_region)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
