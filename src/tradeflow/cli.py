"""Command-line front end: scenario-driven simulation, fixed-point tables and
region scans, with deterministic comma-separated output files.

Exit codes: 0 success, 1 input or validation error, 2 numerical-check
failure, 3 depletion halt.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .analytic import PiecewiseTrajectory, simulate_analytic
from .core import GoodEconomy, MoneyState, PriceSet
from .exchange import flow_array
from .integrator import TimeSeries, integrate_with_events
from .money import fixed_point_production, money_holdings, one_good_money_rates
from .region import feasible_k_interval, scan_region
from .scenario import Scenario, ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_DEPLETION = 3

#: Largest analytic/numeric discrepancy tolerated by `simulate --both`.
SUP_DISCREPANCY_TOL = 1e-6

#: Rows formatted per `%` call by `_write_csv`; bounds the Python objects
#: alive at once while keeping the per-call overhead negligible.
_CHUNK_ROWS = 2048


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e+16" or "-inf" as an option unless it matches
        # this; widen it from plain decimals to every negative float literal
        # so that `--eta-star -1e+16` reaches float().
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    # Usage problems are input errors; keep exit code 2 for numerical checks.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fail(*messages: str, code: int = EXIT_INPUT) -> int:
    for m in messages:
        print(f"error: {m}", file=sys.stderr)
    return code


def _unwritable(paths: dict[str, Path | None]) -> str | None:
    """Why one of the files a command will write, keyed by its role (None:
    not written), cannot be, checked before any compute. Two roles that name
    the same file are refused: the later write would replace the earlier. The
    scenario being read comes first, so that no output replaces it."""
    roles: dict[str, str] = {}
    for role, path in paths.items():
        if path is None:
            continue
        if path.is_dir():
            return f"cannot write {path}: it is a directory"
        if not path.parent.is_dir():
            return f"cannot write {path}: directory {path.parent} does not exist"
        other = roles.setdefault(os.path.realpath(path), role)
        if other != role:
            return f"cannot write {path}: it would be both the {other} and the {role}"
    return None


def _load(path: str) -> Scenario | None:
    try:
        return parse_scenario(path)
    except ScenarioError as exc:
        _fail(*exc.problems)
        return None


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _block_column(a: np.ndarray, spec: str) -> tuple[str, list]:
    """One block of an array column as (spec, values) for `_blocks`. When at
    least half of its rows repeat the row above bit for bit (a float64 by its
    bits, so -0.0 after 0.0 starts a run), only the run heads are formatted,
    by ``spec`` in one ``%``, and each row gets its head's string under
    ``%s``; otherwise the values go to ``spec`` as they are."""
    keys = a if a.dtype == bool else a.view(np.int64)
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    heads = np.count_nonzero(new)
    if 2 * heads > len(a):
        return spec, a.tolist()
    text = (((spec + "\n") * heads) % tuple(a[new].tolist())).split("\n")
    return "%s", np.array(text, dtype=object)[np.cumsum(new) - 1].tolist()


def _blocks(columns: list) -> Iterator[str]:
    """The rows of parallel columns as text, each row ended by a newline, one
    string per block of `_CHUNK_ROWS` rows: float arrays as ``%.17g`` (the
    bytes of ``f"{x:.17g}"``), bool arrays as 0/1, lists of strings as they
    are. Each block is formatted by a single ``%``; an array column whose
    block is at least half repeats formats each run once (`_block_column`)."""
    specs = ["%s" if not isinstance(c, np.ndarray) else "%d" if c.dtype == bool else "%.17g"
             for c in columns]
    n = len(columns[0])
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        block_specs, block = zip(*(
            _block_column(c[lo:hi], s) if isinstance(c, np.ndarray) else (s, c[lo:hi])
            for c, s in zip(columns, specs)))
        fmt = ",".join(block_specs) + "\n"
        yield (fmt * (hi - lo)) % tuple(chain.from_iterable(zip(*block)))


def _formatted(columns: list) -> list[str]:
    """One string per row of parallel columns, as `_write_csv` writes it but
    without the newline: a value written more than once is formatted once
    here and handed to `_write_csv` as a string column."""
    return "".join(_blocks(columns)).split("\n")[:-1]


def _write_csv(path: Path, header: str, columns: list) -> None:
    """Write parallel columns under a header line, formatted by `_blocks`: a
    block of an array column that is at least half repeats of the row above
    formats each run of equal values once. Besides the regime names, the
    string columns that arrive hold floats already formatted by `_formatted`:
    the region's sigma1 and eta_a1 axes, and the t,eta_a,eta_b lead that both
    files of `simulate --both` share."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(_blocks(columns))


def _write_timeseries(path: Path, series: TimeSeries, lead: list) -> None:
    """Write the series; ``lead`` holds its t, eta_a and eta_b columns, as
    arrays or already formatted as one string column."""
    header = "t,eta_a,eta_b,regime,f"
    columns = lead + [[r._value_ for r in series.regimes],  # `.value` is a slow Enum property
                      flow_array(series.eta_a, series.eta_b)]
    if series.m_a is not None:
        header += ",m_a,m_b"
        columns += [series.m_a, series.m_b]
    _write_csv(path, header, columns)


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
    """The step grid, the horizon and the ``extra`` times within [0, horizon],
    sorted without repeats: the bytes of ``np.unique``, which would import
    ``numpy.ma``."""
    grid = np.arange(int(horizon / step) + 1) * step
    extra = [t for t in extra if 0.0 <= t <= horizon]
    times = np.sort(np.concatenate([grid[grid <= horizon], [horizon], extra]))
    return times[np.concatenate([[True], times[1:] != times[:-1]])]


def _money_along(
    traj: PiecewiseTrajectory,
    econ: GoodEconomy,
    prices: PriceSet,
    money0: MoneyState | None,
    times: np.ndarray,
    states: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Money holdings along a closed-form trajectory sampled at ``times``
    (stocks ``states``).

    The rates depend on time only through the known state, so the RK4 money
    rule of ``money.money_holdings`` that the numeric engine uses, given the
    exact flow at each interval's ends and midpoint, is Simpson quadrature
    over each sample interval.
    """
    t0 = times[:-1]
    h = times[1:] - t0
    mid = traj.states_at(t0 + 0.5 * h)
    sf = econ.sigma * flow_array(states[:, 0], states[:, 1])
    sf_mid = econ.sigma * flow_array(mid[:, 0], mid[:, 1])
    return money_holdings(econ, prices, money0, h, sf[:-1], sf_mid, sf_mid, sf[1:])


def _analytic_series(
    traj: PiecewiseTrajectory,
    econ: GoodEconomy,
    prices: PriceSet | None,
    money0: MoneyState | None,
    step: float,
) -> TimeSeries:
    events = traj.events
    times = _sample_times(traj.horizon, step, [e.t for e in events])
    states = traj.states_at(times)
    seg_regimes = np.array([seg.regime for seg in traj.segments], dtype=object)
    regimes = seg_regimes[traj.segment_indices(times)].tolist()
    if prices is not None:
        m_a, m_b = _money_along(traj, econ, prices, money0, times, states)
    else:
        m_a = m_b = None
    return TimeSeries(times=times, eta_a=states[:, 0], eta_b=states[:, 1], regimes=regimes,
                      m_a=m_a, m_b=m_b, events=events)


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
    script = out.with_suffix(".gnuplot")
    cmp_path = out.with_name(out.stem + ".compare" + out.suffix)
    problem = _unwritable({
        "scenario being read": Path(args.scenario),
        "data file": out,
        "plot script": script if args.plot else None,
        "comparison file": cmp_path if args.mode == "both" else None,
    })
    if problem is not None:
        return _fail(problem)

    reference = disc = sup = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.mode != "analytic":
                series = integrate_with_events(state0, econ, opts, prices=prices, money0=money0)
            if args.mode != "numeric":
                traj = simulate_analytic(state0, econ, opts.horizon, event_tol=opts.event_tol)
            if args.mode == "analytic":
                series = _analytic_series(traj, econ, prices, money0, opts.step)
            elif args.mode == "both":
                reference = traj.states_at(series.times)
                disc = np.maximum(np.abs(series.eta_a - reference[:, 0]),
                                  np.abs(series.eta_b - reference[:, 1]))
    except (ValueError, RuntimeError) as exc:
        return _fail(f"simulate --{args.mode} failed: {exc}", code=EXIT_NUMERIC)
    columns = (series.times, series.eta_a, series.eta_b, series.m_a, series.m_b, reference, disc)
    if not all(c is None or np.isfinite(c).all() for c in columns):
        return _fail(
            f"simulate --{args.mode} produced a non-finite value (a stock or money "
            "holding overflows); no file written",
            code=EXIT_NUMERIC,
        )

    lead = [series.times, series.eta_a, series.eta_b]
    if args.mode == "both":  # the comparison file starts with the same columns
        lead = [_formatted(lead)]
    path = out
    try:
        _write_timeseries(out, series, lead)
        print(f"wrote {len(series)} samples to {out}")
        for e in series.events:
            print(f"event t={_fmt(e.t)}: {e}")
        if args.plot:
            path = script
            _write_lines(script, _timeseries_plot_script(out.name, series.m_a is not None))
            print(f"wrote plot script {script}")
        if args.mode == "both":
            sup = float(disc.max()) if len(disc) else 0.0
            path = cmp_path
            _write_csv(
                cmp_path,
                "t,eta_a_numeric,eta_b_numeric,eta_a_analytic,eta_b_analytic,discrepancy",
                lead + [reference[:, 0], reference[:, 1], disc],
            )
            print(f"wrote comparison to {cmp_path}")
            print(f"sup-norm discrepancy: {_fmt(sup)}")
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror or exc}")

    if sup is not None and sup > SUP_DISCREPANCY_TOL:
        return _fail(
            f"analytic/numeric discrepancy {_fmt(sup)} exceeds {_fmt(SUP_DISCREPANCY_TOL)}",
            code=EXIT_NUMERIC,
        )
    for e in series.events:
        if e.kind == "depletion":
            print(f"depletion halt at t={_fmt(e.t)}", file=sys.stderr)
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
    threshold = 1.0 + econ.c_b / econ.sigma if econ.sigma > 0.0 else 0.0
    if not np.isfinite([p_a, p_b, dm_a, dm_b, threshold]).all():
        return _fail("fixed-point produced a non-finite value (a production, money "
                     "rate or threshold overflows)")
    print(f"fixed point at eta_a = {_fmt(eta_star)} (sigma = {_fmt(econ.sigma)})")
    print(f"  p_a     = {_fmt(p_a)}")
    print(f"  p_b     = {_fmt(p_b)}")
    print(f"  dm_a/dt = {_fmt(dm_a)}")
    print(f"  dm_b/dt = {_fmt(dm_b)}")
    reach = (f", i.e. eta_a = {_fmt(threshold)}" if econ.sigma > 0.0
             else " (unreachable with sigma = 0)")
    print(f"  p_b reaches zero at sigma*(eta_a - 1) = c_b = {_fmt(econ.c_b)}{reach}")
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INPUT
    if sc.kind != "two-good":
        return _fail("region requires a two-good scenario")
    if sc.grid is None:
        return _fail("region requires a [grid] section")
    out = Path(args.out)
    script = out.with_suffix(".gnuplot")
    problem = _unwritable({"scenario being read": Path(args.scenario), "data file": out,
                           "plot script": script if args.plot else None})
    if problem is not None:
        return _fail(problem)
    two = sc.two_good()
    try:
        scan = scan_region(two, sc.grid)
    except ValueError as exc:
        return _fail(str(exc))
    interval = feasible_k_interval(two)

    total = scan.k.size
    # Row-major with sigma1 fastest: each axis node is formatted once, then
    # sigma1 is tiled across the rows and each eta_a1 repeated along its row.
    sigma1 = _formatted([scan.sigma1])
    eta_a1 = _formatted([scan.eta_a1])
    grid_columns = (scan.k, scan.dm_a, scan.dm_b, scan.p_a2, scan.p_b1, scan.feasible)
    path = out
    try:
        _write_csv(
            out,
            "sigma1,eta_a1,k,dm_a,dm_b,p_a2,p_b1,feasible",
            [sigma1 * len(eta_a1),
             list(chain.from_iterable(repeat(e, len(sigma1)) for e in eta_a1))]
            + [a.ravel() for a in grid_columns],
        )
        print(f"wrote {total} nodes to {out}")
        if args.plot:
            path = script
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
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror or exc}")
    if interval.empty:
        print("empty region: no k satisfies all four conditions")
    else:
        print(f"feasible k interval: [{_fmt(interval.lo)}, {_fmt(interval.hi)}]")
    print(f"feasible nodes: {int(scan.feasible.sum())} of {total}")
    mismatch = ((interval.lo <= scan.k) & (scan.k <= interval.hi)) != scan.feasible
    if mismatch.any():
        i, j = np.argwhere(mismatch)[-1]  # the last in row-major order
        print(
            f"error: scanner and closed form disagree at sigma1={_fmt(float(scan.sigma1[j]))}, "
            f"eta_a1={_fmt(float(scan.eta_a1[i]))} (k={_fmt(float(scan.k[i, j]))}, "
            f"scanner says {bool(scan.feasible[i, j])})",
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
