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
import warnings
from contextlib import ExitStack, closing
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .analytic import PiecewiseTrajectory, simulate_analytic
from .core import GoodEconomy, MoneyState, PriceSet, Regime
from .exchange import flow_array
from .floatfmt import float_slots
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

#: Rows formatted per block by `_blocks`; bounds the buffers alive at once
#: while keeping the per-call overhead of numpy negligible.
_CHUNK_ROWS = 2048

#: Values (rows times array columns) from which `_write_csvs` formats all of
#: the files of one command in two processes, the columns that lead the rows
#: of more than one file counted once. A split costs a fork, the wait for the
#: child and the page faults that the fork leaves to the rest of the process;
#: it saves half the formatting. On a 2-core host at about 40 MB resident, a
#: loop of one file of 6 columns of region values written, a small op, a
#: collection and a reference computation ran faster split in 0 to 2 of 16
#: pairs from 24576 to 81920 values (median split/single time 1.04 to 1.33),
#: in 10 and 11 of 16 at 98304 (0.97, 0.98) and in 13 to 15 of 16 from
#: 131072 (0.78 to 0.92), with floats set by `float_slots`. The benchmark's
#: gated `op_p50_ref` cannot settle it: the fork leaves page faults to the
#: reference computation timed after the op, so `ref_ms` read 0.47-0.74
#: after a split against 0.44-0.51 without one. On `sim-analytic-money`
#: (60k values, seeds 1-4, 15 s each) one process read a raw `op_p50_ms` of
#: 12.5-14.1 against 13.6-17.5 split, while `op_p50_ref` read 27.4-28.9
#: against 25.2-28.5. So the bound stays at 49152 until the benchmark times
#: its reference apart from the op's fork (ROADMAP item 1). No CLI file has more
#: than 6 array columns, so a command that writes one file under 8192 rows
#: never splits; `simulate --both` with prices writes 9 array columns in all,
#: so it splits from 5462 rows.
_SPLIT_VALUES = 49152


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


def _write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the bytes of ``chunks`` as the file at ``path``. A write that
    raises removes its file."""
    fh = open(path, "wb")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        if path.is_file():  # not a device such as /dev/full
            path.unlink()
        raise


class _Coded:
    """A column whose rows print as one of a few texts: row i prints as
    ``table[codes[i]]``, a row of NUL-padded bytes. Sliced, it slices its
    codes."""

    def __init__(self, table: np.ndarray, codes: np.ndarray):
        self.table, self.codes = table, codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> _Coded:
        return _Coded(self.table, self.codes[rows])


#: Each regime's name, NUL-padded, at its code (`exchange.regime_code`).
_REGIME_NAMES = np.array([r.value for r in Regime], dtype="S").view(np.uint8).reshape(
    len(Regime), -1)


def _slots(c) -> np.ndarray:
    """One block of a column as its slots: per row, its text, NUL-padded."""
    if isinstance(c, _Coded):
        return c.table.take(c.codes, axis=0)
    if c.ndim == 2:  # rows formatted already: the lead that two files share
        return c
    if c.dtype == bool:
        return (c.view(np.uint8) + np.uint8(48))[:, None]
    return float_slots(c)


def _blocks(columns: list) -> Iterator[np.ndarray]:
    """The rows of parallel columns as text, one uint8 array per block of
    `_CHUNK_ROWS` rows: each row the slots of its columns side by side, each
    followed by "," and the last by a newline. A slot is a value's text
    followed by NUL bytes, which `_tables` drops. Float arrays print as
    ``"%.17g" % x`` in slots of `floatfmt.SLOT` bytes (`floatfmt.float_slots`:
    exact digits for every finite value, a template gather keyed by form,
    trailing zeros and sign, and ``"%.17g" % v`` for each value whose digits
    are not certified), bool arrays as 0/1, `_Coded` columns from their table
    and two-dimensional uint8 arrays as their rows. `_write_csvs` may run it
    on each half of the rows in its own process."""
    n = len(columns[0])
    for lo in range(0, n, _CHUNK_ROWS):
        slots = [_slots(c[lo:lo + _CHUNK_ROWS]) for c in columns]
        comma = np.full((len(slots[0]), 1), 44, dtype=np.uint8)
        rows = np.concatenate([part for s in slots for part in (s, comma)], axis=1)
        rows[:, -1] = 10
        yield rows


def _tables(lead: list, tables: list[list], lo: int, hi: int) -> Iterator[Iterator[bytes]]:
    """The text of rows [lo, hi) of each table, one bytes per `_blocks`
    block, every row led by the ``lead`` columns. When more than one table
    shares the lead, it is formatted once, on the first table's turn, and
    passed on as the rows of one column."""
    lead = [c[lo:hi] for c in lead]
    if len(tables) > 1:
        lead = [np.concatenate(list(_blocks(lead)))[:, :-1]]
    for columns in tables:
        # No text that reaches a file holds a NUL byte: only numbers, 0/1 and
        # the fixed regime names do. So dropping every NUL of a block leaves
        # exactly its text.
        yield (rows[rows != 0].tobytes()
               for rows in _blocks(lead + [c[lo:hi] for c in columns]))


def _fork(stack: ExitStack, lead: list, tables: list[list], n: int):
    """Fork a child that formats rows n//2 onwards of each table into an
    unnamed temporary file of its own, and writes one byte to a pipe as each
    is complete; ``stack`` reaps it and closes the files and the pipe. Returns
    the reader of table i's rows from the child, which waits for its byte and
    raises `OSError` when the child ended without it. Raises `OSError` when
    no temporary file, pipe or process is to be had."""
    import tempfile  # here, so that a command that never splits does not load it

    spills = [stack.enter_context(tempfile.TemporaryFile()) for _ in tables]
    r, w = os.pipe()
    stack.callback(os.close, r)
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork of a process with more than one
            # thread (here numpy's idle OpenBLAS thread): the child could
            # deadlock on a lock that another thread held. The child runs no
            # BLAS, takes no such lock and ends in os._exit, so it neither
            # returns into the caller nor flushes this process's buffers.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            for spill, text in zip(spills, _tables(lead, tables, n // 2, n)):
                spill.writelines(text)
                spill.flush()
                os.write(w, b".")
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    stack.callback(os.waitpid, pid, 0)  # first on exit, while the pipe is open

    def rows_from_child(i: int) -> Iterator[bytes]:
        if os.read(r, 1) != b".":  # the pipe closed: the child has ended
            raise OSError(f"the process formatting rows {n // 2} to {n - 1} failed")
        spills[i].seek(0)  # the child's writes moved the offset both share
        yield from iter(lambda: spills[i].read(1 << 16), b"")

    return rows_from_child


def _write_csvs(lead: list, files: list[tuple[Path, str, list]]) -> Iterator[None]:
    """Write the CSV files of one command in turn, each (path, header,
    columns) with the ``lead`` columns first in every row, and yield once
    each file is complete, so that the caller can report it before the next
    is written. Float arrays are written as ``%.17g``, bool arrays as 0/1
    and `_Coded` columns from their table (`_blocks`). From `_SPLIT_VALUES`
    values in all (rows times array columns, the lead counted once), with
    `os.fork` and two CPUs, the command forks once: a child formats rows
    n//2 onwards of every file (`_fork`) while this process formats the
    first half, and each file is its header, this process's half, then the
    child's bytes as they are. The bytes do not depend on the split, since
    each value's text depends on that value alone. The child is reaped on
    every exit path, also when the caller stops early. A write that raises
    removes its file."""
    tables = [columns for _, _, columns in files]
    n = len((lead or tables[0])[0])
    values = n * sum(isinstance(c, np.ndarray) for c in chain(lead, *tables))
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    with ExitStack() as stack:
        child = None
        if values >= _SPLIT_VALUES and len(cpus) >= 2 and hasattr(os, "fork"):
            try:
                child = _fork(stack, lead, tables, n)
            except OSError:  # format alone
                pass
        texts = _tables(lead, tables, 0, n if child is None else n // 2)
        for i, ((path, header, _), text) in enumerate(zip(files, texts)):
            _write(path, chain([f"{header}\n".encode()], text, child(i) if child else ()))
            yield


def _timeseries_plot_script(data_name: str, with_money: bool) -> list[str]:
    data = "'" + data_name.replace("'", "''") + "'"  # gnuplot quotes ' as ''
    lines = [
        "set datafile separator ','",
        "set xlabel 'time'",
        "set ylabel 'stock level'",
        f"plot {data} skip 1 using 1:2 with lines title 'eta_a', \\",
        f"     {data} skip 1 using 1:3 with lines title 'eta_b', \\",
        "     1 with lines dashtype 2 title 'threshold'",
    ]
    if with_money:
        lines += [
            "pause -1 'press return for the money view'",
            "set ylabel 'money holdings'",
            f"plot {data} skip 1 using 1:6 with lines title 'm_a', \\",
            f"     {data} skip 1 using 1:7 with lines title 'm_b'",
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
    codes = np.array([tuple(Regime).index(seg.regime) for seg in traj.segments], np.uint8)
    regimes = codes[traj.segment_indices(times)]
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

    header = "t,eta_a,eta_b,regime,f"
    columns = [_Coded(_REGIME_NAMES, series.regimes), flow_array(series.eta_a, series.eta_b)]
    if series.m_a is not None:
        header += ",m_a,m_b"
        columns += [series.m_a, series.m_b]
    files = [(out, header, columns)]
    if args.mode == "both":  # the comparison file starts with the same columns
        sup = float(disc.max()) if len(disc) else 0.0
        files.append((cmp_path,
                      "t,eta_a_numeric,eta_b_numeric,eta_a_analytic,eta_b_analytic,discrepancy",
                      [reference[:, 0], reference[:, 1], disc]))
    path = out
    try:
        with closing(_write_csvs([series.times, series.eta_a, series.eta_b], files)) as written:
            next(written)
            print(f"wrote {len(series)} samples to {out}")
            for e in series.events:
                print(f"event t={_fmt(e.t)}: {e}")
            if args.plot:
                path = script
                _write(script, (f"{line}\n".encode() for line in
                                _timeseries_plot_script(out.name, series.m_a is not None)))
                print(f"wrote plot script {script}")
            if args.mode == "both":
                path = cmp_path
                next(written)
                print(f"wrote comparison to {cmp_path}")
                print(f"sup-norm discrepancy: {_fmt(sup)}")
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror or exc}")

    if sup is not None and sup > SUP_DISCREPANCY_TOL:
        return _fail(
            f"analytic/numeric discrepancy {_fmt(sup)} exceeds {SUP_DISCREPANCY_TOL:g}",
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
    # Row-major with sigma1 fastest: each axis node is formatted once, and
    # row i prints sigma1 node i % n and eta_a1 node i // n.
    n = len(scan.sigma1)
    nodes = np.arange(total, dtype=np.intp)
    columns = [_Coded(float_slots(scan.sigma1), nodes % n),
               _Coded(float_slots(scan.eta_a1), nodes // n)]
    columns += [a.ravel() for a in (scan.k, scan.dm_a, scan.dm_b, scan.p_a2, scan.p_b1,
                                    scan.feasible)]
    header = "sigma1,eta_a1,k,dm_a,dm_b,p_a2,p_b1,feasible"
    path = out
    try:
        with closing(_write_csvs([], [(out, header, columns)])) as written:
            next(written)
            print(f"wrote {total} nodes to {out}")
            if args.plot:
                path = script
                data = "'" + out.name.replace("'", "''") + "'"  # gnuplot quotes ' as ''
                _write(script, (f"{line}\n".encode() for line in [
                    "set datafile separator ','",
                    "set xlabel 'sigma1'",
                    "set ylabel 'eta_a1'",
                    f"plot {data} skip 1 using ($8 == 1 ? $1 : 1/0):2 "
                    "with points pt 7 ps 0.4 title 'feasible'",
                ]))
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
