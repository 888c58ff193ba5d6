import bisect
import errno
import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from tradeflow import cli, floatfmt
from tradeflow.analytic import PiecewiseTrajectory, RegimeSegment, simulate_analytic
from tradeflow.cli import EXIT_DEPLETION, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet, Regime
from tradeflow.exchange import MAX_SEGMENTS, exchange_flow, regime_code, regime_from_sides
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


def test_discrepancy_error_prints_the_tolerance_as_written(tmp_path, capsys):
    # one RK4 step of 10 across both crossings of crossing.scenario
    path = tmp_path / "coarse.scenario"
    path.write_text(CROSSING.replace("step = 0.001", "step = 10"))
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), "--both", "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "error: analytic/numeric discrepancy 1.3237058652917739 exceeds 1e-06\n")


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

    monkeypatch.setattr(cli, "_write_csvs", full_disk)
    out = tmp_path / "out.csv"
    assert main([command, str(SCENARIO_DIR / scenario), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"


def _write_csv(path, header, columns):
    """One file through the command writer, with no shared lead."""
    for _ in cli._write_csvs([], [(path, header, columns)]):
        pass


def _per_value_csv(header, columns):
    """The row-at-a-time rendering the batched writer must reproduce."""
    rows = [",".join(v if isinstance(v, str) else f"{int(v)}" if isinstance(v, bool)
                     else f"{v:.17g}" for v in row)
            for row in zip(*(list(c) for c in columns))]
    return "\n".join([header, *rows]) + "\n"


def _regimes(codes):
    """A column of regime names as `simulate` writes it: coded, through
    their byte table."""
    return cli._Coded(cli._REGIME_NAMES, np.asarray(codes))


def _names(codes):
    """The regime names of an array of regime codes, decoded as
    ``tuple(Regime)[code]``."""
    return [tuple(Regime)[c].value for c in codes.tolist()]


def _plain(column):
    """A writer column as the Python values `_per_value_csv` renders."""
    if isinstance(column, cli._Coded):
        return _names(column.codes)
    return column.tolist()


AWKWARD = [-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0, -7.0, 1e16, 2.5e-8]


@pytest.mark.parametrize("n", [1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_write_csv_matches_per_value_rendering(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = np.array([AWKWARD[i % len(AWKWARD)] for i in range(n)])
    randoms = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    flags = rng.random(n) < 0.5
    regimes = _regimes(np.arange(n) % len(Regime))
    columns = [floats, regimes, randoms, flags, floats[::-1].copy()]
    path = tmp_path / "out.csv"
    _write_csv(path, "a,b,c,d,e", columns)
    expected = _per_value_csv("a,b,c,d,e", [_plain(c) for c in columns])
    assert path.read_bytes() == expected.encode()


def test_write_csv_with_runs_matches_per_value_rendering(tmp_path):
    # four blocks, the last of one row: in `paired` the first block is
    # exactly half repeats, the second one repeat short of it, and a run of
    # 1/3 crosses into the last block
    size = cli._CHUNK_ROWS
    n = 3 * size + 1
    paired = np.concatenate([np.repeat(np.arange(size // 2) / 7, 2),
                             np.repeat(np.arange(size // 2) / 11 + 1.0, 2),
                             np.full(size + 1, 1 / 3)])
    paired[2 * size - 1] = -5.0
    zeros = np.zeros(n)
    zeros[::97] = -0.0  # -0.0 prints apart from the 0.0 runs around it
    zeros[500:510] = -0.0
    zeros[3000:3005] = 5e-324
    reference = np.empty((n, 2))
    reference[:, 0] = np.resize(np.repeat(AWKWARD, 300), n)
    reference[:, 1] = np.random.default_rng(3).standard_normal(n)
    flags = (np.arange(n) // 700) % 2 == 0
    regimes = _regimes(np.arange(n) // 1000 % len(Regime))
    columns = [paired, zeros, reference[:, 0], regimes, flags, reference[:, 1]]
    path = tmp_path / "out.csv"
    _write_csv(path, "a,b,c,d,e,f", columns)
    expected = _per_value_csv("a,b,c,d,e,f", [_plain(c) for c in columns])
    assert path.read_bytes() == expected.encode()


def test_write_csv_of_coded_and_bool_columns_matches_per_value_rendering(tmp_path):
    # regime names from their byte table, as `simulate` writes them, and 0/1
    n = cli._CHUNK_ROWS + 5
    rng = np.random.default_rng(25)
    codes = rng.integers(0, len(Regime), n)
    flags = rng.random(n) < 0.5
    floats = rng.standard_normal(n)
    columns = [cli._Coded(cli._REGIME_NAMES, codes), flags, floats, ~flags]
    path = tmp_path / "out.csv"
    _write_csv(path, "a,b,c,d", columns)
    assert path.read_bytes() == _per_value_csv(
        "a,b,c,d", [_names(codes), flags.tolist(), floats.tolist(), (~flags).tolist()]).encode()


def test_regime_codes_are_the_order_of_regime():
    # a regime's code is a_above + 2*b_above in both engines and its row in
    # the writer's name table, so reordering Regime fails here instead of
    # mislabelling rows
    assert list(Regime) == [Regime.NO_EXCHANGE, Regime.A_EXPORTS, Regime.B_EXPORTS,
                            Regime.BILATERAL]
    assert [regime_from_sides(bool(c & 1), bool(c & 2)) for c in range(4)] == list(Regime)
    assert regime_code(np.array([False, True, False, True]),
                       np.array([False, False, True, True])).tolist() == [0, 1, 2, 3]
    assert [bytes(row).replace(b"\0", b"").decode() for row in cli._REGIME_NAMES] == [
        r.value for r in Regime]


FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
needs_fork = pytest.mark.skipif(not FORKS, reason="the two-process writer needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Let `_write_csvs` see two CPUs on any host and count the forks it
    makes; a fork made in a child is counted in the child only."""
    made = []
    fork = os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return made


def _split_columns(n):
    # three array columns; a run of 0.0 over row n//2, the child's first row,
    # then runs of -0.0 and 5e-324, which print apart from it
    half = n // 2
    runs = np.zeros(n)
    runs[half + 1:half + 40] = -0.0
    runs[half + 40:half + 90] = 5e-324
    randoms = np.random.default_rng(n).standard_normal(n)
    flags = (np.arange(n) // 300) % 2 == 0
    return [runs, _regimes(np.arange(n) // 500 % len(Regime)), randoms, flags]


#: The fewest rows of `_split_columns` that `_write_csvs` splits (16384).
SPLIT_ROWS = -(-cli._SPLIT_VALUES // 3)


@needs_fork
@pytest.mark.parametrize("n", [SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1])
def test_split_writer_matches_per_value_rendering(tmp_path, forks, n):
    # two files that share the lead column `runs`, counted once: three
    # array columns in all, so they split from SPLIT_ROWS on, in one fork
    columns = _split_columns(n)
    expected = _per_value_csv("a,b,c,d", [_plain(c) for c in columns])
    path, lead_path = tmp_path / "out.csv", tmp_path / "lead.csv"
    for _ in cli._write_csvs(columns[:1], [(path, "a,b,c,d", columns[1:]),
                                           (lead_path, "a,b", columns[1:2])]):
        pass
    assert path.read_bytes() == expected.encode()
    assert lead_path.read_text() == "".join(f"{row.rsplit(',', 2)[0]}\n"
                                            for row in expected.split("\n")[:-1])
    assert len(forks) == (1 if n >= SPLIT_ROWS else 0)


def _halfway_cases(rng, size):
    # q / 2**r with q odd and r = 14..21: exactly r places after the point,
    # and q * 5**r of 18 digits, so 18 significant digits ending in 5, a tie
    # at the 17th digit that %.17g breaks to even
    blocks = []
    for r in range(14, 22):
        lo, hi = -(-10**17 // 5**r), (10**18 - 1) // 5**r
        q = rng.integers(lo // 2, hi // 2, size) * 2 + 1
        blocks.append(np.ldexp(q.astype(float), -r) * rng.choice([-1.0, 1.0], size))
    return blocks


def _near_powers_of_ten():
    # the double nearest 10**k for k = -323 to 308 and two doubles on each
    # side of it, with 17-digit literals just below a power of ten; the
    # smallest are 5e-324 and zero
    values = [0.99999999999999994, 9.9999999999999995e-05, 9.9999999999999995e-06]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        down, up = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
        values += [p, down, np.nextafter(down, 0.0), up, np.nextafter(up, np.inf)]
    return np.array(values + [-v for v in values])


#: Each value a with a*10**(16-E) a half-integer where 10**(16-E) is no
#: double (E the exponent of a): m * 2**-24 (E = -7) and m * 2**-25 (E = -8).
TIES = [m * 2.0**-24 for m in range(3, 16, 2)] + [2.0**-25, 3 * 2.0**-25]


def _exponent_cases(rng, size):
    # values that print with an exponent, from integer mantissas and
    # exponents (never np.power): subnormals, the smallest of them, the
    # normal range log-uniform, the 17-digit integers of [1e16, 1e17),
    # differences m * 2**-53 and m * 2**-60 as a discrepancy column holds,
    # and the ends of the range with their neighbours
    def signed(values):
        return values * rng.choice([-1.0, 1.0], size)

    def mantissa(lo, hi):
        return rng.integers(lo, hi, size).astype(float)

    ends = [5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308]
    ends = np.array(ends + [np.nextafter(v, np.inf) for v in ends[:3]] +
                    [np.nextafter(v, 0.0) for v in ends[1:]])
    return [signed(np.ldexp(mantissa(1, 1 << 52), -1074)),
            signed(np.ldexp(mantissa(1, 1 << 12), -1074)),
            signed(np.ldexp(mantissa(1 << 52, 1 << 53), rng.integers(-1074, 972, size))),
            signed(mantissa(10**16, 10**17)),
            signed(np.ldexp(mantissa(1, 1 << 20), -53)),
            signed(np.ldexp(mantissa(1, 1 << 30), -60)),
            np.concatenate([ends, -ends])]


@functools.cache
def _float_cases():
    """About 1.1M seeded float64 values in blocks of at most `_CHUNK_ROWS`,
    each block one kind of probe of the exact digits of `float_slots`."""
    rng = np.random.default_rng(22)
    size = cli._CHUNK_ROWS
    blocks = []
    for _ in range(380):
        # log-uniform over a random part of 1e-6 to 1e18, both signs: some
        # blocks print without an exponent, some with one, and some mix both
        lo, hi = np.sort(rng.uniform(-6.0, 18.0, 2))
        blocks.append(rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(lo, hi, size))
    for _ in range(20):  # zeros of both signs among values that print no exponent
        b = rng.uniform(-1e3, 1e3, size)
        b[rng.random(size) < 0.3] = 0.0
        b[rng.random(size) < 0.3] = -0.0
        blocks.append(b)
    for scale in [10**3, 10**9, 10**15, 9 * 10**15]:  # integers and one ulp about them
        whole = rng.integers(-scale, scale, size).astype(float)
        blocks += [whole, np.nextafter(whole, -np.inf), np.nextafter(whole, np.inf)]
        blocks += [np.nextafter(whole + 0.5, -np.inf), np.nextafter(whole + 0.5, np.inf)]
    for _ in range(10):
        blocks += _halfway_cases(rng, size)
    near = _near_powers_of_ten()
    blocks += [near[i:i + size] for i in range(0, len(near), size)]
    for _ in range(20):
        blocks += _exponent_cases(rng, size)
    # values at the ends of each form, both zeros, the widest text and the
    # exact ties (the only values that take the %.17g path), each at the
    # first, a middle and the last row of a block printed without an exponent
    for other in [5e-324, -1e-5, 1e16, 1e17, 9999999999999998.0, -9.9e300, -0.0, 0.0,
                  -2.2250738585072014e-308] + TIES + [-v for v in TIES]:
        b = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-4.0, 16.0, size)
        b[[0, size // 2, -1]] = other
        blocks.append(b)
    return blocks


def _unsure(x):
    """Which values of ``x`` `float_slots` sends to ``%.17g``: the nonzero
    ones whose digits `decimal_digits` does not certify."""
    a = np.abs(x)
    unsure = np.zeros(len(x), dtype=bool)
    nonzero = np.flatnonzero(a)
    unsure[nonzero] = floatfmt.decimal_digits(a[nonzero])[2]
    return unsure


def _sent_to_percent(monkeypatch):
    """A list that collects each array of values that `floatfmt.float_slots`
    sends to ``%.17g`` (`floatfmt._percent_slots`) from now on."""
    sent = []
    percent_slots = floatfmt._percent_slots

    def watched(x):
        sent.append(x)
        return percent_slots(x)

    monkeypatch.setattr(floatfmt, "_percent_slots", watched)
    return sent


def _text(columns):
    """The bytes of the rows of ``columns`` as `_write_csvs` writes them in
    one process."""
    return b"".join(next(cli._tables([], [columns], 0, len(columns[0]))))


def test_float_blocks_match_percent_17g_one_block_at_a_time(monkeypatch):
    sent = _sent_to_percent(monkeypatch)
    blocks = _float_cases()
    assert sum(map(len, blocks)) >= 1_000_000
    unsure, mixed = [], 0
    for b in blocks:
        sent.clear()
        assert _text([b]) == "".join(["%.17g\n" % v for v in b.tolist()]).encode()
        # %.17g formats exactly the values whose digits are not certified,
        # bit for bit
        off = b[_unsure(b)]
        assert np.concatenate([off[:0], *sent]).view(np.int64).tolist() == \
            off.view(np.int64).tolist()
        unsure += off.tolist()
        mixed += 0 < len(off) < len(b)
    # only the exact ties, three times each: the digit path takes every
    # other value, within one block too
    assert sorted(unsure) == sorted(3 * (TIES + [-v for v in TIES]))
    assert mixed


def test_uncertified_digits_take_percent_17g(monkeypatch):
    # a margin of 1 certifies no digits where 10**(16-E) is no double, that
    # is off 10**-6 <= |x| < 10**17 (the double 1e-6 lies below 10**-6); they
    # all take %.17g, with the same bytes
    monkeypatch.setattr(floatfmt, "_MARGIN", 1.0)
    sent = _sent_to_percent(monkeypatch)
    total = 0
    for b in _float_cases()[::4]:
        sent.clear()
        assert _text([b]) == "".join(["%.17g\n" % v for v in b.tolist()]).encode()
        a = np.abs(b)
        off = b[(a != 0) & ((a < np.nextafter(1e-6, 1.0)) | (a >= 1e17))]
        assert np.concatenate([off[:0], *sent]).view(np.int64).tolist() == \
            off.view(np.int64).tolist()
        total += len(off)
    assert total >= 50_000


def test_each_exponent_bound_is_the_least_double_at_or_above_its_power_of_ten():
    # so a >= bound exactly when a >= its power of ten, and `decimal_digits`
    # settles each exponent with two comparisons
    up = floatfmt._tables()[0].tolist()
    for e, bound in zip(range(floatfmt._E_MIN, floatfmt._E_MAX + 1), up):
        power = Decimal(10) ** e
        if e > 308:
            assert bound == math.inf
        else:
            assert Decimal(math.nextafter(bound, 0.0)) < power <= Decimal(bound)
    assert up[0] == 5e-324  # the least double, at or above 10**-325


def test_each_power_of_ten_is_exact_as_a_double_double():
    # the table that `decimal_digits` multiplies by, against exact fractions
    from fractions import Fraction

    _, scale, hi, hi_hi, hi_lo, lo = floatfmt._tables()
    for i, e in enumerate(range(floatfmt._E_MIN, floatfmt._E_MAX + 1)):
        num, den = scale[i].as_integer_ratio()
        assert num & (num - 1) == 0 and den & (den - 1) == 0  # a power of two
        power = Fraction(10) ** (16 - e) / Fraction(scale[i])
        assert hi[i] == float(power)  # correctly rounded
        assert lo[i] == float(power - Fraction(hi[i]))
        assert Fraction(hi_hi[i]) + Fraction(hi_lo[i]) == Fraction(hi[i])
        for half in (hi_hi[i], hi_lo[i]):
            n = abs(half.as_integer_ratio()[0])
            assert n == 0 or (n // (n & -n)).bit_length() <= 26
        # lo vanishes exactly where 10**(16-E) is a double
        assert (lo[i] == 0) == (-6 <= e <= 16)


@pytest.mark.parametrize("shift", [-0.5, 0.5], ids=["low", "high"])
def test_a_log10_guess_off_by_one_is_settled(monkeypatch, shift):
    # log10 is SIMD-dispatched, so its floor may miss the exponent by one
    # about a power of ten, on either side
    rng = np.random.default_rng(23)
    a = np.concatenate([np.abs(_near_powers_of_ten()), 10.0 ** rng.uniform(-4, 16, 10**4),
                        np.abs(np.concatenate(_exponent_cases(rng, 10**4)))])
    a = a[a > 0]
    expected = floatfmt.decimal_digits(a)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    for got, want in zip(floatfmt.decimal_digits(a), expected):
        assert np.array_equal(got, want)


def test_the_double_below_each_power_of_ten_prints_short_of_it():
    # so no value printed without an exponent below 1e16 rounds up to the
    # next power of ten at 17 digits; with an exponent some do, and
    # `decimal_digits` carries them to the next exponent
    for k in range(-4, 17):
        text = "%.17g" % math.nextafter(float(f"1e{k}"), 0.0)
        assert Decimal(text).normalize().as_tuple().digits != (1,), text
    assert Decimal(1e-14) < Decimal("1e-14") and "%.17g" % 1e-14 == "1e-14"


@needs_fork
def test_split_writer_matches_percent_17g_on_a_million_values(tmp_path, forks):
    # four columns, one quarter of the values each: the child's half starts
    # at row n//2, so its blocks straddle those of `_float_cases`
    values = np.concatenate(_float_cases())
    n = len(values) // 4
    columns = [values[i * n:(i + 1) * n] for i in range(4)]
    path = tmp_path / "out.csv"
    _write_csv(path, "a,b,c,d", columns)
    expected = "".join(["%.17g,%.17g,%.17g,%.17g\n" % row
                        for row in zip(*(c.tolist() for c in columns))])
    assert path.read_bytes() == ("a,b,c,d\n" + expected).encode()
    assert len(forks) == 1


#: Seeded float64 values built from integer mantissas and exponents, never
#: by np.power, whose result itself differs by CPU: |x| in [2**-13, 2**53),
#: printed without an exponent, the whole normal range, subnormals, and
#: each power of ten from 1e-323 to 1e308 with its neighbours.
CPU_CASES = """
import numpy as np
rng = np.random.default_rng(12)
mantissa = rng.integers(1 << 52, 1 << 53, 1 << 18).astype(float)
values = np.ldexp(mantissa, rng.integers(-65, 1, 1 << 18)) * rng.choice([-1.0, 1.0], 1 << 18)
wide = np.ldexp(mantissa[:1 << 16], rng.integers(-1074, 972, 1 << 16))
tiny = np.ldexp(rng.integers(1, 1 << 52, 1 << 12).astype(float), -1074)
powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
values = np.concatenate([values, wide, -tiny, powers, np.nextafter(powers, np.inf),
                         np.nextafter(powers, 0.0)])
"""


#: The AVX-512 dispatch targets of numpy, which the subprocess switches off.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_float_bytes_do_not_depend_on_the_cpu_features(monkeypatch):
    # np.log10, whose floor guesses the exponent, is SIMD-dispatched; the
    # digits must not move with AVX-512 off
    from numpy._core._multiarray_umath import __cpu_features__

    on = [name for name in AVX512_TARGETS if __cpu_features__.get(name)]
    if not on:
        pytest.skip("numpy dispatches no AVX-512 kernel on this CPU")
    cases = {}
    exec(CPU_CASES, cases)
    values = cases["values"]
    sent = _sent_to_percent(monkeypatch)
    here = hashlib.sha256(_text([values])).hexdigest()
    assert not sent  # every value took the digit path, here and in the subprocess
    code = CPU_CASES + (
        "import hashlib\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "from tradeflow import cli, floatfmt\n"
        "def refuse(x):\n"
        "    raise AssertionError(f'{len(x)} values sent to %.17g')\n"
        "floatfmt._percent_slots = refuse\n"
        f"print(*(__cpu_features__.get(name, False) for name in {on!r}))\n"
        "text = b''.join(next(cli._tables([], [[values]], 0, len(values))))\n"
        "print(hashlib.sha256(text).hexdigest())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               NPY_DISABLE_CPU_FEATURES=",".join(AVX512_TARGETS))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    features, digest = proc.stdout.splitlines()
    assert features.split() == ["False"] * len(on)  # the kernels really differ
    assert digest == here


def _exact_share(monkeypatch, argv):
    """The share of the float values (rows times float columns, a lead that
    two files share once, each region axis node once) that a command formats
    on the exact digit path, formatting in this one process: each value that
    `floatfmt.float_slots` does not send to ``%.17g``."""
    total = [0]
    float_slots = cli.float_slots

    def watched(x):
        total[0] += len(x)
        return float_slots(x)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "float_slots", watched)
    sent = _sent_to_percent(monkeypatch)
    assert main(argv) == EXIT_OK
    return 1 - sum(map(len, sent)) / total[0]


@pytest.mark.parametrize("argv, least", [
    (["region", "fig2.scenario"], 1.0),
    # the discrepancy column too, which prints with an exponent
    (["simulate", "crossing.scenario", "--both"], 1.0),
], ids=["region-fig2", "simulate-crossing-both"])
def test_exact_digits_format_the_bundled_runs(tmp_path, monkeypatch, argv, least):
    # a fallback to %.17g keeps the bytes but not the speed
    command, scenario, *flags = argv
    share = _exact_share(monkeypatch, [command, str(SCENARIO_DIR / scenario), *flags,
                                       "--out", str(tmp_path / "out.csv")])
    assert share >= least


@needs_fork
@pytest.mark.parametrize("host", ["one_cpu", "no_fork", "fork_fails", "no_temporary_file",
                                  "no_pipe"])
def test_writer_formats_alone_without_a_second_process(tmp_path, monkeypatch, host):
    def refused(*args, **kwargs):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    if host == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    elif host == "no_fork":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
    elif host == "fork_fails":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", refused)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail(f"forked with {host}"))
        if host == "no_pipe":
            monkeypatch.setattr(os, "pipe", refused)
        else:
            monkeypatch.setattr(tempfile, "TemporaryFile", refused)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
    columns = _split_columns(SPLIT_ROWS)
    path = tmp_path / "out.csv"
    _write_csv(path, "a,b,c,d", columns)
    assert path.read_bytes() == _per_value_csv("a,b,c,d", [_plain(c) for c in columns]).encode()
    if fds:  # the temporary file and pipe of a refused fork are closed
        assert len(os.listdir("/proc/self/fd")) == len(fds)


@needs_fork
@pytest.mark.parametrize("command, scenario", [
    ("simulate", "crossing.scenario"), ("region", "fig2.scenario"), ("region", "long axis"),
])
def test_failed_child_exits_with_one_write_error(tmp_path, capsys, monkeypatch, forks,
                                                 command, scenario):
    # "long axis": a sigma1 axis of _SPLIT_VALUES nodes by 2, formatted in
    # one process; the child fails on its half of the data file
    if scenario == "long axis":
        path = tmp_path / "long.scenario"
        path.write_text(_region_text(0.5, 10.0, cli._SPLIT_VALUES, 1.5, 10.0, 2))
    else:
        path = SCENARIO_DIR / scenario
    monkeypatch.setattr(cli, "_SPLIT_VALUES", 1)  # a split at any bound
    parent, blocks = os.getpid(), cli._blocks

    def child_fails(columns):
        if os.getpid() != parent:
            raise MemoryError
        yield from blocks(columns)

    monkeypatch.setattr(cli, "_blocks", child_fails)
    out = tmp_path / "out.csv"
    assert main([command, str(path), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert not out.exists()  # no truncated file is left behind
    assert forks


@needs_fork
def test_comparison_file_that_fails_after_the_data_file(tmp_path, capsys, monkeypatch, forks):
    # the child fails on its half of the comparison file, its third `_blocks`
    # after the lead and the data file: the data file stays, complete
    parent, blocks = os.getpid(), cli._blocks
    calls = []

    def child_fails_late(columns):
        calls.append(1)
        if os.getpid() != parent and len(calls) == 3:
            raise MemoryError
        yield from blocks(columns)

    monkeypatch.setattr(cli, "_SPLIT_VALUES", 1)  # a split at any bound
    scenario = str(SCENARIO_DIR / "crossing.scenario")
    whole = tmp_path / "whole.csv"
    assert main(["simulate", scenario, "--both", "--out", str(whole)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(cli, "_blocks", child_fails_late)
    out = tmp_path / "out.csv"
    assert main(["simulate", scenario, "--both", "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    cmp_path = tmp_path / "out.compare.csv"
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {cmp_path}: ")
    assert captured.out.splitlines() == [line.replace(str(whole), str(out))
                                         for line in printed[:-2]]
    assert out.read_bytes() == whole.read_bytes()
    assert not cmp_path.exists()
    assert len(forks) == 2  # one per run


def test_a_write_that_fails_midway_leaves_no_file(tmp_path, capsys, monkeypatch):
    blocks = cli._blocks

    def first_block_then_full_disk(columns):
        rows = blocks(columns)
        yield next(rows)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_blocks", first_block_then_full_disk)
    out = tmp_path / "x.csv"
    assert main(["simulate", str(SCENARIO_DIR / "crossing.scenario"), "--numeric",
                 "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


@needs_fork
def test_failed_parent_half_propagates_and_reaps_the_child(tmp_path, monkeypatch, forks):
    parent, blocks = os.getpid(), cli._blocks

    def parent_fails(columns):
        if os.getpid() == parent:
            raise RuntimeError("parent half")
        yield from blocks(columns)

    monkeypatch.setattr(cli, "_blocks", parent_fails)
    with pytest.raises(RuntimeError, match="parent half"):
        _write_csv(tmp_path / "out.csv", "a,b,c,d", _split_columns(2 * SPLIT_ROWS))
    assert forks


@needs_fork
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_reaps_the_child(forks):
    # the write fails while the child is still formatting its half; the
    # child must still end and be reaped
    with pytest.raises(OSError) as exc:
        _write_csv(Path("/dev/full"), "a,b,c,d", _split_columns(4 * SPLIT_ROWS))
    assert exc.value.errno == errno.ENOSPC
    assert forks


@needs_fork
def test_fork_warning_of_newer_pythons_is_ignored(tmp_path, monkeypatch, forks):
    # Python 3.12+ warns in the parent after forking a process with threads;
    # under filterwarnings = error that would raise with the child running
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    columns = _split_columns(SPLIT_ROWS)
    path = tmp_path / "out.csv"
    _write_csv(path, "a,b,c,d", columns)
    assert path.read_bytes() == _per_value_csv("a,b,c,d", [_plain(c) for c in columns]).encode()
    assert forks


# The forks of each command on the bundled scenarios: array columns times
# rows over all of the files it writes, against `_SPLIT_VALUES`.
FORKS_PER_COMMAND = [
    (["simulate", "crossing.scenario", "--numeric"], 0),  # 4 x 10003
    (["simulate", "crossing.scenario", "--analytic"], 0),
    (["simulate", "crossing.scenario", "--both"], 1),  # 7 x 10003, the lead once
    (["simulate", "steady_state.scenario", "--numeric"], 1),  # 6 x 10001
    (["simulate", "steady_state.scenario", "--analytic"], 1),
    (["simulate", "steady_state.scenario", "--both"], 1),  # 9 x 10001
    (["region", "fig2.scenario"], 1),  # 6 x 40000
]


@needs_fork
@pytest.mark.parametrize("plot", [[], ["--plot"]], ids=["data", "plot"])
@pytest.mark.parametrize("argv, made", FORKS_PER_COMMAND,
                         ids=["-".join(a.removesuffix(".scenario").lstrip("-") for a in argv)
                              for argv, _ in FORKS_PER_COMMAND])
def test_each_command_forks_at_most_once(tmp_path, forks, argv, made, plot):
    command, scenario, *flags = argv
    out = tmp_path / "out.csv"
    assert main([command, str(SCENARIO_DIR / scenario), *flags, *plot,
                 "--out", str(out)]) == EXIT_OK
    assert len(forks) == made


#: The fewest rows from which `simulate --both` with prices splits: 9 array
#: columns over its two files, the t,eta_a,eta_b lead counted once (5462).
BOTH_SPLIT_ROWS = -(-cli._SPLIT_VALUES // 9)


def _plant_runs(a):
    # runs of 0.0, -0.0 and 5e-324, which print apart, about row n//2, the
    # first row of the child's half
    half = len(a) // 2
    a[half - 40:half + 1] = 0.0
    a[half + 1:half + 40] = -0.0
    a[half + 40:half + 90] = 5e-324


@needs_fork
@pytest.mark.parametrize("n", [BOTH_SPLIT_ROWS - 1, BOTH_SPLIT_ROWS, BOTH_SPLIT_ROWS + 1])
def test_both_files_match_per_value_rendering_about_the_split(tmp_path, monkeypatch, forks, n):
    # steady_state.scenario over n samples at step 2**-10 (no events); the
    # runs are planted in eta_b of both engines, which leads both files, and
    # in m_a, which only the data file holds
    got = {}

    def integrate(*args, **kwargs):
        series = got["series"] = integrate_with_events(*args, **kwargs)
        _plant_runs(series.eta_b)
        _plant_runs(series.m_a)
        return series

    class Planted:
        def __init__(self, traj):
            self.traj = traj

        def states_at(self, times):
            states = got["reference"] = self.traj.states_at(times)
            _plant_runs(states[:, 1])
            return states

    monkeypatch.setattr(cli, "integrate_with_events", integrate)
    monkeypatch.setattr(cli, "simulate_analytic",
                        lambda *args, **kwargs: Planted(simulate_analytic(*args, **kwargs)))
    path = tmp_path / "run.scenario"
    path.write_text((SCENARIO_DIR / "steady_state.scenario").read_text().replace(
        "horizon = 100\nstep = 0.01", f"horizon = {(n - 1) / 1024!r}\nstep = {2.0**-10!r}"))
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--both", "--out", str(out)]) == EXIT_OK
    series, reference = got["series"], got["reference"]
    assert len(series) == n
    disc = np.maximum(np.abs(series.eta_a - reference[:, 0]),
                      np.abs(series.eta_b - reference[:, 1]))
    lead = [series.times.tolist(), series.eta_a.tolist(), series.eta_b.tolist()]
    flow = [exchange_flow(NormalizedState(a, b)) for a, b in zip(lead[1], lead[2])]
    assert out.read_bytes() == _per_value_csv(
        "t,eta_a,eta_b,regime,f,m_a,m_b",
        lead + [_names(series.regimes), flow, series.m_a.tolist(),
                series.m_b.tolist()]).encode()
    assert (tmp_path / "run.compare.csv").read_bytes() == _per_value_csv(
        "t,eta_a_numeric,eta_b_numeric,eta_a_analytic,eta_b_analytic,discrepancy",
        lead + [reference[:, 0].tolist(), reference[:, 1].tolist(), disc.tolist()]).encode()
    assert len(forks) == (1 if n >= BOTH_SPLIT_ROWS else 0)


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_cli_prints_each_line_once_to_a_pipe_or_a_file(tmp_path, stdout):
    # a child that flushed the inherited stdout buffer or returned into the
    # caller would print these lines twice
    scenario = SCENARIO_DIR / "crossing.scenario"
    out = tmp_path / "run.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "tradeflow.cli", "simulate", str(scenario), "--both",
            "--out", str(out)]
    with open(tmp_path / "stdout.txt", "w+") as fh:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE if stdout == "pipe" else fh,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        fh.seek(0)
        printed = (proc.stdout if stdout == "pipe" else fh.read()).splitlines()
    assert proc.returncode == EXIT_OK, proc.stderr
    wrote = [line for line in printed if line.startswith("wrote ")]
    assert wrote == [f"wrote 10003 samples to {out}",
                     f"wrote comparison to {tmp_path / 'run.compare.csv'}"]
    assert len(printed) == len(set(printed))


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


def test_analytic_money_file_matches_per_value_rendering(tmp_path):
    # off the export fixed point (1.5, eta_b) the stocks settle to constants
    # long before the horizon, so the tail blocks of eta_a, eta_b and f are runs
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
         _names(series.regimes), flow, series.m_a.tolist(), series.m_b.tolist()])
    assert out.read_bytes() == expected.encode()


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
    scan = cli.scan_region(sc.two_good(), sc.grid)
    out = tmp_path / "region.csv"
    assert main(["region", str(path), "--out", str(out)]) == EXIT_OK
    # row-major in eta_a1, sigma1 fastest
    axes = [np.tile(scan.sigma1, len(scan.eta_a1)), np.repeat(scan.eta_a1, len(scan.sigma1))]
    nodes = [a.ravel() for a in (scan.k, scan.dm_a, scan.dm_b, scan.p_a2, scan.p_b1,
                                 scan.feasible)]
    expected = _per_value_csv("sigma1,eta_a1,k,dm_a,dm_b,p_a2,p_b1,feasible",
                              [c.tolist() for c in axes + nodes])
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


def test_analytic_series_regimes_match_the_owning_segment():
    # against the scalar rule: the last segment that starts at or before t
    econ = GoodEconomy(p_a=1.0, p_b=0.9, c_a=1.0, c_b=1.0, sigma=1.0)
    traj = simulate_analytic(NormalizedState(2.0, 0.1 + np.log(10.0) / 10.0 + 1e-7),
                             econ, 5.0)
    assert len(traj.segments) > 2
    series = cli._analytic_series(traj, econ, None, None, 1e-3)
    starts = [seg.t_start for seg in traj.segments]
    assert series.regimes.dtype == np.uint8
    assert [tuple(Regime)[c] for c in series.regimes.tolist()] == [
        traj.segments[bisect.bisect_right(starts, t) - 1].regime for t in series.times.tolist()]


def test_region_mismatch_reports_the_last_node_in_row_major_order(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(cli, "feasible_k_interval", lambda s: KInterval(3.0, 6.0))
    sc = parse_scenario(SCENARIO_DIR / "fig2.scenario")
    scan = cli.scan_region(sc.two_good(), sc.grid)
    last = None
    for i, eta in enumerate(scan.eta_a1.tolist()):  # row-major order
        for sig, k, feasible in zip(scan.sigma1.tolist(), scan.k[i].tolist(),
                                    scan.feasible[i].tolist()):
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
    assert {row[3] for row in rows} == set(_names(numeric.regimes))
    for analytic, rk4 in ((float(rows[-1][-2]), numeric.m_a[-1]),
                          (float(rows[-1][-1]), numeric.m_b[-1])):
        assert abs(analytic - rk4) <= 1e-7 * max(1.0, abs(rk4))


@pytest.mark.parametrize("text", [
    (SCENARIO_DIR / "steady_state.scenario").read_text(),
    CROSSING_WITH_PRICES,
], ids=["steady_state", "crossing_with_prices"])
def test_analytic_money_makes_no_scalar_lookups(tmp_path, monkeypatch, text):
    # one states_at call for the samples and one for the interval midpoints
    def scalar_lookup(*args, **kwargs):
        raise AssertionError("a per-sample scalar lookup ran")

    calls = []
    states_at = PiecewiseTrajectory.states_at
    monkeypatch.setattr(PiecewiseTrajectory, "state_at", scalar_lookup)
    monkeypatch.setattr(PiecewiseTrajectory, "states_at",
                        lambda traj, times: calls.append(len(times)) or states_at(traj, times))
    path = tmp_path / "run.scenario"
    path.write_text(text)
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "--analytic", "--out", str(out)]) == EXIT_OK
    samples = len(_rows(out)[1])
    assert calls == [samples, samples - 1]
    assert not {"segment_at", "regime_at"} & set(vars(PiecewiseTrajectory))
    assert "state_at" not in vars(RegimeSegment)


def _simpson_money_per_sample(traj, econ, prices, money0, times):
    """Simpson quadrature one sample interval at a time on scalar evaluations,
    `ExpLinear.value` on the segment that `segment_indices` picks and the
    stored state at a segment's start: the reference the array form of
    `_money_along` must match."""
    sig, y = econ.sigma, prices.y
    base_a = -prices.x_a * econ.p_a + y * econ.c_a
    base_b = -prices.x_b * econ.p_b + y * econ.c_b

    def money_rates(t, i):
        seg = traj.segments[i]
        state = seg.state_start if t == seg.t_start else NormalizedState(
            seg.form_a.value(t - seg.t_start), seg.form_b.value(t - seg.t_start))
        sf = sig * exchange_flow(state)
        return base_a + y * sf, base_b - y * sf

    ma, mb = money0.m_a, money0.m_b
    mas, mbs = [ma], [mb]
    ts = times.tolist()
    mids = [t0 + 0.5 * (t1 - t0) for t0, t1 in zip(ts, ts[1:])]
    owner = traj.segment_indices(times).tolist()
    owner_mid = traj.segment_indices(np.array(mids)).tolist()
    for t0, t1, tm, i0, i1, im in zip(ts, ts[1:], mids, owner, owner[1:], owner_mid):
        h = t1 - t0
        ra0, rb0 = money_rates(t0, i0)
        ram, rbm = money_rates(tm, im)
        ra1, rb1 = money_rates(t1, i1)
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


def _stored_state_pool(n=2000):
    """(economy, start) draws with rates in [0.5, 2], sigma in [0.1, 3] and
    stocks in [0.6, 1.4], from a seeded numpy generator: the draws depend on
    the seed alone, not on the literals in the package's source as
    derandomized hypothesis draws do."""
    rng = np.random.default_rng(2027)
    for _ in range(n):
        rates = rng.uniform(0.5, 2.0, 4).tolist()
        sigma = float(rng.uniform(0.1, 3.0))
        yield GoodEconomy(*rates, sigma), NormalizedState(*rng.uniform(0.6, 1.4, 2).tolist())


def _stored_states(traj):
    return ([seg.t_start for seg in traj.segments],
            [[seg.state_start.eta_a, seg.state_start.eta_b] for seg in traj.segments])


def _keys(obj):
    return "".join(f"{k} = {v!r}\n" for k, v in vars(obj).items())


def test_states_at_gives_the_stored_state_at_every_segment_start():
    # row 0 is the input, and an event row the state the next segment starts
    # from, bit for bit
    segments = 0
    for econ, state0 in _stored_state_pool():
        traj = simulate_analytic(state0, econ, 5.0)
        starts, stored = _stored_states(traj)
        assert stored[0] == [state0.eta_a, state0.eta_b]
        assert traj.states_at(np.array(starts)).tolist() == stored
        segments += len(starts)
    assert segments >= 3900  # about 2 per draw


def test_t0_and_event_rows_of_the_files_are_the_stored_states(tmp_path):
    # the first 250 draws of the pool through the CLI (all 2000 would add
    # about 15 s): the --analytic file's t = 0 and event rows, and row 0 of
    # the --both comparison file, whose discrepancy is then exactly 0
    path, out = tmp_path / "run.scenario", tmp_path / "run.csv"
    events = 0
    for econ, state0 in itertools.islice(_stored_state_pool(), 250):
        path.write_text(f"[model]\nkind = one-good\n[good1]\n{_keys(econ)}"
                        f"[initial]\n{_keys(state0)}[solver]\nhorizon = 5\nstep = 0.01\n")
        starts, stored = _stored_states(simulate_analytic(state0, econ, 5.0))
        assert main(["simulate", str(path), "--analytic", "--out", str(out)]) == EXIT_OK
        rows = {float(r[0]): [float(r[1]), float(r[2])] for r in _rows(out)[1]}
        assert [rows[t] for t in starts] == stored
        events += len(starts) - 1
        code = main(["simulate", str(path), "--both", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_DEPLETION)  # RK4 halts where a stock reaches zero
        first = [float(v) for v in _rows(out.with_name("run.compare.csv"))[1][0]]
        assert first == [0.0, *stored[0], *stored[0], 0.0]
    assert events >= 200


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


@pytest.mark.parametrize("argv, names", [
    (["simulate", "steady_state.scenario", "--numeric"], 4),
    (["region", "fig2.scenario"], 1),
], ids=["simulate", "region"])
def test_plot_scripts_quote_a_data_name_that_holds_a_quote(tmp_path, argv, names):
    # gnuplot writes a ' inside a single-quoted string as ''
    command, scenario, *flags = argv
    out = tmp_path / "it's.csv"
    assert main([command, str(SCENARIO_DIR / scenario), *flags, "--out", str(out),
                 "--plot"]) == EXIT_OK
    lines = [line for line in (tmp_path / "it's.gnuplot").read_text().splitlines()
             if "s.csv" in line]
    assert len(lines) == names
    assert all("'it''s.csv' skip 1 using " in line for line in lines)


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
# discrepancy error, byte for byte. The closed-form crossing times and the
# sup-norm take exp, so unlike PINNED_OUTPUTS these hold where exp rounds alike.
# crossing-analytic was taken again when the closed form's regime switches
# became per-stock crossings, at the same times; clamped-both when the
# discrepancy error began to print its tolerance as 1e-06.
PINNED_STDOUT = {
    "crossing-numeric": (CROSSING, 0,
                         "cfba13f5b686dca40ddeb626a221a7a27fe603493e317ff208eca05a421bd3d8"),
    "crossing-analytic": (CROSSING, 0,
                          "eb3fd16bc28af0131f0de81a8dd15e9f353ebfd895bc9cf9995e5fed7e7644a3"),
    "crossing-both": (CROSSING, 0,
                      "5a20f146b21ba4b4924899a6b8b0ca4466b4529634e42b1cf8f4b7ce0f1dab5a"),
    "depleting-numeric": (DEPLETING, EXIT_DEPLETION,
                          "48eb792f7e5590afe1d021277aee9118ada054aaf061b8b1fede760d4a04bdbe"),
    "depleting-both": (DEPLETING, EXIT_DEPLETION,
                       "bb53289072509c01a2bdbb524f06ef07b35a0bcd116883dca27b6f83932233e8"),
    "clamped-numeric": (CLAMPED, EXIT_OK,
                        "bd6fc00795515e1dd6e178bc6cfc5255aa86cd2be334cda7d4b728a19166053c"),
    "clamped-both": (CLAMPED, EXIT_NUMERIC,
                     "25c75b61d1b865c493a358e9142cf8c2a1e662c8b3a6196029c69d7d93fcb7b1"),
}


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_a_start_exactly_at_the_threshold_is_sided_by_its_derivative(tmp_path, capsys, mode):
    # eta_a = 1 and rising: both engines start in a_exports, write the same 12
    # samples and log only eta_b's crossing
    path = tmp_path / "exact.scenario"
    path.write_text(CROSSING.replace("eta_a = 0.5", "eta_a = 1").replace("step = 0.001",
                                                                          "step = 1"))
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), f"--{mode}", "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote 12 samples to {out}"
    assert [line.split(": ", 1)[1] for line in lines[1:]] == ["eta_b crossed the threshold upward"]
    assert out.read_text().splitlines()[1].split(",")[3] == "a_exports"


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


@pytest.mark.parametrize("command, text, error", [
    ("simulate", CROSSING[:CROSSING.index("[initial]")] + CROSSING[CROSSING.index("[solver]"):],
     "simulate requires an [initial] section"),
    ("simulate", CROSSING[:CROSSING.index("[solver]")],
     "simulate requires a [solver] section (horizon)"),
    ("simulate", CROSSING + "depletion_policy = stop\n",
     "[solver].depletion_policy must be one of ['clamp_to_zero', 'continue', 'halt'], "
     "got 'stop'"),
    ("fixed-point", FIG2, "fixed-point requires a one-good scenario"),
    ("fixed-point", CROSSING + "[prices1]\nx_a = 1\nx_b = 3\ny = 2\n",
     "supply --eta-star or an eta_star key in [good1]"),
    ("region", CROSSING, "region requires a two-good scenario"),
], ids=["no_initial", "no_solver", "unknown_policy", "fixed_point_two_good",
        "fixed_point_no_eta_star", "region_one_good"])
def test_scenario_unfit_for_the_command_is_one_error_line(tmp_path, capsys, command, text,
                                                          error):
    path = tmp_path / "run.scenario"
    path.write_text(text)
    out = tmp_path / "o.csv"
    argv = [command, str(path)] + ([] if command == "fixed-point" else ["--out", str(out)])
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_fixed_point_with_sigma_zero_never_depletes_the_importer(tmp_path, capsys):
    path = tmp_path / "run.scenario"
    path.write_text((SCENARIO_DIR / "steady_state.scenario").read_text().replace(
        "sigma = 2\n", "sigma = 0\n"))
    assert main(["fixed-point", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.endswith(
        "\n  p_b reaches zero at sigma*(eta_a - 1) = c_b = 2 (unreachable with sigma = 0)\n")


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


def _item3(repro):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"{repro}; ROADMAP item 3")


@pytest.mark.parametrize("sigma, mode", [
    pytest.param("1e-12", "both", marks=_item3(
        "sigma = 1e-12: --both exits 2 with discrepancy 3.0517595505208384e-05")),
    pytest.param("1e-200", "analytic", marks=_item3(
        "sigma = 1e-200: --analytic exits 0 and writes row 0 as 0,1.5,0.5,a_exports,0.5, "
        "but logs spurious crossings at t = 1e-10, 4.0000000001473115, "
        "4.0000000002473115 and later")),
    pytest.param("1e-300", "analytic", marks=_item3(
        "sigma = 1e-300: --analytic exits 0 and writes row 0 as 0,1.5,0.5,a_exports,0.5, "
        "but logs spurious crossings at t = 1e-10, 4.0000000001473115, "
        "4.0000000002473115 and later")),
    pytest.param("5e-324", "analytic", marks=_item3(
        "sigma = 5e-324: --analytic exits 2 with 'eta_a must be a finite number, got nan'")),
    pytest.param("5e-324", "both", marks=_item3(
        "sigma = 5e-324: --both exits 2 with 'eta_a must be a finite number, got nan'")),
    pytest.param("1e308", "analytic", marks=_item3(
        "sigma = 1e308 from (1.5, 0.5): --analytic exits 2, 'produced a non-finite value'")),
])
def test_the_closed_form_holds_over_the_legal_sigma_range(tmp_path, capsys, sigma, mode):
    # crossing.scenario from eta_a = 1.5, step 0.01, horizon 10: A exports
    # throughout, and at small sigma eta_b stays far below the threshold
    path = tmp_path / "run.scenario"
    path.write_text(CROSSING.replace("sigma = 1\n", f"sigma = {sigma}\n").replace(
        "eta_a = 0.5", "eta_a = 1.5").replace("step = 0.001", "step = 0.01"))
    out = tmp_path / "out.csv"
    code = main(["simulate", str(path), f"--{mode}", "--out", str(out)])
    printed = capsys.readouterr()
    assert code == EXIT_OK, printed.err
    assert out.read_text().splitlines()[1].split(",")[:3] == ["0", "1.5", "0.5"]
    if float(sigma) < 1.0:
        assert "event" not in printed.out


@pytest.mark.parametrize("mode", ["numeric", "both", "analytic"])
def test_stiff_chatter_at_the_threshold_ends_at_the_event_cap(tmp_path, capsys, mode):
    # crossing.scenario from eta_a = 1 at sigma = 1e25: each RK4 step of 0.001
    # overshoots the threshold, so RK4 located ~43,000 crossings near
    # t = 1.2e-11 in 3 s and did not finish; the closed form chatters too
    path = tmp_path / "run.scenario"
    path.write_text(CROSSING.replace("sigma = 1\n", "sigma = 1e25\n").replace(
        "eta_a = 0.5", "eta_a = 1"))
    assert main(["simulate", str(path), f"--{mode}", "--out", str(tmp_path / "o.csv")]) \
        == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    limit = "segment limit" if mode == "analytic" else "event limit"
    assert len(err) == 1 and err[0].startswith(f"error: simulate --{mode} failed: {limit} "
                                                f"({MAX_SEGMENTS}) exceeded at t=")
    assert err[0].endswith("; pathological chatter at the threshold")


def test_clamp_records_do_not_count_toward_the_event_cap(tmp_path, capsys):
    # eta_a is clamped to zero at every step from t = 1 to 150: 14,901 records
    path = tmp_path / "run.scenario"
    path.write_text(CLAMPED.replace("horizon = 10\n", "horizon = 150\n"))
    assert main(["simulate", str(path), "--numeric", "--out", str(tmp_path / "o.csv")]) \
        == EXIT_OK
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.count(": clamped eta_a to zero\n") == 14901 > MAX_SEGMENTS
