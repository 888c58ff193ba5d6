"""The four benchmark workloads: seeded input generators, the op each one
times, and the output checks run outside the timed window.

Every draw is valid by construction (strict price orderings, non-negative
productions, start states whose stocks cannot deplete) and is never filtered
on its outcome: a draw the program fails on is counted, not replaced.

An op is the unit a user waits for: one `tradeflow` CLI invocation, run
in-process through `tradeflow.cli.main`, or for `crosscheck` one library
call sequence plus the sup-norm comparison of acceptance criterion 1.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tradeflow import analytic, cli, integrator
from tradeflow.core import GoodEconomy, MoneyState, NormalizedState, PriceSet
from tradeflow.integrator import DepletionPolicy, SolverOptions
from tradeflow.region import GridSpec, feasible_k_interval
from tradeflow.scenario import Scenario, parse_scenario_text, serialize_scenario

#: Tolerance of the analytic/numeric stock comparison, as `simulate --both`
#: and acceptance criterion 1 use it.
SUP_TOL = 1e-6
#: Tolerance of the final money holdings written by `simulate --analytic`
#: (Simpson quadrature on the closed form) against RK4 co-integration at the
#: same step, relative to max(1, |m|). Observed differences are below 1e-9.
MONEY_TOL = 1e-7


@dataclass
class Input:
    """One generated scenario: its text as written, the file holding it (CLI
    workloads only) and the scenario parsed back from that text."""

    index: int
    text: str
    scenario: Scenario
    path: Path | None = None


@dataclass
class Outcome:
    """What one op returned: the exit code, captured console output and
    whatever the output check needs."""

    rc: int
    stdout: str = ""
    stderr: str = ""
    discrepancy: float | None = None
    arrays: tuple = field(default_factory=tuple)


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _prices_a_advantaged(rng: np.random.Generator) -> PriceSet:
    x_a = _u(rng, 0.5, 2.0)
    y = x_a + _u(rng, 0.2, 2.0)
    return PriceSet(x_a=x_a, x_b=y + _u(rng, 0.2, 2.0), y=y)


def _one_good(econ, eta_star, prices, state0, money0, opts) -> Scenario:
    return Scenario(
        kind="one-good", good1=econ, good2=None, eta_star1=eta_star, eta_star2=None,
        prices1=prices, prices2=None, initial=state0, initial_money=money0,
        solver=opts, grid=None,
    )


def sup_discrepancy(series, reference: np.ndarray) -> float:
    """Largest stock difference between the numeric series and the closed
    form sampled at the same times."""
    diff_a = np.abs(series.eta_a - reference[:, 0])
    diff_b = np.abs(series.eta_b - reference[:, 1])
    return float(np.maximum(diff_a, diff_b).max())


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", dtype=str, ndmin=2)
    return header, data


class Workload:
    """Base of the workloads: `draw` makes one scenario, `run` is the timed
    op, `digest` and `check` look at its output afterwards."""

    name = ""
    pool_size = 0
    writes_files = True

    def __init__(self, work_dir: Path):
        self.out = work_dir / "out.csv"

    def draw(self, rng: np.random.Generator) -> Scenario:
        raise NotImplementedError

    def argv(self, inp: Input) -> list[str]:
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        return [self.out]

    def run(self, inp: Input) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(self.argv(inp))
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code if isinstance(exc.code, int) else 1
        return Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())

    def digest(self, outcome: Outcome) -> str:
        h = hashlib.sha256()
        for p in self.output_files():
            h.update(p.read_bytes())
        return h.hexdigest()

    def check(self, inp: Input, outcome: Outcome) -> list[str]:
        """Problems found in the op's output; empty when it is correct."""
        raise NotImplementedError

    def rows_and_bytes(self) -> tuple[int, int]:
        """Data rows (headers excluded) and bytes in the files the op wrote."""
        rows = size = 0
        for p in self.output_files():
            data = p.read_bytes()
            rows += data.count(b"\n") - 1
            size += len(data)
        return rows, size


class SimBoth(Workload):
    """`simulate --both` on a one-good scenario with prices: horizon 10 at
    step 1e-3, so about 10k RK4 steps and two CSV files of about 10k rows.
    Both stocks start below threshold and A's net production is positive, so
    A crosses into exporting inside the horizon, as in crossing.scenario.
    Both net productions are non-negative, so no stock can deplete."""

    name = "sim-both"
    pool_size = 8

    def draw(self, rng):
        c_a, c_b = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        econ = GoodEconomy(
            p_a=c_a + _u(rng, 0.15, 0.5), p_b=c_b + _u(rng, 0.0, 0.15),
            c_a=c_a, c_b=c_b, sigma=_u(rng, 0.5, 3.0),
        )
        state0 = NormalizedState(_u(rng, 0.2, 0.9), _u(rng, 0.2, 0.9))
        opts = SolverOptions(horizon=10.0, step=1e-3)
        return _one_good(econ, None, _prices_a_advantaged(rng), state0,
                         MoneyState(0.0, 0.0), opts)

    def compare_path(self) -> Path:
        return self.out.with_name(self.out.stem + ".compare" + self.out.suffix)

    def argv(self, inp):
        return ["simulate", str(inp.path), "--both", "--out", str(self.out)]

    def output_files(self):
        return [self.out, self.compare_path()]

    def check(self, inp, outcome):
        header, series = _read_csv(self.out)
        cmp_header, cmp = _read_csv(self.compare_path())
        if header != ["t", "eta_a", "eta_b", "regime", "f", "m_a", "m_b"]:
            return [f"unexpected series header {header}"]
        if cmp_header != ["t", "eta_a_numeric", "eta_b_numeric", "eta_a_analytic",
                          "eta_b_analytic", "discrepancy"]:
            return [f"unexpected comparison header {cmp_header}"]
        if len(series) != len(cmp) or len(series) < 10_000:
            return [f"row counts {len(series)} and {len(cmp)} are not one sample per step"]
        nums = cmp.astype(float)
        if nums[-1, 0] != inp.scenario.solver.horizon:
            return [f"last sample at t={nums[-1, 0]!r}, not at the horizon"]
        if not np.all(np.diff(nums[:, 0]) > 0.0):
            return ["comparison times are not strictly increasing"]
        disc = np.maximum(np.abs(nums[:, 1] - nums[:, 3]), np.abs(nums[:, 2] - nums[:, 4]))
        if not np.array_equal(disc, nums[:, 5]):
            return ["discrepancy column does not match the stock columns"]
        outcome.discrepancy = float(disc.max())
        if not outcome.discrepancy <= SUP_TOL:
            return [f"sup-norm discrepancy {outcome.discrepancy!r} above {SUP_TOL}"]
        if f"sup-norm discrepancy: {outcome.discrepancy:.17g}" not in outcome.stdout:
            return ["printed sup-norm differs from the comparison file"]
        if not np.array_equal(series[:, :3], cmp[:, :3]):
            return ["series and comparison files disagree on the numeric stocks"]
        return []


class SimAnalyticMoney(Workload):
    """`simulate --analytic` on a one-good scenario with prices: horizon 100
    at step 1e-2, so about 10k samples, starting off the export equilibrium
    fixed by eta_star. The integrator never runs; the time goes to the money
    integral along the closed form. B starts with enough stock to absorb the
    transient, and the depletion policy is `continue` so the RK4 reference
    of the output check always reaches the horizon."""

    name = "sim-analytic-money"
    pool_size = 8

    def draw(self, rng):
        sigma = _u(rng, 0.5, 2.0)
        eta_star = _u(rng, 1.2, 2.5)
        outflow = sigma * (eta_star - 1.0)
        c_a, c_b = _u(rng, 0.5, 2.0), outflow + _u(rng, 0.1, 1.0)
        econ = GoodEconomy(p_a=c_a + outflow, p_b=c_b - outflow, c_a=c_a, c_b=c_b,
                           sigma=sigma)
        eta_a0 = _u(rng, 0.3, 3.0)
        state0 = NormalizedState(eta_a0, abs(eta_star - eta_a0) + _u(rng, 0.3, 1.2))
        money0 = MoneyState(_u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0))
        opts = SolverOptions(horizon=100.0, step=1e-2,
                             depletion_policy=DepletionPolicy.CONTINUE)
        return _one_good(econ, eta_star, _prices_a_advantaged(rng), state0, money0, opts)

    def argv(self, inp):
        return ["simulate", str(inp.path), "--analytic", "--out", str(self.out)]

    def check(self, inp, outcome):
        header, rows = _read_csv(self.out)
        if header != ["t", "eta_a", "eta_b", "regime", "f", "m_a", "m_b"]:
            return [f"unexpected series header {header}"]
        sc = inp.scenario
        if len(rows) < 10_000:
            return [f"{len(rows)} rows, expected one per step"]
        last = rows[-1]
        if float(last[0]) != sc.solver.horizon:
            return [f"last sample at t={last[0]}, not at the horizon"]
        ref = integrator.integrate_with_events(
            sc.initial, sc.good1, sc.solver, prices=sc.prices1, money0=sc.initial_money
        )
        ref_m_a, ref_m_b = float(ref.m_a[-1]), float(ref.m_b[-1])
        problems = []
        for col, got, want, tol in (
            ("eta_a", float(last[1]), float(ref.eta_a[-1]), SUP_TOL),
            ("eta_b", float(last[2]), float(ref.eta_b[-1]), SUP_TOL),
            ("m_a", float(last[5]), ref_m_a, MONEY_TOL * max(1.0, abs(ref_m_a))),
            ("m_b", float(last[6]), ref_m_b, MONEY_TOL * max(1.0, abs(ref_m_b))),
        ):
            if not abs(got - want) <= tol:
                problems.append(f"final {col} {got!r} differs from RK4 {want!r} by more than {tol!r}")
        return problems


class RegionScan(Workload):
    """`region` on a two-good scenario with a 200x200 grid (40k nodes), using
    the program's default thread count. Price orderings are strict and the
    importers consume more than the default fixed-point outflow, so every
    draw validates; whether its feasible region is empty is left to chance."""

    name = "region-scan"
    pool_size = 4

    def draw(self, rng):
        good1 = (_u(rng, 0.5, 3.0), _u(rng, 2.0, 8.0))  # (c_a, c_b); B imports good 1
        good2 = (_u(rng, 2.0, 8.0), _u(rng, 0.5, 3.0))  # A imports good 2
        prices1 = _prices_a_advantaged(rng)
        x_b = _u(rng, 0.5, 3.0)
        y = x_b + _u(rng, 0.2, 3.0)
        prices2 = PriceSet(x_a=y + _u(rng, 0.2, 3.0), x_b=x_b, y=y)
        grid = GridSpec(
            sigma1_min=0.5, sigma1_max=_u(rng, 6.0, 12.0), sigma1_steps=200,
            eta_min=1.5, eta_max=_u(rng, 6.0, 12.0), eta_steps=200,
        )
        eta_star = 2.0
        # Productions at the fixed point: the exporter adds the outflow
        # sigma*(eta_star - 1) = 1 to its consumption, the importer subtracts it.
        econ1 = GoodEconomy(p_a=good1[0] + 1.0, p_b=good1[1] - 1.0,
                            c_a=good1[0], c_b=good1[1], sigma=1.0)
        econ2 = GoodEconomy(p_a=good2[0] - 1.0, p_b=good2[1] + 1.0,
                            c_a=good2[0], c_b=good2[1], sigma=1.0)
        return Scenario(
            kind="two-good", good1=econ1, good2=econ2, eta_star1=eta_star,
            eta_star2=eta_star, prices1=prices1, prices2=prices2, initial=None,
            initial_money=None, solver=None, grid=grid,
        )

    def argv(self, inp):
        return ["region", str(inp.path), "--out", str(self.out)]

    def check(self, inp, outcome):
        header, rows = _read_csv(self.out)
        if header != ["sigma1", "eta_a1", "k", "dm_a", "dm_b", "p_a2", "p_b1", "feasible"]:
            return [f"unexpected region header {header}"]
        grid = inp.scenario.grid
        if len(rows) != grid.sigma1_steps * grid.eta_steps:
            return [f"{len(rows)} rows for a {grid.sigma1_steps}x{grid.eta_steps} grid"]
        interval = feasible_k_interval(inp.scenario.two_good())
        k = rows[:, 2].astype(float)
        written = rows[:, 7] == "1"
        expected = np.array([interval.contains(float(v)) for v in k])
        if not np.array_equal(written, expected):
            return ["feasible column disagrees with the closed-form k interval"]
        if f"feasible nodes: {int(written.sum())} of {len(rows)}" not in outcome.stdout:
            return ["printed feasible-node count differs from the file"]
        return []


class CrossCheck(Workload):
    """Acceptance criterion 1 as a library call sequence: closed form, RK4
    with events (policy `continue`) and the sup-norm comparison, on the
    criterion's economy distribution. Runs are short (horizon 2, step 1e-2)
    and start within 0.4 of the threshold, so events are dense. No files."""

    name = "crosscheck"
    pool_size = 1000
    writes_files = False

    def draw(self, rng):
        econ = GoodEconomy(*rng.uniform(0.0, 5.0, size=4), rng.uniform(0.0, 5.0))
        state0 = NormalizedState(*rng.uniform(0.6, 1.4, size=2))
        opts = SolverOptions(horizon=2.0, step=1e-2,
                             depletion_policy=DepletionPolicy.CONTINUE)
        return _one_good(econ, None, None, state0, None, opts)

    def run(self, inp):
        sc = inp.scenario
        traj = analytic.simulate_analytic(sc.initial, sc.good1, sc.solver.horizon,
                                          event_tol=sc.solver.event_tol)
        series = integrator.integrate_with_events(sc.initial, sc.good1, sc.solver)
        reference = traj.states_at(series.times)
        sup = sup_discrepancy(series, reference)
        return Outcome(rc=0, discrepancy=sup, arrays=(series, reference))

    def digest(self, outcome):
        series, reference = outcome.arrays
        h = hashlib.sha256()
        for arr in (series.times, series.eta_a, series.eta_b, reference):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(series.events).encode())
        return h.hexdigest()

    def check(self, inp, outcome):
        if not outcome.discrepancy <= SUP_TOL:
            return [f"sup-norm discrepancy {outcome.discrepancy!r} above {SUP_TOL}"]
        series, _ = outcome.arrays
        if series.times[-1] != inp.scenario.solver.horizon:
            return [f"series ends at t={series.times[-1]!r}, not at the horizon"]
        return []

    def rows_and_bytes(self):
        return 0, 0


WORKLOADS = {w.name: w for w in (SimBoth, SimAnalyticMoney, RegionScan, CrossCheck)}


def generate(workload: Workload, seed: int, in_dir: Path) -> list[Input]:
    """Draw the workload's input pool from the seed and write each scenario
    through serialize_scenario; the op only ever sees that text."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    inputs = []
    for i in range(workload.pool_size):
        text = serialize_scenario(workload.draw(rng))
        inp = Input(index=i, text=text, scenario=parse_scenario_text(text))
        if workload.writes_files:
            inp.path = in_dir / f"{i:04d}.scenario"
            inp.path.write_text(text, encoding="utf-8")
        inputs.append(inp)
    return inputs
