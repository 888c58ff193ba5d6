"""Scenario files: a sectioned plain-text format for model runs.

Sections are INI-style: [model] selects one-good or two-good, [goodN] gives
per-good rates (either productions directly or a fixed-point eta_star from
which productions follow), [pricesN] the money parameters, [initial] the
starting state, [solver] the integration options and [grid] the region scan.
Parsing reports every problem found, not just the first; serialization emits
17 significant digits so parse(serialize(s)) reproduces s exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .core import (
    GoodEconomy,
    MoneyState,
    NormalizedState,
    PriceSet,
    TwoGoodScenario,
    validate_scenario,
)
from .integrator import DepletionPolicy, SolverOptions
from .money import fixed_point_production
from .region import GridSpec

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "parse_scenario_text", "serialize_scenario"]

_KNOWN_KEYS = {
    "model": {"kind"},
    "good1": {"p_a", "p_b", "c_a", "c_b", "sigma", "eta_star"},
    "good2": {"p_a", "p_b", "c_a", "c_b", "sigma", "eta_star"},
    "prices1": {"x_a", "x_b", "y"},
    "prices2": {"x_a", "x_b", "y"},
    "initial": {"eta_a", "eta_b", "m_a", "m_b"},
    "solver": {"step", "event_tol", "horizon", "depletion_policy"},
    "grid": {"sigma1_min", "sigma1_max", "sigma1_steps", "eta_min", "eta_max", "eta_steps"},
}

_POLICIES = {p.value: p for p in DepletionPolicy}

#: Fixed-point stock assumed for a two-good scenario when the file does not
#: pin one; any value above threshold yields the same feasibility set, since
#: the rates depend only on the k product.
_DEFAULT_ETA_STAR = 2.0
_DEFAULT_SIGMA = 1.0


class ScenarioError(ValueError):
    """Raised with the full list of problems found in a scenario file."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class Scenario:
    """A parsed and validated scenario file."""

    kind: str  # "one-good" or "two-good"
    good1: GoodEconomy
    good2: GoodEconomy | None
    eta_star1: float | None
    eta_star2: float | None
    prices1: PriceSet | None
    prices2: PriceSet | None
    initial: NormalizedState | None
    initial_money: MoneyState | None
    solver: SolverOptions | None
    grid: GridSpec | None

    def two_good(self) -> TwoGoodScenario:
        if self.kind != "two-good":
            raise ScenarioError(["scenario is not two-good"])
        eta1 = self.eta_star1 if self.eta_star1 is not None else _DEFAULT_ETA_STAR
        eta2 = self.eta_star2 if self.eta_star2 is not None else _DEFAULT_ETA_STAR
        return TwoGoodScenario(
            self.good1, self.good2, self.prices1, self.prices2,
            eta_a1=eta1, eta_b2=eta2,
        )


class _SectionReader:
    """Typed key access over one section, appending problems as it goes.

    A missing required key or a value that does not parse stops the section:
    ``build`` then constructs nothing, so no default stands in for a bad value
    and no later check reports on a number the file never held."""

    def __init__(self, cp: configparser.ConfigParser, section: str, problems: list[str]):
        self.section = section
        self.present = cp.has_section(section)
        self.raw = dict(cp[section]) if self.present else {}
        self.problems = problems
        self.stopped = False

    def _read(self, key: str, convert, what: str, default, required: bool):
        raw = self.raw.get(key)
        if raw is None:
            if required:
                self.problems.append(f"[{self.section}]: missing required key '{key}'")
                self.stopped = True
            return default
        try:
            return convert(raw)
        except ValueError:
            self.problems.append(f"[{self.section}].{key}: not {what}: {raw!r}")
            self.stopped = True
            return None

    def get_float(self, key: str, default: float | None = None, required: bool = False) -> float | None:
        return self._read(key, float, "a number", default, required)

    def get_int(self, key: str, required: bool = False) -> int | None:
        return self._read(key, int, "an integer", None, required)

    def has(self, key: str) -> bool:
        return key in self.raw

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None if the section has stopped or
        ``make`` raises ValueError, which is reported against the section."""
        if self.stopped:
            return None
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            self.problems.append(f"[{self.section}]: {exc}")
            self.stopped = True
            return None


def parse_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file; raises ScenarioError listing every
    problem found."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"cannot read scenario file {path}: {exc}"]) from exc
    return parse_scenario_text(text, source=str(path))


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        # some messages quote the offending line on lines of their own
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ScenarioError([f"syntax error: {message}"]) from exc

    problems: list[str] = []
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            problems.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                problems.append(f"[{section}]: unknown key '{key}'")

    model = _SectionReader(cp, "model", problems)
    if not model.present:
        problems.append("missing [model] section (kind = one-good | two-good)")
        raise ScenarioError(problems)
    kind = model.raw.get("kind")
    if kind not in ("one-good", "two-good"):
        problems.append(
            f"[model].kind must be 'one-good' or 'two-good', got {kind!r}"
        )
        raise ScenarioError(problems)

    two = kind == "two-good"
    good1, eta_star1 = _parse_good(cp, "good1", exporter="a", required=True,
                                   default_eta=two, problems=problems)
    good2 = eta_star2 = None
    if two:
        good2, eta_star2 = _parse_good(cp, "good2", exporter="b", required=True,
                                       default_eta=True, problems=problems)
    elif cp.has_section("good2") or cp.has_section("prices2"):
        problems.append("one-good model must not define [good2] or [prices2]")

    prices1 = _parse_prices(cp, "prices1", required=two, problems=problems)
    prices2 = _parse_prices(cp, "prices2", required=two, problems=problems) if two else None
    initial, initial_money = _parse_initial(cp, problems)
    if initial_money is not None and not cp.has_section("prices1") and (
            initial_money.m_a != 0.0 or initial_money.m_b != 0.0):
        problems.append("[initial]: money holdings m_a, m_b need a [prices1] section")
    solver = _parse_solver(cp, problems)
    grid = _parse_grid(cp, problems)
    if grid is not None and not two:
        problems.append("[grid] requires the two-good model")

    sc = Scenario(
        kind=kind,
        good1=good1,
        good2=good2,
        eta_star1=eta_star1,
        eta_star2=eta_star2,
        prices1=prices1,
        prices2=prices2,
        initial=initial,
        initial_money=initial_money,
        solver=solver,
        grid=grid,
    )
    if None not in (good1, good2, prices1, prices2):
        problems.extend(validate_scenario(sc.two_good()))

    if problems:
        raise ScenarioError(problems)
    return sc


def _parse_good(cp, section, exporter, required, default_eta, problems):
    r = _SectionReader(cp, section, problems)
    if not r.present:
        if required:
            problems.append(f"missing [{section}] section")
        return None, None
    c_a = r.get_float("c_a", required=True)
    c_b = r.get_float("c_b", required=True)
    sigma = r.get_float("sigma", default=_DEFAULT_SIGMA)
    gives_p = r.has("p_a") or r.has("p_b")
    eta_star = r.get_float("eta_star")
    if gives_p and eta_star is not None:
        problems.append(
            f"[{section}]: give either productions (p_a, p_b) or eta_star, not both"
        )

    # A conflict does not return early: p_a and p_b are still read and checked.
    if gives_p:
        p_a = r.get_float("p_a", required=True)
        p_b = r.get_float("p_b", required=True)
        if eta_star is not None:
            return None, None
    else:
        if eta_star is None:
            if not default_eta:
                problems.append(
                    f"[{section}]: provide productions (p_a, p_b) or a fixed-point eta_star"
                )
                return None, None
            eta_star = _DEFAULT_ETA_STAR
        c_exp, c_imp = (c_a, c_b) if exporter == "a" else (c_b, c_a)
        production = r.build(fixed_point_production, eta_star, c_exp, c_imp, sigma)
        if production is None:
            return None, None
        p_exp, p_imp = production
        p_a, p_b = (p_exp, p_imp) if exporter == "a" else (p_imp, p_exp)
    return r.build(GoodEconomy, p_a=p_a, p_b=p_b, c_a=c_a, c_b=c_b, sigma=sigma), eta_star


def _parse_prices(cp, section, required, problems):
    r = _SectionReader(cp, section, problems)
    if not r.present:
        if required:
            problems.append(f"missing [{section}] section")
        return None
    return r.build(PriceSet, x_a=r.get_float("x_a", required=True),
                   x_b=r.get_float("x_b", required=True), y=r.get_float("y", required=True))


def _parse_initial(cp, problems):
    r = _SectionReader(cp, "initial", problems)
    if not r.present:
        return None, None
    eta_a = r.get_float("eta_a", required=True)
    eta_b = r.get_float("eta_b", required=True)
    m_a = r.get_float("m_a", default=0.0)
    m_b = r.get_float("m_b", default=0.0)
    return r.build(NormalizedState, eta_a, eta_b), r.build(MoneyState, m_a, m_b)


def _parse_solver(cp, problems):
    r = _SectionReader(cp, "solver", problems)
    if not r.present:
        return None
    # SolverOptions owns the defaults of the keys the file leaves out.
    given = {"horizon": r.get_float("horizon", required=True)}
    for key in ("step", "event_tol"):
        if r.has(key):
            given[key] = r.get_float(key)
    if r.has("depletion_policy"):
        policy_raw = r.raw["depletion_policy"]
        policy = _POLICIES.get(policy_raw)
        if policy is None:
            problems.append(f"[solver].depletion_policy must be one of {sorted(_POLICIES)}, "
                            f"got {policy_raw!r}")
            return None
        given["depletion_policy"] = policy
    return r.build(SolverOptions, **given)


def _parse_grid(cp, problems):
    r = _SectionReader(cp, "grid", problems)
    if not r.present:
        return None
    return r.build(
        GridSpec,
        sigma1_min=r.get_float("sigma1_min", required=True),
        sigma1_max=r.get_float("sigma1_max", required=True),
        sigma1_steps=r.get_int("sigma1_steps", required=True),
        eta_min=r.get_float("eta_min", required=True),
        eta_max=r.get_float("eta_max", required=True),
        eta_steps=r.get_int("eta_steps", required=True),
    )


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def serialize_scenario(s: Scenario) -> str:
    """Emit scenario-file text that parses back to an equal Scenario."""
    lines: list[str] = ["[model]", f"kind = {s.kind}", ""]

    def emit_good(section: str, good: GoodEconomy, eta_star: float | None) -> None:
        lines.append(f"[{section}]")
        lines.append(f"c_a = {_fmt(good.c_a)}")
        lines.append(f"c_b = {_fmt(good.c_b)}")
        lines.append(f"sigma = {_fmt(good.sigma)}")
        if eta_star is not None:
            lines.append(f"eta_star = {_fmt(eta_star)}")
        else:
            lines.append(f"p_a = {_fmt(good.p_a)}")
            lines.append(f"p_b = {_fmt(good.p_b)}")
        lines.append("")

    def emit_prices(section: str, prices: PriceSet) -> None:
        lines.append(f"[{section}]")
        lines.append(f"x_a = {_fmt(prices.x_a)}")
        lines.append(f"x_b = {_fmt(prices.x_b)}")
        lines.append(f"y = {_fmt(prices.y)}")
        lines.append("")

    emit_good("good1", s.good1, s.eta_star1)
    if s.prices1 is not None:
        emit_prices("prices1", s.prices1)
    if s.good2 is not None:
        emit_good("good2", s.good2, s.eta_star2)
    if s.prices2 is not None:
        emit_prices("prices2", s.prices2)
    if s.initial is not None:
        lines.append("[initial]")
        lines.append(f"eta_a = {_fmt(s.initial.eta_a)}")
        lines.append(f"eta_b = {_fmt(s.initial.eta_b)}")
        money = s.initial_money if s.initial_money is not None else MoneyState(0.0, 0.0)
        lines.append(f"m_a = {_fmt(money.m_a)}")
        lines.append(f"m_b = {_fmt(money.m_b)}")
        lines.append("")
    if s.solver is not None:
        lines.append("[solver]")
        lines.append(f"horizon = {_fmt(s.solver.horizon)}")
        lines.append(f"step = {_fmt(s.solver.step)}")
        lines.append(f"event_tol = {_fmt(s.solver.event_tol)}")
        lines.append(f"depletion_policy = {s.solver.depletion_policy.value}")
        lines.append("")
    if s.grid is not None:
        lines.append("[grid]")
        lines.append(f"sigma1_min = {_fmt(s.grid.sigma1_min)}")
        lines.append(f"sigma1_max = {_fmt(s.grid.sigma1_max)}")
        lines.append(f"sigma1_steps = {s.grid.sigma1_steps}")
        lines.append(f"eta_min = {_fmt(s.grid.eta_min)}")
        lines.append(f"eta_max = {_fmt(s.grid.eta_max)}")
        lines.append(f"eta_steps = {s.grid.eta_steps}")
        lines.append("")
    return "\n".join(lines)
