"""Scenario files: a sectioned plain-text format for model runs.

Sections are INI-style: [model] selects one-good or two-good, [goodN] gives
per-good rates (either productions directly or a fixed-point eta_star from
which productions follow), [pricesN] the money parameters, [initial] the
starting state, [solver] the integration options and [grid] the region scan.
Parsing reports every problem found, not just the first; serialization emits
17 significant digits, so parse(serialize(s)) == s except in the one case
that serialize_scenario names. ``_FORMAT`` is the format, for both.
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

#: The file format: each section's keys in the order serialize_scenario
#: writes them, each with the type its value reads as.
_GOOD = {"c_a": float, "c_b": float, "sigma": float, "eta_star": float, "p_a": float, "p_b": float}
_PRICES = {"x_a": float, "x_b": float, "y": float}
_FORMAT = {
    "model": {"kind": str},
    "good1": _GOOD,
    "prices1": _PRICES,
    "good2": _GOOD,
    "prices2": _PRICES,
    "initial": {"eta_a": float, "eta_b": float, "m_a": float, "m_b": float},
    "solver": {"horizon": float, "step": float, "event_tol": float, "depletion_policy": str},
    "grid": {"sigma1_min": float, "sigma1_max": float, "sigma1_steps": int,
             "eta_min": float, "eta_max": float, "eta_steps": int},
}
_WHAT = {float: "a number", int: "an integer"}

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

    def get(self, key: str, default=None, required: bool = False):
        """The value of ``key`` as its ``_FORMAT`` type, or ``default`` when
        the key is absent."""
        raw = self.raw.get(key)
        if raw is None:
            if required:
                self.problems.append(f"[{self.section}]: missing required key '{key}'")
                self.stopped = True
            return default
        convert = _FORMAT[self.section][key]
        try:
            return convert(raw)
        except ValueError:
            self.problems.append(f"[{self.section}].{key}: not {_WHAT[convert]}: {raw!r}")
            self.stopped = True
            return None

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
        if section not in _FORMAT:
            problems.append(f"unknown section [{section}]")
            continue
        problems += [f"[{section}]: unknown key '{key}'"
                     for key in cp[section] if key not in _FORMAT[section]]

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

    prices1 = _parse_record(cp, "prices1", PriceSet, required=two, problems=problems)
    prices2 = (_parse_record(cp, "prices2", PriceSet, required=two, problems=problems)
               if two else None)
    initial, initial_money = _parse_initial(cp, problems)
    if initial_money is not None and not cp.has_section("prices1") and (
            initial_money.m_a != 0.0 or initial_money.m_b != 0.0):
        problems.append("[initial]: money holdings m_a, m_b need a [prices1] section")
    solver = _parse_solver(cp, problems)
    grid = _parse_record(cp, "grid", GridSpec, required=False, problems=problems)
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
    c_a = r.get("c_a", required=True)
    c_b = r.get("c_b", required=True)
    sigma = r.get("sigma", default=_DEFAULT_SIGMA)
    gives_p = r.has("p_a") or r.has("p_b")
    eta_star = r.get("eta_star")
    if gives_p and eta_star is not None:
        problems.append(
            f"[{section}]: give either productions (p_a, p_b) or eta_star, not both"
        )

    # A conflict does not return early: p_a and p_b are still read and checked.
    if gives_p:
        p_a = r.get("p_a", required=True)
        p_b = r.get("p_b", required=True)
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


def _parse_record(cp, section, make, required, problems):
    """``make`` called with every key of the section, each one required."""
    r = _SectionReader(cp, section, problems)
    if not r.present:
        if required:
            problems.append(f"missing [{section}] section")
        return None
    return r.build(make, **{key: r.get(key, required=True) for key in _FORMAT[section]})


def _parse_initial(cp, problems):
    r = _SectionReader(cp, "initial", problems)
    if not r.present:
        return None, None
    eta_a = r.get("eta_a", required=True)
    eta_b = r.get("eta_b", required=True)
    m_a = r.get("m_a", default=0.0)
    m_b = r.get("m_b", default=0.0)
    return r.build(NormalizedState, eta_a, eta_b), r.build(MoneyState, m_a, m_b)


def _parse_solver(cp, problems):
    r = _SectionReader(cp, "solver", problems)
    if not r.present:
        return None
    # SolverOptions owns the defaults of the keys the file leaves out.
    given = {"horizon": r.get("horizon", required=True)}
    given.update((key, r.get(key)) for key in ("step", "event_tol") if r.has(key))
    if r.has("depletion_policy"):
        policy_raw = r.raw["depletion_policy"]
        policy = _POLICIES.get(policy_raw)
        if policy is None:
            problems.append(f"[solver].depletion_policy must be one of {sorted(_POLICIES)}, "
                            f"got {policy_raw!r}")
            return None
        given["depletion_policy"] = policy
    return r.build(SolverOptions, **given)


def _text(value, kind) -> str:
    if kind is float:
        return f"{value:.17g}"
    return str(getattr(value, "value", value))  # the depletion policy's enum value


def serialize_scenario(s: Scenario) -> str:
    """Emit scenario-file text that parses back to an equal Scenario, except
    that an ``initial`` without ``initial_money`` is written with zero money,
    which parses back as ``MoneyState(0.0, 0.0)``."""
    money = s.initial_money if s.initial_money is not None else MoneyState(0.0, 0.0)
    values = {
        "model": {"kind": s.kind},
        "good1": _good_fields(s.good1, s.eta_star1), "prices1": _fields(s.prices1),
        "good2": _good_fields(s.good2, s.eta_star2), "prices2": _fields(s.prices2),
        "initial": _fields(s.initial, **vars(money)),
        "solver": _fields(s.solver), "grid": _fields(s.grid),
    }
    lines: list[str] = []
    for section, keys in _FORMAT.items():
        given = values[section]
        if given is None:
            continue
        lines.append(f"[{section}]")
        lines += [f"{key} = {_text(given[key], kind)}"
                  for key, kind in keys.items() if given.get(key) is not None]
        lines.append("")
    return "\n".join(lines)


def _fields(record, **extra) -> dict | None:
    """The record's fields updated by ``extra``, or None without a record."""
    return None if record is None else {**vars(record), **extra}


def _good_fields(good: GoodEconomy | None, eta_star: float | None) -> dict | None:
    """A good's rates; a pinned eta_star is written in place of the productions."""
    if eta_star is None:
        return _fields(good)
    return _fields(good, eta_star=eta_star, p_a=None, p_b=None)
