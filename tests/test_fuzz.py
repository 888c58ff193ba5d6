"""Fuzzing of the scenario parser and the command line.

Any text either parses or raises ScenarioError, and any scenario file, raw
bytes included, ends in a documented exit code, with `error:` lines when it
is an input error or a numerical-check failure. Generated runs stay small
(grids of at most 20x20, at most 10^3 samples), and the examples are
derandomized so every run of the suite tries the same ones.
"""

import configparser
import contextlib
import io
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflow.cli import EXIT_DEPLETION, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from tradeflow.scenario import Scenario, ScenarioError, parse_scenario_text

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=250)

NUMBERS = st.one_of(
    st.floats(-5.0, 5.0).map(repr),
    st.floats().map(repr),
    st.integers(-3, 5).map(str),
    st.sampled_from(["0", "-0", "1", "1.5", "1e308", "-1e308", "5e-324", "nan", "inf",
                     "", "x", "1,5"]),
)
GRID_STEPS = st.integers(1, 20).map(str)
VALUES = {
    "kind": st.sampled_from(["one-good", "two-good", "three-good", ""]),
    "depletion_policy": st.sampled_from(["halt", "clamp_to_zero", "continue", "stop"]),
    "sigma1_steps": GRID_STEPS,
    "eta_steps": GRID_STEPS,
}
SECTIONS = {
    "model": ["kind"],
    "good1": ["p_a", "p_b", "c_a", "c_b", "sigma", "eta_star"],
    "good2": ["p_a", "p_b", "c_a", "c_b", "sigma", "eta_star"],
    "prices1": ["x_a", "x_b", "y"],
    "prices2": ["x_a", "x_b", "y"],
    "initial": ["eta_a", "eta_b", "m_a", "m_b"],
    "solver": ["horizon", "step", "event_tol", "depletion_policy"],
    "grid": ["sigma1_min", "sigma1_max", "sigma1_steps", "eta_min", "eta_max", "eta_steps"],
    "bogus": ["bogus"],
}
MAX_SAMPLES = 1e3


def _sections_of(path: Path) -> dict:
    """{section: {key: value}} of a scenario file."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(path.read_text())
    return {section: dict(cp[section]) for section in cp.sections()}


BUNDLED = [_sections_of(p) for p in
           sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scenario"))]


def _bound_samples(keys: dict) -> dict:
    """Shrink a solver step so that horizon/step stays within MAX_SAMPLES."""
    try:
        horizon = float(keys["horizon"])
        step = float(keys.get("step", "1e-3"))
    except (KeyError, ValueError):
        return keys
    if step > 0.0 and horizon > MAX_SAMPLES * step:
        keys = {**keys, "step": repr(horizon / MAX_SAMPLES)}
    return keys


def _render(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        if section == "solver":
            keys = _bound_samples(keys)
        lines.append(f"[{section}]")
        lines += [f"{name} = {value}" for name, value in keys.items()]
    return "\n".join(lines) + "\n"


@st.composite
def random_scenarios(draw) -> str:
    """Any sections, each with any subset of its keys."""
    sections = {}
    for section in draw(st.lists(st.sampled_from(sorted(SECTIONS)), max_size=8)):
        names = draw(st.lists(st.sampled_from(SECTIONS[section]), unique=True))
        sections[section] = {name: draw(VALUES.get(name, NUMBERS)) for name in names}
    return _render(sections)


@st.composite
def mutated_scenarios(draw, base: dict) -> str:
    """A bundled scenario with a few of its values replaced (its grid sizes
    always), so that many examples get past the parser."""
    return _render({
        section: {name: draw(VALUES.get(name, NUMBERS))
                  if name.endswith("_steps") or draw(st.integers(0, 9)) == 0 else value
                  for name, value in keys.items()}
        for section, keys in base.items()
    })


SIMULATE = [["simulate", "--analytic"], ["simulate", "--numeric"], ["simulate", "--both"]]
FIXED_POINT = [["fixed-point"], ["fixed-point", "--eta-star={eta!r}"],
               ["fixed-point", "--eta-star", "{eta!r}"]]
REGION = [["region"]]
#: --out names for simulate and region: a plain data file, a name that the
#: plot script also takes, one that looks like a comparison file, no suffix
OUT_NAMES = ["out.csv", "out.gnuplot", "out.compare.csv", "out"]


@st.composite
def cli_runs(draw) -> tuple[bytes, list[str]]:
    """(scenario file contents, command with its flags): mostly a mutated
    bundled scenario with a command for its kind, else any bytes or text
    with any command."""
    if draw(st.integers(0, 3)) == 0:
        contents = draw(st.one_of(
            st.binary(max_size=200),
            st.text(max_size=200).map(str.encode),
            st.tuples(random_scenarios(), st.binary(max_size=4)).map(
                lambda pair: pair[0].encode() + pair[1]),
        ))
        return contents, draw(st.sampled_from(SIMULATE + FIXED_POINT + REGION))
    base = draw(st.sampled_from(BUNDLED))
    commands = REGION if base["model"]["kind"] == "two-good" else SIMULATE + FIXED_POINT
    return draw(mutated_scenarios(base)).encode(), draw(st.sampled_from(commands))


@FUZZ
@given(st.one_of(random_scenarios(), st.sampled_from(BUNDLED).flatmap(mutated_scenarios),
                 st.text()))
def test_parse_returns_a_scenario_or_raises_scenario_error(text):
    try:
        assert isinstance(parse_scenario_text(text), Scenario)
    except ScenarioError as exc:
        assert exc.problems


def _run_main(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and standard-error lines of one run, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def test_main_ends_in_a_documented_exit_code(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "fuzz.scenario"

    @FUZZ
    @given(cli_runs(), st.floats(0.0, 3.0) | st.floats(), st.sampled_from(OUT_NAMES),
           st.booleans())
    def run(scenario_and_command, eta, out_name, plot):
        contents, (name, *flags) = scenario_and_command
        path.write_bytes(contents)
        argv = [name, str(path), *(flag.format(eta=eta) for flag in flags)]
        if name != "fixed-point":
            argv += ["--out", str(work / out_name)] + (["--plot"] if plot else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, lines = _run_main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_DEPLETION)
        if code in (EXIT_INPUT, EXIT_NUMERIC):
            assert lines and all(line.startswith("error: ") for line in lines), lines
        elif code == EXIT_DEPLETION:
            assert len(lines) == 1 and lines[0].startswith("depletion halt at t="), lines
        else:
            assert not lines

    run()
