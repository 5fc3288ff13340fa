"""Exit-code property of the command line: mutated scenario and experiment
files and drawn flag values make `main` return one of its documented exit
codes (0, 2, 3, 4, 5) and never raise, and an exit 0 leaves every
artefact the command declares. The inputs are small, so every command in
it runs in well under a second."""

import json
import math
import tempfile
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_INFEASIBLE, cli.EXIT_RUNTIME, cli.EXIT_IO}

# 14x8 cells at 0.5 m: a wall with a door between the base station's room
# and the goals
MAP_ROWS = [
    "##############",
    "#.....#......#",
    "#.....#......#",
    "#............#",
    "#............#",
    "#.....#......#",
    "#.....#......#",
    "##############",
]
SCENARIO = {
    "map": "s.map",
    "bs": [0.75, 0.75],
    "robot_starts": [[0.75, 1.75], [1.25, 1.75]],
    "goals": [[5.25, 0.75], [5.75, 3.25]],
    "radio": {"p_tx": -10.0},
}
EXPERIMENT = {"map_size": [12, 12], "obstacle_density": 0.5, "goal_counts": [2], "trials": 1,
              "modes": ["fmm", "dpa"], "seed_base": 0, "radio": {"p_tx": -16.0}}
MODE_NAMES = ["fmm", "ca", "dp", "dpa", "DPA-FMM", " Dp-Fmm ", "bogus", ""]

DROP = object()  # a mutation that deletes the key
# out-of-range and huge numbers, JSON's NaN and Infinity tokens, wrong types
NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 40),
                   st.sampled_from([10**30, -10**30, 2**63, 10**400, -10**400]))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), NUMBER,
                 st.lists(st.integers(-3, 30), max_size=3),
                 st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))
POINT = st.one_of(st.lists(st.floats(-2.0, 9.0), min_size=2, max_size=2),
                  st.lists(NUMBER, min_size=0, max_size=3), JUNK)
RADIO = st.one_of(st.dictionaries(st.sampled_from(sorted(cli._RADIO_KEYS) + ["bogus"]),
                                  st.one_of(NUMBER, JUNK), max_size=3), JUNK)
SCENARIO_MUTATION = st.one_of(
    st.tuples(st.sampled_from(["bs"]), POINT),
    st.tuples(st.sampled_from(["robot_starts", "goals"]),
              st.one_of(st.lists(POINT, max_size=3), JUNK)),
    st.tuples(st.just("radio"), RADIO),
    st.tuples(st.sampled_from(["w_c", "speed", "seed"]), st.one_of(NUMBER, JUNK)),
    st.tuples(st.just("knobs"), st.one_of(
        st.dictionaries(st.sampled_from(["relay_stride", "visit_cap", "bogus"]),
                        st.one_of(st.integers(-1, 12), JUNK), max_size=2), JUNK)),
    st.tuples(st.sampled_from(["map", "bs", "goals", "robot_starts", "bogus"]),
              st.one_of(st.just(DROP), st.just("missing.map"), JUNK)),
)
# the experiment keys get the same junk; a huge trial count is a long sweep,
# not a fault, so trials stays small
SIZES = st.one_of(st.integers(-1, 14), st.sampled_from([10**6, 10**30, 10**400]), JUNK)
EXPERIMENT_MUTATION = st.one_of(
    st.tuples(st.just("map_size"), st.one_of(st.lists(SIZES, min_size=0, max_size=3), JUNK)),
    st.tuples(st.just("goal_counts"), st.one_of(st.lists(SIZES, min_size=0, max_size=2), JUNK)),
    st.tuples(st.sampled_from(["obstacle_density", "seed_base"]), st.one_of(NUMBER, JUNK)),
    st.tuples(st.just("trials"), st.one_of(st.integers(-1, 2), st.floats(), st.text(max_size=2))),
    st.tuples(st.just("modes"), st.one_of(st.lists(st.sampled_from(MODE_NAMES), max_size=3), JUNK)),
    st.tuples(st.just("radio"), RADIO),
    st.tuples(st.sampled_from(["map_size", "bogus"]), st.just(DROP)),
)
FLAG_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([1e308, -1e308, 1e-320]))
FLAG_INT = st.one_of(st.integers(-2, 50), st.sampled_from([2**64, 10**30]))
# mostly the valid 0.5, so the scenario mutations reach the planner
RESOLUTIONS = st.sampled_from([0.5] * 6 + [0.3, 1e-300, 1e300, 0.0, -0.5, math.nan, math.inf])
MAYBE = st.sampled_from([None, None, True])  # whether a flag is drawn at all


def mutated(base: dict, mutations) -> dict:
    doc = dict(base)
    for key, value in mutations:
        if value is DROP:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


def artefacts(command: str, out: FsPath) -> list[FsPath]:
    """The files a command that exits 0 declares: compare writes an SVG for
    each mode it could plan, so only its table is certain."""
    if command == "plan":
        return [out / "plan.json", out / "plan.svg"]
    if command == "run":
        return [out / "trace.json", out / "metrics.csv"]
    if command == "compare":
        return [out / "compare.csv"]
    if command == "sweep":
        return [out / "trials.csv", out / "aggregate.csv"]
    return [out]


def run_main(argv: list[str]) -> int:
    rc = cli.main(argv)
    assert rc in EXIT_CODES, (argv, rc)
    return rc


def scenario_argv(work: FsPath, command: str, mode: str, flags: dict) -> list[str]:
    argv = [command, str(work / "s.json")]
    if command in ("plan", "run"):
        argv += ["--mode", mode]
    if command != "render":
        for flag, value in flags.items():
            if flag != "--noise-seed" or command == "run":
                argv.append(f"{flag}={value!r}")
    return argv + ["--out", str(work / ("o.svg" if command == "render" else "o"))]


def write_scenario(work: FsPath, mutations, resolution=0.5) -> None:
    (work / "s.map").write_text(f"width 14\nheight 8\nresolution {resolution!r}\n"
                                + "\n".join(MAP_ROWS) + "\n")
    (work / "s.json").write_text(json.dumps(mutated(SCENARIO, mutations)))


@settings(max_examples=100, deadline=None)
@given(mutations=st.lists(SCENARIO_MUTATION, max_size=2), resolution=RESOLUTIONS,
       command=st.sampled_from(["plan", "run", "compare", "render"]),
       mode=st.sampled_from(MODE_NAMES),
       flags=st.fixed_dictionaries({"--w-c": FLAG_FLOAT, "--margin-k": FLAG_FLOAT,
                                    "--noise-seed": FLAG_INT}),
       drawn=st.tuples(MAYBE, MAYBE, MAYBE))
def test_scenario_commands_exit_with_a_documented_code(mutations, resolution, command, mode,
                                                       flags, drawn):
    flags = {flag: value for (flag, value), keep in zip(flags.items(), drawn) if keep}
    with tempfile.TemporaryDirectory() as tmp:
        work = FsPath(tmp)
        write_scenario(work, mutations, resolution)
        argv = scenario_argv(work, command, mode, flags)
        if run_main(argv) == cli.EXIT_OK:
            out = FsPath(argv[-1])
            assert all(p.is_file() for p in artefacts(command, out)), argv


@settings(max_examples=40, deadline=None)
@given(mutations=st.lists(EXPERIMENT_MUTATION, max_size=2))
def test_sweep_exits_with_a_documented_code(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        work = FsPath(tmp)
        (work / "e.json").write_text(json.dumps(mutated(EXPERIMENT, mutations)))
        argv = ["sweep", str(work / "e.json"), "--out", str(work / "o")]
        if run_main(argv) == cli.EXIT_OK:
            assert all(p.is_file() for p in artefacts("sweep", work / "o")), argv


# inputs that escaped main before they were validated: an int beyond the
# float range raised OverflowError out of the number check, a huge obstacle
# density made generate_map loop over ~1e300 wall lines, and a huge map side
# was accepted and allocated
@pytest.mark.parametrize("mutations", [
    [("w_c", 10**400)],
    [("radio", {"p_tx": -10**400})],
    [("bs", [10**400, 1.0])],
])
def test_escaped_scenario_inputs_are_schema_errors(tmp_path, mutations):
    write_scenario(tmp_path, mutations)
    assert run_main(["plan", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_SCHEMA
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mutations", [
    [("obstacle_density", 10**400)],
    [("obstacle_density", 1e300)],
    [("obstacle_density", 1.5)],
    [("map_size", [10**6, 12])],
    [("map_size", [12, cli._MAX_MAP_SIDE + 1])],
])
def test_escaped_experiment_inputs_are_schema_errors(tmp_path, mutations):
    (tmp_path / "e.json").write_text(json.dumps(mutated(EXPERIMENT, mutations)))
    assert run_main(["sweep", str(tmp_path / "e.json"), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_SCHEMA
    assert not (tmp_path / "o").exists()
