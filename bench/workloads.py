"""The benchmark's workloads: their input files and their command lists.

A workload turns a workload seed into scenario files in a work directory
and a fixed list of `relaynet` commands over them. The program only ever
sees those files.

Work per pass must not depend on the seed, or run-to-run spread would
measure the seed instead of the code. So the seed picks among inputs of
equal work:

- relay64-compare and hall128-plan use one generated scenario each, and
  the seed picks one of the symmetries of its square map (rotations and
  mirror images). Geometry and path lengths are the same; only the
  orientation, and with it the planners' tie-breaks, changes. Symmetries
  under which some command fails are left out when expected.json is
  recorded, since a failed mode also does less work.
- fig2-noisy-run draws its noise seeds from a recorded pool in which every
  run, in both modes, stalls and replans exactly once.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from relaynet.cli import random_scenario
from relaynet.connectivity import check_feasibility
from relaynet.gridmap import GridMap
from relaynet.mission import MODES, InfeasibleScenarioError, Scenario

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
EXPECTED_PATH = BENCH_DIR / "expected.json"

PLAN_MODES = ("fmm", "ca-fmm", "dp-fmm", "dpa-fmm")
RUN_MODES = ("fmm", "ca-fmm")
NOISE_SEEDS_PER_PASS = 4
RESAMPLE_TRIES = 20


@dataclass(frozen=True)
class Command:
    """One `relaynet` invocation and the artefacts it must write."""

    label: str                    # groups timings, e.g. "plan.fmm" or "run.ca-fmm"
    argv: tuple[str, ...]
    out: str                      # output directory, relative to the work directory
    artefacts: tuple[str, ...]    # file names written into out


@dataclass(frozen=True)
class Generated:
    """A random_scenario recipe; the workload seed picks the map symmetry."""

    stem: str
    base_seed: int
    size: int
    n_goals: int
    density: float


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Generated | None    # None: the static fig2 files in data/

    def symmetry(self, seed: int) -> int:
        usable = load_expected()["symmetries"][self.name]
        return usable[seed % len(usable)]

    def variant(self, seed: int) -> str:
        """The key of the input this seed selects; expected hashes are kept per key."""
        return f"sym{self.symmetry(seed)}" if self.scenario else "fig2"

    def noise_seeds(self, seed: int) -> list[int]:
        if self.scenario:
            return []
        pool = load_expected()["fig2_noise_pool"]
        rng = np.random.default_rng(seed)
        return sorted(int(s) for s in rng.choice(pool, NOISE_SEEDS_PER_PASS, replace=False))

    def scenario_path(self, work: Path) -> Path:
        return work / f"{self.scenario.stem if self.scenario else 'fig2'}.json"

    def prepare(self, seed: int, work: Path) -> Path:
        """Write this seed's map and scenario files into work; return the scenario path."""
        return self.write_input(self.symmetry(seed) if self.scenario else 0, work)

    def write_input(self, k: int, work: Path) -> Path:
        """Write the input under map symmetry k; fig2 has only one."""
        work.mkdir(parents=True, exist_ok=True)
        if self.scenario is None:
            for name in ("fig2.map", "fig2.json"):
                shutil.copyfile(DATA_DIR / name, work / name)
        else:
            write_scenario(symmetric(feasible_scenario(self.scenario), k), work,
                           self.scenario.stem)
        return self.scenario_path(work)

    def commands(self, seed: int, work: Path) -> list[Command]:
        scenario = str(self.scenario_path(work))
        if self.name == "relay64-compare":
            svgs = tuple(f"plan_{m.lower()}.svg" for m in MODES)
            return [Command("compare", ("compare", scenario, "--out", str(work / "compare")),
                            "compare", ("compare.csv",) + svgs)]
        if self.name == "hall128-plan":
            return [Command(f"plan.{m}", ("plan", scenario, "--mode", m, "--out",
                                          str(work / f"plan_{m}")),
                            f"plan_{m}", ("plan.json", "plan.svg"))
                    for m in PLAN_MODES]
        return noisy_runs(scenario, self.noise_seeds(seed), work)


def noisy_runs(scenario: str, noise_seeds: list[int], work: Path) -> list[Command]:
    return [Command(f"run.{m}", ("run", scenario, "--mode", m, "--noise-seed", str(n),
                                 "--out", str(work / f"run_{m}_{n}")),
                    f"run_{m}_{n}", ("trace.json", "metrics.csv"))
            for n in noise_seeds for m in RUN_MODES]


WORKLOADS = {w.name: w for w in (
    Workload("relay64-compare", Generated("relay64", 100, 64, 15, 0.5)),
    Workload("hall128-plan", Generated("hall128", 7, 128, 10, 0.1)),
    Workload("fig2-noisy-run", None),
)}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def feasible_scenario(g: Generated) -> Scenario:
    """random_scenario at the recipe's seed, stepping to the next seed while
    the draw is infeasible, the way `relaynet sweep` resamples."""
    for seed in range(g.base_seed, g.base_seed + RESAMPLE_TRIES):
        try:
            sc = random_scenario(seed, g.size, g.size, g.n_goals, g.density)
        except InfeasibleScenarioError:
            continue
        if check_feasibility(sc.map, sc.bs, sc.goals, len(sc.robot_starts), sc.radio).feasible:
            return sc
    raise InfeasibleScenarioError(f"no feasible {g.stem} scenario in {RESAMPLE_TRIES} seeds "
                                  f"from {g.base_seed}")


def symmetric(sc: Scenario, k: int) -> Scenario:
    """Apply symmetry k (0..7) of the square map: bit 0 transposes, bit 1
    mirrors columns, bit 2 mirrors rows. k = 0 is the identity."""
    grid = sc.map
    if grid.width != grid.height:
        raise ValueError("map symmetries need a square map")
    n = grid.width
    mats = grid.materials
    if k & 1:
        mats = mats.T
    if k & 2:
        mats = mats[:, ::-1]
    if k & 4:
        mats = mats[::-1, :]
    new = GridMap(width=n, height=n, resolution=grid.resolution,
                  materials=np.ascontiguousarray(mats))

    def move(p):
        c, r = grid.to_cell(p)
        if k & 1:
            c, r = r, c
        if k & 2:
            c = n - 1 - c
        if k & 4:
            r = n - 1 - r
        return new.to_world((c, r))

    return replace(sc, map=new, bs=move(sc.bs), robot_starts=[move(p) for p in sc.robot_starts],
                   goals=[move(p) for p in sc.goals])


def write_scenario(sc: Scenario, work: Path, stem: str) -> None:
    """Write stem.map and stem.json in the formats `load_scenario` reads.

    The generator draws the default radio with the scenario seed, so only
    the seed is written; every other field keeps its default."""
    (work / f"{stem}.map").write_text(sc.map.serialize())
    doc = {
        "map": f"{stem}.map",
        "bs": list(sc.bs),
        "robot_starts": [list(p) for p in sc.robot_starts],
        "goals": [list(p) for p in sc.goals],
        "seed": sc.radio.seed,
    }
    (work / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
