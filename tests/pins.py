"""CI's pinned checks, each against its recorded value below:

- the planner census: DP and DPA on the 2,890 gated draws of seeds 1-3000
  (24x24, 5 goals, p_tx -16 dBm, visit cap 9), where relay moves with
  uplink children occur, as on no benchmark input. Each mode's plan.json or
  error message feeds that mode's digest in seed order, and each plan is
  executed deterministically. It counts connected runs, runs that reach a
  goal without a link to the base station, deadlocks and planning failures
  by message (variable parts shown as …), and lists the defect seeds.
- the generator digest: random_scenario on 1,200 fixed draws, which must
  stay bit-stable because they feed every sweep and benchmark input.

`PYTHONPATH=src python3 tests/pins.py` runs both (about 2 min on 2 vCPUs),
prints them as JSON, appends a table to $GITHUB_STEP_SUMMARY when that is
set and exits 1 on any difference. A change that alters a pinned value
records the new one here. pytest does not collect this file.
"""

import hashlib
import json
import os
import re
import sys
from collections import Counter
from dataclasses import replace

from relaynet.cli import random_scenario
from relaynet.connectivity import check_feasibility
from relaynet.mission import DeadlockError, InfeasibleScenarioError, execute_mission, plan_deployment
from relaynet.radio import RadioParams

MODES = ("dp", "dpa")
N_GOALS = 5
CENSUS = {
    "draws": 2890,
    "digests": {
        "dp": "fab8dbe484c5934518de4190060c591417e81e21aa31543178b0431a2d27e024",
        "dpa": "93bce673c96fc2a6782895fb6c17cab2ababcf6e36f99ebee61bb9554202b7df",
    },
    "defects": {"dp": [87, 293, 901, 1834, 2029, 2197, 2256, 2303, 2700, 2929], "dpa": []},
    "counts": {
        "dp": {
            "connected": 1463,
            "disconnected": 10,
            "infeasible: DP planning stalled with goals … unplanned": 1133,
            "infeasible: planning failed: goal … unreachable from start …": 26,
            "infeasible: relay synthesis failed for goals …": 258,
        },
        "dpa": {
            "connected": 1925,
            "infeasible: DPA planning made no progress with goals … unplanned: … clusters, "
            "robots left: …; every assigned cluster enters through an unmanned relay post": 45,
            "infeasible: DPA planning ran out of robots with goals … unplanned": 513,
            "infeasible: planning failed: goal … unreachable from start …": 63,
            "infeasible: relay synthesis failed for goals …": 344,
        },
    },
}
GENERATOR = {"raised": 122, "digest": "62df1bc2c93934669e7021c7bdde700a598ec8ec82e2cf436ce66495f3c6c419"}


def draw(seed: int):
    """The census draw for a seed, with visit cap 9, or None when the
    generator raises or the feasibility gate rejects it."""
    try:
        sc = random_scenario(seed, 24, 24, N_GOALS, 0.5, RadioParams(p_tx=-16.0, seed=seed))
    except InfeasibleScenarioError:
        return None
    if not check_feasibility(sc.map, sc.bs, sc.goals, N_GOALS, sc.radio).feasible:
        return None
    return replace(sc, visit_cap=9)


def census(seeds=range(1, 3001)) -> dict:
    """Draw count, per-mode plan digests, defect seeds and outcome counts,
    in the shape of CENSUS."""
    counts, defects, draws = {m: Counter() for m in MODES}, {m: [] for m in MODES}, 0
    digests = {m: hashlib.sha256() for m in MODES}
    for seed in seeds:
        sc = draw(seed)
        if sc is None:
            continue
        draws += 1
        for mode in MODES:
            try:
                plan = plan_deployment(sc, mode)
            except InfeasibleScenarioError as e:
                digests[mode].update(f"{seed}\nInfeasibleScenarioError: {e}\n".encode())
                counts[mode]["infeasible: " + re.sub(r"[\[(][^\])]*[\])]+|-?\d+(\.\d+)?", "…", str(e))] += 1
                continue
            digests[mode].update(f"{seed}\n{plan.to_json()}\n".encode())
            try:
                trace = execute_mission(plan, sc)
            except DeadlockError:
                outcome = "deadlocked"
            else:
                cut = any(e.kind == "goal-reached" and not e.data["connected"] for e in trace.events)
                outcome = "disconnected" if cut else "connected"
            counts[mode][outcome] += 1
            if outcome != "connected":
                defects[mode].append(seed)
    return {"draws": draws, "digests": {m: d.hexdigest() for m, d in digests.items()}, "defects": defects,
            "counts": {m: dict(sorted(c.items())) for m, c in counts.items()}}


def generator() -> dict:
    """How many of the 1,200 fixed draws raise, and the digest of every
    draw's map, base station, starts and goals or error message."""
    digest, raised = hashlib.sha256(), 0
    for seed in range(50):
        for w, h in ((16, 16), (40, 24), (64, 64), (128, 128)):
            for density in (0.1, 0.5, 0.9):
                for n_goals in (4, 10):
                    try:
                        sc = random_scenario(seed, w, h, n_goals, density)
                        out = f"{sc.map.serialize()}{sc.bs!r} {sc.robot_starts!r} {sc.goals!r}"
                    except InfeasibleScenarioError as e:
                        out, raised = f"InfeasibleScenarioError: {e}", raised + 1
                    digest.update(f"{seed} {w} {h} {density} {n_goals}\n{out}\n".encode())
    return {"raised": raised, "digest": digest.hexdigest()}


def census_table(got: dict) -> list[str]:
    """The job-summary table of a census result against CENSUS; its first
    line says whether they are equal."""
    lines = [f"planner census: {got['draws']} draws, {'as recorded' if got == CENSUS else 'MISMATCH'}", "",
             "| mode | outcome | count | recorded |", "| --- | --- | --- | --- |"]
    for mode in MODES:
        have, want = got["counts"][mode], CENSUS["counts"][mode]
        for key in sorted(set(have) | set(want)):
            lines.append(f"| {mode} | {key} | {have.get(key, 0)} | {want.get(key, 0)} |")
        lines.append(f"| {mode} | defect seeds | {got['defects'][mode]} | {CENSUS['defects'][mode]} |")
        lines.append(f"| {mode} | plan digest | `{got['digests'][mode]}` | `{CENSUS['digests'][mode]}` |")
    return lines


def main() -> int:
    got = {"census": census(), "generator": generator()}
    print(json.dumps(got, indent=1, ensure_ascii=False))
    ok = got == {"census": CENSUS, "generator": GENERATOR}
    lines = [f"pinned checks: {'as recorded' if ok else 'MISMATCH'}", "", *census_table(got["census"])]
    lines += [f"| generator | {key} | {got['generator'][key]} | {want} |" for key, want in GENERATOR.items()]
    with open(os.environ.get("GITHUB_STEP_SUMMARY", os.devnull), "a") as f:
        f.write("\n".join(lines) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
