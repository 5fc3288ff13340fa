"""Output checks for every command the benchmark runs.

A command fails when it exits non-zero, raises, or when one of its
artefacts is missing, differs from the hash recorded in expected.json,
differs from the same artefact in an earlier pass of the run, or shows a
goal left unreached or a deployment-planned (DP-FMM, DPA-FMM) goal event
without a link to the base station.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

DP_MODES = ("DP-FMM", "DPA-FMM")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_problems(label: str, n_goals: int, completed: bool, reached, events,
                   require_link: bool, partial: bool = False) -> list[str]:
    """Unreached goals, and, where require_link, goal events without a link."""
    problems = []
    if not partial and (not completed or set(reached) != set(range(n_goals))):
        problems.append(f"{label} left goals "
                        f"{sorted(set(range(n_goals)) - set(reached))} unreached")
    if require_link:
        cut = [e for e in events if e["kind"] == "goal-reached" and not e["data"]["connected"]]
        if cut:
            problems.append(f"{label} reached goals {[e['data']['goal'] for e in cut]} "
                            "without a link to the base station")
    return problems


class ExecutionLog:
    """Checks every execute_mission call made while its wrapper is installed;
    the trace of a compare is never written out, so this is the only place
    its goal events can be seen."""

    def __init__(self):
        self.problems: list[str] = []

    def wrap(self, execute_mission):
        @functools.wraps(execute_mission)
        def checked(plan, scenario, *args, **kwargs):
            trace = execute_mission(plan, scenario, *args, **kwargs)
            until = kwargs.get("until_tick", args[1] if len(args) > 1 else None)
            self.problems += trace_problems(
                f"{plan.mode} execution", len(scenario.goals), trace.completed,
                trace.reached_goals, [e.to_dict() for e in trace.events],
                require_link=plan.mode in DP_MODES, partial=until is not None)
            return trace
        return checked

    def drain(self) -> list[str]:
        problems, self.problems = self.problems, []
        return problems


class Checker:
    """Checks each command's artefacts; keeps the first pass's hashes so
    later passes must repeat them byte for byte."""

    def __init__(self, work: Path, expected: dict[str, str], n_goals: int):
        self.work = work
        self.expected = expected
        self.n_goals = n_goals
        self.first: dict[str, str] = {}
        self.executions = ExecutionLog()

    def check(self, cmd, rc) -> list[str]:
        problems = self.executions.drain()
        if rc != 0:
            return problems + [f"exit status {rc!r}"]
        complete = True
        for name in cmd.artefacts:
            rel = f"{cmd.out}/{name}"
            path = self.work / rel
            if not path.is_file():
                problems.append(f"{rel} missing")
                complete = False
                continue
            digest = sha256(path)
            if rel not in self.expected:
                problems.append(f"{rel} has no recorded hash")
            elif digest != self.expected[rel]:
                problems.append(f"{rel} differs from its recorded hash")
            if self.first.setdefault(rel, digest) != digest:
                problems.append(f"{rel} differs from the first pass")
        if complete:
            try:
                problems += self.content_problems(cmd)
            except (ValueError, KeyError, TypeError) as e:
                problems.append(f"{cmd.out} artefacts unreadable: {e!r}")
        return problems

    def content_problems(self, cmd) -> list[str]:
        out = self.work / cmd.out
        kind = cmd.argv[0]
        if kind == "plan":
            plan = json.loads((out / "plan.json").read_text())
            planned = {seg["goal_index"] for segs in plan["robots"] for seg in segs
                       if seg["purpose"] == "primary-goal"}
            missing = sorted(set(range(self.n_goals)) - planned)
            return [f"{plan['mode']} plan leaves goals {missing} unassigned"] if missing else []
        if kind == "run":
            trace = json.loads((out / "trace.json").read_text())
            # under noise a goal only counts while the robot is linked, in every mode
            return trace_problems(f"{cmd.out}/trace.json", self.n_goals, trace["completed"],
                                  trace["reached_goals"], trace["events"], require_link=True)
        rows = (out / "compare.csv").read_text().splitlines()[1:]
        failed = [r.split(",")[0] for r in rows if "NA" in r.split(",")]
        return [f"compare has no result for {failed}"] if failed or len(rows) != 4 else []
