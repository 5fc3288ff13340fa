"""Property test of the tick core: execute_mission must return, log and
raise exactly as the one-loop oracle in helpers does, on the plans of all
four modes over small random scenarios, and on the same plans with wait
gates (some never met) and zero-length moves spliced in."""

import functools
import json
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaynet.cli import random_scenario
from relaynet.eikonal import Path
from relaynet.mission import (
    MODES,
    DeadlockError,
    DeploymentPlan,
    InfeasibleScenarioError,
    PlanSegment,
    execute_mission,
    plan_deployment,
)
from relaynet.radio import RadioParams

from helpers import execute_mission_reference


@functools.lru_cache(maxsize=None)
def _planned(seed: int, mode: str):
    """The scenario of seed and its plan under mode, or None when either
    fails; odd seeds get a weaker radio, under which noisy runs stall."""
    size = 16 + seed % 5
    try:
        sc = random_scenario(seed, size, size, 3 + seed // 2 % 2, 0.3,
                             RadioParams(p_tx=-16.0 - 4.0 * (seed % 2), seed=seed))
        return sc, plan_deployment(sc, mode)
    except InfeasibleScenarioError:
        return None


@st.composite
def _spliced(draw, sc, plan):
    """plan with a wait-until, a zero-length move or nothing drawn into each
    gap of each robot's segments, its end included: a wait names arrivals at
    cells robots start on or move to, or at a cell no plan reaches; a
    zero-length move stays where the robot already is."""
    grid = sc.map
    cells = [(r, grid.to_cell(p)) for r, p in enumerate(sc.robot_starts)]
    cells += [(r, tuple(s.post)) for r, segs in enumerate(plan.robots) for s in segs
              if s.post is not None]
    never = (len(sc.robot_starts), (0, 0))  # no robot has this index
    robots = []
    for r, segs in enumerate(plan.robots):
        here, spliced = sc.robot_starts[r], []
        for seg in segs + [None]:
            kind = draw(st.sampled_from([None, "wait", "zero"]))
            if kind == "wait":
                conds = draw(st.lists(st.sampled_from(cells + [never]), min_size=1, max_size=2))
                spliced.append(PlanSegment(purpose="wait-until", wait_for=conds))
            elif kind == "zero":
                goal = draw(st.sampled_from([None] + list(range(len(sc.goals)))))
                spliced.append(PlanSegment(purpose="relay-move" if goal is None else "primary-goal",
                                           path=Path([here, here], 0.0), goal_index=goal,
                                           post=grid.to_cell(here)))
            if seg is not None:
                spliced.append(seg)
                here = seg.path.points[-1] if seg.path is not None else here
        robots.append(spliced)
    return DeploymentPlan(plan.mode, robots)


def _view(trace):
    return None if trace is None else (trace.to_json(), trace.active, trace.completed,
                                       trace.reached_goals)


def _outcome(execute, plan, sc, **kwargs):
    """What an execution shows: its trace, or its error's type, message,
    waiting robots and trace."""
    try:
        return _view(execute(plan, sc, **kwargs))
    except Exception as e:  # both sides must fail alike, whatever the error
        return type(e), str(e), getattr(e, "waiting", None), _view(getattr(e, "trace", None))


@settings(max_examples=120, deadline=None)
# the wave modes, whose plans hold wait gates, come up three times as often
@given(seed=st.integers(0, 29), mode=st.sampled_from(MODES) | st.sampled_from(MODES[2:]),
       splice=st.booleans(),
       noise_seed=st.none() | st.integers(0, 50),
       hold_limit=st.integers(0, 30), speed=st.sampled_from([None, 0.2, 0.35, 0.5, 0.8, 1.3]),
       data=st.data())
def test_execute_mission_equals_the_one_loop_oracle(seed, mode, splice, noise_seed, hold_limit,
                                                    speed, data):
    planned = _planned(seed, mode)
    assume(planned is not None)
    sc, plan = planned
    sc = replace(sc, robot_speed=speed)
    if splice:
        plan = data.draw(_spliced(sc, plan))
    kwargs = dict(noise_seed=noise_seed, hold_limit=hold_limit)
    outcome = _outcome(execute_mission, plan, sc, **kwargs)
    assert outcome == _outcome(execute_mission_reference, plan, sc, **kwargs)
    if outcome[0] is DeadlockError:
        # a deadlock's trace is the run cut at the deadlock tick
        ticks = json.loads(outcome[3][0])["ticks"]
        assert outcome[3] == _view(execute_mission_reference(plan, sc, **kwargs, until_tick=ticks))
