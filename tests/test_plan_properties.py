"""Property tests of the wave planners (DP-FMM and DPA-FMM) over small
random scenarios (the planner census draws of pins.py), with DPA-FMM's
visit cap below and above the number of goals, a slice of the census
itself, and the cluster split that promotes far goals to destinations."""

import functools
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaynet.connectivity import movement_cost
from relaynet.mission import (
    InfeasibleScenarioError,
    _Planner,
    _split_to_cap,
    _Tx,
    execute_mission,
    plan_deployment,
)

import helpers
import pins
from conftest import fig2_map

N_GOALS = pins.N_GOALS
FIG2 = fig2_map()
FREE_POINTS = [FIG2.to_world((c, r)) for r in range(FIG2.height) for c in range(FIG2.width)
               if FIG2.is_free_cell((c, r))]


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.sampled_from(FREE_POINTS), min_size=2, max_size=10, unique=True),
       n_posts=st.integers(0, 3), cap=st.sampled_from([0, 1, 2, 9]), data=st.data())
def test_split_to_cap_places_every_waypoint_once_under_the_cap(points, n_posts, cap, data):
    entry, posts = points[0], points[1:1 + n_posts]
    waypoints = points[1 + n_posts:]
    assume(waypoints or posts)
    wp_ids = sorted(data.draw(st.lists(st.integers(0, 50), min_size=len(waypoints),
                                       max_size=len(waypoints), unique=True)))
    clusters, dest_goal, ids = _split_to_cap(FIG2, entry, posts, waypoints, wp_ids, cap)

    # posts first, then promoted goals; a destination for every cluster
    assert clusters and [cl.destination_index for cl in clusters] == list(range(len(clusters)))
    assert dest_goal[:len(posts)] == [None] * len(posts)
    promoted = dest_goal[len(posts):]
    assert all(len(cl.waypoints) <= cap for cl in clusters)
    placed = [ids[i] for cl in clusters for i in cl.waypoint_indices]
    assert sorted(placed + promoted) == wp_ids
    assert ids == [g for g in wp_ids if g not in promoted]
    if not posts:
        pos = dict(zip(wp_ids, waypoints))
        far = max(wp_ids, key=lambda g: (round(movement_cost(FIG2, entry, pos[g]), 9), -g))
        assert promoted[0] == far


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(1, 10_000),
       mode_cap=st.sampled_from([("dp", 9), ("dpa", 1), ("dpa", 2), ("dpa", 9)]))
def test_wave_plan_visits_every_goal_once_and_completes_connected(seed, mode_cap):
    mode, cap = mode_cap
    sc = pins.draw(seed)
    assume(sc is not None)
    sc = replace(sc, visit_cap=cap)
    try:
        plan = plan_deployment(sc, mode)
    except InfeasibleScenarioError:
        assume(False)

    visited = sorted(seg.goal_index for segs in plan.robots for seg in segs
                     if seg.purpose == "primary-goal")
    assert visited == list(range(N_GOALS))

    trace = execute_mission(plan, sc)
    assert trace.completed
    assert trace.reached_goals == set(range(N_GOALS))
    events = [e for e in trace.events if e.kind == "goal-reached"]
    assert events and all(e.data["connected"] for e in events)

    assert plan_deployment(sc, mode).to_json() == plan.to_json()


def test_census_slice_meets_only_recorded_outcomes():
    # seeds 1-40 hold 38 draws and come before the first defect seed (87)
    got = pins.census(range(1, 41))
    assert got["draws"] == 38
    for mode in pins.MODES:
        assert set(got["counts"][mode]) <= set(pins.CENSUS["counts"][mode])
        assert got["defects"][mode] == []
    # a cut run is a mismatch, so it cannot pass for the whole census
    assert got != pins.CENSUS
    assert pins.census_table(got)[0] == "planner census: 38 draws, MISMATCH"


@pytest.mark.parametrize("parents, inactive, expected", [
    ([None, 0, 1, 1, 0], set(), []),        # a tree
    ([None, 0, 3, 2, 0], set(), [2, 3]),    # 2 and 3 uplink to each other
    ([None, 0, 1, 0], {1}, [2]),            # 2 hangs under the inactive 1
])
def test_uplink_tree_problems(parents, inactive, expected):
    txs = [_Tx((i + 0.5, 0.5), (i, 0), None if i == 0 else i - 1, p, i not in inactive)
           for i, p in enumerate(parents)]
    assert helpers.uplink_tree_problems(txs) == expected


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known DP-FMM defect: a committed relay move leaves a cycle in the "
                          "uplink tree (seed 87: transmitters 3 and 5; 293: 4 and 5; 2256: 3, 5 "
                          "and 4), and goals are reached with connected False (87: goal 4 at "
                          "tick 83; 293: goal 4 at tick 109; 2256: goal 3 at tick 78 and goal 2 "
                          "at tick 81)")
@pytest.mark.parametrize("seed", [87, 293, 2256])
def test_dp_plan_at_defect_seed_reaches_every_goal_connected(seed):
    sc = pins.draw(seed)
    assert sc is not None
    log = []
    with mock.patch.object(_Planner, "relocate", _logging(_Planner.relocate, log)):
        plan = plan_deployment(sc, "dp")
    # after each committed relay move, every active transmitter reaches the base
    problems = [(k, helpers.uplink_tree_problems(txs)) for k, (moved, txs) in enumerate(log) if moved]
    assert [(k, bad) for k, bad in problems if bad] == []
    trace = execute_mission(plan, sc)
    assert trace.completed
    assert trace.reached_goals == set(range(N_GOALS))
    events = [e for e in trace.events if e.kind == "goal-reached"]
    assert [(e.tick, e.data["goal"]) for e in events if not e.data["connected"]] == []


def _dp_outcome(sc) -> str:
    try:
        return plan_deployment(sc, "dp").to_json()
    except InfeasibleScenarioError as e:
        return str(e)


def _logging(relocate, log: list):
    """relocate, logging its answer and the planner's transmitters after each call."""
    def logged(pl, robot, post):
        moved = relocate(pl, robot, post)
        log.append((moved, [replace(t) for t in pl.txs]))
        return moved
    return logged


# seeds whose DP planning moves relays that have uplink children: to the new
# post (1, 59, 62, 241, 281), to a settled transmitter (12, 62, 87, 241, 281);
# seed 62 ends in "DP planning stalled with goals [0] unplanned"
@pytest.mark.parametrize("seed", [1, 12, 59, 62, 87, 241, 281])
def test_relocate_equals_the_rewire_reference(seed):
    sc = pins.draw(seed)
    rehomes: list[dict] = []
    reference = functools.partial(helpers.relocate_reference, rehomes=rehomes)
    expected_log, log = [], []
    with mock.patch.object(_Planner, "relocate", _logging(reference, expected_log)):
        expected = _dp_outcome(sc)
    assert any(rehomes)  # some committed move re-homed a child
    with mock.patch.object(_Planner, "relocate", _logging(_Planner.relocate, log)):
        assert _dp_outcome(sc) == expected
    # the plan need not show a parent, so every transmitter is compared too
    assert log == expected_log
