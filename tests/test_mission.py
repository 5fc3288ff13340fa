import dataclasses
import functools
import logging
import math

import numpy as np
import pytest

from relaynet import mission, radio
from relaynet.eikonal import Path
from relaynet.mission import (
    MODES,
    DeadlockError,
    DeploymentPlan,
    GoalConnectivityStallError,
    InfeasibleScenarioError,
    MissionTrace,
    PlanSegment,
    ReplanBudgetError,
    Scenario,
    compute_metrics,
    execute_mission,
    normalize_mode,
    plan_deployment,
    replan,
    run_with_replan,
)
from relaynet.radio import RadioParams

import helpers
from conftest import corridor_scenario, fig2_scenario, make_map, open_map


def relay_chain_scenario():
    """Two-lane hallway where the second goal is covered only from the first.

    The first goal sits in the other lane, so the robot parked there never
    blocks the second robot's straight 7.5 m run along its own lane.
    """
    rows = ["#" * 20, "." * 20, "." * 20, "#" * 20]
    grid = make_map(rows)
    params = RadioParams(p_tx=-70.0 + 40.0 + 20.0 * math.log10(5.0), n_los=2.0, n_nlos=2.0)
    return Scenario(
        map=grid,
        bs=grid.to_world((0, 1)),
        robot_starts=[grid.to_world((1, 2)), grid.to_world((2, 1))],
        goals=[grid.to_world((8, 1)), grid.to_world((16, 2))],
        radio=params,
    )


class TestModeNormalization:
    @pytest.mark.parametrize("alias,canonical", [
        ("fmm", "FMM"), ("FMM", "FMM"), ("ca", "CA-FMM"), ("CA-FMM", "CA-FMM"),
        ("dp", "DP-FMM"), ("dpa", "DPA-FMM"), ("DPA-fmm", "DPA-FMM"),
        # every alias in mixed case with surrounding space
        (" fMm ", "FMM"), ("\tcA", "CA-FMM"), ("CaFmM ", "CA-FMM"), (" cA-FmM\n", "CA-FMM"),
        ("dP  ", "DP-FMM"), ("  DpFmM", "DP-FMM"), ("\ndP-fMm\t", "DP-FMM"),
        (" DpA ", "DPA-FMM"), ("dPaFmM\t", "DPA-FMM"), ("  dPa-FmM  ", "DPA-FMM"),
    ])
    def test_aliases(self, alias, canonical):
        assert normalize_mode(alias) == canonical

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            normalize_mode("dijkstra")

    def test_exactly_the_ten_aliases(self):
        # each mode by its name, its name without the dash, or its first word
        assert mission._MODE_ALIASES == {
            "fmm": "FMM", "ca": "CA-FMM", "cafmm": "CA-FMM", "ca-fmm": "CA-FMM",
            "dp": "DP-FMM", "dpfmm": "DP-FMM", "dp-fmm": "DP-FMM",
            "dpa": "DPA-FMM", "dpafmm": "DPA-FMM", "dpa-fmm": "DPA-FMM"}

    @pytest.mark.parametrize("near_miss", ["c-a", "dpa-", "fmm-ca", "", " ", "dp fmm", "ca_fmm"])
    def test_near_miss_rejected(self, near_miss):
        with pytest.raises(ValueError, match="unknown mode"):
            normalize_mode(near_miss)


class TestDegenerateScenario:
    def test_all_modes_agree_on_single_covered_goal(self):
        grid = open_map(20, 9)
        sc = Scenario(map=grid, bs=grid.to_world((9, 4)),
                      robot_starts=[grid.to_world((4, 4))],
                      goals=[grid.to_world((16, 4))],
                      radio=RadioParams())
        straight = 6.0
        for mode in ("FMM", "CA-FMM", "DP-FMM", "DPA-FMM"):
            plan = plan_deployment(sc, mode)
            assert plan.robots_used == 1
            moves = [s for s in plan.robots[0] if s.purpose != "wait-until"]
            assert len(moves) == 1
            assert moves[0].purpose == "primary-goal"
            assert abs(moves[0].path.length - straight) <= 0.25
            assert moves[0].path.points[-1] == grid.to_world((16, 4))
            waits = [s for s in plan.robots[0] if s.purpose == "wait-until"]
            assert not waits

    def test_stationary_robot_completes_at_tick_zero(self):
        grid = open_map(10, 5)
        sc = Scenario(map=grid, bs=grid.to_world((2, 2)),
                      robot_starts=[grid.to_world((4, 2))],
                      goals=[grid.to_world((4, 2))],
                      radio=RadioParams())
        plan = plan_deployment(sc, "FMM")
        trace = execute_mission(plan, sc)
        assert trace.ticks == 0
        events = [e for e in trace.events if e.kind == "goal-reached"]
        assert len(events) == 1
        assert events[0].tick == 0

    @pytest.mark.parametrize("robots", [0, 2])
    def test_plan_for_another_robot_count_rejected(self, robots):
        grid = open_map(10, 5)
        sc = Scenario(map=grid, bs=grid.to_world((2, 2)), robot_starts=[grid.to_world((4, 2))],
                      goals=[grid.to_world((6, 2))], radio=RadioParams())
        with pytest.raises(ValueError, match=f"plan covers {robots} robots, scenario has 1"):
            execute_mission(DeploymentPlan("FMM", [[] for _ in range(robots)]), sc)

    def test_metrics_of_an_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            compute_metrics(MissionTrace([], [], [], [], [], set(), False), DeploymentPlan("FMM", []))


class TestWaitSemantics:
    def test_wait_release_tick_equals_relay_arrival(self):
        sc = relay_chain_scenario()
        plan = plan_deployment(sc, "DP-FMM")
        # robot 1 (closer) takes goal 0 without waiting; robot 0 waits on it
        segs0, segs1 = plan.robots
        assert segs1[0].purpose == "primary-goal"
        assert segs0[0].purpose == "wait-until"
        assert segs0[0].wait_for == [(1, (8, 1))]

        trace = execute_mission(plan, sc)
        goal0 = next(e for e in trace.events
                     if e.kind == "goal-reached" and e.data["goal"] == 0)
        wait_end = next(e for e in trace.events if e.kind == "wait-end" and e.robot == 0)
        # hand arithmetic: robot 1 covers 3.0 m at 0.5 m/tick
        assert goal0.tick == 6
        assert wait_end.tick == goal0.tick
        goal1 = next(e for e in trace.events
                     if e.kind == "goal-reached" and e.data["goal"] == 1)
        # robot 0 departs the next tick and covers 7.5 m
        assert goal1.tick == 6 + 15
        assert trace.ticks == 21
        assert goal1.data["connected"]

    def test_wave_order_follows_chain_depth(self):
        rows = ["#" * 34, "." * 34, "." * 34, "#" * 34]
        grid = make_map(rows)
        params = RadioParams(p_tx=-70.0 + 40.0 + 20.0 * math.log10(5.0),
                             n_los=2.0, n_nlos=2.0)
        sc = Scenario(map=grid, bs=grid.to_world((0, 1)),
                      robot_starts=[grid.to_world((1, 1)), grid.to_world((2, 2)),
                                    grid.to_world((1, 2))],
                      goals=[grid.to_world((9, 1)), grid.to_world((18, 2)),
                             grid.to_world((27, 1))],
                      radio=params)
        plan = plan_deployment(sc, "DP-FMM")
        trace = execute_mission(plan, sc)
        order = [e.data["goal"] for e in trace.events if e.kind == "goal-reached"]
        assert order == [0, 1, 2]
        for e in trace.events:
            if e.kind == "goal-reached":
                assert e.data["connected"]

    def test_deadlock_detected(self):
        grid = open_map(10, 5)
        sc = Scenario(map=grid, bs=grid.to_world((0, 2)),
                      robot_starts=[grid.to_world((2, 2)), grid.to_world((4, 2))],
                      goals=[grid.to_world((6, 2)), grid.to_world((8, 2))],
                      radio=RadioParams())
        dummy = Path(points=[grid.to_world((2, 2)), grid.to_world((6, 2))], length=2.0)
        bad = DeploymentPlan(mode="FMM", robots=[
            [PlanSegment(purpose="wait-until", wait_for=[(1, (8, 2))]),
             PlanSegment(purpose="primary-goal", path=dummy, goal_index=0, post=(6, 2))],
            [PlanSegment(purpose="wait-until", wait_for=[(0, (6, 2))]),
             PlanSegment(purpose="primary-goal", path=dummy, goal_index=1, post=(8, 2))],
        ])
        with pytest.raises(DeadlockError, match="at tick 1") as exc:
            execute_mission(bad, sc)
        assert 0 in exc.value.waiting and 1 in exc.value.waiting
        trace = exc.value.trace
        assert trace.ticks == 1 and not trace.completed
        assert [(e.tick, e.kind, e.robot) for e in trace.events] == [(1, "wait-start", 0),
                                                                     (1, "wait-start", 1)]


class TestFig2Pipelines:
    def test_dp_hard_connectivity_at_goal_events(self, fig2):
        plan = plan_deployment(fig2, "DP-FMM")
        trace = execute_mission(plan, fig2)
        events = [e for e in trace.events if e.kind == "goal-reached"]
        assert len(events) == 6
        assert all(e.data["connected"] for e in events)
        met = compute_metrics(trace, plan)
        assert met.c_min == 1.0

    def test_dpa_uses_fewer_robots(self, fig2):
        dp = plan_deployment(fig2, "DP-FMM")
        dpa = plan_deployment(fig2, "DPA-FMM")
        assert dpa.robots_used < len(fig2.goals)
        assert dpa.robots_used <= dp.robots_used
        trace = execute_mission(dpa, fig2)
        assert trace.reached_goals == set(range(6))

    def test_dpa_disconnects_only_in_motion(self, fig2):
        # touring robots may drop the link between goals but never at a goal
        dpa = plan_deployment(fig2, "DPA-FMM")
        trace = execute_mission(dpa, fig2)
        met = compute_metrics(trace, dpa)
        assert met.c_min < 1.0
        for e in trace.events:
            if e.kind == "goal-reached":
                assert e.data["connected"]

    def test_goal_endpoints_partition_goals(self, fig2):
        for mode in ("FMM", "CA-FMM", "DP-FMM", "DPA-FMM"):
            plan = plan_deployment(fig2, mode)
            seen = []
            for segs in plan.robots:
                for s in segs:
                    if s.purpose == "primary-goal":
                        seen.append(s.goal_index)
                        assert s.path.points[-1] == fig2.goals[s.goal_index]
            assert sorted(seen) == list(range(6))

    def test_relay_endpoints_match_plan(self, fig2):
        plan = plan_deployment(fig2, "DP-FMM")
        for segs in plan.robots:
            for s in segs:
                if s.purpose == "relay-move":
                    assert s.post is not None
                    assert fig2.map.to_cell(s.path.points[-1]) == tuple(s.post)

    def test_relay_move_plans_over_the_old_post(self, fig2, monkeypatch):
        # the robot's old post stays a source until it leaves, so its relay
        # leg plans over that post's coverage
        calls = {}
        real = mission.ca_fmm_path

        def record(book, start, goal, relay_sources, *args, **kwargs):
            calls[(tuple(start), tuple(goal))] = [tuple(p) for p in relay_sources]
            return real(book, start, goal, relay_sources, *args, **kwargs)

        monkeypatch.setattr(mission, "ca_fmm_path", record)
        plan = plan_deployment(fig2, "DP-FMM")
        movers = []
        for r, segs in enumerate(plan.robots):
            moves = [s for s in segs if s.path is not None]
            for prev, s in zip(moves, moves[1:]):
                if s.purpose == "relay-move":
                    movers.append(r)
                    old_post = tuple(prev.post)
                    assert fig2.map.to_world(old_post) in calls[(old_post, tuple(s.post))]
        assert movers == [2, 3, 5]

    def test_ca_paths_not_shorter_than_fmm(self, fig2):
        fmm = plan_deployment(fig2, "FMM")
        ca = plan_deployment(fig2, "CA-FMM")
        for r in range(6):
            lf = sum(s.path.length for s in fmm.robots[r] if s.path)
            lc = sum(s.path.length for s in ca.robots[r] if s.path)
            assert lc >= lf - fig2.map.resolution / 2

    def test_trace_conserves_planned_distance(self, fig2):
        plan = plan_deployment(fig2, "DP-FMM")
        trace = execute_mission(plan, fig2)
        for r in range(6):
            planned = sum(s.path.length for s in plan.robots[r] if s.path is not None)
            travelled = 0.0
            for t in range(1, len(trace.positions)):
                ax, ay = trace.positions[t - 1][r]
                bx, by = trace.positions[t][r]
                travelled += math.hypot(bx - ax, by - ay)
            assert abs(travelled - planned) <= fig2.speed() + 1e-6

    def test_execution_deterministic(self, fig2):
        p1 = plan_deployment(fig2, "DPA-FMM")
        p2 = plan_deployment(fig2, "DPA-FMM")
        assert p1.to_json() == p2.to_json()
        t1 = execute_mission(p1, fig2)
        t2 = execute_mission(p2, fig2)
        assert t1.to_json() == t2.to_json()

    def test_deterministic_links_never_reach_path_loss(self, fig2, monkeypatch):
        # every deterministic link is priced by the coverage book's batched
        # pricer; only a noisy tick calls path_loss
        def boom(*args, **kwargs):
            raise AssertionError("path_loss called on a deterministic link")

        monkeypatch.setattr(radio, "path_loss", boom)
        for mode in MODES:
            plan = plan_deployment(fig2, mode)
            assert execute_mission(plan, fig2).reached_goals == set(range(6))

    def test_noise_same_seed_reproducible(self, fig2):
        plan = plan_deployment(fig2, "DP-FMM")
        t1 = execute_mission(plan, fig2, noise_seed=7)
        t2 = execute_mission(plan, fig2, noise_seed=7)
        assert t1.to_json() == t2.to_json()


class TestReplan:
    def test_idempotent_when_nothing_changed(self, fig2):
        base = plan_deployment(fig2, "DPA-FMM")
        _, again = replan(fig2, set(), fig2.robot_starts)
        assert again.to_json() == base.to_json()

    def test_all_goals_reached_gives_empty_plan(self, fig2):
        _, plan = replan(fig2, set(range(6)), fig2.robot_starts)
        assert plan.robots_used == 0
        assert all(not segs for segs in plan.robots)

    def test_infeasible_scenario_raises_with_report(self):
        sc = corridor_scenario(70, d_cov=10.0, n_robots=3, goal_cols=[66])
        with pytest.raises(InfeasibleScenarioError) as exc:
            plan_deployment(sc, "DP-FMM")
        assert exc.value.report is not None
        assert exc.value.report.ratio > 3.0

    def test_committed_relays_keep_posts(self, fig2):
        base = plan_deployment(fig2, "DPA-FMM")
        relay_robot, post = next(
            (r, s.post) for r, segs in enumerate(base.robots)
            for s in segs if s.purpose == "relay-move")
        post_pos = fig2.map.to_world(tuple(post))
        positions = list(fig2.robot_starts)
        positions[relay_robot] = post_pos
        _, plan = replan(fig2, {0, 1}, positions,
                         committed_relays=((relay_robot, post_pos),))
        assert plan.robots[relay_robot] == []  # holds its post, no new tasks
        seen = {s.goal_index for segs in plan.robots for s in segs
                if s.purpose == "primary-goal"}
        assert seen == set(range(4))  # the four remaining goals, reindexed


class TestRunWithReplan:
    """run_with_replan, which appends each attempt to one trace, against
    helpers.run_with_replan_reference, which merged a list of traces at the
    end. fig2 under noise stalls once at the default hold limit of 25
    ticks; at a hold limit of 0, noise seed 3 stalls twice and noise seed 0
    more than five times."""

    @staticmethod
    def hold(monkeypatch, limit: int) -> None:
        run = functools.partial(execute_mission, hold_limit=limit)
        monkeypatch.setattr(mission, "execute_mission", run)
        monkeypatch.setattr(helpers, "execute_mission", run)

    @pytest.mark.parametrize("mode", ["fmm", "ca-fmm"])
    @pytest.mark.parametrize("noise_seed, hold_limit, replans", [(0, 25, 1), (5, 25, 1), (3, 0, 2)])
    def test_equals_the_merging_reference(self, monkeypatch, caplog, mode, noise_seed,
                                          hold_limit, replans):
        self.hold(monkeypatch, hold_limit)
        with caplog.at_level(logging.INFO, logger="relaynet"):
            trace, plan, count = run_with_replan(fig2_scenario(), mode, noise_seed)
        ref_trace, ref_plan, ref_count = helpers.run_with_replan_reference(
            fig2_scenario(), mode, noise_seed)
        assert count == ref_count == replans
        assert trace.to_json() == ref_trace.to_json()
        assert trace == ref_trace  # also the active flags, which the JSON leaves out
        assert plan.to_json() == ref_plan.to_json()
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("replan ")]
        assert [m.split(":")[0] for m in logged] == [f"replan {k}" for k in range(1, replans + 1)]

    @pytest.mark.parametrize("mode, noise_seed, hold_limit, budget", [
        ("fmm", 0, 25, 0), ("ca-fmm", 0, 25, 0), ("fmm", 0, 0, 5), ("fmm", 3, 0, 1)])
    def test_budget_exhaustion_equals_the_reference(self, monkeypatch, mode, noise_seed,
                                                    hold_limit, budget):
        self.hold(monkeypatch, hold_limit)
        with pytest.raises(ReplanBudgetError) as ours:
            run_with_replan(fig2_scenario(), mode, noise_seed, budget=budget)
        with pytest.raises(ReplanBudgetError) as ref:
            helpers.run_with_replan_reference(fig2_scenario(), mode, noise_seed, budget=budget)
        assert str(ours.value) == str(ref.value)
        stall, ref_stall = ours.value.__cause__, ref.value.__cause__
        assert isinstance(stall, GoalConnectivityStallError)
        assert str(stall) == str(ref_stall)
        assert stall.trace == ref_stall.trace


class TestNoiseHold:
    def test_uncovered_goal_stalls_under_noise(self):
        from relaynet.mission import GoalConnectivityStallError

        grid = open_map(60, 5)
        sc = Scenario(map=grid, bs=grid.to_world((1, 2)),
                      robot_starts=[grid.to_world((2, 2))],
                      goals=[grid.to_world((55, 2))],
                      radio=RadioParams(p_tx=-25.0, seed=1))  # ~2 m range
        plan = plan_deployment(sc, "FMM")
        trace = execute_mission(plan, sc)          # noise off: event fires anyway
        event = next(e for e in trace.events if e.kind == "goal-reached")
        assert not event.data["connected"]
        with pytest.raises(GoalConnectivityStallError) as exc:
            execute_mission(plan, sc, noise_seed=3, hold_limit=4)
        assert exc.value.trace.reached_goals == set()

    def test_stall_carries_the_until_tick_trace(self, fig2):
        from relaynet.mission import GoalConnectivityStallError

        plan = plan_deployment(fig2, "FMM")
        with pytest.raises(GoalConnectivityStallError) as exc:
            execute_mission(plan, fig2, noise_seed=0)
        stall = exc.value
        rerun = helpers.execute_mission_reference(plan, fig2, noise_seed=0,
                                                  until_tick=stall.trace.ticks)
        assert not stall.trace.completed
        assert stall.trace == rerun
        assert stall.trace.to_json() == rerun.to_json()


class TestMetrics:
    def test_single_robot_straight_run(self):
        grid = open_map(26, 5)
        sc = Scenario(map=grid, bs=grid.to_world((2, 2)),
                      robot_starts=[grid.to_world((2, 2))],
                      goals=[grid.to_world((22, 2))],
                      radio=RadioParams(), robot_speed=1.0)
        plan = plan_deployment(sc, "FMM")
        trace = execute_mission(plan, sc)
        met = compute_metrics(trace, plan)
        assert met.d_max == pytest.approx(10.0, abs=0.3)
        assert met.d_tot == met.d_max
        assert met.time_ticks == 10
        assert met.c_mean == 1.0
        assert met.c_min == 1.0
        assert met.o_mean == 0.0
        assert met.robots_used == 1

    def test_articulation_chain_occupation(self):
        # synthetic trace: robot 1 relays robot 0's link to the base for all
        # 20 ticks while robot 0 stays active
        ticks = 21
        positions = [[(2.0, 1.0), (1.0, 1.0)] for _ in range(ticks)]
        parents = [[None, 2, 0] for _ in range(ticks)]  # r0 via r1, r1 via bs
        connected = [[True, True] for _ in range(ticks)]
        active = [[True, False] for _ in range(ticks)]
        trace = MissionTrace(positions=positions, parents=parents, connected=connected,
                             active=active, events=[], reached_goals=set(), completed=True)
        dummy = Path(points=[(0.0, 0.0), (1.0, 0.0)], length=1.0)
        plan = DeploymentPlan(mode="DP-FMM", robots=[
            [PlanSegment(purpose="primary-goal", path=dummy, goal_index=0)],
            [PlanSegment(purpose="relay-move", path=dummy)],
        ])
        met = compute_metrics(trace, plan)
        assert met.o_mean == pytest.approx(0.5)  # r1 occupied 100%, r0 never
        assert met.c_mean == 1.0

    def test_bounds_hold(self, fig2):
        for mode in ("FMM", "DP-FMM", "DPA-FMM"):
            plan = plan_deployment(fig2, mode)
            met = compute_metrics(execute_mission(plan, fig2), plan)
            assert met.d_max <= met.d_tot + 1e-9
            assert met.c_min <= met.c_mean + 1e-12
            assert 0.0 <= met.c_min <= 1.0
            assert 0.0 <= met.o_mean <= 1.0


class TestScenarioValidation:
    def test_points_snap_to_cell_centers(self):
        grid = open_map(10, 10)
        sc = Scenario(map=grid, bs=(1.1, 1.4), robot_starts=[(2.6, 2.6)],
                      goals=[(4.9, 4.9)], radio=RadioParams())
        assert sc.bs == grid.to_world(grid.to_cell((1.1, 1.4)))
        assert sc.goals[0] == grid.to_world(grid.to_cell((4.9, 4.9)))

    def test_obstacle_point_rejected(self):
        grid = make_map(["#...", "....", "...."])
        sc = Scenario(map=grid, bs=(0.25, 0.25), robot_starts=[(1.25, 1.25)],
                      goals=[(1.75, 1.25)], radio=RadioParams())
        with pytest.raises(ValueError, match="free cell"):
            sc.validate()

    def test_initial_robot_goal_balance(self):
        grid = open_map(8, 8)
        sc = Scenario(map=grid, bs=grid.to_world((0, 0)),
                      robot_starts=[grid.to_world((1, 1))],
                      goals=[grid.to_world((3, 3)), grid.to_world((5, 5))],
                      radio=RadioParams())
        with pytest.raises(ValueError, match="as many robots"):
            sc.validate(initial=True)
        sc.validate(initial=False)
