"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The whole suite targets laptop-scale runtime.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from relaynet.cli import main as cli_main
from relaynet.cli import random_scenario
from relaynet.clustering import Cluster, cluster_goals, visit_order
from relaynet.connectivity import (
    bfs_tree,
    check_feasibility,
    hungarian_assign,
    movement_cost,
)
from relaynet.eikonal import base_velocity, ca_fmm_path, coverage_fraction, solve_eikonal
from relaynet.gridmap import count_traversals
from relaynet.mission import (
    InfeasibleScenarioError,
    Scenario,
    compute_metrics,
    execute_mission,
    plan_deployment,
    replan,
)
from relaynet.radio import CoverageBook, RadioParams, coverage_field, path_loss

from conftest import corridor_scenario, fig2_map, make_map, open_map
from helpers import best_tour, bfs_hops, brute_force_assignment, dijkstra8


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"\n[criterion {num:2d}] PASS  {desc}")


# ---------------------------------------------------------------------------


def test_criterion_1_eikonal_accuracy():
    with criterion(1, "eikonal field accuracy and runtime on an empty 101x101 grid"):
        m = open_map(101, 101)
        t0 = time.perf_counter()
        d = solve_eikonal(m, base_velocity(m), (50, 50))
        elapsed = time.perf_counter() - t0
        cx, cy = m.to_world((50, 50))
        xs = (np.arange(101) + 0.5) * m.resolution
        gx, gy = np.meshgrid(xs, xs)
        true = np.hypot(gx - cx, gy - cy)
        sel = true > 0
        rel = np.abs(d.D - true)[sel] / true[sel]
        assert rel.max() <= 0.08, f"max relative error {rel.max():.4f}"
        axis_true = np.abs(xs - cx)
        for axis_vals in (d.D[50, :], d.D[:, 50]):
            err = np.abs(axis_vals - axis_true)[axis_true > 0] / axis_true[axis_true > 0]
            assert err.max() <= 0.005, f"axis relative error {err.max():.5f}"
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s"


def test_criterion_2_eikonal_vs_graph_oracle():
    with criterion(2, "fast-marching cost within 10% of the graph oracle on 50 maps"):
        rng = np.random.default_rng(2025)
        disagreements = 0
        worst = 0.0
        compared = 0
        for _ in range(50):
            mats = rng.random((40, 40)) < 0.2
            mats[1, 1] = False
            mats[38, 38] = False
            rows = ["".join("#" if x else "." for x in row) for row in mats]
            m = make_map(rows)
            F = base_velocity(m)
            d = solve_eikonal(m, F, (1, 1))
            oracle = dijkstra8(m, F, (1, 1))
            target = (38, 38)
            fmm = d.at(target)
            dk = oracle.get(target, math.inf)
            if math.isinf(fmm) != math.isinf(dk):
                disagreements += 1
            elif math.isfinite(fmm):
                compared += 1
                worst = max(worst, abs(fmm - dk) / dk)
        assert disagreements == 0, f"{disagreements} reachability disagreements"
        assert compared >= 20
        assert worst <= 0.10, f"worst relative gap {worst:.4f}"


def _signal_fixture_map():
    rows = []
    for r in range(20):
        if r in (6, 7):
            rows.append(".." + "#" * 16 + "..")
        elif r == 12:
            rows.append("%" * 20)
        else:
            rows.append("." * 20)
    return make_map(rows)


def test_criterion_3_signal_model():
    with criterion(3, "deterministic losses match hand-evaluated values; multipath stats"):
        m = _signal_fixture_map()
        params = RadioParams()
        # (tx, rx, walls, glass) with counts read off the fixture geometry;
        # every shot is axis-aligned or stays inside one open region
        pairs = [
            ((1.25, 1.25), (2.25, 1.25), 0, 0),
            ((1.25, 1.25), (6.25, 1.25), 0, 0),
            ((1.25, 0.75), (9.25, 0.75), 0, 0),
            ((2.25, 0.25), (2.25, 2.75), 0, 0),
            ((1.75, 0.75), (4.75, 2.75), 0, 0),
            ((5.25, 0.75), (5.25, 2.75), 0, 0),
            ((3.25, 2.25), (8.25, 2.25), 0, 0),
            ((3.25, 4.75), (8.25, 4.75), 0, 0),
            ((5.25, 1.25), (5.25, 5.25), 1, 0),   # through the double wall band
            ((4.25, 2.25), (4.25, 4.75), 1, 0),
            ((6.25, 0.75), (6.25, 5.75), 1, 0),
            ((7.25, 2.75), (7.25, 4.25), 1, 0),
            ((8.25, 1.25), (8.25, 5.25), 1, 0),
            ((5.25, 1.25), (5.25, 7.25), 1, 1),   # wall band plus glass row
            ((6.25, 0.75), (6.25, 8.75), 1, 1),
            ((7.25, 2.25), (7.25, 6.75), 1, 1),
            ((0.75, 2.25), (0.75, 7.25), 0, 1),   # wall-free shaft, glass only
            ((0.25, 1.25), (0.25, 8.75), 0, 1),
            ((1.25, 6.75), (8.75, 6.75), 0, 0),
            ((2.25, 8.25), (8.25, 8.25), 0, 0),
        ]
        for tx, rx, walls, glass in pairs:
            got_counts = count_traversals(m, tx, rx)
            assert got_counts == (walls, glass), (tx, rx, got_counts)
            d = max(math.hypot(rx[0] - tx[0], rx[1] - tx[1]), 0.1)
            n = 1.7 if (walls, glass) == (0, 0) else 1.4
            expected = 40.0 + 10.0 * n * math.log10(d) + walls * 10.0 + glass * 2.5
            got = path_loss(m, tx, rx, params)
            assert abs(got - expected) <= 1e-9, (tx, rx, got, expected)

        # multipath: 10^4 independent seeded draws per regime
        big = open_map(30, 30)
        tx, rx_los = (2.25, 2.25), (9.25, 7.25)
        draws = np.array([
            path_loss(big, tx, rx_los, RadioParams(seed=s), mode="stochastic")
            - path_loss(big, tx, rx_los, RadioParams(seed=s))
            for s in range(10_000)
        ])
        assert abs(draws.mean()) <= 0.2, f"LoS mean {draws.mean():.3f}"
        assert abs(draws.var() - 3.45) / 3.45 <= 0.15, f"LoS var {draws.var():.3f}"
        wall_m = make_map(["." * 6, "#" * 6] + ["." * 6] * 10)
        rx_nlos = (2.75, 5.25)
        tx2 = (2.75, 0.25)
        draws2 = np.array([
            path_loss(wall_m, tx2, rx_nlos, RadioParams(seed=s), mode="stochastic")
            - path_loss(wall_m, tx2, rx_nlos, RadioParams(seed=s))
            for s in range(10_000)
        ])
        assert abs(draws2.mean()) <= 0.2, f"NLoS mean {draws2.mean():.3f}"
        assert abs(draws2.var() - 3.25) / 3.25 <= 0.15, f"NLoS var {draws2.var():.3f}"


def test_criterion_4_hungarian_brute_force():
    with criterion(4, "assignment agrees with brute force on 500 random matrices"):
        rng = np.random.default_rng(44)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            costs = rng.integers(0, 15, size=(n, n)).astype(float).tolist()
            perm = brute_force_assignment(costs)
            assert hungarian_assign(costs) == list(enumerate(perm))


def test_criterion_5_min_hop_tree_oracle():
    with criterion(5, "min-hop depths match the BFS oracle on 200 random graphs"):
        rng = np.random.default_rng(55)
        for _ in range(200):
            n = 12
            edges = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.18:
                        edges.add((i, j))
            parent, depth = bfs_tree(n, edges)
            oracle = bfs_hops(n, edges)
            assert depth == oracle
            for i in range(n):
                assert (depth[i] is None) == (oracle[i] is None)
                # the parent is the lowest-index node one level up linked to i
                ups = [j for j in range(n) if (min(i, j), max(i, j)) in edges
                       and oracle[i] is not None and oracle[j] == oracle[i] - 1]
                assert parent[i] == min(ups, default=None)


def test_criterion_6_visit_order_oracle():
    with criterion(6, "visit order matches the permutation oracle; deviation rule holds"):
        rng = np.random.default_rng(66)
        m = open_map(40, 40)
        for _ in range(100):
            k = int(rng.integers(0, 8))
            pts = [(float(rng.uniform(0.5, 19.5)), float(rng.uniform(0.5, 19.5)))
                   for _ in range(k + 2)]
            start, dest, wpts = pts[0], pts[1], pts[2:]
            cl = Cluster(start=start, destination=dest, destination_index=0,
                         waypoints=wpts, waypoint_indices=list(range(k)))
            seq = visit_order(m, cl)
            all_pts = [start] + wpts + [dest]
            cost = [[movement_cost(m, a, b) for b in all_pts] for a in all_pts]
            order, total = best_tour(cost, k)
            assert seq.waypoint_order == order
            assert seq.total_cost == pytest.approx(total, abs=1e-9)

        for _ in range(30):
            pts = [(float(rng.uniform(0.5, 19.5)), float(rng.uniform(0.5, 19.5)))
                   for _ in range(9)]
            start, dests, wpts = pts[0], pts[1:4], pts[4:]
            clusters = cluster_goals(m, start, dests, wpts)
            c_l = [movement_cost(m, start, d) for d in dests]
            for cl in clusters:
                for w in cl.waypoints:
                    c_lp = movement_cost(m, start, w)
                    mine = c_lp + movement_cost(m, w, cl.destination) - c_l[cl.destination_index]
                    for dj, dpt in enumerate(dests):
                        other = c_lp + movement_cost(m, w, dpt) - c_l[dj]
                        assert mine <= other + 1e-9


def test_criterion_7_coverage_bias():
    with criterion(7, "coverage-aware paths gain coverage and never undercut length"):
        rng = np.random.default_rng(77)
        params = RadioParams(p_tx=-70.0 + 40.0 + 10 * 1.7 * math.log10(5.0))  # 5 m range
        m = open_map(30, 30)
        fmm_fracs, ca_fracs = [], []
        for _ in range(50):
            y0 = int(rng.integers(2, 8))
            y1 = int(rng.integers(2, 8))
            start, goal = (2, y0), (27, y1)
            strip_y = int(rng.integers(10, 16))
            x0 = int(rng.integers(6, 10))
            relays = [m.to_world((x0 + k * int(rng.integers(5, 8)), strip_y))
                      for k in range(3)]
            fmm = ca_fmm_path(CoverageBook(m, params), start, goal, [])
            ca = ca_fmm_path(CoverageBook(m, params), start, goal, relays, w_c=1.0)
            rss_max = np.maximum.reduce([coverage_field(m, s, params) for s in relays])
            mask = rss_max >= params.gamma
            fmm_fracs.append(coverage_fraction(m, fmm.points, mask))
            ca_fracs.append(coverage_fraction(m, ca.points, mask))
            assert ca.length >= fmm.length - m.resolution / 2, "coverage bias shortened a path"
        assert np.mean(ca_fracs) >= np.mean(fmm_fracs), (
            f"mean coverage {np.mean(ca_fracs):.3f} < {np.mean(fmm_fracs):.3f}")


def _sample_dp_dpa_runs(count: int = 30):
    runs = []
    seed = 0
    attempts = 0
    while len(runs) < count and attempts < 400:
        attempts += 1
        seed += 1
        radio = RadioParams(p_tx=-16.0, seed=seed)
        try:
            sc = random_scenario(seed, 28, 28, 6, 0.5, radio)
        except InfeasibleScenarioError:
            continue
        report = check_feasibility(sc.map, sc.bs, sc.goals, 6, sc.radio)
        if not report.feasible:
            continue
        try:
            dp = plan_deployment(sc, "DP-FMM")
            dpa = plan_deployment(sc, "DPA-FMM")
        except InfeasibleScenarioError:
            continue
        tr_dp = execute_mission(dp, sc)
        tr_dpa = execute_mission(dpa, sc)
        runs.append((sc, dp, tr_dp, dpa, tr_dpa))
    assert len(runs) == count, f"only {len(runs)} feasible scenarios in {attempts} attempts"
    return runs


@pytest.fixture(scope="module")
def dp_dpa_runs():
    return _sample_dp_dpa_runs()


def test_criterion_8_dp_hard_connectivity(dp_dpa_runs):
    with criterion(8, "every DP goal event is connected on 30 random scenarios"):
        for sc, dp, tr_dp, _, _ in dp_dpa_runs:
            events = [e for e in tr_dp.events if e.kind == "goal-reached"]
            assert len(events) == len(sc.goals)
            assert tr_dp.reached_goals == set(range(len(sc.goals)))
            for e in events:
                assert e.data["connected"], f"disconnected goal event at tick {e.tick}"


def test_criterion_9_dpa_resource_time_trade(dp_dpa_runs):
    with criterion(9, "DPA spends fewer robots and less total distance at more time"):
        n = 6
        strict = 0
        d_dp, d_dpa, t_dp, t_dpa = [], [], [], []
        for sc, dp, tr_dp, dpa, tr_dpa in dp_dpa_runs:
            m_dp = compute_metrics(tr_dp, dp)
            m_dpa = compute_metrics(tr_dpa, dpa)
            assert tr_dpa.reached_goals == set(range(n))
            assert m_dpa.robots_used <= n
            if m_dpa.robots_used < n:
                strict += 1
            d_dp.append(m_dp.d_tot)
            d_dpa.append(m_dpa.d_tot)
            t_dp.append(m_dp.time_ticks)
            t_dpa.append(m_dpa.time_ticks)
        assert strict >= len(dp_dpa_runs) / 2, f"strict robot savings in only {strict}/30"
        assert np.mean(d_dpa) <= np.mean(d_dp), (
            f"mean d_tot {np.mean(d_dpa):.1f} vs {np.mean(d_dp):.1f}")
        assert np.mean(t_dpa) >= np.mean(t_dp), (
            f"mean T {np.mean(t_dpa):.1f} vs {np.mean(t_dp):.1f}")


def test_criterion_10_feasibility_gate():
    with criterion(10, "chain feasibility boundary is inclusive at ratio = N"):
        for r, expect in ((0.5, True), (1.0, True), (2.9, True), (3.0, True), (3.1, False)):
            cells = int(round(r * 10.0 / 0.5))
            sc = corridor_scenario(cells + 2, d_cov=10.0, n_robots=3, goal_cols=[cells])
            report = check_feasibility(sc.map, sc.bs, sc.goals, 3, sc.radio)
            assert report.feasible == expect, (r, report.ratio)
            assert report.ratio == pytest.approx(r, abs=1e-9)


def _two_corridor_scenario():
    """Two parallel corridors joined at both ends; goals spread over both,
    with the eastern top-corridor goals cut off once the new wall lands."""
    W, H = 26, 16
    rows = []
    for r in range(H):
        cells = []
        for c in range(W):
            wall = r in (0, H - 1) or c in (0, W - 1)
            if r in (7, 8) and 4 <= c <= 21:
                wall = True
            cells.append("#" if wall else ".")
        rows.append("".join(cells))
    grid = make_map(rows)
    params = RadioParams(p_tx=-13.8)  # ~9 m coverage range
    return Scenario(
        map=grid,
        bs=grid.to_world((2, 3)),
        robot_starts=[grid.to_world(c) for c in
                      [(1, 1), (2, 1), (1, 2), (2, 2), (1, 4), (2, 4)]],
        goals=[grid.to_world(c) for c in
               [(6, 2), (8, 5), (18, 2), (21, 4), (14, 12), (20, 13)]],
        radio=params,
    )


def test_criterion_11_reactive_replan():
    with criterion(11, "mid-mission wall triggers a successful reroute"):
        sc = _two_corridor_scenario()
        plan = plan_deployment(sc, "DPA-FMM")
        r_before = plan.robots_used
        cut = 6
        # the mission as it stands at tick cut of the undisturbed run
        full = execute_mission(plan, sc)
        assert full.ticks > cut
        positions = full.positions[cut]
        reached = {e.data["goal"] for e in full.events if e.kind == "goal-reached" and e.tick <= cut}

        blocked_cols = (11, 12)
        mats = sc.map.materials.copy()
        mats[1:7, blocked_cols[0]:blocked_cols[1] + 1] = 1
        for p in positions:
            c, r = sc.map.to_cell(p)
            assert not (1 <= r <= 6 and blocked_cols[0] <= c <= blocked_cols[1]), \
                "fixture error: a robot sits inside the new wall"
        from relaynet.gridmap import GridMap

        new_map = GridMap(width=sc.map.width, height=sc.map.height,
                          resolution=sc.map.resolution, materials=mats)
        updated = Scenario(map=new_map, bs=sc.bs, robot_starts=sc.robot_starts,
                           goals=sc.goals, radio=sc.radio)
        _, new_plan = replan(updated, reached, positions)
        remaining_ids = [i for i in range(len(sc.goals)) if i not in reached]
        sc2 = Scenario(map=new_map, bs=sc.bs, robot_starts=positions,
                       goals=[sc.goals[i] for i in remaining_ids], radio=sc.radio)
        trace2 = execute_mission(new_plan, sc2)
        assert trace2.completed
        newly = {remaining_ids[g] for g in trace2.reached_goals}
        assert reached | newly == set(range(len(sc.goals)))
        n = len(sc.robot_starts)
        engaged = {r for r in range(n)
                   if any(s.purpose != "wait-until" for s in plan.robots[r])}
        engaged |= {r for r in range(n)
                    if any(s.purpose != "wait-until" for s in new_plan.robots[r])}
        assert len(engaged) >= r_before


def test_criterion_12_byte_determinism(tmp_path):
    with criterion(12, "compare and sweep outputs byte-identical across reruns"):
        (tmp_path / "fig2.map").write_text(fig2_map().serialize())
        (tmp_path / "fig2.json").write_text(json.dumps({
            "map": "fig2.map",
            "bs": [3.0, 6.0],
            "robot_starts": [[1.0 + 0.5 * i, 10.5] for i in range(6)],
            "goals": [[9.0, 4.5], [13.0, 8.0], [16.0, 5.5], [17.0, 10.0],
                      [15.5, 1.0], [18.5, 1.0]],
            "radio": {"p_tx": -14.65},
            "seed": 11,
        }))
        (tmp_path / "exp.json").write_text(json.dumps({
            "map_size": [26, 26], "obstacle_density": 0.4, "goal_counts": [3],
            "trials": 1, "seed_base": 3, "radio": {"p_tx": -12.0},
        }))
        for out in ("c1", "c2"):
            assert cli_main(["compare", str(tmp_path / "fig2.json"),
                             "--out", str(tmp_path / out)]) == 0
        for out in ("s1", "s2"):
            assert cli_main(["sweep", str(tmp_path / "exp.json"),
                             "--out", str(tmp_path / out)]) == 0
        c1 = sorted((tmp_path / "c1").iterdir())
        c2 = sorted((tmp_path / "c2").iterdir())
        assert [p.name for p in c1] == [p.name for p in c2]
        assert any(p.suffix == ".svg" for p in c1)
        for a, b in zip(c1, c2):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs"
        for a, b in zip(sorted((tmp_path / "s1").iterdir()),
                        sorted((tmp_path / "s2").iterdir())):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs"
