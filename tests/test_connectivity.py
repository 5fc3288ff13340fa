import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaynet.connectivity import (
    InfeasibleRelayError,
    bfs_tree,
    build_conn_graph,
    check_feasibility,
    hungarian_assign,
    movement_cost,
    movement_costs,
    plan_relays,
)
from relaynet.gridmap import GridMap, segment_runs, segment_steps
from relaynet.radio import CoverageBook, RadioParams, coverage_distance, rss

from conftest import fig2_map, fig2_scenario, make_map, open_map
from helpers import bfs_hops, brute_force_assignment, plan_relays_unpruned


def params_with_range(d_cov: float) -> RadioParams:
    return RadioParams(p_tx=-70.0 + 40.0 + 10 * 1.7 * math.log10(d_cov))


def hop_tree(book: CoverageBook, nodes: list) -> tuple[list, list]:
    """(parent, depth) of the min-hop tree over the nodes' links."""
    return bfs_tree(len(nodes), book.links(nodes))


def max_depth(depth: list) -> int:
    return max((d for d in depth if d is not None), default=0)


class TestConnGraph:
    def test_close_pair_connected(self):
        m = open_map(20, 5)
        g = build_conn_graph(CoverageBook(m, RadioParams()), [(1.25, 1.25), (2.25, 1.25)])
        assert (0, 1) in g

    def test_beyond_coverage_distance_no_edge(self):
        params = params_with_range(4.0)
        assert coverage_distance(params) == pytest.approx(4.0)
        m = open_map(30, 5)
        g = build_conn_graph(CoverageBook(m, params), [(1.25, 1.25), (1.25 + 4.5, 1.25)])
        assert not g
        g2 = build_conn_graph(CoverageBook(m, params), [(1.25, 1.25), (1.25 + 3.5, 1.25)])
        assert (0, 1) in g2

    def test_single_node(self):
        g = build_conn_graph(CoverageBook(open_map(4, 4), RadioParams()), [(1.25, 1.25)])
        assert not g

    def test_node_on_obstacle_rejected(self):
        m = make_map(["#.", ".."])
        with pytest.raises(ValueError):
            build_conn_graph(CoverageBook(m, RadioParams()), [(0.25, 0.25)])


class TestMinHopTree:
    def test_chain(self):
        m = open_map(40, 5)
        params = params_with_range(3.0)
        nodes = [(1.25, 1.25), (3.75, 1.25), (6.25, 1.25), (8.75, 1.25)]
        parent, depth = hop_tree(CoverageBook(m, params), nodes)
        assert depth == [0, 1, 2, 3]
        assert parent == [None, 0, 1, 2]

    def test_star(self):
        m = open_map(20, 20)
        params = params_with_range(5.0)
        nodes = [(5.25, 5.25), (6.25, 5.25), (5.25, 7.25), (3.25, 5.25)]
        depth = hop_tree(CoverageBook(m, params), nodes)[1]
        assert depth == [0, 1, 1, 1]

    def test_unreachable_flagged(self):
        m = open_map(60, 5)
        params = params_with_range(2.0)
        nodes = [(1.25, 1.25), (2.25, 1.25), (25.25, 1.25)]
        parent, depth = hop_tree(CoverageBook(m, params), nodes)
        assert depth[2] is None
        assert parent[2] is None
        assert depth[1] is not None

    def test_parent_tie_break_lower_index(self):
        # nodes 1 and 2 both at depth 1 and both see node 3
        m = open_map(20, 20)
        params = params_with_range(3.0)
        nodes = [(4.25, 4.25), (6.75, 4.25), (4.25, 6.75), (6.75, 6.75)]
        parent, depth = hop_tree(CoverageBook(m, params), nodes)
        assert depth[3] == 2
        assert parent[3] == 1

    def test_random_graphs_match_bfs_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = 8
            edges = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        edges.add((i, j))
            depth = bfs_tree(n, edges)[1]
            oracle = bfs_hops(n, edges)
            assert depth == oracle


class TestMovementCost:
    def test_zero_for_same_point(self):
        m = open_map(5, 5)
        assert movement_cost(m, (1.25, 1.25), (1.25, 1.25)) == 0.0

    def test_free_line_equals_distance(self):
        m = open_map(20, 5)
        assert movement_cost(m, (1.25, 1.25), (6.25, 1.25)) == pytest.approx(5.0)

    def test_five_meters_two_obstacles(self):
        m = make_map([
            "....................",
            "......#...#.........",
            "....................",
        ])
        a, b = (1.25, 0.75), (6.25, 0.75)
        assert movement_cost(m, a, b) == pytest.approx(15.0)

    def test_dominates_euclidean(self):
        m = make_map(["..........", "..#...%...", ".........."])
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = (float(rng.uniform(0, 5)), float(rng.uniform(0, 1.5)))
            b = (float(rng.uniform(0, 5)), float(rng.uniform(0, 1.5)))
            d = math.hypot(b[0] - a[0], b[1] - a[1])
            assert movement_cost(m, a, b) >= d - 1e-12

    def test_priced_in_canonical_order(self):
        # sampled from a, the segment a-b clips the glass cell; sampled from
        # its lexicographically smaller end b, as count_traversals samples
        # it, it crosses nothing, and so it does in both orders of the matrix
        m = GridMap(width=2, height=2, resolution=0.3,
                    materials=np.array([[0, 0], [2, 0]], dtype=np.uint8))
        a, b = (1.5 * 0.3, 1.5 * 0.3), (0.0, 0.5 * 0.3)
        assert segment_runs(m, *a, *b, segment_steps(m, a, b)).tolist() == [0, 1]
        d = math.hypot(b[0] - a[0], b[1] - a[1])
        assert movement_costs(m, [a, b], [b, a]) == [[d, 0.0], [0.0, d]]


class TestHungarian:
    def test_cheap_diagonal(self):
        costs = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        pairs = hungarian_assign(costs)
        assert pairs == [(0, 0), (1, 1), (2, 2)]
        assert sum(costs[r][c] for r, c in pairs) == 0

    def test_two_by_two(self):
        costs = [[1, 2], [2, 1]]
        pairs = hungarian_assign(costs)
        assert pairs == [(0, 0), (1, 1)]
        assert sum(costs[r][c] for r, c in pairs) == 2

    def test_tie_break_lexicographic(self):
        # all assignments cost 2; the identity is lexicographically smallest
        assert hungarian_assign([[1, 1], [1, 1]]) == [(0, 0), (1, 1)]

    def test_random_vs_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            costs = rng.integers(0, 12, size=(n, n)).astype(float).tolist()
            perm = brute_force_assignment(costs)
            assert hungarian_assign(costs) == list(enumerate(perm))

    def test_rectangular_more_tasks(self):
        costs = [[5, 1, 9]]
        pairs = hungarian_assign(costs)
        assert pairs == [(0, 1)]
        assert sum(costs[r][c] for r, c in pairs) == 1

    def test_rectangular_more_robots(self):
        costs = [[5.0], [1.0], [9.0]]
        pairs = hungarian_assign(costs)
        assert pairs == [(1, 0)]
        assert sum(costs[r][c] for r, c in pairs) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assign([])
        with pytest.raises(ValueError):
            hungarian_assign([[math.inf]])

    @pytest.mark.parametrize("costs", [
        [[1e308, 1.0]],
        [[1e308], [2.0]],
        [[1e308, 1e308], [1e308, 1e308]],
    ])
    def test_overflowing_costs_rejected(self, costs):
        # the padded problem's sentinel or sums would not be finite
        with pytest.raises(ValueError, match="overflow"):
            hungarian_assign(costs)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.sampled_from([1, 2, 3, 15]),
           st.sampled_from([1, 0.1, 1e3]), st.data())
    def test_tie_heavy_vs_brute_force(self, nr, nc, top, scale, data):
        # integer and scaled-integer entries from few values, so most
        # matrices have many optima; square and rectangular both ways
        ints = data.draw(st.lists(st.lists(st.integers(0, top), min_size=nc, max_size=nc),
                                  min_size=nr, max_size=nr))
        costs = [[v * scale for v in row] for row in ints]
        perm = brute_force_assignment(costs)
        assert hungarian_assign(costs) == [(r, c) for r, c in enumerate(perm) if r < nr and c < nc]


class TestPlanRelays:
    def test_all_depth_one_yields_empty_plan(self):
        m = open_map(20, 20)
        params = params_with_range(8.0)
        bs = m.to_world((4, 4))
        goals = [m.to_world((8, 4)), m.to_world((4, 8))]
        plan = plan_relays(CoverageBook(m, params), goals, [], bs=bs)
        assert plan.positions == []

    def test_fig2_topology_connects_far_goals(self):
        sc = fig2_scenario()
        m, params = sc.map, sc.radio
        bs, goals = sc.bs, sc.goals
        depth = hop_tree(CoverageBook(m, params), [bs] + goals)[1]
        assert depth[5] is None and depth[6] is None
        max_depth_before = max_depth(depth)
        # robots parked at every reachable goal provide the working coverage
        parked = [goals[i] for i in range(4)]
        depth2 = hop_tree(CoverageBook(m, params), [bs] + parked + goals)[1]
        plan = plan_relays(CoverageBook(m, params), goals, parked, bs=bs, transmitters=parked)
        assert len(plan.positions) >= 1
        after = hop_tree(CoverageBook(m, params), [bs] + parked + plan.positions + goals)[1]
        goal_off = 1 + len(parked) + len(plan.positions)
        for gi in range(len(goals)):
            assert after[goal_off + gi] is not None
        assert max_depth(after) <= max(max_depth_before, max_depth(depth2)) + 1

    def test_assignment_prefers_uncrossed_pairing(self):
        m = open_map(30, 10)
        params = params_with_range(8.0)
        bs = m.to_world((2, 2))
        goals = [m.to_world((26, 2))]
        free = [m.to_world((4, 2)), m.to_world((10, 2))]
        plan = plan_relays(CoverageBook(m, params), goals, free, bs=bs)
        assert plan.positions

    def test_deterministic(self):
        sc = fig2_scenario()
        m, params = sc.map, sc.radio
        bs, goals = sc.bs, sc.goals
        parked = [goals[i] for i in range(4)]
        p1 = plan_relays(CoverageBook(m, params), goals, parked, bs=bs, transmitters=parked)
        p2 = plan_relays(CoverageBook(m, params), goals, parked, bs=bs, transmitters=parked)
        assert p1 == p2

    @pytest.mark.parametrize("n_parked", [0, 4])
    def test_newly_covered_names_the_goals_each_relay_connects(self, n_parked):
        # goals are graph nodes too, as in plan_relays; links come from the
        # unmemoised rss and hop depths from the independent BFS oracle
        sc = fig2_scenario()
        m, params, bs, goals = sc.map, sc.radio, sc.bs, sc.goals
        parked = [goals[i] for i in range(n_parked)]
        plan = plan_relays(CoverageBook(m, params), goals, parked, bs=bs, transmitters=parked)
        assert len(plan.newly_covered) == len(plan.positions)
        assert any(plan.newly_covered)

        def reachable(relays):
            nodes = [bs] + parked + relays + goals
            edges = {(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
                     if rss(m, nodes[i], nodes[j], params) >= params.gamma}
            depth = bfs_hops(len(nodes), edges)
            off = 1 + len(parked) + len(relays)
            return {gi for gi in range(len(goals)) if depth[off + gi] is not None}

        for k, covered in enumerate(plan.newly_covered):
            before = reachable(plan.positions[:k])
            after = reachable(plan.positions[:k + 1])
            assert set(covered) == after - before

    def test_uncoverable_goal_reported(self):
        # goal sealed behind many walls: attenuation kills any bridge
        rows = []
        for r in range(9):
            if r in (2, 4, 6):
                rows.append("#" * 30)
            else:
                rows.append("." * 30)
        m = make_map(rows)
        params = params_with_range(2.0)
        bs = m.to_world((2, 0))
        goals = [m.to_world((28, 8))]
        with pytest.raises(InfeasibleRelayError) as exc:
            plan_relays(CoverageBook(m, params), goals, [], bs=bs)
        assert exc.value.goals == [0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), w=st.integers(4, 16), h=st.integers(1, 5),
       density=st.sampled_from([0.0, 0.1, 0.25]), d_cov=st.floats(1.2, 3.5),
       n_goals=st.integers(1, 5), n_tx=st.integers(0, 2), n_free=st.integers(0, 3),
       stride=st.sampled_from([1, 2, 3]))
def test_pruned_relay_synthesis_equals_unpruned_oracle(seed, w, h, density, d_cov, n_goals,
                                                       n_tx, n_free, stride):
    # short radio ranges on narrow walled maps give goal chains of every
    # depth and unreachable goals, so the pruning's "far" boundary is crossed
    rng = np.random.default_rng(seed)
    materials = ((rng.random((h, w)) < density) * rng.choice([1, 2], (h, w))).astype(np.uint8)
    grid = GridMap(width=w, height=h, resolution=1.0, materials=materials)
    free = [(c, r) for r in range(h) for c in range(w) if materials[r, c] == 0]
    assume(len(free) >= 1 + n_goals + n_tx)
    nodes = [grid.to_world(free[i]) for i in rng.choice(len(free), 1 + n_goals + n_tx,
                                                        replace=False)]
    bs, goals, tx = nodes[0], nodes[1:1 + n_goals], nodes[1 + n_goals:]
    robots = [grid.to_world(free[i]) for i in rng.choice(len(free), n_free)]
    params = params_with_range(d_cov)

    def outcome(plan):
        try:
            return plan()
        except InfeasibleRelayError as exc:
            return exc.goals

    assert outcome(lambda: plan_relays(CoverageBook(grid, params), goals, robots, bs=bs,
                                       transmitters=tx, stride=stride)) == \
        outcome(lambda: plan_relays_unpruned(grid, params, goals, robots, bs, tx, stride))


class TestFeasibility:
    def test_corridor_ratios(self):
        from conftest import corridor_scenario

        for r, expect in ((0.5, True), (1.0, True), (2.9, True), (3.0, True), (3.1, False)):
            cells = int(r * 10.0 / 0.5)
            sc = corridor_scenario(cells + 2, d_cov=10.0, n_robots=3, goal_cols=[cells])
            rep = check_feasibility(sc.map, sc.bs, sc.goals, 3, sc.radio)
            assert rep.feasible == expect, (r, rep.ratio)
            assert rep.ratio == pytest.approx(r, abs=1e-9)

    def test_unreachable_goal_infeasible(self):
        m = make_map(["...#...", "...#...", "...#..."])
        sc_params = RadioParams()
        rep = check_feasibility(m, (0.25, 0.75), [(3.25, 0.75)], 5, sc_params)
        assert not rep.feasible
        assert "unreachable" in rep.reason

    def test_empty_goals_rejected(self):
        with pytest.raises(ValueError):
            check_feasibility(open_map(4, 4), (0.25, 0.25), [], 1, RadioParams())
