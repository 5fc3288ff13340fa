import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet.clustering import Cluster, ClusterCapError, _best_order, cluster_goals, visit_order
from relaynet.connectivity import movement_cost

from conftest import make_map, open_map
from helpers import best_tour, visit_order_enumerated

LEG_COSTS = [
    st.integers(0, 3).map(float),
    st.integers(0, 30).map(lambda k: k * 0.1),
    st.floats(0.0, 1e3),
    st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf]),
]


@st.composite
def cost_matrices(draw):
    """An (n+2)x(n+2) leg-cost matrix over [start, w0..w(n-1), dest]: small
    integers and tenths make many tours tie, in exact and in float sums, and
    +inf legs can make every tour infinite."""
    n = draw(st.integers(0, 7))
    leg = draw(st.sampled_from(LEG_COSTS))
    m = n + 2
    return draw(st.lists(st.lists(leg, min_size=m, max_size=m), min_size=m, max_size=m)), n


def bits(order_total):
    order, total = order_total
    return tuple(order), total.hex()


def obstacle_fixture():
    rows = []
    for r in range(40):
        if r == 12:
            rows.append("#" * 18 + "." * 4 + "#" * 18)
        elif r == 26:
            rows.append("." * 6 + "#" * 30 + "." * 4)
        else:
            rows.append("." * 40)
    return make_map(rows)


class TestClusterGoals:
    def test_single_destination_takes_all(self):
        m = open_map(20, 20)
        start = (1.25, 1.25)
        dests = [(8.25, 8.25)]
        wpts = [(2.25, 3.25), (5.25, 1.25), (7.25, 7.25)]
        clusters = cluster_goals(m, start, dests, wpts)
        assert len(clusters) == 1
        assert clusters[0].waypoint_indices == [0, 1, 2]

    def test_zero_deviation_membership(self):
        m = open_map(30, 10)
        start = (1.25, 2.25)
        dests = [(11.25, 2.25), (11.25, 4.75)]
        on_segment = (6.25, 2.25)  # exactly on the straight start->dest0 line
        clusters = cluster_goals(m, start, dests, [on_segment])
        assert clusters[0].waypoint_indices == [0]
        assert clusters[1].waypoint_indices == []

    def test_matches_direct_recomputation(self):
        m = obstacle_fixture()
        start = m.to_world((2, 2))
        dests = [m.to_world(c) for c in [(30, 5), (5, 35)]]
        wpts = [m.to_world(c) for c in [(10, 4), (25, 8), (3, 20), (15, 30), (33, 2)]]
        clusters = cluster_goals(m, start, dests, wpts)
        member = {}
        for cl in clusters:
            for wi in cl.waypoint_indices:
                member[wi] = cl.destination_index
        for pi, p in enumerate(wpts):
            c_lp = movement_cost(m, start, p)
            devs = []
            for di, dpt in enumerate(dests):
                dev = (c_lp + movement_cost(m, p, dpt)) - movement_cost(m, start, dpt)
                devs.append((round(dev, 9), di))
            best = min(devs)[1]
            assert member[pi] == best

    def test_eq5_inequality_holds(self):
        m = obstacle_fixture()
        rng = np.random.default_rng(23)
        free = [(c, r) for r in range(40) for c in range(40) if m.materials[r, c] == 0]
        for _ in range(10):
            picks = rng.choice(len(free), size=9, replace=False)
            pts = [m.to_world(free[i]) for i in picks]
            start, dests, wpts = pts[0], pts[1:4], pts[4:]
            clusters = cluster_goals(m, start, dests, wpts)
            c_l = {di: movement_cost(m, start, d) for di, d in enumerate(dests)}
            for cl in clusters:
                for w in cl.waypoints:
                    c_lp = movement_cost(m, start, w)
                    mine = (c_lp + movement_cost(m, w, cl.destination)) - c_l[cl.destination_index]
                    for dj, dpt in enumerate(dests):
                        other = (c_lp + movement_cost(m, w, dpt)) - c_l[dj]
                        assert round(mine, 9) <= round(other, 9) + 1e-9

    def test_partition(self):
        m = open_map(25, 25)
        rng = np.random.default_rng(5)
        pts = [(float(rng.uniform(0.5, 12)), float(rng.uniform(0.5, 12))) for _ in range(10)]
        clusters = cluster_goals(m, pts[0], pts[1:4], pts[4:])
        seen = sorted(i for cl in clusters for i in cl.waypoint_indices)
        assert seen == list(range(6))

    def test_no_destination_rejected(self):
        with pytest.raises(ValueError):
            cluster_goals(open_map(4, 4), (0.25, 0.25), [], [(1.25, 1.25)])


class TestVisitOrder:
    def test_no_waypoints(self):
        m = open_map(10, 10)
        cl = Cluster(start=(1.25, 1.25), destination=(4.25, 4.25), destination_index=0,
                     waypoints=[], waypoint_indices=[])
        seq = visit_order(m, cl)
        assert seq.points == [(1.25, 1.25), (4.25, 4.25)]
        assert seq.total_cost == pytest.approx(math.hypot(3, 3), abs=1e-9)

    def test_collinear_near_to_far(self):
        m = open_map(30, 5)
        cl = Cluster(start=(1.25, 1.25), destination=(13.25, 1.25), destination_index=0,
                     waypoints=[(9.25, 1.25), (4.25, 1.25)], waypoint_indices=[0, 1])
        seq = visit_order(m, cl)
        assert seq.waypoint_order == [1, 0]
        assert seq.total_cost == pytest.approx(12.0, abs=1e-9)

    def test_matches_independent_enumerator(self):
        m = obstacle_fixture()
        rng = np.random.default_rng(31)
        free = [(c, r) for r in range(40) for c in range(40) if m.materials[r, c] == 0]
        for _ in range(6):
            picks = rng.choice(len(free), size=8, replace=False)
            pts = [m.to_world(free[i]) for i in picks]
            start, dest, wpts = pts[0], pts[1], pts[2:]
            cl = Cluster(start=start, destination=dest, destination_index=0,
                         waypoints=wpts, waypoint_indices=list(range(len(wpts))))
            seq = visit_order(m, cl)
            n = len(wpts)
            all_pts = [start] + wpts + [dest]
            cost = [[movement_cost(m, a, b) for b in all_pts] for a in all_pts]
            order, total = best_tour(cost, n)
            assert seq.waypoint_order == order
            assert seq.total_cost == pytest.approx(total, abs=1e-9)

    def test_cap_enforced(self):
        m = open_map(40, 40)
        wpts = [(1.25 + 0.5 * i, 9.25) for i in range(10)]
        cl = Cluster(start=(0.75, 0.75), destination=(18.25, 18.25), destination_index=0,
                     waypoints=wpts, waypoint_indices=list(range(10)))
        with pytest.raises(ClusterCapError, match="split the cluster"):
            visit_order(m, cl)

    def test_adding_waypoint_never_cheaper(self):
        m = open_map(30, 30)
        rng = np.random.default_rng(8)
        for _ in range(10):
            pts = [(float(rng.uniform(0.5, 14)), float(rng.uniform(0.5, 14))) for _ in range(6)]
            start, dest = pts[0], pts[1]
            base_w = pts[2:5]
            cl1 = Cluster(start=start, destination=dest, destination_index=0,
                          waypoints=base_w, waypoint_indices=[0, 1, 2])
            cl2 = Cluster(start=start, destination=dest, destination_index=0,
                          waypoints=base_w + [pts[5]], waypoint_indices=[0, 1, 2, 3])
            assert visit_order(m, cl2).total_cost >= visit_order(m, cl1).total_cost - 1e-9

    def test_beats_random_orders(self):
        m = obstacle_fixture()
        rng = np.random.default_rng(12)
        free = [(c, r) for r in range(40) for c in range(40) if m.materials[r, c] == 0]
        picks = rng.choice(len(free), size=9, replace=False)
        pts = [m.to_world(free[i]) for i in picks]
        start, dest, wpts = pts[0], pts[1], pts[2:]
        cl = Cluster(start=start, destination=dest, destination_index=0,
                     waypoints=wpts, waypoint_indices=list(range(7)))
        seq = visit_order(m, cl)
        all_pts = [start] + wpts + [dest]
        cost = [[movement_cost(m, a, b) for b in all_pts] for a in all_pts]
        for _ in range(300):
            order = list(rng.permutation(7))
            total = cost[0][order[0] + 1]
            for i in range(6):
                total += cost[order[i] + 1][order[i + 1] + 1]
            total += cost[order[-1] + 1][8]
            assert seq.total_cost <= total + 1e-9


class TestBestOrder:
    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_equals_the_enumeration_bit_for_bit(self, matrix):
        cost, n = matrix
        assert bits(_best_order(cost, n)) == bits(visit_order_enumerated(cost, n))

    def test_nine_waypoints_with_ties_equal_the_enumeration(self):
        rng = np.random.default_rng(14)
        cost = rng.integers(0, 4, size=(11, 11)).astype(float).tolist()
        assert bits(_best_order(cost, 9)) == bits(visit_order_enumerated(cost, 9))

    def test_rounding_tie_keeps_the_earlier_tour(self):
        # Over [start, w0, w1, w2, dest], tour (0, 1, 2) sums to 0.6 plus
        # three ulps and the later tour (2, 1, 0) to 0.6 in any order; every
        # other tour costs at least 5. Both round to 0.6, so the enumeration
        # keeps the earlier tour, while the float optimum is the later one.
        over = 0.6
        for _ in range(3):
            over = math.nextafter(over, 1.0)
        cost = [[5.0] * 5 for _ in range(5)]
        for a, b, c in ((0, 1, over), (1, 2, 0.0), (2, 3, 0.0), (3, 4, 0.0),
                        (0, 3, 0.6), (3, 2, 0.0), (2, 1, 0.0), (1, 4, 0.0)):
            cost[a][b] = c
        assert visit_order_enumerated(cost, 3) == ((0, 1, 2), 0.6)
        assert bits(_best_order(cost, 3)) == ((0, 1, 2), (0.6).hex())
