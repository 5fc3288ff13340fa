"""Goal clustering by smallest deviation from the direct path, and the exact
optimal visit order inside each cluster: a lexicographic depth-first search
bounded by Held-Karp costs-to-go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .connectivity import movement_costs
from .gridmap import GridMap, WorldPoint

VISIT_CAP = 9  # hard bound on the waypoints of one visit-order search


class ClusterCapError(ValueError):
    pass


@dataclass
class Cluster:
    """One robot's workload: pass-through waypoints ending at a destination.

    start is the shared entry point of the cluster group (the relay whose
    signal the robot follows in); the robot terminates and remains at the
    destination.
    """

    start: WorldPoint
    destination: WorldPoint
    destination_index: int
    waypoints: list[WorldPoint]
    waypoint_indices: list[int]


@dataclass
class VisitSequence:
    points: list[WorldPoint]          # start, ordered waypoints..., destination
    waypoint_order: list[int]         # original waypoint indices in visit order
    total_cost: float


def cluster_goals(grid: GridMap, start: WorldPoint, destinations: list[WorldPoint],
                  waypoints: list[WorldPoint]) -> list[Cluster]:
    """Assign each waypoint p to the destination i minimizing the deviation
    (c(start,p) + c(p,i)) - c(start,i); ties go to the lower destination index."""
    k = len(destinations)
    if k < 1:
        raise ValueError("at least one destination is required")
    c_li, *c_pi = movement_costs(grid, [start] + list(waypoints), destinations)
    c_lp = movement_costs(grid, [start], waypoints)[0]
    clusters = [
        Cluster(start=tuple(start), destination=tuple(destinations[i]), destination_index=i,
                waypoints=[], waypoint_indices=[])
        for i in range(k)
    ]
    for p_idx, p in enumerate(waypoints):
        best_i = 0
        best_dev = None
        for i in range(k):
            dev = round((c_lp[p_idx] + c_pi[p_idx][i]) - c_li[i], 9)
            if best_dev is None or dev < best_dev:
                best_dev = dev
                best_i = i
        clusters[best_i].waypoints.append(tuple(p))
        clusters[best_i].waypoint_indices.append(p_idx)
    return clusters


def visit_order(grid: GridMap, cluster: Cluster, cap: int = VISIT_CAP) -> VisitSequence:
    """Minimal-cost ordering of the cluster's waypoints.

    A tour costs the sum of its leg costs start -> w... -> dest, added left
    to right and rounded to 9 places; the cheapest wins and cost ties
    resolve to the lexicographically smallest order. The search is exact
    (see _best_order). Rejects clusters above the cap rather than guessing.
    """
    n = len(cluster.waypoints)
    if n > cap:
        raise ClusterCapError(
            f"cluster has {n} waypoints, over the visit-order cap {cap}; "
            "raise the cap or split the cluster"
        )
    pts = [cluster.start] + list(cluster.waypoints) + [cluster.destination]
    perm, total = _best_order(movement_costs(grid, pts, pts), n)
    points = [cluster.start] + [cluster.waypoints[i] for i in perm] + [cluster.destination]
    order = [cluster.waypoint_indices[i] for i in perm]
    return VisitSequence(points=points, waypoint_order=order, total_cost=total)


def _best_order(cost, n: int) -> tuple[tuple[int, ...], float]:
    """The waypoint order that scoring every permutation would pick, and its
    rounded total. cost is an (n+2)x(n+2) matrix of non-negative leg costs
    over [start, w0..w(n-1), dest].

    togo[mask][j] is the cheapest cost from waypoint j through every waypoint
    in the bit set mask to the destination (Held and Karp). A depth-first
    search then tries the waypoints in ascending index, so it meets the tours
    in lexicographic order, and drops a prefix once prefix + togo exceeds the
    optimum by more than the slack. Prefix sums and the final rounding are
    those of the enumeration, so it keeps the same leaf on a strict <.
    """
    dest = n + 1
    if n == 0:
        return (), round(cost[0][dest], 9)
    full = (1 << n) - 1
    togo = [[cost[j + 1][dest] for j in range(n)]]
    for mask in range(1, full + 1):
        ks = [k for k in range(n) if mask >> k & 1]
        togo.append([math.inf if mask >> j & 1 else
                     min(cost[j + 1][k + 1] + togo[mask ^ 1 << k][k] for k in ks)
                     for j in range(n)])
    opt = min(cost[0][j + 1] + togo[full ^ 1 << j][j] for j in range(n))
    # The slack. Let W be the tour the enumeration picks. Rounding to 9
    # places merges totals up to 1e-9 apart, so W's left-to-right sum is at
    # most the optimum's plus 1e-9. Float addition is monotone, so togo is at
    # most W's suffix summed right to left, and each prefix + togo along W is
    # at most a float sum of W's n + 1 legs. Such a sum, like opt, is off the
    # exact sum by at most (n+1) * 2**-53 of its size. So prefix + togo
    # along W stays below opt + 1e-9 + 4 * (n+1) * 2**-53 * opt, which
    # 1e-6 * max(1, opt) covers with a wide margin. If every tour costs
    # +inf, so do opt and the bound: nothing is pruned, and the search
    # scores every tour as the enumeration did.
    bound = opt + 1e-6 * max(1.0, opt)
    best_total = None
    best_perm: tuple[int, ...] = ()
    perm: list[int] = []

    def descend(j: int, rest: int, prefix: float) -> None:
        nonlocal best_total, best_perm
        if prefix + togo[rest][j] > bound:
            return
        perm.append(j)
        if rest:
            cj = cost[j + 1]
            for k in range(n):
                if rest >> k & 1:
                    descend(k, rest ^ 1 << k, prefix + cj[k + 1])
        else:
            total = round(prefix + cost[j + 1][dest], 9)
            if best_total is None or total < best_total:
                best_total = total
                best_perm = tuple(perm)
        perm.pop()

    for j in range(n):
        descend(j, full ^ 1 << j, cost[0][j + 1])
    return best_perm, best_total
