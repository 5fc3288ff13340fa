"""Goal clustering by smallest deviation from the direct path, and exhaustive
optimal visit ordering inside each cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .connectivity import movement_costs
from .gridmap import GridMap, WorldPoint

VISIT_CAP = 9  # hard bound on exhaustive ordering


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
    """Exhaustive minimal-cost ordering of the cluster's waypoints.

    Scores every permutation by the sum of leg costs start -> w... -> dest
    and returns the cheapest; cost ties resolve to the lexicographically
    smallest order. Rejects clusters above the cap rather than guessing.
    """
    n = len(cluster.waypoints)
    if n > cap:
        raise ClusterCapError(
            f"cluster has {n} waypoints, over the exhaustive-search cap {cap}; "
            "raise the cap or split the cluster"
        )
    pts = [cluster.start] + list(cluster.waypoints) + [cluster.destination]
    m = len(pts)
    cost = movement_costs(grid, pts, pts)

    if n == 0:
        total = round(cost[0][1], 9)
        return VisitSequence(points=[cluster.start, cluster.destination],
                             waypoint_order=[], total_cost=total)

    best_total = None
    best_perm: tuple[int, ...] | None = None
    dest = m - 1
    for perm in itertools.permutations(range(n)):
        total = cost[0][perm[0] + 1]
        for i in range(n - 1):
            total += cost[perm[i] + 1][perm[i + 1] + 1]
        total += cost[perm[-1] + 1][dest]
        total = round(total, 9)
        if best_total is None or total < best_total:
            best_total = total
            best_perm = perm
    assert best_perm is not None
    points = [cluster.start] + [cluster.waypoints[i] for i in best_perm] + [cluster.destination]
    order = [cluster.waypoint_indices[i] for i in best_perm]
    return VisitSequence(points=points, waypoint_order=order, total_cost=best_total)
