"""Centralized deployment support: mutual-connectivity graph, min-hop tree,
movement costs with obstacle penalties, optimal task assignment (an exact
shortest-augmenting-path solver), relay position synthesis, and the chain
feasibility check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eikonal import base_velocity, solve_eikonal
from .gridmap import GridMap, WorldPoint, count_traversals_batch
from .radio import CoverageBook, RadioParams, coverage_distance


class InfeasibleRelayError(RuntimeError):
    def __init__(self, message: str, goals: list[int]):
        super().__init__(message)
        self.goals = goals


@dataclass(frozen=True)
class Assignment:
    pairs: tuple[tuple[int, int], ...]  # (row, col), minimal total cost
    total_cost: float


@dataclass
class RelayPlan:
    positions: list[WorldPoint]
    newly_covered: list[list[int]]        # goal indices first connected by each relay


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    ratio: float
    farthest_goal: int
    farthest_distance: float
    d_cov: float
    reason: str = ""


def build_conn_graph(book: CoverageBook, positions: list[WorldPoint]) -> list[tuple[int, int]]:
    """book.links(positions) after checking that every position lies on a
    free cell. No pipeline calls it; it stays because bench/tracing.py
    wraps it by name."""
    grid = book.grid
    for p in positions:
        if not grid.is_free_cell(grid.to_cell(p)):
            raise ValueError(f"node position {p} lies on an obstacle cell")
    return book.links(positions)


def bfs_tree(n: int, edges) -> tuple[list[int | None], list[int | None]]:
    """Level-synchronized BFS from node 0 over the undirected edges (i, j)
    of nodes 0..n-1: (parent, depth), None where unreachable. A node's
    parent is the lowest-index node of the previous level that links to it,
    so the result depends only on the edge set."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent: list[int | None] = [None] * n
    depth: list[int | None] = [None] * n
    depth[0] = 0
    level = [0]
    while level:
        nxt = []
        for u in sorted(level):
            for v in adj[u]:
                if depth[v] is None:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    nxt.append(v)
        level = nxt
    return parent, depth


def movement_costs(grid: GridMap, froms: list[WorldPoint], tos: list[WorldPoint]) -> list[list[float]]:
    """Movement cost from each point of froms (rows) to each point of tos:
    Euclidean distance inflated by the number of obstacle runs in between.

    The segments of nonzero length are raycast together, each canonical
    segment once (count_traversals_batch); a coincident pair costs 0.0."""
    table = [[((a, b) if a <= b else (b, a), math.hypot(b[0] - a[0], b[1] - a[1]))
              for b in map(tuple, tos)] for a in map(tuple, froms)]
    segs = list(dict.fromkeys(seg for row in table for seg, d in row if d != 0.0))
    factor = {seg: 1.0 + walls + glass
              for seg, (walls, glass) in zip(segs, count_traversals_batch(grid, segs))}
    return [[d * factor[seg] if d != 0.0 else 0.0 for seg, d in row] for row in table]


def movement_cost(grid: GridMap, a: WorldPoint, b: WorldPoint) -> float:
    """Movement cost of one pair (see movement_costs)."""
    return movement_costs(grid, [a], [b])[0][0]


def _min_cost_matching(costs: list[list[float]]) -> list[int]:
    """Column of each row in a minimal-cost perfect matching of the square
    matrix costs: shortest augmenting paths over reduced costs, with row and
    column potentials (Kuhn 1955; Jonker & Volgenant 1987), O(n^3).

    Rows join one at a time. A Dijkstra search from the new row labels each
    column with its path length, taking the unused column of least label
    each step, until that column is free. The potentials then absorb the
    labels, which keeps every reduced cost >= 0 and the matched pairs at 0,
    and the path is flipped. Every step uses up a column, so a search ends
    within n steps whatever the values are."""
    n = len(costs)
    u = [0.0] * n                 # row potentials
    v = [0.0] * n                 # column potentials
    col_of = [-1] * n             # column matched to each row
    row_of = [-1] * n             # row matched to each column, -1 when free
    for i in range(n):
        dist = [math.inf] * n     # path length from row i to each column
        pred = [i] * n            # the row before each column on its path
        unused = list(range(n))
        scanned = []
        r, dr = i, 0.0
        while True:
            row, ur = costs[r], u[r]
            best, jb = math.inf, unused[0]
            for j in unused:
                d = dr + row[j] - ur - v[j]
                if d < dist[j]:
                    dist[j] = d
                    pred[j] = r
                else:
                    d = dist[j]
                if d < best:
                    best, jb = d, j
            unused.remove(jb)
            if row_of[jb] < 0:
                break
            scanned.append(jb)
            r, dr = row_of[jb], best
        u[i] += best
        for j in scanned:
            u[row_of[j]] += best - dist[j]
            v[j] -= best - dist[j]
        while True:
            r = pred[jb]
            row_of[jb] = r
            col_of[r], jb = jb, col_of[r]
            if r == i:
                break
    return col_of


def hungarian_assign(costs) -> Assignment:
    """Minimal-cost bijection on min(rows, cols); among equal-cost optima the
    lexicographically smallest assignment vector wins.

    Rectangular matrices are padded square with a dominating sentinel, so the
    padded entries add a constant offset and never change the real optimum.
    Costs so large that the padded problem could overflow are rejected.
    """
    M = np.asarray(costs, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("cost matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(M)) or np.any(M < 0):
        raise ValueError("costs must be finite and nonnegative")
    nr, nc = M.shape
    n = max(nr, nc)
    sentinel = float(M.max()) * n + 1.0
    # a row's search moves each potential by at most the largest entry, so
    # sums, potentials and path lengths all stay within (n + 2) * sentinel
    if not math.isfinite(sentinel * (n + 2)):
        raise ValueError("costs too large: the padded assignment would overflow")
    P = np.full((n, n), sentinel)
    P[:nr, :nc] = M
    rows = P.tolist()

    def optimum(r0: int, cols: list[int]) -> float:
        """Least cost of matching rows r0.. to cols, its entries summed by numpy."""
        picked = _min_cost_matching([[rows[r][c] for c in cols] for r in range(r0, n)])
        return float(P[np.arange(r0, n), [cols[k] for k in picked]].sum())

    best = optimum(0, list(range(n)))
    tol = 1e-9 * max(1.0, abs(best))

    chosen: list[int] = []
    remaining = list(range(n))
    fixed = 0.0
    for r in range(n):
        picked = None
        for c in remaining:
            rest_cols = [x for x in remaining if x != c]
            rest = optimum(r + 1, rest_cols) if r + 1 < n else 0.0
            if fixed + P[r, c] + rest <= best + tol:
                picked = c
                break
        assert picked is not None
        chosen.append(picked)
        remaining.remove(picked)
        fixed += P[r, picked]

    pairs = tuple((r, c) for r, c in enumerate(chosen) if r < nr and c < nc)
    total = float(sum(M[r, c] for r, c in pairs))
    return Assignment(pairs=pairs, total_cost=total)


def plan_relays(book: CoverageBook, goals: list[WorldPoint], free_robots: list[WorldPoint], *,
                bs: WorldPoint, transmitters: list[WorldPoint] | None = None,
                stride: int = 2) -> RelayPlan:
    """Greedy relay-position synthesis over the covered free cells of the
    book's grid, with links and coverage under the book's radio.

    Candidates are free cells inside the combined coverage of the base
    station, the transmitters and the relays committed so far, sampled on a
    stride lattice. Each greedy round commits the candidate scoring best on
    (goals newly connected, goal depths reduced, cheapest reachable free
    robot), then recomputes coverage. When no single candidate connects an
    unreachable goal, a bridge relay is committed at the covered cell
    closest to the nearest unreachable goal, provided it makes strict
    progress; otherwise the remaining goals are reported infeasible.
    """
    grid, gamma = book.grid, book.params.gamma
    transmitters = list(transmitters) if transmitters else []
    goal_slice = slice(1 + len(transmitters), 1 + len(transmitters) + len(goals))
    base_positions = [tuple(bs)] + [tuple(t) for t in transmitters] + [tuple(g) for g in goals]
    committed: list[WorldPoint] = []
    newly_covered: list[list[int]] = []

    guard = 4 * len(goals) + 16
    while True:
        positions = base_positions + committed
        n = len(positions)
        edges = book.links(positions)
        depth = bfs_tree(n, edges)[1]
        depths = depth[goal_slice]
        unreachable = [gi for gi, d in enumerate(depths) if d is None]
        if len(committed) > guard:
            raise InfeasibleRelayError("relay synthesis exceeded its commit budget", unreachable)
        # a candidate sits at depth >= 1, so it can only connect or shorten
        # the way to a node if it links to a "far" one: unreachable or at
        # depth >= 3; any other candidate scores (0, 0)
        far = [positions[i] for i, d in enumerate(depth) if d is None or d >= 3]

        # the covered free cells of the stride lattice, in row-major order
        mask = book.combined([bs] + transmitters + committed) >= gamma
        rows, cols = np.nonzero(mask[::stride, ::stride])
        taken = {grid.to_cell(p) for p in positions}
        cells = zip((cols * stride).tolist(), (rows * stride).tolist())
        cands = [grid.to_world(cell) for cell in cells if cell not in taken]
        cand_pos = cands if far else []
        to_far = book.rss_pairs([(c, p) for c in cand_pos for p in far])
        linking = [c for k, c in enumerate(cand_pos)
                   if max(to_far[k * len(far):(k + 1) * len(far)]) >= gamma]
        to_all = book.rss_pairs([(c, p) for c in linking for p in positions])
        scoring = []  # (connected, reduced, position, goals it connects)
        for k, cpos in enumerate(linking):
            cedges = [(i, n) for i in range(n) if to_all[k * n + i] >= gamma]
            new_depths = bfs_tree(n + 1, edges + cedges)[1][goal_slice]
            covered_goals = [gi for gi in unreachable if new_depths[gi] is not None]
            reduced = sum(
                1 for gi in range(len(goals))
                if depths[gi] is not None and new_depths[gi] is not None
                and new_depths[gi] < depths[gi]
            )
            if covered_goals or reduced:
                scoring.append((len(covered_goals), reduced, cpos, covered_goals))
        robot_costs = movement_costs(grid, [s[2] for s in scoring], free_robots)
        best = None
        best_score = None
        for (connected, reduced, cpos, covered_goals), costs in zip(scoring, robot_costs):
            score = (connected, reduced, -min(costs, default=0.0))
            if best_score is None or score > best_score:
                best_score = score
                best = (cpos, covered_goals)
        if best is not None:
            cpos, covered_goals = best
            committed.append(cpos)
            newly_covered.append(covered_goals)
            continue

        if not unreachable:
            break

        # bridge step: no single candidate connects anything yet, so walk the
        # coverage toward the nearest unreachable goal
        def gap(p: WorldPoint) -> float:
            return min(math.hypot(goals[gi][0] - p[0], goals[gi][1] - p[1]) for gi in unreachable)

        current_gap = min(map(gap, [bs] + transmitters + committed))
        bridge = min(cands, key=gap, default=None)
        if bridge is None or gap(bridge) > current_gap - grid.resolution:
            raise InfeasibleRelayError(
                f"goals {unreachable} cannot be covered by relays", unreachable
            )
        committed.append(bridge)
        newly_covered.append([])

    return RelayPlan(positions=committed, newly_covered=newly_covered)


def check_feasibility(grid: GridMap, bs: WorldPoint, goals: list[WorldPoint],
                      n_robots: int, params: RadioParams) -> FeasibilityReport:
    """Chain condition: shortest-path distance to the farthest goal, divided
    by the guaranteed coverage distance, must not exceed the robot count."""
    if not goals:
        raise ValueError("goals must be nonempty")
    d_cov = coverage_distance(params)
    dfield = solve_eikonal(base_velocity(grid), grid.to_cell(bs))
    worst_i = -1
    worst_d = -1.0
    for i, g in enumerate(goals):
        d = dfield.at(grid.to_cell(g))
        if not math.isfinite(d):
            return FeasibilityReport(
                feasible=False, ratio=math.inf, farthest_goal=i, farthest_distance=math.inf,
                d_cov=d_cov, reason=f"goal {i} at {g} unreachable through free space",
            )
        if d > worst_d:
            worst_d = d
            worst_i = i
    ratio = worst_d / d_cov
    feasible = ratio <= n_robots * (1.0 + 1e-12) + 1e-12
    reason = "" if feasible else (
        f"farthest goal {worst_i} needs a chain of {ratio:.2f} robots, only {n_robots} available"
    )
    return FeasibilityReport(feasible=feasible, ratio=ratio, farthest_goal=worst_i,
                             farthest_distance=worst_d, d_cov=d_cov, reason=reason)
