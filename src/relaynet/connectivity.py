"""Centralized deployment support: mutual-connectivity graph, min-hop tree,
movement costs with obstacle penalties, optimal task assignment, relay
position synthesis, and the chain feasibility check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .eikonal import base_velocity, solve_eikonal
from .gridmap import CellIndex, GridMap, WorldPoint, count_traversals
from .radio import CoverageBook, RadioParams, coverage_distance


class InfeasibleRelayError(RuntimeError):
    def __init__(self, message: str, goals: list[int]):
        super().__init__(message)
        self.goals = goals


@dataclass(frozen=True)
class ConnGraph:
    """Mutual-threshold connectivity graph; node 0 is the base station."""

    positions: tuple[WorldPoint, ...]
    edges: frozenset[tuple[int, int]]  # (i, j) with i < j

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.positions]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for a in adj:
            a.sort()
        return adj


@dataclass(frozen=True)
class ConnTree:
    """Min-hop BFS tree rooted at node 0; unreachable nodes carry depth None."""

    parent: tuple[int | None, ...]
    depth: tuple[int | None, ...]

    def unreachable(self, i: int) -> bool:
        return self.depth[i] is None

    def max_depth(self) -> int:
        finite = [d for d in self.depth if d is not None]
        return max(finite) if finite else 0

    def to_dict(self) -> dict:
        return {"parent": list(self.parent), "depth": list(self.depth)}


@dataclass(frozen=True)
class Assignment:
    pairs: tuple[tuple[int, int], ...]  # (row, col), minimal total cost
    total_cost: float

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)


@dataclass
class RelayPlan:
    positions: list[WorldPoint]
    newly_covered: list[list[int]]        # goal indices first connected by each relay
    assignment: list[tuple[int, int]]     # (free robot index, relay index)
    assignment_costs: list[float]

    def to_dict(self) -> dict:
        return {
            "positions": [list(p) for p in self.positions],
            "newly_covered": self.newly_covered,
            "assignment": [list(a) for a in self.assignment],
            "assignment_costs": self.assignment_costs,
        }


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    ratio: float
    farthest_goal: int
    farthest_distance: float
    d_cov: float
    reason: str = ""


def build_conn_graph(grid: GridMap, positions: list[WorldPoint], params: RadioParams, *,
                     book: CoverageBook | None = None) -> ConnGraph:
    """Edges join position pairs whose deterministic rss clears gamma (the
    rss is exactly reciprocal, so one direction decides both)."""
    for p in positions:
        if not grid.is_free_cell(grid.to_cell(p)):
            raise ValueError(f"node position {p} lies on an obstacle cell")
    if book is None:
        book = CoverageBook(grid, params)
    n = len(positions)
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if book.rss(positions[i], positions[j]) >= params.gamma)
    return ConnGraph(positions=tuple(tuple(p) for p in positions), edges=edges)


def bfs_tree(adj: list[list[int]]) -> tuple[list[int | None], list[int | None]]:
    """Level-synchronized BFS from node 0 over adjacency lists: (parent,
    depth), None where unreachable. Equal-depth parent ties go to the lower
    parent index."""
    n = len(adj)
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


def min_hop_tree(graph: ConnGraph) -> ConnTree:
    """Min-hop tree of the graph rooted at node 0 (see bfs_tree)."""
    parent, depth = bfs_tree(graph.adjacency())
    return ConnTree(parent=tuple(parent), depth=tuple(depth))


def movement_cost(grid: GridMap, a: WorldPoint, b: WorldPoint) -> float:
    """Euclidean distance inflated by the number of obstacle runs in between."""
    d = math.hypot(b[0] - a[0], b[1] - a[1])
    if d == 0.0:
        return 0.0
    counts = count_traversals(grid, a, b)
    return d * (1.0 + counts.walls + counts.glass)


def hungarian_assign(costs) -> Assignment:
    """Minimal-cost bijection on min(rows, cols); among equal-cost optima the
    lexicographically smallest assignment vector wins.

    Rectangular matrices are padded square with a dominating sentinel, so the
    padded entries add a constant offset and never change the real optimum.
    """
    M = np.asarray(costs, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("cost matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(M)) or np.any(M < 0):
        raise ValueError("costs must be finite and nonnegative")
    nr, nc = M.shape
    n = max(nr, nc)
    sentinel = float(M.max()) * n + 1.0
    P = np.full((n, n), sentinel)
    P[:nr, :nc] = M

    ri, ci = linear_sum_assignment(P)
    best = float(P[ri, ci].sum())
    tol = 1e-9 * max(1.0, abs(best))

    chosen: list[int] = []
    remaining = list(range(n))
    fixed = 0.0
    for r in range(n):
        picked = None
        for c in remaining:
            rest_cols = [x for x in remaining if x != c]
            if r + 1 < n:
                sub = P[np.ix_(range(r + 1, n), rest_cols)]
                rest = float(sub[linear_sum_assignment(sub)].sum())
            else:
                rest = 0.0
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


def plan_relays(grid: GridMap, goals: list[WorldPoint], tree: ConnTree,
                free_robots: list[WorldPoint], params: RadioParams, *,
                bs: WorldPoint, transmitters: list[WorldPoint] | None = None,
                stride: int = 2, book: CoverageBook | None = None) -> RelayPlan:
    """Greedy relay-position synthesis over the covered free cells.

    Candidates are free cells inside the combined coverage of the current
    transmitters, sampled on a stride lattice. Each greedy round commits the
    candidate scoring best on (goals newly connected, goal depths reduced,
    cheapest reachable free robot), then recomputes coverage. When no single
    candidate connects an unreachable goal, a bridge relay is committed at
    the covered cell closest to the nearest unreachable goal, provided it
    makes strict progress; otherwise the remaining goals are reported
    infeasible. Finally free robots are assigned to the committed positions
    by minimal movement cost.

    tree must be the min-hop tree over nodes [bs, *transmitters, *goals].
    """
    transmitters = list(transmitters) if transmitters else []
    if book is None:
        book = CoverageBook(grid, params)
    n_tx = len(transmitters)
    goal_node = lambda gi: 1 + n_tx + gi
    expected_nodes = 1 + n_tx + len(goals)
    if len(tree.depth) != expected_nodes:
        raise ValueError(
            f"tree has {len(tree.depth)} nodes, expected {expected_nodes} "
            "(bs + transmitters + goals)"
        )

    base_positions = [tuple(bs)] + [tuple(t) for t in transmitters] + [tuple(g) for g in goals]
    committed: list[WorldPoint] = []
    newly_covered: list[list[int]] = []
    depths = [tree.depth[goal_node(gi)] for gi in range(len(goals))]

    def node_list() -> list[WorldPoint]:
        return base_positions + committed

    def goal_depths(adj: list[list[int]]) -> list[int | None]:
        depth = bfs_tree(adj)[1]
        return [depth[goal_node(gi)] for gi in range(len(goals))]

    def candidate_cells() -> list[CellIndex]:
        cov = book.combined([bs] + transmitters + committed)
        mask = cov.mask & (grid.materials == 0)
        cells = []
        taken = {grid.to_cell(p) for p in node_list()}
        for r in range(0, grid.height, stride):
            for c in range(0, grid.width, stride):
                if mask[r, c] and (c, r) not in taken:
                    cells.append((c, r))
        return cells

    guard = 4 * len(goals) + 16
    while True:
        if len(committed) > guard:
            raise InfeasibleRelayError(
                "relay synthesis exceeded its commit budget",
                [gi for gi, d in enumerate(depths) if d is None],
            )
        positions = node_list()
        adj = build_conn_graph(grid, positions, params, book=book).adjacency()
        depths = goal_depths(adj)
        unreachable = [gi for gi, d in enumerate(depths) if d is None]

        cands = candidate_cells()
        best = None
        best_score = None
        for cell in cands:
            cpos = grid.to_world(cell)
            cadj = [i for i, p in enumerate(positions) if book.rss(cpos, p) >= params.gamma]
            ext_adj = [list(a) for a in adj] + [cadj]
            ci = len(positions)
            for i in cadj:
                ext_adj[i].append(ci)
            new_depths = goal_depths(ext_adj)
            connected = sum(1 for gi in unreachable if new_depths[gi] is not None)
            reduced = sum(
                1 for gi in range(len(goals))
                if depths[gi] is not None and new_depths[gi] is not None
                and new_depths[gi] < depths[gi]
            )
            if connected == 0 and reduced == 0:
                continue
            if free_robots:
                min_cost = min(movement_cost(grid, fr, cpos) for fr in free_robots)
            else:
                min_cost = 0.0
            score = (connected, reduced, -min_cost)
            if best_score is None or score > best_score:
                best_score = score
                best = (cell, cpos, new_depths, [gi for gi in unreachable if new_depths[gi] is not None])
        if best is not None:
            _, cpos, new_depths, covered_goals = best
            committed.append(cpos)
            newly_covered.append(covered_goals)
            depths = new_depths
            continue

        if not unreachable:
            break

        # bridge step: no single candidate connects anything yet, so walk the
        # coverage toward the nearest unreachable goal
        def gap_from(points: list[WorldPoint]) -> float:
            return min(
                math.hypot(g[0] - p[0], g[1] - p[1])
                for p in points
                for g in (goals[gi] for gi in unreachable)
            )

        current_gap = gap_from([bs] + transmitters + committed)
        bridge = None
        bridge_gap = math.inf
        for cell in cands:
            cpos = grid.to_world(cell)
            g = gap_from([cpos])
            if g < bridge_gap:
                bridge_gap = g
                bridge = cpos
        if bridge is None or bridge_gap > current_gap - grid.resolution:
            raise InfeasibleRelayError(
                f"goals {unreachable} cannot be covered by relays", unreachable
            )
        committed.append(bridge)
        newly_covered.append([])

    assignment: list[tuple[int, int]] = []
    assignment_costs: list[float] = []
    if committed and free_robots:
        costs = [[movement_cost(grid, fr, rp) for rp in committed] for fr in free_robots]
        asn = hungarian_assign(costs)
        assignment = [tuple(p) for p in asn.pairs]
        assignment_costs = [costs[r][c] for r, c in assignment]
    return RelayPlan(positions=committed, newly_covered=newly_covered,
                     assignment=assignment, assignment_costs=assignment_costs)


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
