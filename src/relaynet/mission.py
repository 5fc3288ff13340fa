"""End-to-end deployment pipelines (FMM, CA-FMM, DP-FMM, DPA-FMM), synchronous
mission execution with waiting semantics, reactive replanning, and metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .clustering import VISIT_CAP, cluster_goals, visit_order
from .connectivity import (
    FeasibilityReport,
    InfeasibleRelayError,
    bfs_tree,
    build_conn_graph,
    check_feasibility,
    hungarian_assign,
    min_hop_tree,
    movement_cost,
    plan_relays,
)
from .eikonal import Path, ca_fmm_path
from .gridmap import CellIndex, GridMap, WorldPoint
from .radio import CoverageBook, RadioParams

MODES = ("FMM", "CA-FMM", "DP-FMM", "DPA-FMM")

_MODE_ALIASES = {
    "fmm": "FMM",
    "ca": "CA-FMM",
    "cafmm": "CA-FMM",
    "ca-fmm": "CA-FMM",
    "dp": "DP-FMM",
    "dpfmm": "DP-FMM",
    "dp-fmm": "DP-FMM",
    "dpa": "DPA-FMM",
    "dpafmm": "DPA-FMM",
    "dpa-fmm": "DPA-FMM",
}


class InfeasibleScenarioError(RuntimeError):
    def __init__(self, message: str, report: FeasibilityReport | None = None):
        super().__init__(message)
        self.report = report


class DeadlockError(RuntimeError):
    def __init__(self, message: str, waiting: dict):
        super().__init__(f"{message}: {waiting}")
        self.waiting = waiting


class GoalConnectivityStallError(RuntimeError):
    """A robot held disconnected at its goal too long; trace is the mission
    up to and including the stall tick, as until_tick=tick would return it."""

    def __init__(self, message: str, tick: int, positions: list[WorldPoint], reached: set[int],
                 trace: MissionTrace):
        super().__init__(message)
        self.tick = tick
        self.positions = positions
        self.reached = reached
        self.trace = trace


def normalize_mode(mode: str) -> str:
    key = mode.strip().lower()
    if key not in _MODE_ALIASES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return _MODE_ALIASES[key]


@dataclass
class Scenario:
    map: GridMap
    bs: WorldPoint
    robot_starts: list[WorldPoint]
    goals: list[WorldPoint]
    radio: RadioParams = field(default_factory=RadioParams)
    w_c: float = 1.0
    robot_speed: float | None = None   # meters per tick; defaults to one cell
    relay_stride: int = 2
    visit_cap: int = VISIT_CAP

    def __post_init__(self):
        # mission points are grid-cell addressed: snapping everything to cell
        # centers keeps planning and execution on identical geometry
        grid = self.map
        self.bs = grid.to_world(grid.to_cell(tuple(self.bs)))
        self.robot_starts = [grid.to_world(grid.to_cell(tuple(p))) for p in self.robot_starts]
        self.goals = [grid.to_world(grid.to_cell(tuple(p))) for p in self.goals]

    def speed(self) -> float:
        return self.robot_speed if self.robot_speed is not None else self.map.resolution

    def validate(self, initial: bool = True) -> None:
        grid = self.map
        for name, pts in (("bs", [self.bs]), ("robot_starts", self.robot_starts), ("goals", self.goals)):
            for p in pts:
                if not grid.is_free_cell(grid.to_cell(p)):
                    raise ValueError(f"{name} point {p} is not on a free cell")
        if initial and len(self.robot_starts) != len(self.goals):
            raise ValueError(
                f"initial scenario needs as many robots as goals "
                f"({len(self.robot_starts)} robots, {len(self.goals)} goals)"
            )
        cells = [grid.to_cell(g) for g in self.goals]
        if len(set(cells)) != len(cells):
            raise ValueError("goals must occupy distinct cells")


@dataclass
class PlanSegment:
    purpose: str                       # "primary-goal" | "relay-move" | "wait-until"
    path: Path | None = None
    goal_index: int | None = None      # primary-goal only
    post: CellIndex | None = None      # endpoint cell for moves
    wait_for: list[tuple[int, CellIndex]] = field(default_factory=list)

    def to_dict(self) -> dict:
        d: dict = {"purpose": self.purpose}
        if self.path is not None:
            d["path"] = [[x, y] for x, y in self.path.points]
            d["length"] = self.path.length
            d["coverage_fraction"] = self.path.coverage_fraction
        if self.goal_index is not None:
            d["goal_index"] = self.goal_index
        if self.post is not None:
            d["post"] = list(self.post)
        if self.wait_for:
            d["wait_for"] = [[r, list(c)] for r, c in self.wait_for]
        return d


@dataclass
class DeploymentPlan:
    mode: str
    robots: list[list[PlanSegment]]
    robots_used: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "robots_used": self.robots_used,
            "robots": [[seg.to_dict() for seg in segs] for segs in self.robots],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)


@dataclass
class MissionEvent:
    tick: int
    kind: str        # goal-reached | relay-in-place | wait-start | wait-end | disconnection
    robot: int
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"tick": self.tick, "kind": self.kind, "robot": self.robot, "data": self.data}


@dataclass
class MissionTrace:
    positions: list[list[WorldPoint]]       # per tick, per robot
    parents: list[list[int | None]]         # per tick, tree parents over [bs]+robots
    connected: list[list[bool]]             # per tick, per robot
    active: list[list[bool]]                # per tick, per robot
    events: list[MissionEvent]
    reached_goals: set[int]
    completed: bool

    @property
    def ticks(self) -> int:
        return len(self.positions) - 1

    def to_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "completed": self.completed,
            "reached_goals": sorted(self.reached_goals),
            "positions": [[[x, y] for x, y in row] for row in self.positions],
            "parents": self.parents,
            "connected": self.connected,
            "events": [e.to_dict() for e in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class Metrics:
    d_max: float
    d_tot: float
    time_ticks: int
    c_mean: float
    c_min: float
    o_mean: float
    robots_used: int

    COLUMNS = ("d_max", "d_tot", "T", "C_mean", "C_min", "O_mean", "R")

    def row(self) -> list[float]:
        return [self.d_max, self.d_tot, float(self.time_ticks),
                self.c_mean, self.c_min, self.o_mean, float(self.robots_used)]


# ---------------------------------------------------------------------------
# planning


@dataclass
class _Tx:
    pos: WorldPoint
    cell: CellIndex
    robot: int | None       # None is the base station
    parent: int | None      # uplink transmitter index
    active: bool = True


class _Planner:
    """Shared state for the wave-structured DP/DPA planners."""

    def __init__(self, sc: Scenario, fixed_relays: tuple[tuple[int, WorldPoint], ...] = ()):
        self.sc = sc
        self.grid = sc.map
        self.params = sc.radio
        self.book = CoverageBook(sc.map, sc.radio)
        self.N = len(sc.robot_starts)
        self.segs: list[list[PlanSegment]] = [[] for _ in range(self.N)]
        self.robot_pos: list[WorldPoint] = [tuple(p) for p in sc.robot_starts]
        self.txs: list[_Tx] = [_Tx(tuple(sc.bs), sc.map.to_cell(sc.bs), None, None)]
        self.dependents: dict[int, list[tuple[int, CellIndex]]] = {}
        self.fixed_robots: set[int] = set()
        for robot, pos in fixed_relays:
            pos = tuple(pos)
            cell = self.grid.to_cell(pos)
            parent = self.strongest(pos, gated=False)
            self.txs.append(_Tx(pos, cell, robot, parent))
            self.fixed_robots.add(robot)
            self.robot_pos[robot] = pos

    def active_txs(self) -> list[int]:
        return [i for i, t in enumerate(self.txs) if t.active]

    def tx_candidates(self, exclude: set[int] = frozenset()) -> list[tuple[int, WorldPoint]]:
        return [(i, self.txs[i].pos) for i in self.active_txs() if i not in exclude]

    def strongest(self, p: WorldPoint, candidates: list[tuple] | None = None,
                  gated: bool = True):
        """Key of the (key, position) candidate, by default the active
        transmitters, with the strongest rss at p; the first one on ties.
        With gated only rss >= gamma counts. None when no candidate qualifies."""
        best, best_rss = None, -math.inf
        for key, pos in self.tx_candidates() if candidates is None else candidates:
            r = self.book.rss(pos, p)
            if r > best_rss and (not gated or r >= self.params.gamma):
                best, best_rss = key, r
        return best

    def uplink_chain(self, ti: int) -> list[int]:
        chain = []
        cur: int | None = ti
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            if self.txs[cur].robot is not None:
                chain.append(cur)
            cur = self.txs[cur].parent
        return chain

    def relay_rewire(self, old_ti: int, post: WorldPoint):
        """Feasibility of moving the robot at old_ti to post.

        The post needs a settled transmitter covering it, and every active
        transmitter whose uplink parent is old_ti must re-home to a settled
        transmitter or to the new post itself. Returns (post parent index,
        {child: new parent or "new"}) or None when the move would strand
        someone.
        """
        gamma = self.params.gamma
        children = [i for i, t in enumerate(self.txs)
                    if t.active and t.parent == old_ti and i != old_ti]
        settled = self.tx_candidates(exclude=set(children) | {old_ti})
        parent_ti = self.strongest(post, settled)
        if parent_ti is None:
            return None
        rehome: dict[int, int | str] = {}
        for child in children:
            cpos = self.txs[child].pos
            target: int | str | None = self.strongest(cpos, settled)
            best_rss = -math.inf if target is None else self.book.rss(self.txs[target].pos, cpos)
            from_post = self.book.rss(post, cpos)
            if from_post >= gamma and from_post > best_rss:
                target = "new"
            if target is None:
                return None
            rehome[child] = target
        return parent_ti, rehome

    def register_dependency(self, ti: int, arrival: tuple[int, CellIndex]) -> None:
        for t in self.uplink_chain(ti):
            self.dependents.setdefault(t, []).append(arrival)

    def wait_segment(self, conditions: list[tuple[int, CellIndex]]) -> PlanSegment | None:
        conds = sorted(set(conditions))
        if not conds:
            return None
        return PlanSegment(purpose="wait-until", wait_for=conds)

    def plan_leg(self, start: WorldPoint, target: WorldPoint,
                 sources: list[WorldPoint], blocked: list[CellIndex]) -> Path:
        return ca_fmm_path(
            self.grid, self.grid.to_cell(start), self.grid.to_cell(target),
            sources, self.params, self.sc.w_c, blocked=blocked, book=self.book,
        )

    def parked_cells(self, exclude_robot: int | None = None) -> list[CellIndex]:
        return [t.cell for i, t in enumerate(self.txs)
                if t.active and t.robot is not None and t.robot != exclude_robot]

    def source_positions(self) -> list[WorldPoint]:
        return [self.txs[i].pos for i in self.active_txs()]


def _plan_simple(sc: Scenario, mode: str) -> DeploymentPlan:
    """FMM and CA-FMM: Hungarian allocation on movement costs, one path each.

    CA-FMM plans in tree-depth order against the coverage of the base station
    plus the goal endpoints already planned; FMM ignores coverage entirely.
    """
    grid, params = sc.map, sc.radio
    N, G = len(sc.robot_starts), len(sc.goals)
    segs: list[list[PlanSegment]] = [[] for _ in range(N)]
    if G == 0:
        return DeploymentPlan(mode=mode, robots=segs, robots_used=0)
    costs = [[movement_cost(grid, s, g) for g in sc.goals] for s in sc.robot_starts]
    asn = hungarian_assign(costs)
    robot_of_goal = {g: r for r, g in asn.pairs}

    if mode == "CA-FMM":
        graph = build_conn_graph(grid, [sc.bs] + [tuple(g) for g in sc.goals], params)
        tree = min_hop_tree(graph)
        order = sorted(range(G), key=lambda g: (tree.depth[g + 1] is None, tree.depth[g + 1] or 0, g))
    else:
        order = sorted(robot_of_goal.keys())

    book = CoverageBook(grid, params)
    sources: list[WorldPoint] = [tuple(sc.bs)]
    for g in order:
        r = robot_of_goal.get(g)
        if r is None:
            continue
        relay_sources = sources if mode == "CA-FMM" else []
        path = ca_fmm_path(grid, grid.to_cell(sc.robot_starts[r]), grid.to_cell(sc.goals[g]),
                           relay_sources, params, sc.w_c, book=book)
        segs[r].append(PlanSegment(purpose="primary-goal", path=path, goal_index=g,
                                   post=grid.to_cell(sc.goals[g])))
        if mode == "CA-FMM":
            sources.append(tuple(sc.goals[g]))
    used = sum(1 for s in segs if s)
    return DeploymentPlan(mode=mode, robots=segs, robots_used=used)


def _plan_dp(sc: Scenario) -> DeploymentPlan:
    """DP-FMM: wave-by-wave goal planning plus relay synthesis and assignment.

    Each wave plans the goals whose positions are covered by an already
    materialized transmitter, gates departures on the covering robot being in
    place, then turns finished robots into relays where coverage is missing.
    """
    pl = _Planner(sc)
    grid, params = sc.map, sc.radio
    N, goals = pl.N, [tuple(g) for g in sc.goals]
    unplanned = set(range(len(goals)))
    assigned_goal: list[int | None] = [None] * N
    relay_done = [False] * N

    for _wave in range(2 * N + 4):
        if not unplanned:
            break
        progressed = False
        frontier = sorted(g for g in unplanned if pl.strongest(goals[g]) is not None)
        if frontier:
            avail = [r for r in range(N) if assigned_goal[r] is None and r not in pl.fixed_robots]
            if avail:
                costs = [[movement_cost(grid, pl.robot_pos[r], goals[g]) for g in frontier]
                         for r in avail]
                asn = hungarian_assign(costs)
                for ai, fi in asn.pairs:
                    robot, g = avail[ai], frontier[fi]
                    parent_ti = pl.strongest(goals[g])
                    goal_cell = grid.to_cell(goals[g])
                    path = pl.plan_leg(pl.robot_pos[robot], goals[g], pl.source_positions(),
                                       pl.parked_cells(exclude_robot=robot))
                    wait = None
                    if parent_ti is not None and pl.txs[parent_ti].robot is not None:
                        wait = pl.wait_segment([(pl.txs[parent_ti].robot, pl.txs[parent_ti].cell)])
                    if wait:
                        pl.segs[robot].append(wait)
                    pl.segs[robot].append(PlanSegment(purpose="primary-goal", path=path,
                                                      goal_index=g, post=goal_cell))
                    if parent_ti is not None:
                        pl.register_dependency(parent_ti, (robot, goal_cell))
                    pl.txs.append(_Tx(goals[g], goal_cell, robot, parent_ti))
                    assigned_goal[robot] = g
                    pl.robot_pos[robot] = goals[g]
                    unplanned.discard(g)
                    progressed = True
        if unplanned:
            remaining = sorted(unplanned)
            free = [r for r in range(N)
                    if assigned_goal[r] is not None and not relay_done[r] and r not in pl.fixed_robots]
            tx_pos = [pl.txs[i].pos for i in pl.active_txs() if pl.txs[i].robot is not None]
            nodes = [tuple(sc.bs)] + tx_pos + [goals[g] for g in remaining]
            tree = min_hop_tree(build_conn_graph(grid, nodes, params, book=pl.book))
            try:
                rp = plan_relays(grid, [goals[g] for g in remaining], tree,
                                 [pl.robot_pos[r] for r in free], params,
                                 bs=sc.bs, transmitters=tx_pos,
                                 stride=sc.relay_stride, book=pl.book)
            except InfeasibleRelayError as e:
                if progressed:
                    continue  # let parked robots extend coverage next wave
                raise InfeasibleScenarioError(
                    f"relay synthesis failed for goals {sorted(remaining[i] for i in e.goals)}"
                ) from e
            # only posts whose coverage is already materialized may be manned now
            eligible = [i for i, post in enumerate(rp.positions) if pl.strongest(post) is not None]
            if free and eligible:
                costs = [[movement_cost(grid, pl.robot_pos[r], rp.positions[i]) for i in eligible]
                         for r in free]
                asn = hungarian_assign(costs)
                # a post must stay covered once its robot leaves its old spot,
                # so commit pairs in sweeps and drop any that lose coverage
                pending = list(asn.pairs)
                while pending:
                    committed_any = False
                    for ai, ei in list(pending):
                        robot, post = free[ai], rp.positions[eligible[ei]]
                        old_ti = next(i for i, t in enumerate(pl.txs)
                                      if t.active and t.robot == robot)
                        rewire = pl.relay_rewire(old_ti, post)
                        if rewire is None:
                            continue
                        parent_ti, rehome = rewire
                        post_cell = grid.to_cell(post)
                        wait = pl.wait_segment(pl.dependents.get(old_ti, []))
                        path = pl.plan_leg(pl.robot_pos[robot], post, pl.source_positions(),
                                           pl.parked_cells(exclude_robot=robot))
                        pl.txs[old_ti].active = False
                        if wait:
                            pl.segs[robot].append(wait)
                        pl.segs[robot].append(PlanSegment(purpose="relay-move", path=path,
                                                          post=post_cell))
                        new_ti = len(pl.txs)
                        pl.txs.append(_Tx(tuple(post), post_cell, robot, parent_ti))
                        for child, target in rehome.items():
                            pl.txs[child].parent = new_ti if target == "new" else target
                        relay_done[robot] = True
                        pl.robot_pos[robot] = tuple(post)
                        pending.remove((ai, ei))
                        committed_any = True
                        progressed = True
                    if not committed_any:
                        break  # the rest re-enter synthesis on a later wave
        if not progressed:
            raise InfeasibleScenarioError(
                f"DP planning stalled with goals {sorted(unplanned)} unplanned"
            )
    if unplanned:
        raise InfeasibleScenarioError(f"DP planning ran out of waves; unplanned {sorted(unplanned)}")
    used = sum(1 for s in pl.segs if any(x.purpose != "wait-until" for x in s))
    return DeploymentPlan(mode="DP-FMM", robots=pl.segs, robots_used=used)


def _split_to_cap(grid: GridMap, entry: WorldPoint, destinations: list[WorldPoint],
                  dest_meta: list[tuple[str, int]], waypoints: list[WorldPoint],
                  wp_ids: list[int], cap: int):
    """Cluster by smallest deviation, promoting far waypoints to extra
    destinations until every cluster fits under the exhaustive-search cap."""
    dests = list(destinations)
    meta = list(dest_meta)
    wpts = list(waypoints)
    ids = list(wp_ids)
    while True:
        clusters = cluster_goals(grid, entry, dests, wpts)
        over = [cl for cl in clusters if len(cl.waypoints) > cap]
        if not over:
            return clusters, meta, ids
        cl = over[0]
        far = max(range(len(cl.waypoints)),
                  key=lambda i: (round(movement_cost(grid, entry, cl.waypoints[i]), 9),
                                 -cl.waypoint_indices[i]))
        gidx = cl.waypoint_indices[far]
        dests.append(wpts[gidx])
        meta.append(("goal", ids[gidx]))
        del wpts[gidx]
        del ids[gidx]


def _plan_dpa(sc: Scenario, fixed_relays: tuple[tuple[int, WorldPoint], ...] = ()) -> DeploymentPlan:
    """DPA-FMM: DP plus clustering; each cluster is one robot visiting its
    waypoints in exhaustively optimal order and remaining at its destination."""
    pl = _Planner(sc, fixed_relays)
    grid, params = sc.map, sc.radio
    goals = [tuple(g) for g in sc.goals]
    unplanned = set(range(len(goals)))
    available = [r for r in range(pl.N) if r not in pl.fixed_robots]

    for _wave in range(2 * pl.N + 4):
        if not unplanned:
            break
        remaining = sorted(unplanned)
        active = pl.active_txs()
        tx_pos = [pl.txs[i].pos for i in active if pl.txs[i].robot is not None]
        nodes = [tuple(sc.bs)] + tx_pos + [goals[g] for g in remaining]
        tree = min_hop_tree(build_conn_graph(grid, nodes, params, book=pl.book))
        try:
            rp = plan_relays(grid, [goals[g] for g in remaining], tree,
                             [pl.robot_pos[r] for r in available], params,
                             bs=sc.bs, transmitters=tx_pos,
                             stride=sc.relay_stride, book=pl.book)
        except InfeasibleRelayError as e:
            raise InfeasibleScenarioError(
                f"relay synthesis failed for goals {sorted(remaining[i] for i in e.goals)}"
            ) from e

        # entry resolution: posts chain off active transmitters in commit order
        placed = [(("tx", i), pl.txs[i].pos) for i in active]
        entry_of_post: list[tuple[str, int]] = []
        post_pos = [tuple(p) for p in rp.positions]

        def pos_of(key: tuple[str, int]) -> WorldPoint:
            kind, i = key
            return pl.txs[i].pos if kind == "tx" else post_pos[i]

        for pi, post in enumerate(post_pos):
            entry_of_post.append(pl.strongest(post, placed, gated=False))
            placed.append((("post", pi), post))

        # group frontier goals and posts under their strongest coverer
        groups: dict[tuple[str, int], dict] = {}

        def group_for(key: tuple[str, int]) -> dict:
            return groups.setdefault(key, {"goals": [], "posts": []})

        for pi in range(len(post_pos)):
            group_for(entry_of_post[pi])["posts"].append(pi)
        for g in remaining:
            best = pl.strongest(goals[g], placed)
            if best is not None:
                group_for(best)["goals"].append(g)

        # build clusters and their optimal visit sequences
        cluster_specs = []
        order_keys = sorted(groups.keys(), key=lambda k: (0 if k[0] == "tx" else 1, k[1]))
        for key in order_keys:
            grp = groups[key]
            entry_pos = pos_of(key)
            grp_goals = sorted(grp["goals"])
            grp_posts = grp["posts"]
            if not grp_goals and not grp_posts:
                continue
            if grp_posts:
                dest_positions = [post_pos[pi] for pi in grp_posts]
                dest_meta = [("post", pi) for pi in grp_posts]
                waypoints = [goals[g] for g in grp_goals]
                wp_ids = grp_goals
            else:
                far = max(grp_goals, key=lambda g: (round(movement_cost(grid, entry_pos, goals[g]), 9), -g))
                dest_positions = [goals[far]]
                dest_meta = [("goal", far)]
                waypoints = [goals[g] for g in grp_goals if g != far]
                wp_ids = [g for g in grp_goals if g != far]
            clusters, meta, ids = _split_to_cap(grid, entry_pos, dest_positions, dest_meta,
                                                waypoints, wp_ids, sc.visit_cap)
            for cl in clusters:
                seq = visit_order(grid, cl, cap=sc.visit_cap)
                kind, ident = meta[cl.destination_index]
                ordered = [ids[i] for i in seq.waypoint_order]
                goal_ids = [ids[i] for i in cl.waypoint_indices]
                if kind == "goal":
                    goal_ids = goal_ids + [ident]
                cluster_specs.append({
                    "entry": key, "seq": seq, "goal_ids": goal_ids,
                    "dest_kind": kind, "dest_post": ident if kind == "post" else None,
                    "order": ordered,
                })

        if not cluster_specs:
            raise InfeasibleScenarioError(
                f"DPA planning stalled with goals {sorted(unplanned)} unplanned"
            )
        if not available:
            raise InfeasibleScenarioError(
                f"DPA planning ran out of robots with goals {sorted(unplanned)} unplanned"
            )

        costs = [[movement_cost(grid, pl.robot_pos[r], spec["seq"].points[1])
                  for spec in cluster_specs] for r in available]
        asn = hungarian_assign(costs)
        assigned = {ci: available[ai] for ai, ci in asn.pairs}

        post_robot: dict[int, int] = {}
        for ci, spec in enumerate(cluster_specs):
            if ci in assigned and spec["dest_kind"] == "post":
                post_robot[spec["dest_post"]] = assigned[ci]

        # process clusters in dependency order; a cluster entering through a
        # post runs only after the cluster serving that post is materialized
        progressed = False
        post_tx: dict[int, int] = {}
        done: set[int] = set()
        changed = True
        while changed:
            changed = False
            for ci, spec in enumerate(cluster_specs):
                if ci in done or ci not in assigned:
                    continue
                entry_kind, entry_id = spec["entry"]
                if entry_kind == "tx":
                    entry_ti = entry_id
                elif entry_id in post_tx:
                    entry_ti = post_tx[entry_id]
                else:
                    continue  # entry post not manned yet (or not at all this wave)
                robot = assigned[ci]
                seq = spec["seq"]
                entry_tx = pl.txs[entry_ti]
                wait = None
                if entry_tx.robot is not None:
                    wait = pl.wait_segment([(entry_tx.robot, entry_tx.cell)])
                if wait:
                    pl.segs[robot].append(wait)

                sources = pl.source_positions() + [post_pos[pi] for pi in sorted(post_robot)]
                blocked = pl.parked_cells(exclude_robot=robot)
                cur = pl.robot_pos[robot]
                legs = seq.points[1:]
                ordered_goals = list(spec["order"])
                dest_cell = grid.to_cell(seq.points[-1])
                for li, target in enumerate(legs):
                    path = pl.plan_leg(cur, target, sources, blocked)
                    last = li == len(legs) - 1
                    if last and spec["dest_kind"] == "post":
                        pl.segs[robot].append(PlanSegment(purpose="relay-move", path=path,
                                                          post=grid.to_cell(target)))
                    else:
                        g = ordered_goals[li] if li < len(ordered_goals) else spec["goal_ids"][-1]
                        pl.segs[robot].append(PlanSegment(purpose="primary-goal", path=path,
                                                          goal_index=g, post=grid.to_cell(target)))
                    cur = tuple(target)
                pl.register_dependency(entry_ti, (robot, dest_cell))
                new_ti = len(pl.txs)
                pl.txs.append(_Tx(tuple(seq.points[-1]), dest_cell, robot, entry_ti))
                if spec["dest_kind"] == "post":
                    post_tx[spec["dest_post"]] = new_ti
                pl.robot_pos[robot] = tuple(seq.points[-1])
                available.remove(robot)
                for g in spec["goal_ids"]:
                    unplanned.discard(g)
                done.add(ci)
                progressed = True
                changed = True

        if not progressed:
            raise InfeasibleScenarioError(
                f"DPA planning made no progress with goals {sorted(unplanned)} unplanned"
            )
    if unplanned:
        raise InfeasibleScenarioError(f"DPA planning ran out of waves; unplanned {sorted(unplanned)}")
    used = sum(1 for s in pl.segs if any(x.purpose != "wait-until" for x in s))
    return DeploymentPlan(mode="DPA-FMM", robots=pl.segs, robots_used=used)


def plan_deployment(scenario: Scenario, mode: str,
                    fixed_relays: tuple[tuple[int, WorldPoint], ...] = ()) -> DeploymentPlan:
    """Plan the whole team under the requested pipeline."""
    from .eikonal import PathExtractionError, UnreachableError

    mode = normalize_mode(mode)
    scenario.validate(initial=False)
    if not scenario.goals:
        return DeploymentPlan(mode=mode, robots=[[] for _ in scenario.robot_starts], robots_used=0)
    if mode in ("DP-FMM", "DPA-FMM"):
        report = check_feasibility(scenario.map, scenario.bs, scenario.goals,
                                   len(scenario.robot_starts), scenario.radio)
        if not report.feasible:
            raise InfeasibleScenarioError(f"infeasible scenario: {report.reason}", report)
    try:
        if mode == "FMM" or mode == "CA-FMM":
            return _plan_simple(scenario, mode)
        if mode == "DP-FMM":
            return _plan_dp(scenario)
        return _plan_dpa(scenario, fixed_relays)
    except (UnreachableError, PathExtractionError) as e:
        raise InfeasibleScenarioError(f"planning failed: {e}") from e


def replan(scenario_updated: Scenario, reached_goals: set[int],
           robot_positions: list[WorldPoint],
           committed_relays: tuple[tuple[int, WorldPoint], ...] = ()) -> DeploymentPlan:
    """Re-run the full DPA pipeline from the robots' current positions with
    reached goals dropped; goal indices in the new plan refer to the reduced
    goal list. Robots already committed as relays keep their posts."""
    goals = [g for i, g in enumerate(scenario_updated.goals) if i not in reached_goals]
    sc = replace(scenario_updated, robot_starts=[tuple(p) for p in robot_positions], goals=goals)
    return plan_deployment(sc, "DPA-FMM", fixed_relays=committed_relays)


# ---------------------------------------------------------------------------
# execution


def _point_along(points: list[WorldPoint], s: float) -> WorldPoint:
    remaining = s
    for i in range(len(points) - 1):
        ax, ay = points[i]
        bx, by = points[i + 1]
        seg = math.hypot(bx - ax, by - ay)
        if seg >= remaining or i == len(points) - 2:
            if seg == 0.0:
                return points[i + 1]
            f = min(remaining / seg, 1.0)
            return (ax + f * (bx - ax), ay + f * (by - ay))
        remaining -= seg
    return points[-1]


def _tick_tree(book: CoverageBook, bs: WorldPoint, positions: list[WorldPoint],
               noise: RadioParams | None, tick: int) -> tuple[list[int | None], list[bool]]:
    nodes = [tuple(bs)] + [tuple(p) for p in positions]
    n = len(nodes)
    gamma = book.params.gamma
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if book.rss(nodes[i], nodes[j], noise, (tick,)) >= gamma:
                adj[i].append(j)
                adj[j].append(i)
    parent, depth = bfs_tree(adj)
    connected = [depth[i + 1] is not None for i in range(len(positions))]
    return parent, connected


def execute_mission(plan: DeploymentPlan, scenario: Scenario,
                    noise_seed: int | None = None, until_tick: int | None = None,
                    hold_limit: int = 25) -> MissionTrace:
    """Synchronous tick simulation of a deployment plan.

    Robots advance at most robot_speed along their current path each tick;
    wait segments release in the tick their arrival conditions are met. Goal
    events under noise require connectivity to the base station through that
    tick's tree; a robot blocked on that for hold_limit ticks raises a stall
    so the caller can replan.
    """
    grid, params = scenario.map, scenario.radio
    N = len(scenario.robot_starts)
    if len(plan.robots) != N:
        raise ValueError(f"plan covers {len(plan.robots)} robots, scenario has {N}")
    book = CoverageBook(grid, params)
    noise = None if noise_seed is None else params.with_(seed=noise_seed)
    speed = scenario.speed()
    pos: list[WorldPoint] = [tuple(p) for p in scenario.robot_starts]
    queues: list[list[PlanSegment]] = [list(s) for s in plan.robots]
    progress = [0.0] * N
    arrivals: set[tuple[int, CellIndex]] = set()
    events: list[MissionEvent] = []
    reached: set[int] = set()
    pending_goal: list[int | None] = [None] * N
    hold_ticks = [0] * N
    waiting_logged = [False] * N

    positions_log: list[list[WorldPoint]] = []
    parents_log: list[list[int | None]] = []
    connected_log: list[list[bool]] = []
    active_log: list[list[bool]] = []
    prev_connected: list[bool] | None = None

    for r in range(N):
        arrivals.add((r, grid.to_cell(pos[r])))

    def waits_met(seg: PlanSegment) -> bool:
        return all((rb, tuple(c)) in arrivals for rb, c in seg.wait_for)

    def complete_move(r: int, seg: PlanSegment, tick: int) -> None:
        endpoint = seg.path.points[-1]
        pos[r] = tuple(endpoint)
        cell = grid.to_cell(endpoint)
        arrivals.add((r, cell))
        if seg.purpose == "primary-goal":
            pending_goal[r] = seg.goal_index
        else:
            events.append(MissionEvent(tick, "relay-in-place", r, {"post": list(cell)}))

    tick = 0
    while True:
        active_now = [bool(queues[r]) or pending_goal[r] is not None for r in range(N)]
        moved = False
        if tick > 0:
            for r in range(N):
                budget = speed
                while budget > 1e-9 and queues[r] and pending_goal[r] is None:
                    seg = queues[r][0]
                    if seg.purpose == "wait-until":
                        if not waiting_logged[r]:
                            events.append(MissionEvent(tick, "wait-start", r,
                                                       {"for": [[a, list(b)] for a, b in seg.wait_for]}))
                            waiting_logged[r] = True
                        break
                    remaining = seg.path.length - progress[r]
                    if remaining <= budget + 1e-9:
                        budget -= max(remaining, 0.0)
                        progress[r] = 0.0
                        queues[r].pop(0)
                        complete_move(r, seg, tick)
                        moved = True
                    else:
                        progress[r] += budget
                        pos[r] = _point_along(seg.path.points, progress[r])
                        budget = 0.0
                        moved = True

        parents, connected = _tick_tree(book, scenario.bs, pos, noise, tick)
        positions_log.append([tuple(p) for p in pos])
        parents_log.append(parents)
        connected_log.append(connected)
        active_log.append(active_now)

        if prev_connected is not None:
            for r in range(N):
                if active_now[r] and prev_connected[r] and not connected[r]:
                    events.append(MissionEvent(tick, "disconnection", r, {}))
        prev_connected = connected

        # post phase: goal events, wait releases, instantaneous segments
        fired = False
        changed = True
        while changed:
            changed = False
            for r in range(N):
                if pending_goal[r] is not None:
                    if noise_seed is None or connected[r]:
                        g = pending_goal[r]
                        events.append(MissionEvent(tick, "goal-reached", r,
                                                   {"goal": g, "connected": bool(connected[r])}))
                        reached.add(g)
                        pending_goal[r] = None
                        hold_ticks[r] = 0
                        fired = True
                        changed = True
                    continue
                if not queues[r]:
                    continue
                seg = queues[r][0]
                if seg.purpose == "wait-until":
                    if waits_met(seg):
                        queues[r].pop(0)
                        events.append(MissionEvent(tick, "wait-end", r, {}))
                        waiting_logged[r] = False
                        fired = True
                        changed = True
                elif seg.path.length <= 1e-9:
                    queues[r].pop(0)
                    complete_move(r, seg, tick)
                    fired = True
                    changed = True

        done = all(not q for q in queues) and all(g is None for g in pending_goal)
        trace = MissionTrace(positions=positions_log, parents=parents_log,
                             connected=connected_log, active=active_log, events=events,
                             reached_goals=reached, completed=done)
        if done or (until_tick is not None and tick >= until_tick):
            return trace

        for r in range(N):
            if pending_goal[r] is not None and noise_seed is not None and not connected[r]:
                hold_ticks[r] += 1
                if hold_ticks[r] > hold_limit:
                    raise GoalConnectivityStallError(
                        f"robot {r} held disconnected at goal {pending_goal[r]} for {hold_ticks[r]} ticks",
                        tick, [tuple(p) for p in pos], set(reached), trace,
                    )
        if tick > 0 and not moved and not fired:
            holding = [r for r in range(N) if pending_goal[r] is not None]
            if not holding:
                waiting = {
                    r: [[a, list(b)] for a, b in queues[r][0].wait_for]
                    for r in range(N)
                    if queues[r] and queues[r][0].purpose == "wait-until"
                }
                raise DeadlockError(f"no progress at tick {tick}", waiting)
        tick += 1


def compute_metrics(trace: MissionTrace, plan: DeploymentPlan) -> Metrics:
    """Distance, time, connectivity and occupation over the executed mission."""
    if not trace.positions:
        raise ValueError("empty trace")
    N = len(trace.positions[0])
    ticks = len(trace.positions)
    used = [r for r in range(N)
            if any(seg.purpose != "wait-until" for seg in plan.robots[r])]
    travelled = [0.0] * N
    for t in range(1, ticks):
        for r in range(N):
            ax, ay = trace.positions[t - 1][r]
            bx, by = trace.positions[t][r]
            travelled[r] += math.hypot(bx - ax, by - ay)
    d_max = max((travelled[r] for r in used), default=0.0)
    d_tot = sum(travelled[r] for r in used)

    conn_frac = []
    for r in used:
        conn_frac.append(sum(1 for t in range(ticks) if trace.connected[t][r]) / ticks)
    c_mean = sum(conn_frac) / len(conn_frac) if conn_frac else 1.0
    c_min = min(conn_frac) if conn_frac else 1.0

    occupied = [0] * N
    for t in range(ticks):
        parents = trace.parents[t]
        relays_this_tick: set[int] = set()
        for j in range(N):
            if not trace.active[t][j] or not trace.connected[t][j]:
                continue
            node = j + 1
            cur = parents[node]
            while cur is not None and cur != 0:
                relays_this_tick.add(cur - 1)
                cur = parents[cur]
        for i in relays_this_tick:
            occupied[i] += 1
    o_vals = [occupied[r] / ticks for r in used]
    o_mean = sum(o_vals) / len(o_vals) if o_vals else 0.0

    return Metrics(d_max=d_max, d_tot=d_tot, time_ticks=ticks - 1,
                   c_mean=c_mean, c_min=c_min, o_mean=o_mean, robots_used=len(used))
