"""End-to-end deployment pipelines (FMM, CA-FMM, DP-FMM, DPA-FMM), synchronous
mission execution with waiting semantics, reactive replanning, and metrics.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from itertools import zip_longest

from .clustering import VISIT_CAP, cluster_goals, visit_order
from .connectivity import (
    FeasibilityReport,
    InfeasibleRelayError,
    RelayPlan,
    bfs_tree,
    check_feasibility,
    hungarian_assign,
    movement_costs,
    plan_relays,
)
from .eikonal import Path, PathExtractionError, UnreachableError, ca_fmm_path
from .gridmap import CellIndex, GridMap, WorldPoint
from .radio import CoverageBook, RadioParams, rss

log = logging.getLogger("relaynet")

MODES = ("FMM", "CA-FMM", "DP-FMM", "DPA-FMM")

# each mode by its name, its name without the dash, or its first word
_MODE_ALIASES = {key: m for m in MODES
                 for key in (m.lower(), m.lower().replace("-", ""), m.lower().split("-")[0])}


class InfeasibleScenarioError(RuntimeError):
    def __init__(self, message: str, report: FeasibilityReport | None = None):
        super().__init__(message)
        self.report = report


class DeadlockError(RuntimeError):
    """No robot moved or fired in a tick; waiting maps each robot held at a
    wait gate to its conditions, and trace is the mission up to and
    including the deadlock tick."""

    def __init__(self, message: str, waiting: dict, trace: MissionTrace):
        super().__init__(f"{message}: {waiting}")
        self.waiting = waiting
        self.trace = trace


class GoalConnectivityStallError(RuntimeError):
    """A robot held disconnected at its goal too long; trace is the mission
    up to and including the stall tick, so its last positions and reached
    goals are the stalled state."""

    def __init__(self, message: str, trace: MissionTrace):
        super().__init__(message)
        self.trace = trace

    @property
    def tick(self) -> int:
        """The stall tick, read from the trace."""
        return self.trace.ticks


class ReplanBudgetError(RuntimeError):
    pass


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


def used_robots(robots: list[list[PlanSegment]]) -> list[int]:
    """Indices of the robots with a segment other than wait-until."""
    return [r for r, segs in enumerate(robots) if any(s.purpose != "wait-until" for s in segs)]


@dataclass
class DeploymentPlan:
    mode: str
    robots: list[list[PlanSegment]]

    @property
    def robots_used(self) -> int:
        return len(used_robots(self.robots))

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
    """Shared state of the planners: the coverage book, each robot's segments
    and position, and the transmitters with their uplink parents."""

    def __init__(self, sc: Scenario, fixed_relays: tuple[tuple[int, WorldPoint], ...] = ()):
        self.sc = sc
        self.grid = sc.map
        self.book = CoverageBook(sc.map, sc.radio)
        self.N = len(sc.robot_starts)
        self.goals: list[WorldPoint] = [tuple(g) for g in sc.goals]
        self.segs: list[list[PlanSegment]] = [[] for _ in range(self.N)]
        self.robot_pos: list[WorldPoint] = [tuple(p) for p in sc.robot_starts]
        self.txs: list[_Tx] = [_Tx(tuple(sc.bs), sc.map.to_cell(sc.bs), None, None)]
        self.dependents: dict[int, list[tuple[int, CellIndex]]] = {}
        for robot, pos in fixed_relays:
            self.park(pos, robot, self.strongest(tuple(pos), gated=False))

    def active_txs(self) -> list[int]:
        return [i for i, t in enumerate(self.txs) if t.active]

    def tx_candidates(self, exclude: set[int] = frozenset()) -> list[tuple[int, WorldPoint]]:
        return [(i, self.txs[i].pos) for i in self.active_txs() if i not in exclude]

    def strongest(self, p: WorldPoint, candidates: list[tuple] | None = None,
                  gated: bool = True):
        """Key of the (key, position) candidate, by default the active
        transmitters, with the strongest rss at p; the first one on ties.
        With gated only rss >= gamma counts. None when no candidate qualifies."""
        if candidates is None:
            candidates = self.tx_candidates()
        values = self.book.rss_pairs([(pos, p) for _, pos in candidates])
        best, best_rss = None, -math.inf
        for (key, _), r in zip(candidates, values):
            if r > best_rss and (not gated or r >= self.book.params.gamma):
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

    def hold(self, robot: int, conditions: list[tuple[int, CellIndex]]) -> None:
        """Append a wait-until on the distinct (robot, cell) arrivals, if any."""
        conds = sorted(set(conditions))
        if conds:
            self.segs[robot].append(PlanSegment(purpose="wait-until", wait_for=conds))

    def park(self, pos: WorldPoint, robot: int, parent: int | None) -> int:
        """Make robot a transmitter at pos under uplink parent; its index."""
        pos = tuple(pos)
        self.txs.append(_Tx(pos, self.grid.to_cell(pos), robot, parent))
        self.robot_pos[robot] = pos
        return len(self.txs) - 1

    def move(self, robot: int, start: WorldPoint, target: WorldPoint,
             sources: list[WorldPoint], blocked: list[CellIndex],
             goal: int | None = None) -> WorldPoint:
        """Plan robot's leg over the coverage of sources, around the blocked
        cells, and append it: primary-goal for goal, else relay-move; the target."""
        cell = self.grid.to_cell(target)
        path = ca_fmm_path(self.book, self.grid.to_cell(start), cell, sources, self.sc.w_c,
                           blocked=blocked)
        self.segs[robot].append(PlanSegment(purpose="relay-move" if goal is None else "primary-goal",
                                            path=path, goal_index=goal, post=cell))
        return tuple(target)

    def visit(self, robot: int, entry_ti: int, legs: list[tuple[WorldPoint, int | None]],
              sources: list[WorldPoint]) -> int:
        """Commit robot to its (target, goal or None) legs under transmitter
        entry_ti: wait for entry_ti's robot, plan around the parked robots, make
        entry_ti's uplink wait for the arrival and park there; its index."""
        tx = self.txs[entry_ti]
        if tx.robot is not None:
            self.hold(robot, [(tx.robot, tx.cell)])
        blocked = self.parked_cells(exclude_robot=robot)
        cur = self.robot_pos[robot]
        for target, goal in legs:
            cur = self.move(robot, cur, target, sources, blocked, goal)
        arrival = (robot, self.grid.to_cell(cur))
        for t in self.uplink_chain(entry_ti):
            self.dependents.setdefault(t, []).append(arrival)
        return self.park(cur, robot, entry_ti)

    def relocate(self, robot: int, post: WorldPoint) -> bool:
        """Move robot's transmitter to post as a relay; False, with nothing
        changed, when the move would strand the post or an uplink child.

        The settled transmitters are the active ones besides robot's own and
        its children. The post hangs under the strongest settled one. Each
        child re-homes to the strongest of the settled ones and the new post,
        which comes last and so wins only when strictly stronger. The robot
        waits for its dependents, moves and parks at post.
        """
        old_ti = next(i for i, t in enumerate(self.txs) if t.active and t.robot == robot)
        children = [i for i, t in enumerate(self.txs)
                    if t.active and t.parent == old_ti and i != old_ti]
        settled = self.tx_candidates(exclude=set(children) | {old_ti})
        parent_ti = self.strongest(post, settled)
        if parent_ti is None:
            return False
        # len(self.txs) is the index park gives the new post
        homes = [self.strongest(self.txs[c].pos, settled + [(len(self.txs), post)])
                 for c in children]
        if None in homes:
            return False
        # the leg still has the old post's coverage
        self.hold(robot, self.dependents.get(old_ti, []))
        self.move(robot, self.robot_pos[robot], post, self.source_positions(),
                  self.parked_cells(exclude_robot=robot))
        self.txs[old_ti].active = False
        self.park(post, robot, parent_ti)
        for child, home in zip(children, homes):
            self.txs[child].parent = home
        return True

    def assign(self, robots: list[int], targets: list[WorldPoint]) -> list[tuple[int, int]]:
        """(robot, target index) pairs of the minimal-cost match of the robots,
        from their current positions, to the targets on movement costs; in
        the robots' order."""
        asn = hungarian_assign(movement_costs(self.grid, [self.robot_pos[r] for r in robots], targets))
        return [(robots[i], t) for i, t in asn.pairs]

    def relay_plan(self, goal_ids: list[int], free_robots: list[int]) -> RelayPlan:
        """Relay posts that connect the given goals over the base station and
        the parked transmitters, scored against the free robots' positions."""
        tx_pos = [t.pos for t in self.txs if t.active and t.robot is not None]
        try:
            return plan_relays(self.book, [self.goals[g] for g in goal_ids],
                               [self.robot_pos[r] for r in free_robots],
                               bs=self.sc.bs, transmitters=tx_pos, stride=self.sc.relay_stride)
        except InfeasibleRelayError as e:
            raise InfeasibleScenarioError(
                f"relay synthesis failed for goals {sorted(goal_ids[i] for i in e.goals)}"
            ) from e

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
    pl = _Planner(sc)
    goals = pl.goals
    robot_of_goal = {g: r for r, g in pl.assign(list(range(pl.N)), goals)}

    if mode == "CA-FMM":
        depth = bfs_tree(len(goals) + 1, pl.book.links([sc.bs] + goals))[1]
        order = sorted(range(len(goals)), key=lambda g: (depth[g + 1] is None, depth[g + 1] or 0, g))
    else:
        order = sorted(robot_of_goal.keys())

    sources: list[WorldPoint] = [tuple(sc.bs)]
    for g in order:
        r = robot_of_goal.get(g)
        if r is None:
            continue
        pl.move(r, pl.robot_pos[r], goals[g], sources if mode == "CA-FMM" else [], [], g)
        if mode == "CA-FMM":
            sources.append(goals[g])
    return DeploymentPlan(mode, pl.segs)


def _plan_dp(sc: Scenario) -> DeploymentPlan:
    """DP-FMM: wave-by-wave goal planning plus relay synthesis and assignment.

    Each wave plans the goals whose positions are covered by an already
    materialized transmitter, gates departures on the covering robot being in
    place, then turns finished robots into relays where coverage is missing.
    """
    pl = _Planner(sc)
    N, goals = pl.N, pl.goals
    unplanned = set(range(len(goals)))
    assigned_goal: list[int | None] = [None] * N
    relay_done = [False] * N

    for _wave in range(2 * N + 4):
        if not unplanned:
            break
        progressed = False
        frontier = sorted(g for g in unplanned if pl.strongest(goals[g]) is not None)
        if frontier:
            avail = [r for r in range(N) if assigned_goal[r] is None]
            if avail:
                for robot, fi in pl.assign(avail, [goals[g] for g in frontier]):
                    g = frontier[fi]
                    # frontier goals have a coverer, and no transmitter goes
                    # inactive in this loop
                    pl.visit(robot, pl.strongest(goals[g]), [(goals[g], g)], pl.source_positions())
                    assigned_goal[robot] = g
                    unplanned.discard(g)
                    progressed = True
        if unplanned:
            remaining = sorted(unplanned)
            free = [r for r in range(N) if assigned_goal[r] is not None and not relay_done[r]]
            try:
                rp = pl.relay_plan(remaining, free)
            except InfeasibleScenarioError:
                if progressed:
                    continue  # let parked robots extend coverage next wave
                raise
            # only posts whose coverage is already materialized may be manned now
            eligible = [i for i, post in enumerate(rp.positions) if pl.strongest(post) is not None]
            if free and eligible:
                # a post must stay covered once its robot leaves its old spot,
                # so commit pairs in sweeps and drop any that lose coverage
                pending = pl.assign(free, [rp.positions[i] for i in eligible])
                while pending:
                    # in order, so each move sees the moves before it
                    moved = [(robot, ei) for robot, ei in pending
                             if pl.relocate(robot, rp.positions[eligible[ei]])]
                    if not moved:
                        break  # the rest re-enter synthesis on a later wave
                    for robot, _ in moved:
                        relay_done[robot] = True
                    pending = [pair for pair in pending if pair not in moved]
                    progressed = True
        if not progressed:
            raise InfeasibleScenarioError(
                f"DP planning stalled with goals {sorted(unplanned)} unplanned"
            )
    if unplanned:
        raise InfeasibleScenarioError(f"DP planning ran out of waves; unplanned {sorted(unplanned)}")
    return DeploymentPlan("DP-FMM", pl.segs)


def _split_to_cap(grid: GridMap, entry: WorldPoint, posts: list[WorldPoint],
                  waypoints: list[WorldPoint], wp_ids: list[int], cap: int):
    """Cluster the waypoints onto the posts by smallest deviation, promoting
    the farthest waypoint to an extra destination while there is none or a
    cluster is over the visit-order cap. Returns the clusters, the goal
    id of each destination (None for a post) and the ids of the waypoints."""
    dests, wpts, ids = list(posts), list(waypoints), list(wp_ids)
    dest_goal: list[int | None] = [None] * len(posts)
    while True:
        clusters = cluster_goals(grid, entry, dests, wpts) if dests else []
        over = [cl.waypoint_indices for cl in clusters if len(cl.waypoints) > cap]
        if dests and not over:
            return clusters, dest_goal, ids
        # ids ascend with the index, so a cost tie goes to the lowest goal id
        cost = movement_costs(grid, [entry], wpts)[0]
        far = max(over[0] if over else range(len(wpts)), key=lambda i: (round(cost[i], 9), -i))
        dests.append(wpts.pop(far))
        dest_goal.append(ids.pop(far))


def _plan_dpa(sc: Scenario, fixed_relays: tuple[tuple[int, WorldPoint], ...] = ()) -> DeploymentPlan:
    """DPA-FMM: DP plus clustering; each cluster is one robot visiting its
    waypoints in its exact optimal order and remaining at its destination."""
    pl = _Planner(sc, fixed_relays)
    grid, goals = sc.map, pl.goals
    unplanned = set(range(len(goals)))
    fixed = {robot for robot, _ in fixed_relays}
    available = [r for r in range(pl.N) if r not in fixed]

    for _wave in range(2 * pl.N + 4):
        if not unplanned:
            break
        remaining = sorted(unplanned)
        rp = pl.relay_plan(remaining, available)

        # entries: the active transmitters, then the relay posts; tx_of maps an
        # entry to its transmitter, which a post gets once a robot parks there
        tx_of: list[int | None] = pl.active_txs()
        n_tx = len(tx_of)
        entry_pos = [pl.txs[ti].pos for ti in tx_of] + [tuple(p) for p in rp.positions]
        tx_of += [None] * len(rp.positions)
        placed = list(enumerate(entry_pos))
        # each post joins the group of its strongest earlier entry, each
        # frontier goal the group of its strongest covering entry
        posts_of: list[list[int]] = [[] for _ in entry_pos]
        goals_of: list[list[int]] = [[] for _ in entry_pos]
        for e in range(n_tx, len(entry_pos)):
            posts_of[pl.strongest(entry_pos[e], placed[:e], gated=False)].append(e)
        for g in remaining:
            best = pl.strongest(goals[g], placed)
            if best is not None:
                goals_of[best].append(g)

        # specs (entry, visit sequence, goal of each goal leg, manned post or
        # None) in entry order, so a post's cluster precedes those entering it
        specs = []
        for e, entry in enumerate(entry_pos):
            if not posts_of[e] and not goals_of[e]:
                continue
            clusters, dest_goal, ids = _split_to_cap(
                grid, entry, [entry_pos[p] for p in posts_of[e]],
                [goals[g] for g in goals_of[e]], goals_of[e], sc.visit_cap)
            for cl in clusters:
                seq = visit_order(grid, cl, cap=sc.visit_cap)
                goal = dest_goal[cl.destination_index]
                leg_goals = [ids[i] for i in seq.waypoint_order] + ([] if goal is None else [goal])
                specs.append((e, seq, leg_goals,
                              posts_of[e][cl.destination_index] if goal is None else None))

        if not specs:
            raise InfeasibleScenarioError(
                f"DPA planning stalled with goals {sorted(unplanned)} unplanned"
            )
        if not available:
            raise InfeasibleScenarioError(
                f"DPA planning ran out of robots with goals {sorted(unplanned)} unplanned"
            )

        # each cluster is priced by the move to its first stop
        assigned = {ci: robot for robot, ci in pl.assign(
            available, [seq.points[1] for _, seq, _, _ in specs])}
        manned = sorted(specs[ci][3] for ci in assigned if specs[ci][3] is not None)

        progressed = False
        for ci, (e, seq, leg_goals, post) in enumerate(specs):
            robot, entry_ti = assigned.get(ci), tx_of[e]
            if robot is None or entry_ti is None:
                continue  # no robot, or its entry post is not manned this wave
            # a cluster ending at a post has one leg more than goals
            new_ti = pl.visit(robot, entry_ti, list(zip_longest(seq.points[1:], leg_goals)),
                              pl.source_positions() + [entry_pos[p] for p in manned])
            if post is not None:
                tx_of[post] = new_ti
            available.remove(robot)
            unplanned.difference_update(leg_goals)
            progressed = True

        if not progressed:
            # every assigned cluster enters through a post no robot mans yet
            raise InfeasibleScenarioError(
                f"DPA planning made no progress with goals {sorted(unplanned)} unplanned: "
                f"{len(specs)} clusters, robots left: {len(available)}; every assigned "
                f"cluster enters through an unmanned relay post"
            )
    if unplanned:
        raise InfeasibleScenarioError(f"DPA planning ran out of waves; unplanned {sorted(unplanned)}")
    return DeploymentPlan("DPA-FMM", pl.segs)


def plan_deployment(scenario: Scenario, mode: str,
                    fixed_relays: tuple[tuple[int, WorldPoint], ...] = ()) -> DeploymentPlan:
    """Plan the whole team under the requested pipeline."""
    mode = normalize_mode(mode)
    scenario.validate(initial=False)
    if not scenario.goals:
        return DeploymentPlan(mode, [[] for _ in scenario.robot_starts])
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


def _unreached(items: list, reached_goals: set[int]) -> list:
    """The items whose goal index is not in reached_goals: a reduced
    scenario's goal list, or the original ids of its goals."""
    return [x for i, x in enumerate(items) if i not in reached_goals]


def replan(scenario_updated: Scenario, reached_goals: set[int], robot_positions: list[WorldPoint],
           committed_relays: tuple[tuple[int, WorldPoint], ...] = ()) -> tuple[Scenario, DeploymentPlan]:
    """Re-run the full DPA pipeline from the robots' current positions with
    reached goals dropped: the reduced scenario and its plan, whose goal
    indices refer to the reduced goal list. Committed relays keep their posts."""
    goals = _unreached(scenario_updated.goals, reached_goals)
    sc = replace(scenario_updated, robot_starts=[tuple(p) for p in robot_positions], goals=goals)
    return sc, plan_deployment(sc, "DPA-FMM", fixed_relays=committed_relays)


# ---------------------------------------------------------------------------
# execution


def _point_along(points: list[WorldPoint], lengths: list[float], s: float) -> WorldPoint:
    """The point s along the polyline points (two or more), whose segment lengths are lengths."""
    remaining, last = s, len(lengths) - 1
    for i, seg in enumerate(lengths):
        if seg >= remaining or i == last:
            if seg == 0.0:
                return points[i + 1]
            (ax, ay), (bx, by) = points[i], points[i + 1]
            f = min(remaining / seg, 1.0)
            return (ax + f * (bx - ax), ay + f * (by - ay))
        remaining -= seg


def _tick_tree(book: CoverageBook, bs: WorldPoint, positions: list[WorldPoint],
               noise: RadioParams | None, tick: int) -> tuple[list[int | None], list[bool]]:
    """Min-hop tree of the base station and the robots at one tick: the
    deterministic links come from the book in one batch, a noisy tick
    draws each link's multipath under the tick's key."""
    nodes = [tuple(bs)] + [tuple(p) for p in positions]
    n = len(nodes)
    if noise is None:
        edges = book.links(nodes)
    else:
        grid, gamma = book.grid, book.params.gamma
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rss(grid, nodes[i], nodes[j], noise, "stochastic", (tick,)) >= gamma]
    parent, depth = bfs_tree(n, edges)
    connected = [depth[i + 1] is not None for i in range(len(positions))]
    return parent, connected


@dataclass
class _Robot:
    """A robot in execution: its position, its remaining segments, how far
    along the head one it is and that segment's lengths once it is part
    way, the goal it stands on but has not reported, the ticks it has held
    there disconnected, and whether the wait at its head is logged."""
    pos: WorldPoint
    queue: list[PlanSegment]
    progress: float = 0.0
    lengths: list[float] | None = None
    goal: int | None = None
    hold: int = 0
    waiting: bool = False


def execute_mission(plan: DeploymentPlan, scenario: Scenario,
                    noise_seed: int | None = None, hold_limit: int = 25) -> MissionTrace:
    """Synchronous tick simulation of a deployment plan.

    Robots advance at most robot_speed along their current path each tick;
    wait segments release in the tick their arrival conditions are met. Goal
    events under noise require connectivity to the base station through that
    tick's tree; a robot blocked on that for hold_limit ticks raises a stall
    so the caller can replan.
    """
    grid = scenario.map
    N = len(scenario.robot_starts)
    if len(plan.robots) != N:
        raise ValueError(f"plan covers {len(plan.robots)} robots, scenario has {N}")
    book = CoverageBook(grid, scenario.radio)
    noise = None if noise_seed is None else scenario.radio.with_(seed=noise_seed)
    speed = scenario.speed()
    robots = [_Robot(tuple(p), list(segs)) for p, segs in zip(scenario.robot_starts, plan.robots)]
    arrivals = {(r, grid.to_cell(rb.pos)) for r, rb in enumerate(robots)}
    # the robots with a segment left or a goal to report, in order; no
    # robot rejoins once it leaves, so every step skips the others
    busy = [r for r, rb in enumerate(robots) if rb.queue]
    trace = MissionTrace([], [], [], [], [], set(), False)
    events = trace.events

    def arrive(r: int, seg: PlanSegment, tick: int) -> None:
        rb = robots[r]
        rb.pos = tuple(seg.path.points[-1])
        cell = grid.to_cell(rb.pos)
        arrivals.add((r, cell))
        if seg.purpose == "primary-goal":
            rb.goal = seg.goal_index
        else:
            events.append(MissionEvent(tick, "relay-in-place", r, {"post": list(cell)}))

    def advance(r: int, tick: int) -> bool:
        """Move robot r up to speed along its segments, stopping at a wait
        or a goal to report; whether it moved."""
        rb, budget, moved = robots[r], speed, False
        while budget > 1e-9 and rb.queue and rb.goal is None:
            seg = rb.queue[0]
            if seg.purpose == "wait-until":
                if not rb.waiting:
                    events.append(MissionEvent(tick, "wait-start", r,
                                               {"for": [[a, list(b)] for a, b in seg.wait_for]}))
                    rb.waiting = True
                break
            remaining = seg.path.length - rb.progress
            if remaining <= budget + 1e-9:
                budget -= max(remaining, 0.0)
                rb.progress, rb.lengths = 0.0, None
                rb.queue.pop(0)
                arrive(r, seg, tick)
            else:
                if rb.lengths is None:
                    pts = seg.path.points
                    rb.lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])]
                rb.progress += budget
                rb.pos = _point_along(seg.path.points, rb.lengths, rb.progress)
                budget = 0.0
            moved = True
        return moved

    def settle(r: int, tick: int, connected: list[bool]) -> bool:
        """Report robot r's goal once it counts, release its wait once met,
        or finish its zero-length move; whether it fired."""
        rb = robots[r]
        seg = rb.queue[0] if rb.queue else None
        if rb.goal is not None:
            if noise is not None and not connected[r]:
                return False
            events.append(MissionEvent(tick, "goal-reached", r,
                                       {"goal": rb.goal, "connected": connected[r]}))
            trace.reached_goals.add(rb.goal)
            rb.goal, rb.hold = None, 0
        elif seg is None:
            return False
        elif seg.purpose == "wait-until":
            if not all((a, tuple(c)) in arrivals for a, c in seg.wait_for):
                return False
            rb.queue.pop(0)
            events.append(MissionEvent(tick, "wait-end", r))
            rb.waiting = False
        elif seg.path.length <= 1e-9:
            rb.queue.pop(0)
            arrive(r, seg, tick)
        else:
            return False
        return True

    def post_phase(tick: int, connected: list[bool]) -> bool:
        """Settle the busy robots in passes until a pass fires nothing;
        whether any fired."""
        fired = False
        while any([settle(r, tick, connected) for r in busy]):
            fired = True
        return fired

    def check_stall(connected: list[bool]) -> None:
        for r in busy:
            rb = robots[r]
            if rb.goal is not None and not connected[r]:
                rb.hold += 1
                if rb.hold > hold_limit:
                    raise GoalConnectivityStallError(
                        f"robot {r} held disconnected at goal {rb.goal} for {rb.hold} ticks", trace)

    def check_deadlock(tick: int) -> None:
        if all(robots[r].goal is None for r in busy):
            raise DeadlockError(f"no progress at tick {tick}", {
                r: [[a, list(b)] for a, b in robots[r].queue[0].wait_for] for r in busy
                if robots[r].queue and robots[r].queue[0].purpose == "wait-until"}, trace)

    tick = 0
    while True:
        moved = tick > 0 and any([advance(r, tick) for r in busy])
        positions = [tuple(rb.pos) for rb in robots]
        parents, connected = _tick_tree(book, scenario.bs, positions, noise, tick)
        prev = trace.connected[-1] if tick else connected
        events.extend(MissionEvent(tick, "disconnection", r) for r in busy if prev[r] and not connected[r])
        trace.positions.append(positions)
        trace.parents.append(parents)
        trace.connected.append(connected)
        trace.active.append([r in busy for r in range(N)])
        fired = post_phase(tick, connected)
        busy = [r for r in busy if robots[r].queue or robots[r].goal is not None]
        trace.completed = not busy
        if trace.completed:
            return trace
        if noise is not None:
            check_stall(connected)
        if tick > 0 and not moved and not fired:
            check_deadlock(tick)
        tick += 1


REPLAN_BUDGET = 5


def run_with_replan(scenario: Scenario, mode: str, noise_seed: int | None,
                    budget: int = REPLAN_BUDGET) -> tuple[MissionTrace, DeploymentPlan, int]:
    """Plan and execute; on a goal-connectivity stall under noise, replan from
    the stalled state (up to budget times) and continue. Each attempt is
    appended to one trace as it ends, its goal indices mapped back to the
    scenario's through goal_ids, the original index of each goal of the
    current (reduced) scenario; the plan is every attempt's segments."""
    plan = plan_deployment(scenario, mode)
    robots = [list(segs) for segs in plan.robots]
    trace = MissionTrace([], [], [], [], [], set(), False)
    goal_ids = list(range(len(scenario.goals)))
    sc, cur = scenario, plan
    replans = 0
    while True:
        try:
            part = execute_mission(cur, sc, noise_seed=noise_seed)
        except GoalConnectivityStallError as stall:
            replans += 1
            if replans > budget:
                raise ReplanBudgetError(
                    f"replan budget of {budget} exhausted under noise seed {noise_seed}"
                ) from stall
            part = stall.trace
        # a replanned attempt starts on the stall tick's state, which the
        # trace already ends on
        skip = 1 if trace.positions else 0
        offset = len(trace.positions) - skip
        for rows, more in zip((trace.positions, trace.parents, trace.connected, trace.active),
                              (part.positions, part.parents, part.connected, part.active)):
            rows.extend(more[skip:])
        trace.events.extend(
            MissionEvent(e.tick + offset, e.kind, e.robot,
                         {**e.data, "goal": goal_ids[e.data["goal"]]} if "goal" in e.data else e.data)
            for e in part.events)
        trace.reached_goals.update(goal_ids[g] for g in part.reached_goals)
        if part.completed:  # execute_mission returns only a completed mission
            trace.completed = True
            return trace, DeploymentPlan(plan.mode, robots), replans
        goal_ids = _unreached(goal_ids, part.reached_goals)
        log.info("replan %d: %d goals remain", replans, len(goal_ids))
        sc, cur = replan(sc, part.reached_goals, part.positions[-1])
        for segs, more in zip(robots, cur.robots):
            segs.extend(more)


def compute_metrics(trace: MissionTrace, plan: DeploymentPlan) -> Metrics:
    """Distance, time, connectivity and occupation over the executed mission."""
    if not trace.positions:
        raise ValueError("empty trace")
    N = len(trace.positions[0])
    ticks = len(trace.positions)
    used = used_robots(plan.robots)
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
