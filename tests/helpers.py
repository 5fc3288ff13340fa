"""Independent oracles used by the test suite: a grid-graph Dijkstra, a
permutation assignment solver, a BFS hop counter, a recursive tour
enumerator, the permutation loop that visit ordering must match bit for bit,
the scalar chord integral and string pulling that the batched
path code must match bit for bit, the path descent with its interpolation
as a corner loop (which reads the lazy field through its march), the eager fast-marching loop that the
resumable march must match bit for bit, an unpruned, unmemoised relay
synthesis, a scalar raycast sampler, the one-pair movement cost, the
coverage field built one step-count group at a time from whole rows, the
multipath draw seeded from a list of ints, the path loss over the scalar
sampler, the mission execution as one loop over parallel per-robot lists,
the replan loop that keeps every attempt's trace and merges them at the
end, the SVG render with one loop over every cell per layer, and the DP
relay move as a rewire rule with a "new" sentinel plus a separate commit,
and the random scenario generator with its per-cell wall loops, full
distance sorts and tuple-set flood fill; plus a check that a planner's
transmitters form an uplink tree.
These deliberately share no code with the package internals, except that
the relay oracle calls the public radio model (rss and coverage fields),
the movement-cost oracle calls count_traversals once per pair, the
coverage-field oracle calls the raycast kernel on batches too small to be
cut into pieces, the execution oracle calls the tick tree (which has an
oracle of its own), the replan oracle plans, executes and replans with the
package, the render oracle reads the coverage through a CoverageBook, and
the relay-move oracle runs on a package _Planner, whose strongest, hold,
move and park it calls, and the generator oracle builds the package's
GridMap and Scenario."""

import heapq
import itertools
import math
from heapq import heappop, heappush

import numpy as np

from relaynet import gridmap
from relaynet.cli import _CELL_PX, _PALETTE
from relaynet.connectivity import InfeasibleRelayError, RelayPlan
from relaynet.eikonal import (
    _RING,
    Path,
    PathExtractionError,
    UnreachableError,
    _polyline_length,
)
from relaynet.gridmap import FREE, GLASS, WALL, GridMap, WorldPoint, count_traversals, segment_runs
from relaynet.mission import (
    DeadlockError,
    DeploymentPlan,
    GoalConnectivityStallError,
    InfeasibleScenarioError,
    MissionEvent,
    MissionTrace,
    ReplanBudgetError,
    Scenario,
    _tick_tree,
    execute_mission,
    plan_deployment,
    replan,
)
from relaynet.radio import (
    MIN_SEPARATION,
    NO_SIGNAL,
    CoverageBook,
    RadioConfigError,
    RadioParams,
    coverage_field,
    rss,
)


def dijkstra8(grid: GridMap, F: np.ndarray, source: tuple[int, int]) -> dict[tuple[int, int], float]:
    """8-neighbor Dijkstra with edge cost step * 2 / (F(u) + F(v)).

    Diagonal moves require both adjacent orthogonal cells to be free (strict
    no-corner-cutting), which keeps both reachability and squeeze-through
    costs consistent with a 4-neighborhood front.
    """
    h = grid.resolution
    W, H = grid.width, grid.height
    sc, sr = source
    dist: dict[tuple[int, int], float] = {(sc, sr): 0.0}
    heap = [(0.0, (sc, sr))]
    diag = h * math.sqrt(2.0)
    while heap:
        d, (c, r) = heapq.heappop(heap)
        if d > dist.get((c, r), math.inf):
            continue
        fu = F[r, c]
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)):
            nc, nr = c + dc, r + dr
            if not (0 <= nc < W and 0 <= nr < H):
                continue
            fv = F[nr, nc]
            if fv <= 0.0:
                continue
            if dc != 0 and dr != 0:
                if F[r, nc] <= 0.0 or F[nr, c] <= 0.0:
                    continue
                step = diag
            else:
                step = h
            nd = d + step * 2.0 / (fu + fv)
            if nd < dist.get((nc, nr), math.inf):
                dist[(nc, nr)] = nd
                heapq.heappush(heap, (nd, (nc, nr)))
    return dist


def brute_force_assignment(costs: list[list[float]]) -> list[int]:
    """Minimal-cost assignment by enumerating every injection of the smaller
    side into the larger; among ties the lexicographically smallest
    assignment vector wins.

    An nr x nc matrix is taken as padded square to n = max(nr, nc), dummy
    rows and columns numbered after the real ones, which is the order of
    hungarian_assign's lexicographic pass. An assignment vector holds the
    padded column of each padded row (a permutation of range(n)), and its
    cost sums the real pairs (r < nr, c < nc) in row order. Returns the
    winning vector."""
    nr, nc = len(costs), len(costs[0])
    best_perm = None
    best_cost = math.inf
    for perm in itertools.permutations(range(max(nr, nc))):
        total = sum(costs[i][perm[i]] for i in range(nr) if perm[i] < nc)
        if total < best_cost - 1e-9:
            best_cost = total
            best_perm = perm
        elif abs(total - best_cost) <= 1e-9 and perm < best_perm:
            best_perm = perm
    return list(best_perm)


def bfs_hops(n: int, edges: set[tuple[int, int]], root: int = 0) -> list[int | None]:
    """Shortest hop counts from root by plain breadth-first search."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    depth: list[int | None] = [None] * n
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if depth[v] is None:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return depth


def enumerate_tours(cost, n_waypoints: int):
    """Recursive enumeration of waypoint orders. cost is an (n+2)x(n+2)
    matrix over [start, w1..wn, dest]. Yields (order, total) pairs."""
    dest = n_waypoints + 1

    def rec(prefix, left, total):
        if not left:
            yield prefix, round(total + cost[prefix[-1] + 1 if prefix else 0][dest], 9)
            return
        for w in left:
            prev = prefix[-1] + 1 if prefix else 0
            yield from rec(prefix + [w], [x for x in left if x != w],
                           total + cost[prev][w + 1])

    if n_waypoints == 0:
        yield [], round(cost[0][dest], 9)
        return
    yield from rec([], list(range(n_waypoints)), 0.0)


def best_tour(cost, n_waypoints: int) -> tuple[list[int], float]:
    best_order = None
    best_total = math.inf
    for order, total in enumerate_tours(cost, n_waypoints):
        if total < best_total or (total == best_total and tuple(order) < tuple(best_order)):
            best_order = order
            best_total = total
    return best_order, best_total


def visit_order_enumerated(cost, n: int) -> tuple[tuple[int, ...], float]:
    """The permutation loop that visit_order ran before its bounded search:
    score every waypoint order left to right, round to 9 places and keep the
    first strictly cheaper one. cost is an (n+2)x(n+2) matrix over
    [start, w0..w(n-1), dest]. Returns the order and its rounded total."""
    m = n + 2
    if n == 0:
        return (), round(cost[0][1], 9)

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
    return best_perm, best_total


def metric_cost(grid: GridMap, F, a, b) -> float:
    """Line integral of 1/F along a-b, one quarter-cell sample at a time."""
    d = math.hypot(b[0] - a[0], b[1] - a[1])
    if d == 0.0:
        return 0.0
    n = max(1, math.ceil(d / (grid.resolution * 0.25)))
    res = grid.resolution
    total = 0.0
    for i in range(n):
        t = (i + 0.5) / n
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        c = min(int(x / res), grid.width - 1)
        r = min(int(y / res), grid.height - 1)
        f = F[r, c]
        if f <= 0.0:
            return math.inf
        total += (d / n) / f
    return total


def shortcut(grid: GridMap, F, pts: list) -> list:
    """Scalar metric-aware string pulling: from each kept point, scan j
    downward for the first chord no costlier than the polyline it replaces
    whose half-cell resampling stays on F > 0 cells."""
    if len(pts) < 3:
        return pts
    step = grid.resolution * 0.5
    res = grid.resolution

    def resample(a, b):
        d = math.hypot(b[0] - a[0], b[1] - a[1])
        k = max(1, math.ceil(d / step))
        seg = []
        for s in range(1, k + 1):
            t = s / k
            q = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            c = min(int(q[0] / res), grid.width - 1)
            r = min(int(q[1] / res), grid.height - 1)
            if F[r, c] <= 0.0:
                return None
            seg.append(q)
        return seg

    prefix = [0.0]
    for a, b in zip(pts, pts[1:]):
        seg_cost = metric_cost(grid, F, a, b)
        if not math.isfinite(seg_cost):
            seg_cost = 1e9
        prefix.append(prefix[-1] + seg_cost)
    out = [pts[0]]
    i = 0
    n = len(pts)
    while i < n - 1:
        j = n - 1
        chosen = None
        while j > i + 1:
            direct = metric_cost(grid, F, pts[i], pts[j])
            if direct <= prefix[j] - prefix[i] + 1e-9:
                chosen = resample(pts[i], pts[j])
                if chosen is not None:
                    break
            j -= 1
        if chosen is None:
            j = i + 1
            chosen = [pts[j]]
        out.extend(chosen)
        i = j
    return out


def _make_interp_reference(dfield):
    """Bilinear interpolation of D on cell centers; +inf corners are dropped
    with weight renormalization so values next to obstacles stay usable.
    Only corners of weight > 0 are read, so the march goes no further."""
    values, value = dfield._final, dfield._value
    W, H = dfield.grid.width, dfield.grid.height
    Wp = W + 2
    res = dfield.grid.resolution
    INF = math.inf

    def interp(x: float, y: float) -> float:
        gx = min(max(x / res - 0.5, 0.0), W - 1.0)
        gy = min(max(y / res - 0.5, 0.0), H - 1.0)
        c0 = min(int(gx), W - 1)
        r0 = min(int(gy), H - 1)
        dc = min(c0 + 1, W - 1) - c0
        dr = (min(r0 + 1, H - 1) - r0) * Wp
        i00 = (r0 + 1) * Wp + c0 + 1
        fx = gx - c0
        fy = gy - r0
        total = 0.0
        wsum = 0.0
        for i, w in (
            (i00, (1.0 - fx) * (1.0 - fy)),
            (i00 + dc, fx * (1.0 - fy)),
            (i00 + dr, (1.0 - fx) * fy),
            (i00 + dr + dc, fx * fy),
        ):
            if w > 0.0:
                v = values[i]
                if v == INF:
                    v = value(i)
                if v < INF:
                    total += w * v
                    wsum += w
        if wsum == 0.0:
            return math.inf
        return total / wsum

    return interp


def extract_path_reference(dfield, start: tuple[int, int]) -> Path:
    """The descent that extract_path must match bit for bit, including how
    far it advances the lazy field's march: a corner loop with min/max
    clamps and edge folding in the interpolation, a candidate list and a
    passability closure in the step, then the scalar string pulling."""
    grid = dfield.grid
    res = grid.resolution
    step = res * 0.5
    if not grid.cell_in_bounds(start):
        raise UnreachableError(f"start cell {start} outside grid")
    if not math.isfinite(dfield.at(start)):
        raise UnreachableError(f"start cell {start} unreachable from source {dfield.source}")

    interp = _make_interp_reference(dfield)
    F = dfield.F
    src_center = grid.to_world(dfield.source)
    p = grid.to_world(start)
    points = [p]
    cur = interp(*p)
    plateau = 0
    W, H = grid.width, grid.height
    max_steps = 8 * (W + H)
    ww, wh = grid.world_width, grid.world_height
    hf, Wp = dfield._hf, W + 2
    INF = math.inf

    def passable(q) -> bool:
        x, y = q
        if not (0.0 <= x <= ww and 0.0 <= y <= wh):
            return False
        return hf[(min(int(y / res), H - 1) + 1) * Wp + min(int(x / res), W - 1) + 1] < INF

    for _ in range(max_steps):
        if math.hypot(p[0] - src_center[0], p[1] - src_center[1]) <= res:
            break
        candidates = []
        eps = step * 0.5
        dpx = interp(p[0] + eps, p[1]) - interp(p[0] - eps, p[1])
        dpy = interp(p[0], p[1] + eps) - interp(p[0], p[1] - eps)
        if math.isfinite(dpx) and math.isfinite(dpy):
            norm = math.hypot(dpx, dpy)
            if norm > 0.0:
                candidates.append((p[0] - step * dpx / norm, p[1] - step * dpy / norm))
        for ux, uy in _RING:
            candidates.append((p[0] + step * ux, p[1] + step * uy))
        best_q = None
        best_v = math.inf
        for q in candidates:
            if not passable(q):
                continue
            v = interp(*q)
            if v < best_v:
                best_v = v
                best_q = q
        if best_q is None:
            raise PathExtractionError("descent blocked on all sides", p)
        if best_v < cur - 1e-12:
            plateau = 0
        else:
            plateau += 1
            if plateau >= 8:
                raise PathExtractionError("descent stagnated on a plateau", p)
        p = best_q
        cur = best_v
        points.append(p)
    else:
        raise PathExtractionError("descent exceeded the step budget", p)

    if points[-1] != src_center:
        points.append(src_center)
    points = shortcut(grid, F, points)
    return Path(points=points, length=_polyline_length(points))


def movement_cost_reference(grid: GridMap, a, b) -> float:
    """Distance a-b times one plus its wall and glass runs, one raycast per
    pair: the scalar formula every movement_costs entry must match bit for
    bit."""
    d = math.hypot(b[0] - a[0], b[1] - a[1])
    if d == 0.0:
        return 0.0
    walls, glass = count_traversals(grid, a, b)
    return d * (1.0 + walls + glass)


def plan_relays_unpruned(grid: GridMap, params: RadioParams, goals: list, free_robots: list,
                         bs, transmitters: list, stride: int = 2) -> RelayPlan:
    """Greedy relay synthesis that scores every covered candidate on every
    round: links by unmemoised rss, depths by bfs_hops, the same score
    (goals newly connected, goal depths reduced, -cheapest robot move) and
    the same bridge step toward the nearest unreachable goal."""
    base = [tuple(bs)] + [tuple(t) for t in transmitters] + [tuple(g) for g in goals]
    goal_nodes = range(1 + len(transmitters), len(base))
    committed: list = []
    newly_covered: list = []

    def linked(p, q) -> bool:
        return rss(grid, p, q, params) >= params.gamma

    def goal_depths(nodes: list) -> list:
        edges = {(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
                 if linked(nodes[i], nodes[j])}
        depth = bfs_hops(len(nodes), edges)
        return [depth[v] for v in goal_nodes]

    while True:
        nodes = base + committed
        depths = goal_depths(nodes)
        unreachable = [gi for gi, d in enumerate(depths) if d is None]
        if len(committed) > 4 * len(goals) + 16:
            raise InfeasibleRelayError("commit budget", unreachable)
        txs = [tuple(bs)] + [tuple(t) for t in transmitters] + committed
        rss_max = np.maximum.reduce([coverage_field(grid, grid.to_world(grid.to_cell(t)), params)
                                     for t in txs])
        mask = (rss_max >= params.gamma) & (grid.materials == 0)
        taken = {grid.to_cell(p) for p in nodes}
        cands = [grid.to_world((c, r)) for r in range(0, grid.height, stride)
                 for c in range(0, grid.width, stride) if mask[r, c] and (c, r) not in taken]

        best, best_score = None, None
        for cpos in cands:
            new_depths = goal_depths(nodes + [cpos])
            connected = [gi for gi in unreachable if new_depths[gi] is not None]
            reduced = sum(1 for old, new in zip(depths, new_depths)
                          if old is not None and new is not None and new < old)
            if not connected and reduced == 0:
                continue
            cost = min((movement_cost_reference(grid, fr, cpos) for fr in free_robots),
                       default=0.0)
            score = (len(connected), reduced, -cost)
            if best_score is None or score > best_score:
                best, best_score = (cpos, connected), score
        if best is not None:
            committed.append(best[0])
            newly_covered.append(best[1])
            continue
        if not unreachable:
            return RelayPlan(positions=committed, newly_covered=newly_covered)

        def gap(points: list) -> float:
            return min(math.hypot(goals[gi][0] - p[0], goals[gi][1] - p[1])
                       for p in points for gi in unreachable)

        current = gap(txs)
        bridge = min(cands, key=lambda c: gap([c]), default=None)
        if bridge is None or gap([bridge]) > current - grid.resolution:
            raise InfeasibleRelayError("no progress", unreachable)
        committed.append(bridge)
        newly_covered.append([])


def fmm_reference(grid: GridMap, F: np.ndarray, source: tuple[int, int],
                  on_accept=None) -> np.ndarray:
    """The eager fast-marching loop that solve_eikonal must match bit for
    bit: a full march over unpadded lists with explicit bounds checks.

    First-order upwind fast marching over the 4-neighborhood.

    Trial values use the two-axis-neighbor quadratic update from accepted
    cells only, so values are finalized in non-decreasing order (the
    on_accept hook observes that order). Cells with zero velocity keep +inf.
    """
    W, H = grid.width, grid.height
    h = grid.resolution
    sc, sr = source
    if not grid.cell_in_bounds(source):
        raise UnreachableError(f"source cell {source} outside grid")
    if F[sr, sc] <= 0.0:
        raise UnreachableError(f"source cell {source} has zero velocity")

    F = F.ravel().tolist()
    INF = math.inf
    D = [INF] * (W * H)
    state = bytearray(W * H)  # 0 far, 1 narrow, 2 accepted
    src = sr * W + sc
    D[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    sqrt = math.sqrt

    # exact-distance seeding of a small ball around the source kills the
    # rarefaction-fan error of the first-order scheme at the point source;
    # a cell is seeded only if it is 4-connected to the source inside the
    # ball and the straight segment to it stays on F > 0 cells, the seed
    # being the line integral of 1/F along that segment
    ball: set[tuple[int, int]] = {(sc, sr)}
    frontier = [(sc, sr)]
    while frontier:
        bc, br = frontier.pop()
        for nc, nr in ((bc + 1, br), (bc - 1, br), (bc, br + 1), (bc, br - 1)):
            if (abs(nc - sc) <= 2 and abs(nr - sr) <= 2 and 0 <= nc < W and 0 <= nr < H
                    and F[nr * W + nc] > 0.0 and (nc, nr) not in ball):
                ball.add((nc, nr))
                frontier.append((nc, nr))
    for dr in range(-2, 3):
        for dc in range(-2, 3):
            if dr == 0 and dc == 0:
                continue
            nc, nr = sc + dc, sr + dr
            if (nc, nr) not in ball:
                continue
            nidx = nr * W + nc
            dist = h * sqrt(dc * dc + dr * dr)
            k = max(2, math.ceil(dist / (h * 0.5)))
            seed = 0.0
            clear = True
            for i in range(k):
                t = (i + 0.5) / k
                mc_ = sc + 0.5 + t * dc
                mr_ = sr + 0.5 + t * dr
                fmid = F[int(mr_) * W + int(mc_)]
                if fmid <= 0.0:
                    clear = False
                    break
                seed += (dist / k) / fmid
            if clear and seed < D[nidx]:
                D[nidx] = seed
                state[nidx] = 1
                heappush(heap, (seed, nidx))

    while heap:
        d, idx = heappop(heap)
        if state[idx] == 2 or d > D[idx]:
            continue
        state[idx] = 2
        if on_accept is not None:
            on_accept(idx % W, idx // W, d)
        r, c = divmod(idx, W)
        if c > 0:
            nbrs = [idx - 1]
        else:
            nbrs = []
        if c < W - 1:
            nbrs.append(idx + 1)
        if r > 0:
            nbrs.append(idx - W)
        if r < H - 1:
            nbrs.append(idx + W)
        for nidx in nbrs:
            if state[nidx] == 2:
                continue
            f = F[nidx]
            if f <= 0.0:
                continue
            nc = nidx % W
            # accepted-only axis minima around the trial cell
            ux = INF
            if nc > 0 and state[nidx - 1] == 2:
                ux = D[nidx - 1]
            if nc < W - 1 and state[nidx + 1] == 2 and D[nidx + 1] < ux:
                ux = D[nidx + 1]
            uy = INF
            if nidx >= W and state[nidx - W] == 2:
                uy = D[nidx - W]
            if nidx < W * H - W and state[nidx + W] == 2 and D[nidx + W] < uy:
                uy = D[nidx + W]
            hf = h / f
            if ux > uy:
                ux, uy = uy, ux
            if uy - ux < hf and uy < INF:
                disc = 2.0 * hf * hf - (ux - uy) * (ux - uy)
                nd = 0.5 * (ux + uy + sqrt(disc))
            else:
                nd = ux + hf
            if nd < D[nidx]:
                D[nidx] = nd
                state[nidx] = 1
                heappush(heap, (nd, nidx))

    return np.array(D, dtype=np.float64).reshape(H, W)


def scalar_runs(grid: GridMap, a, b, n: int | None = None) -> tuple[int, int]:
    """Wall and glass runs along a-b at n steps (by default the fewest of
    length <= resolution/2), sampled independently of the package."""
    if (b[0], b[1]) < (a[0], a[1]):
        a, b = b, a
    if n is None:
        n = max(1, math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / (grid.resolution * 0.5)))
    mats = []
    for t in np.linspace(0.0, 1.0, n + 1):
        x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        col = min(max(int(x / grid.resolution), 0), grid.width - 1)
        row = min(max(int(y / grid.resolution), 0), grid.height - 1)
        mats.append(int(grid.materials[row, col]))
    return tuple(sum(1 for i, m in enumerate(mats) if m == code and (i == 0 or mats[i - 1] != code))
                 for code in (1, 2))


def multipath_draw_reference(params: RadioParams, sigma2: float, cell_a, cell_b,
                             key: tuple[int, ...]) -> float:
    """One seeded Gaussian multipath draw, symmetric in the cell pair, with
    its entropy given to SeedSequence as a list of Python ints."""
    if sigma2 == 0.0:
        return 0.0
    if cell_b < cell_a:
        cell_a, cell_b = cell_b, cell_a
    seq = np.random.SeedSequence(
        [int(params.seed), cell_a[0], cell_a[1], cell_b[0], cell_b[1], *(int(k) for k in key)]
    )
    rng = np.random.default_rng(seq)
    return float(rng.normal(0.0, math.sqrt(sigma2)))


def path_loss_reference(grid: GridMap, tx, rx, params: RadioParams,
                        mode: str = "deterministic", key: tuple[int, ...] = ()) -> float:
    """Path loss tx->rx from the log-distance formula over scalar_runs,
    plus, in stochastic mode, multipath_draw_reference on the endpoints'
    cells."""
    walls, glass = scalar_runs(grid, tx, rx)
    los = walls == glass == 0
    n = params.n_los if los else params.n_nlos
    d = max(math.hypot(rx[0] - tx[0], rx[1] - tx[1]), MIN_SEPARATION)
    loss = params.l0 + 10.0 * n * math.log10(d) + walls * params.a_wall + glass * params.a_glass
    if mode == "stochastic":
        res = grid.resolution
        cell_a, cell_b = ((min(int(p[0] / res), grid.width - 1),
                           min(int(p[1] / res), grid.height - 1)) for p in (tx, rx))
        loss += multipath_draw_reference(params, params.sigma2_los if los else params.sigma2_nlos,
                                         cell_a, cell_b, key)
    return loss


def _traversal_field_reference(grid: GridMap, tx) -> tuple[np.ndarray, np.ndarray]:
    """Wall/glass run counts from tx to every cell center, obstacle cells
    included, each call too small for segment_runs to cut its rows into
    pieces."""
    res = grid.resolution
    H, W = grid.height, grid.width
    ex = np.tile((np.arange(W) + 0.5) * res, H)
    ey = np.repeat((np.arange(H) + 0.5) * res, W)
    tx0, ty0 = float(tx[0]), float(tx[1])
    swap = (ex < tx0) | ((ex == tx0) & (ey < ty0))
    sx = np.where(swap, ex, tx0)
    sy = np.where(swap, ey, ty0)
    fx = np.where(swap, tx0, ex)
    fy = np.where(swap, ty0, ey)
    d = np.hypot(ex - tx0, ey - ty0)
    nsteps = np.maximum(1, np.ceil(d / (res * 0.5))).astype(np.int64)
    runs = np.empty((2, H * W), dtype=np.int64)
    for n in np.unique(nsteps):
        # calls of at most _SAMPLE_BLOCK samples, which sample whole rows
        rows = gridmap._SAMPLE_BLOCK // (int(n) + 1)
        assert rows > 0
        group = np.nonzero(nsteps == n)[0]
        for i in range(0, group.size, rows):
            sel = group[i:i + rows]
            runs[:, sel] = segment_runs(grid, sx[sel, None], sy[sel, None],
                                        fx[sel, None], fy[sel, None], int(n))
    walls, glass = runs.reshape(2, H, W)
    return walls, glass


def coverage_field_reference(grid: GridMap, tx, params: RadioParams) -> np.ndarray:
    """Deterministic rss at every cell center for a single transmitter, as
    coverage_field must build it bit for bit; raycast whole rows, in calls
    of one step count each."""
    grid.require_in_bounds(tx)
    txc = grid.to_cell(tx)
    if not grid.is_free_cell(txc):
        raise RadioConfigError(f"transmitter at {tx} sits on an obstacle cell {txc}")
    res = grid.resolution
    H, W = grid.height, grid.width
    cx = (np.arange(W) + 0.5) * res
    cy = (np.arange(H) + 0.5) * res
    dx = np.broadcast_to(cx[None, :], (H, W)) - tx[0]
    dy = np.broadcast_to(cy[:, None], (H, W)) - tx[1]
    d = np.maximum(np.hypot(dx, dy), MIN_SEPARATION)
    walls, glass = _traversal_field_reference(grid, tx)
    los = (walls == 0) & (glass == 0)
    n = np.where(los, params.n_los, params.n_nlos)
    loss = params.l0 + 10.0 * n * np.log10(d) + walls * params.a_wall + glass * params.a_glass
    values = params.p_tx - loss
    values[grid.materials != FREE] = NO_SIGNAL
    return values


def _point_along_reference(points, s: float):
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


def execute_mission_reference(plan, scenario, noise_seed: int | None = None,
                              until_tick: int | None = None, hold_limit: int = 25) -> MissionTrace:
    """The tick simulation of a deployment plan as one loop over parallel
    per-robot lists, rebuilding the trace every tick; execute_mission must
    return, log and raise exactly as it does.

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
    pos = [tuple(p) for p in scenario.robot_starts]
    queues = [list(s) for s in plan.robots]
    progress = [0.0] * N
    arrivals: set = set()
    events: list[MissionEvent] = []
    reached: set[int] = set()
    pending_goal: list[int | None] = [None] * N
    hold_ticks = [0] * N
    waiting_logged = [False] * N

    positions_log: list[list] = []
    parents_log: list[list[int | None]] = []
    connected_log: list[list[bool]] = []
    active_log: list[list[bool]] = []
    prev_connected: list[bool] | None = None

    for r in range(N):
        arrivals.add((r, grid.to_cell(pos[r])))

    def waits_met(seg) -> bool:
        return all((rb, tuple(c)) in arrivals for rb, c in seg.wait_for)

    def complete_move(r: int, seg, tick: int) -> None:
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
                        pos[r] = _point_along_reference(seg.path.points, progress[r])
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
                        trace)
        if tick > 0 and not moved and not fired:
            holding = [r for r in range(N) if pending_goal[r] is not None]
            if not holding:
                waiting = {
                    r: [[a, list(b)] for a, b in queues[r][0].wait_for]
                    for r in range(N)
                    if queues[r] and queues[r][0].purpose == "wait-until"
                }
                raise DeadlockError(f"no progress at tick {tick}", waiting, trace)
        tick += 1


def relay_rewire_reference(pl, old_ti: int, post):
    """Feasibility of moving the robot at old_ti to post.

    The post needs a settled transmitter covering it, and every active
    transmitter whose uplink parent is old_ti must re-home to a settled
    transmitter or to the new post itself. Returns (post parent index,
    {child: new parent or "new"}) or None when the move would strand
    someone.
    """
    gamma = pl.book.params.gamma
    children = [i for i, t in enumerate(pl.txs)
                if t.active and t.parent == old_ti and i != old_ti]
    settled = pl.tx_candidates(exclude=set(children) | {old_ti})
    parent_ti = pl.strongest(post, settled)
    if parent_ti is None:
        return None
    rehome: dict[int, int | str] = {}
    for child in children:
        cpos = pl.txs[child].pos
        target: int | str | None = pl.strongest(cpos, settled)
        best_rss = -math.inf if target is None else _book_rss(pl.book, pl.txs[target].pos, cpos)
        from_post = _book_rss(pl.book, post, cpos)
        if from_post >= gamma and from_post > best_rss:
            target = "new"
        if target is None:
            return None
        rehome[child] = target
    return parent_ti, rehome


def _book_rss(book: CoverageBook, a, b) -> float:
    """The one-pair rss lookup relay_rewire_reference was written against."""
    return book.rss_pairs([(tuple(a), tuple(b))])[0]


def relocate_reference(pl, robot: int, post, rehomes: list | None = None) -> bool:
    """_Planner.relocate as relay_rewire_reference plus the commit that DP
    planning made inline, one pair at a time; each committed move's
    {child: new parent or "new"} is appended to rehomes."""
    old_ti = next(i for i, t in enumerate(pl.txs)
                  if t.active and t.robot == robot)
    rewire = relay_rewire_reference(pl, old_ti, post)
    if rewire is None:
        return False
    parent_ti, rehome = rewire
    # the leg still has the old post's coverage
    pl.hold(robot, pl.dependents.get(old_ti, []))
    pl.move(robot, pl.robot_pos[robot], post, pl.source_positions(),
            pl.parked_cells(exclude_robot=robot))
    pl.txs[old_ti].active = False
    new_ti = pl.park(post, robot, parent_ti)
    for child, target in rehome.items():
        pl.txs[child].parent = new_ti if target == "new" else target
    if rehomes is not None:
        rehomes.append(rehome)
    return True


def uplink_tree_problems(txs) -> list[int]:
    """The active transmitters of a planner's txs (_Tx records) whose parent
    chain revisits a transmitter, reaches an inactive one or ends before it
    reaches the base station at index 0."""
    problems = []
    for i, tx in enumerate(txs):
        seen, cur = set(), i
        while tx.active and cur != 0:
            if cur is None or cur in seen or not txs[cur].active:
                problems.append(i)
                break
            seen.add(cur)
            cur = txs[cur].parent
    return problems


def _merge_traces_reference(traces: list[MissionTrace], goal_maps: list[list[int]]) -> MissionTrace:
    """Concatenate partial traces, translating per-attempt goal indices back
    to the original goal list via goal_maps."""
    positions, parents, connected, active = [], [], [], []
    events = []
    reached: set[int] = set()
    offset = 0
    for i, tr in enumerate(traces):
        gmap = goal_maps[i]
        skip = 1 if i > 0 else 0  # boundary tick duplicates the previous state
        positions.extend(tr.positions[skip:])
        parents.extend(tr.parents[skip:])
        connected.extend(tr.connected[skip:])
        active.extend(tr.active[skip:])
        for e in tr.events:
            data = dict(e.data)
            if "goal" in data:
                data["goal"] = gmap[data["goal"]]
            events.append(MissionEvent(e.tick + offset, e.kind, e.robot, data))
        reached |= {gmap[g] for g in tr.reached_goals}
        offset = len(positions) - 1
    return MissionTrace(positions=positions, parents=parents, connected=connected,
                        active=active, events=events, reached_goals=reached,
                        completed=traces[-1].completed)


def run_with_replan_reference(scenario, mode: str, noise_seed: int | None,
                              budget: int = 5) -> tuple[MissionTrace, DeploymentPlan, int]:
    """The replan loop as run_with_replan must return and raise it: every
    attempt's trace kept in a list with the goal indices of its scenario,
    and the traces merged once the last attempt ends."""
    plan = plan_deployment(scenario, mode)
    merged_plan = [list(segs) for segs in plan.robots]
    traces: list[MissionTrace] = []
    goal_maps: list[list[int]] = [list(range(len(scenario.goals)))]
    sc = scenario
    cur_plan = plan
    replans = 0
    while True:
        try:
            tr = execute_mission(cur_plan, sc, noise_seed=noise_seed)
            traces.append(tr)
            break
        except GoalConnectivityStallError as stall:
            replans += 1
            if replans > budget:
                raise ReplanBudgetError(
                    f"replan budget of {budget} exhausted under noise seed {noise_seed}"
                ) from stall
            tr = stall.trace
            traces.append(tr)
            remaining_ids = [g for i, g in enumerate(goal_maps[-1]) if i not in tr.reached_goals]
            goal_maps.append(remaining_ids)
            sc, cur_plan = replan(sc, tr.reached_goals, tr.positions[-1])
            for r in range(len(merged_plan)):
                merged_plan[r].extend(cur_plan.robots[r])
    return _merge_traces_reference(traces, goal_maps), DeploymentPlan(plan.mode, merged_plan), replans


def render_svg_reference(scenario, plan=None) -> str:
    """The SVG render as render_svg must write it byte for byte, shading
    and obstacle cells found by a loop over every cell."""
    grid = scenario.map
    s = _CELL_PX / grid.resolution
    w_px = grid.width * _CELL_PX
    h_px = grid.height * _CELL_PX
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="#ffffff"/>',
    ]

    sources = [scenario.bs]
    posts = []
    if plan is not None:
        for segs in plan.robots:
            for seg in segs:
                if seg.purpose == "relay-move" and seg.post is not None:
                    post = grid.to_world(tuple(seg.post))
                    posts.append(post)
                    sources.append(post)
    book = CoverageBook(grid, scenario.radio)
    mask = book.combined(sources) >= scenario.radio.gamma
    for r in range(grid.height):
        for c in range(grid.width):
            if mask[r, c] and grid.materials[r, c] == FREE:
                out.append(f'<rect x="{c * _CELL_PX}" y="{r * _CELL_PX}" '
                           f'width="{_CELL_PX}" height="{_CELL_PX}" fill="#d6eaff"/>')
    for r in range(grid.height):
        for c in range(grid.width):
            m = grid.materials[r, c]
            if m == WALL:
                fill = "#222222"
            elif m == GLASS:
                fill = "#7fd4d4"
            else:
                continue
            out.append(f'<rect x="{c * _CELL_PX}" y="{r * _CELL_PX}" '
                       f'width="{_CELL_PX}" height="{_CELL_PX}" fill="{fill}"/>')

    if plan is not None:
        for ri, segs in enumerate(plan.robots):
            color = _PALETTE[ri % len(_PALETTE)]
            for seg in segs:
                if seg.path is None or len(seg.path.points) < 2:
                    continue
                pts = " ".join(f"{x * s:.2f},{y * s:.2f}" for x, y in seg.path.points)
                dash = ' stroke-dasharray="4,3"' if seg.purpose == "relay-move" else ""
                out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                           f'stroke-width="1.5"{dash}/>')

    for g in scenario.goals:
        out.append(f'<circle cx="{g[0] * s:.2f}" cy="{g[1] * s:.2f}" r="3.5" '
                   f'fill="none" stroke="#1f3fbf" stroke-width="1.5"/>')
    for p in posts:
        x, y = p[0] * s, p[1] * s
        out.append(f'<path d="M {x - 3.5:.2f} {y - 3.5:.2f} L {x + 3.5:.2f} {y + 3.5:.2f} '
                   f'M {x - 3.5:.2f} {y + 3.5:.2f} L {x + 3.5:.2f} {y - 3.5:.2f}" '
                   f'stroke="#d62728" stroke-width="1.8"/>')
    for st in scenario.robot_starts:
        out.append(f'<circle cx="{st[0] * s:.2f}" cy="{st[1] * s:.2f}" r="2.0" fill="#444444"/>')
    bx, by = scenario.bs[0] * s, scenario.bs[1] * s
    out.append(f'<rect x="{bx - 4:.2f}" y="{by - 4:.2f}" width="8" height="8" fill="#2ca02c"/>')
    out.append("</svg>\n")
    return "\n".join(out)


def generate_map_reference(width: int, height: int, density: float, rng: np.random.Generator,
                           resolution: float = 0.5) -> GridMap:
    """Axis-aligned rooms: border walls plus interior wall lines with door gaps."""
    mats = np.zeros((height, width), dtype=np.uint8)
    mats[0, :] = WALL
    mats[-1, :] = WALL
    mats[:, 0] = WALL
    mats[:, -1] = WALL
    n_lines = max(1, int(round(density * (width + height) / 12)))
    for k in range(n_lines):
        vertical = bool(rng.integers(0, 2)) if k > 0 else True
        if vertical:
            col = int(rng.integers(3, width - 3))
            door = int(rng.integers(1, height - 3))
            for row in range(1, height - 1):
                if door <= row < door + 2:
                    continue
                mats[row, col] = WALL
        else:
            row = int(rng.integers(3, height - 3))
            door = int(rng.integers(1, width - 3))
            for col in range(1, width - 1):
                if door <= col < door + 2:
                    continue
                mats[row, col] = WALL
    return GridMap(width=width, height=height, resolution=resolution, materials=mats)


def _reachable_cells_reference(grid: GridMap, start: tuple[int, int]) -> list[tuple[int, int]]:
    seen = {start}
    queue = [start]
    while queue:
        c, r = queue.pop()
        for nc, nr in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if (0 <= nc < grid.width and 0 <= nr < grid.height
                    and grid.materials[nr, nc] == FREE and (nc, nr) not in seen):
                seen.add((nc, nr))
                queue.append((nc, nr))
    return sorted(seen)


def random_scenario_reference(seed: int, width: int = 32, height: int = 32, n_goals: int = 6,
                              density: float = 0.5, radio: RadioParams | None = None,
                              resolution: float = 0.5) -> Scenario:
    """Seeded random indoor scenario: BS in a corner region, robots beside it,
    goals rejection-sampled on free cells with minimum pairwise separation."""
    rng = np.random.default_rng(seed)
    grid = generate_map_reference(width, height, density, rng, resolution)
    params = radio if radio is not None else RadioParams(seed=seed)

    all_free = [(c, r) for r in range(height) for c in range(width) if grid.materials[r, c] == FREE]
    if len(all_free) < 2 * n_goals + 1:
        raise InfeasibleScenarioError("generated map has too few free cells")
    corner = (2.0 * resolution, 2.0 * resolution)
    bs_cell = min(all_free, key=lambda c: (math.hypot(grid.to_world(c)[0] - corner[0],
                                                      grid.to_world(c)[1] - corner[1]), c))
    bs = grid.to_world(bs_cell)
    free = _reachable_cells_reference(grid, bs_cell)
    if len(free) < 2 * n_goals + 1:
        raise InfeasibleScenarioError("base station room is too small")

    by_dist = sorted(free, key=lambda c: (math.hypot(grid.to_world(c)[0] - bs[0],
                                                     grid.to_world(c)[1] - bs[1]), c))
    starts = [grid.to_world(c) for c in by_dist[1:n_goals + 1]]

    min_sep = 2.0 * resolution
    min_bs_dist = 4.0 * resolution
    goals: list[WorldPoint] = []
    candidates = list(free)
    for _ in range(4000):
        if len(goals) == n_goals:
            break
        cell = candidates[int(rng.integers(0, len(candidates)))]
        p = grid.to_world(cell)
        if math.hypot(p[0] - bs[0], p[1] - bs[1]) < min_bs_dist:
            continue
        if any(abs(p[0] - s[0]) < 1e-9 and abs(p[1] - s[1]) < 1e-9 for s in starts):
            continue
        if all(math.hypot(p[0] - g[0], p[1] - g[1]) >= min_sep for g in goals):
            goals.append(p)
    if len(goals) < n_goals:
        raise InfeasibleScenarioError("could not sample enough separated goals")
    return Scenario(map=grid, bs=bs, robot_starts=starts, goals=goals, radio=params)
