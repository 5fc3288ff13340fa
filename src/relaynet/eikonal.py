"""Fast-marching eikonal solver on occupancy grids, gradient-descent path
extraction, and the coverage-aware single-robot planner built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .gridmap import FREE, CellIndex, GridMap, OutOfBoundsError, WorldPoint
from .radio import CoverageBook, RadioConfigError, RadioParams


class UnreachableError(ValueError):
    pass


class PathExtractionError(RuntimeError):
    def __init__(self, message: str, last_point: WorldPoint):
        super().__init__(f"{message} (last point {last_point})")
        self.last_point = last_point


@dataclass
class Path:
    """Polyline from start to goal in world coordinates."""

    points: list[WorldPoint]
    length: float
    coverage_fraction: float = 0.0


def _polyline_length(points: Sequence[WorldPoint]) -> float:
    return sum(
        math.hypot(points[i + 1][0] - points[i][0], points[i + 1][1] - points[i][1])
        for i in range(len(points) - 1)
    )


def base_velocity(grid: GridMap) -> np.ndarray:
    """Wavefront speed per cell, as a read-only (height, width) float array:
    1 on free cells, 0 on walls and glass (robots cannot pass glass)."""
    F = (grid.materials == FREE).astype(np.float64)
    F.flags.writeable = False
    return F


def comm_velocity(grid: GridMap, rss: np.ndarray, params: RadioParams,
                  other_robots: Sequence[CellIndex], w_c: float = 1.0) -> np.ndarray:
    """base_velocity(grid), boosted inside the coverage area of the rss
    array; read-only like it.

    The boost is w_c * clamp((rss - gamma) / (rss_ref - gamma), 0, 1), where
    rss_ref = p_tx - l0 is the strongest plausible signal: zero outside
    coverage, w_c at rss_ref. Cells occupied by other robots are blocked
    outright.
    """
    if not 0.0 <= w_c < math.inf:
        raise ValueError(f"w_c must be finite and >= 0, got {w_c!r}")
    gamma, rss_ref = params.gamma, params.p_tx - params.l0
    if rss_ref <= gamma:
        raise RadioConfigError(
            f"degenerate coverage normalization: rss_ref {rss_ref} <= gamma {gamma}"
        )
    F = base_velocity(grid)
    boost = w_c * np.clip((rss - gamma) / (rss_ref - gamma), 0.0, 1.0)
    Fc = F + np.where(F > 0, boost, 0.0)
    for c in other_robots:
        if grid.cell_in_bounds(c):
            Fc[c[1], c[0]] = 0.0
    Fc.flags.writeable = False
    return Fc


class DistanceField:
    """Cost-to-go D from a source cell; +inf marks unreachable cells.

    The field is a live fast march: at() and the path interpolation march
    only until the cells they read are accepted. That gives the values of a
    finished march, because accepted values are final and the acceptance
    order does not depend on where the march stops. Reading D finishes it.

    The march state lives in flat lists over F padded by one blocked cell on
    each side, at index (r + 1) * (W + 2) + c + 1. The mapping is monotone in
    (row, col), so heap ties on (d, index) break as they would on r * W + c,
    and the blocked border stands in for bounds checks. _final holds +inf
    until a cell is accepted; _trial holds the tentative values. F stays
    on the field for extract_path and must not change while it is read.
    """

    def __init__(self, grid: GridMap, F: np.ndarray, source: CellIndex):
        self.grid = grid
        self.F = F
        self.source = source
        W = grid.width
        h = grid.resolution
        sc, sr = source
        Wp = W + 2
        self._stride = Wp
        Fp = np.pad(F, 1)
        # h / f per cell, +inf where f is not > 0: an update through such a
        # cell is never finite, so the march skips it outright
        with np.errstate(divide="ignore", invalid="ignore"):
            self._hf = np.where(Fp > 0.0, h / Fp, math.inf).ravel().tolist()
        INF = math.inf
        D = [INF] * Fp.size
        self._trial = D
        self._final = [INF] * Fp.size
        src = (sr + 1) * Wp + sc + 1
        D[src] = 0.0
        heap: list[tuple[float, int]] = [(0.0, src)]
        self._heap = heap
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
                if (abs(nc - sc) <= 2 and abs(nr - sr) <= 2
                        and Fp.item(nr + 1, nc + 1) > 0.0 and (nc, nr) not in ball):
                    ball.add((nc, nr))
                    frontier.append((nc, nr))
        # each seed is pushed once under its own index, so the heap pops the
        # seeds in (value, index) order whatever order they are pushed in
        for nc, nr in ball - {(sc, sr)}:
            dc, dr = nc - sc, nr - sr
            dist = h * sqrt(dc * dc + dr * dr)
            k = max(2, math.ceil(dist / (h * 0.5)))
            seed = 0.0
            for i in range(k):
                t = (i + 0.5) / k
                mc_ = sc + 0.5 + t * dc
                mr_ = sr + 0.5 + t * dr
                fmid = Fp.item(int(mr_) + 1, int(mc_) + 1)
                if fmid <= 0.0:
                    break
                seed += (dist / k) / fmid
            else:
                nidx = (nr + 1) * Wp + nc + 1
                D[nidx] = seed
                heappush(heap, (seed, nidx))

    @cached_property
    def D(self) -> np.ndarray:
        """The finished (height, width) field, read-only."""
        self._run()
        H, W = self.grid.height, self.grid.width
        D = np.array(self._final).reshape(H + 2, W + 2)[1:-1, 1:-1].copy()
        D.flags.writeable = False
        return D

    @property
    def accepted(self) -> int:
        """Cells accepted so far; every finite cell once D has been read."""
        return len(self._final) - self._final.count(math.inf)

    def at(self, c: CellIndex) -> float:
        if not self.grid.cell_in_bounds(c):
            raise OutOfBoundsError(f"cell {c} outside {self.grid.width}x{self.grid.height} grid")
        return self._value((c[1] + 1) * self._stride + c[0] + 1)

    def _value(self, i: int) -> float:
        """The final value of padded cell i, marching until it is accepted.

        A cell whose h / f is +inf is never updated, only seeded, so unless
        it holds a trial value it stays +inf without marching."""
        if self._final[i] == math.inf and (self._hf[i] < math.inf or self._trial[i] < math.inf):
            self._run(i)
        return self._final[i]

    def _run(self, stop: int = -1) -> None:
        """March until padded cell stop is accepted or the heap is empty;
        the default stops at no cell and so finishes the march.

        Trial values use the two-axis-neighbor quadratic update from accepted
        cells only, so cells are accepted in non-decreasing order. Each
        cell is pushed only with a value below its trial value, so an entry
        above the trial value is stale and an accepted cell has none left.
        """
        heap, D, A, HF = self._heap, self._trial, self._final, self._hf
        Wp = self._stride
        INF = math.inf
        sqrt = math.sqrt
        pop, push = heappop, heappush
        while heap:
            d, idx = pop(heap)
            if d > D[idx]:
                continue
            A[idx] = d
            for nidx in (idx - 1, idx + 1, idx - Wp, idx + Wp):
                if A[nidx] < INF:
                    continue
                hf = HF[nidx]
                if hf == INF:
                    continue
                # accepted-only axis minima around the trial cell
                ux = A[nidx - 1]
                v = A[nidx + 1]
                if v < ux:
                    ux = v
                uy = A[nidx - Wp]
                v = A[nidx + Wp]
                if v < uy:
                    uy = v
                if ux > uy:
                    ux, uy = uy, ux
                # ux is finite (idx, just accepted, is an axis neighbor), so
                # an infinite uy fails this test on its own
                if uy - ux < hf:
                    disc = 2.0 * hf * hf - (ux - uy) * (ux - uy)
                    nd = 0.5 * (ux + uy + sqrt(disc))
                else:
                    nd = ux + hf
                if nd < D[nidx]:
                    D[nidx] = nd
                    push(heap, (nd, nidx))
            if idx == stop:
                return


def solve_eikonal(grid: GridMap, F: np.ndarray, source: CellIndex) -> DistanceField:
    """First-order upwind fast marching over the 4-neighborhood of grid, at
    the (height, width) speeds F.

    Values are finalized in non-decreasing order. The returned field marches
    on demand. Cells with zero velocity keep +inf.
    """
    sc, sr = source
    if not grid.cell_in_bounds(source):
        raise UnreachableError(f"source cell {source} outside grid")
    if F[sr, sc] <= 0.0:
        raise UnreachableError(f"source cell {source} has zero velocity")
    return DistanceField(grid, F, (sc, sr))


_RING = [
    (1.0, 0.0), (0.70710678118654752, 0.70710678118654752),
    (0.0, 1.0), (-0.70710678118654752, 0.70710678118654752),
    (-1.0, 0.0), (-0.70710678118654752, -0.70710678118654752),
    (0.0, -1.0), (0.70710678118654752, -0.70710678118654752),
]


def _make_interp(dfield: DistanceField):
    """Bilinear interpolation of D on cell centers; +inf corners are dropped
    with weight renormalization so values next to obstacles stay usable.
    Only corners of weight > 0 are read, so the march goes no further.

    Plain scalar code with the corners unrolled: at a dozen points per
    descent step, one numpy call over them measured two to three times
    slower. On the last column fx is 0.0, so the corners one column on
    weigh 0 and are never read (likewise on the last row); the padded
    border keeps their index valid.
    """
    A, value = dfield._final, dfield._value
    Wp = dfield.grid.width + 2
    gx_max = dfield.grid.width - 1.0
    gy_max = dfield.grid.height - 1.0
    res = dfield.grid.resolution
    INF = math.inf

    def interp(x: float, y: float) -> float:
        gx = x / res - 0.5
        if gx < 0.0:
            gx = 0.0
        elif gx > gx_max:
            gx = gx_max
        gy = y / res - 0.5
        if gy < 0.0:
            gy = 0.0
        elif gy > gy_max:
            gy = gy_max
        c0 = int(gx)
        r0 = int(gy)
        fx = gx - c0
        fy = gy - r0
        ex = 1.0 - fx
        ey = 1.0 - fy
        i = (r0 + 1) * Wp + c0 + 1
        total = 0.0
        wsum = 0.0
        w = ex * ey
        if w > 0.0:
            v = A[i]
            if v == INF:
                v = value(i)
            if v < INF:
                total += w * v
                wsum += w
        w = fx * ey
        if w > 0.0:
            v = A[i + 1]
            if v == INF:
                v = value(i + 1)
            if v < INF:
                total += w * v
                wsum += w
        i += Wp
        w = ex * fy
        if w > 0.0:
            v = A[i]
            if v == INF:
                v = value(i)
            if v < INF:
                total += w * v
                wsum += w
        w = fx * fy
        if w > 0.0:
            v = A[i + 1]
            if v == INF:
                v = value(i + 1)
            if v < INF:
                total += w * v
                wsum += w
        if wsum == 0.0:
            return INF
        return total / wsum

    return interp


_CHORD_BLOCK = 64  # chords per _chord_costs call while string pulling; bounds the sample matrix


def _chord_costs(grid: GridMap, F: np.ndarray, a, bs) -> np.ndarray:
    """Line integrals of 1/F along the chords a-b for each row b of bs (a is
    one point or one point per row), sampled at quarter-cell steps.

    Bit-exact with a scalar loop over the samples: d from math.hypot, sample
    cells by truncation with the far edge folded in, terms (d / n) / f added
    in sample order by cumsum (a pairwise sum could flip a caller's tie
    test). A chord over any f <= 0 costs inf; a zero-length chord costs 0.
    """
    a = np.asarray(a, dtype=np.float64)
    delta = np.asarray(bs, dtype=np.float64) - a
    res = grid.resolution
    d = np.array([math.hypot(dx, dy) for dx, dy in delta.tolist()])
    n = np.maximum(1.0, np.ceil(d / (res * 0.25)))
    # rows are padded to the longest chord by repeating their last sample,
    # which leaves the blocked test and the sum up to index n - 1 unchanged
    k = np.minimum(np.arange(n.max()), n[:, None] - 1.0)
    t = (k + 0.5) / n[:, None]
    x = a[..., 0, None] + t * delta[:, 0, None]
    y = a[..., 1, None] + t * delta[:, 1, None]
    f = F[np.minimum((y / res).astype(np.int64), grid.height - 1),
          np.minimum((x / res).astype(np.int64), grid.width - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        sums = np.cumsum((d / n)[:, None] / f, axis=1)
    cost = sums[np.arange(len(n)), n.astype(np.int64) - 1]
    cost[(f <= 0.0).any(axis=1)] = math.inf
    cost[d == 0.0] = 0.0
    return cost


def _shortcut(grid: GridMap, F: np.ndarray, pts: list[WorldPoint]) -> list[WorldPoint]:
    """Metric-aware string pulling: replace a stretch of the descent polyline
    by its chord only when the chord is no more expensive under the same
    velocity metric, so coverage detours survive while zigzag does not. The
    result is resampled to keep consecutive points within half a cell.

    From each kept point i the farthest j wins, scanned downward in blocks of
    _CHORD_BLOCK chords, so a straight path costs one block per point."""
    if len(pts) < 3:
        return pts
    step = grid.resolution * 0.5
    res = grid.resolution

    def resample(a: WorldPoint, b: WorldPoint) -> list[WorldPoint] | None:
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

    n = len(pts)
    P = np.array(pts, dtype=np.float64)
    seg_cost = np.concatenate([
        _chord_costs(grid, F, P[:-1][s:s + _CHORD_BLOCK], P[1:][s:s + _CHORD_BLOCK])
        for s in range(0, n - 1, _CHORD_BLOCK)
    ])
    seg_cost[np.isinf(seg_cost)] = 1e9  # corner-clipping raw segment; any finite chord beats it
    prefix = np.cumsum(np.concatenate(([0.0], seg_cost)))

    def pull(i: int) -> tuple[int, list[WorldPoint]]:
        for hi in range(n - 1, i + 1, -_CHORD_BLOCK):
            js = np.arange(hi, max(hi - _CHORD_BLOCK, i + 1), -1)
            fits = _chord_costs(grid, F, P[i], P[js]) <= prefix[js] - prefix[i] + 1e-9
            for j in js[fits].tolist():
                chosen = resample(pts[i], pts[j])
                if chosen is not None:
                    return j, chosen
        return i + 1, [pts[i + 1]]

    out: list[WorldPoint] = [pts[0]]
    i = 0
    while i < n - 1:
        i, chosen = pull(i)
        out.extend(chosen)
    return out


def extract_path(dfield: DistanceField, start: CellIndex) -> Path:
    """Steepest-descent walk on interpolated D from start down to the source.

    Step size is resolution/2; candidate moves are the finite-difference
    gradient direction plus an 8-direction ring, keeping the best strictly
    improving move. Stagnation for 8 consecutive steps is an extraction error.
    The raw walk is then tightened by metric-aware string pulling.
    """
    grid = dfield.grid
    res = grid.resolution
    step = res * 0.5
    if not grid.cell_in_bounds(start):
        raise UnreachableError(f"start cell {start} outside grid")
    if not math.isfinite(dfield.at(start)):
        raise UnreachableError(f"start cell {start} unreachable from source {dfield.source}")

    interp = _make_interp(dfield)
    F = dfield.F
    src_center = grid.to_world(dfield.source)
    sx, sy = src_center
    p = grid.to_world(start)
    points: list[WorldPoint] = [p]
    cur = interp(*p)
    plateau = 0
    W, H = grid.width, grid.height
    max_steps = 8 * (W + H)
    ww, wh = grid.world_width, grid.world_height
    # the march's h / f per padded cell is +inf exactly where F <= 0: no
    # traversable F is so small that h / F overflows
    hf, Wp = dfield._hf, W + 2
    W1, H1 = W - 1, H - 1
    INF = math.inf
    hypot = math.hypot
    eps = step * 0.5
    ring = [(step * ux, step * uy) for ux, uy in _RING]

    for _ in range(max_steps):
        px, py = p
        if hypot(px - sx, py - sy) <= res:
            break
        candidates = [(px + ox, py + oy) for ox, oy in ring]
        dpx = interp(px + eps, py) - interp(px - eps, py)
        dpy = interp(px, py + eps) - interp(px, py - eps)
        if -INF < dpx < INF and -INF < dpy < INF:
            norm = hypot(dpx, dpy)
            if norm > 0.0:
                candidates.insert(0, (px - step * dpx / norm, py - step * dpy / norm))
        best_q = None
        best_v = INF
        for q in candidates:
            # q must be in the map and its cell (GridMap.to_cell) have F > 0
            x, y = q
            if not (0.0 <= x <= ww and 0.0 <= y <= wh):
                continue
            c = int(x / res)
            if c > W1:
                c = W1
            r = int(y / res)
            if r > H1:
                r = H1
            if hf[(r + 1) * Wp + c + 1] == INF:
                continue
            v = interp(x, y)
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
    points = _shortcut(grid, F, points)
    return Path(points=points, length=_polyline_length(points))


def coverage_fraction(grid: GridMap, points: Sequence[WorldPoint], mask: np.ndarray) -> float:
    """Fraction of the polyline arc length whose midpoint cell is covered."""
    total = 0.0
    covered = 0.0
    for i in range(len(points) - 1):
        ax, ay = points[i]
        bx, by = points[i + 1]
        seg = math.hypot(bx - ax, by - ay)
        if seg == 0.0:
            continue
        total += seg
        mid = grid.to_cell(((ax + bx) * 0.5, (ay + by) * 0.5))
        if mask[mid[1], mid[0]]:
            covered += seg
    if total == 0.0:
        c = grid.to_cell(points[0])
        return 1.0 if bool(mask[c[1], c[0]]) else 0.0
    return covered / total


def ca_fmm_path(book: CoverageBook, start: CellIndex, goal: CellIndex,
                relay_sources: Sequence[WorldPoint], w_c: float = 1.0,
                blocked: Sequence[CellIndex] = ()) -> Path:
    """Plan one start->goal path on the book's grid, biased into the coverage
    of relay_sources, whose fields come from the book.

    The eikonal front expands from the goal over the boosted velocity, so the
    descent from start flows toward the goal. With no relay sources this is
    exactly the plain shortest-path solve. blocked lists cells held by other
    robots, which are excluded from the velocity field.
    """
    grid = book.grid
    if not grid.cell_in_bounds(start) or not grid.cell_in_bounds(goal):
        raise UnreachableError(f"start {start} or goal {goal} outside grid")
    rss = book.combined(relay_sources)
    blocked_eff = [c for c in blocked if tuple(c) not in (tuple(start), tuple(goal))]
    F = comm_velocity(grid, rss, book.params, blocked_eff, w_c)
    if F[goal[1], goal[0]] <= 0.0:
        raise UnreachableError(f"goal cell {goal} is blocked")
    if F[start[1], start[0]] <= 0.0:
        raise UnreachableError(f"start cell {start} is blocked")
    mask = rss >= book.params.gamma
    if start == goal:
        center = grid.to_world(start)
        return Path(points=[center], length=0.0,
                    coverage_fraction=coverage_fraction(grid, [center], mask))
    dfield = solve_eikonal(grid, F, goal)
    if not math.isfinite(dfield.at(start)):
        raise UnreachableError(f"goal {goal} unreachable from start {start}")
    path = extract_path(dfield, start)
    path.coverage_fraction = coverage_fraction(grid, path.points, mask)
    return path
