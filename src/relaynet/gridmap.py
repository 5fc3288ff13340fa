"""Occupancy-grid world model: map parsing, geometry and obstacle raycasting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FREE = 0
WALL = 1
GLASS = 2

_CHAR_TO_MATERIAL = {".": FREE, "#": WALL, "%": GLASS}
_MATERIAL_TO_CHAR = {v: k for k, v in _CHAR_TO_MATERIAL.items()}

DEFAULT_RESOLUTION = 0.5

CellIndex = tuple[int, int]      # (col, row)
WorldPoint = tuple[float, float]  # meters


class MapParseError(ValueError):
    pass


class OutOfBoundsError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GridMap:
    """Immutable occupancy grid with per-cell material and world geometry."""

    width: int
    height: int
    resolution: float
    materials: np.ndarray  # shape (height, width), uint8 material codes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise MapParseError("map must be at least 1x1 cells")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise MapParseError(f"resolution must be finite and > 0, got {self.resolution!r}")
        if self.materials.shape != (self.height, self.width):
            raise MapParseError(
                f"raster shape {self.materials.shape} does not match "
                f"{self.height}x{self.width} header"
            )
        self.materials.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and np.array_equal(self.materials, other.materials)
        )

    @cached_property
    def obstacle_table(self) -> np.ndarray:
        """Summed-area table of the non-FREE cells, int32 of shape
        (height + 1, width + 1): entry [r, c] counts the obstacles in rows
        < r and columns < c. Built on first use; materials is read-only,
        so it never goes stale."""
        table = np.zeros((self.height + 1, self.width + 1), dtype=np.int32)
        np.cumsum(self.materials != FREE, axis=0, dtype=np.int32, out=table[1:, 1:])
        np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
        table.flags.writeable = False
        return table

    @cached_property
    def traversals(self) -> dict[tuple[WorldPoint, WorldPoint], tuple[int, int]]:
        """count_traversals' memo, keyed by the canonical endpoint pair
        (a <= b) of float tuples. It lives as long as the map, which the
        CLI reads once per command."""
        return {}

    @cached_property
    def coverage_fields(self) -> dict:
        """The read-only rss arrays of the coverage fields built on this
        map, keyed by radio parameters and then by source cell, so every
        CoverageBook on the map with equal parameters builds each field
        once. It lives as long as the map."""
        return {}

    # -- geometry ------------------------------------------------------

    @property
    def world_width(self) -> float:
        return self.width * self.resolution

    @property
    def world_height(self) -> float:
        return self.height * self.resolution

    def in_bounds(self, p: WorldPoint) -> bool:
        return 0.0 <= p[0] <= self.world_width and 0.0 <= p[1] <= self.world_height

    def require_in_bounds(self, p: WorldPoint) -> None:
        if not self.in_bounds(p):
            raise OutOfBoundsError(f"point {p} outside map {self.world_width}x{self.world_height} m")

    def cell_in_bounds(self, c: CellIndex) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def to_cell(self, p: WorldPoint) -> CellIndex:
        """Cell containing p; points on the far boundary fold into the last cell."""
        self.require_in_bounds(p)
        col = min(int(p[0] / self.resolution), self.width - 1)
        row = min(int(p[1] / self.resolution), self.height - 1)
        return (col, row)

    def to_world(self, c: CellIndex) -> WorldPoint:
        """Center of cell c in meters."""
        if not self.cell_in_bounds(c):
            raise OutOfBoundsError(f"cell {c} outside {self.width}x{self.height} grid")
        return ((c[0] + 0.5) * self.resolution, (c[1] + 0.5) * self.resolution)

    def material(self, c: CellIndex) -> int:
        if not self.cell_in_bounds(c):
            raise OutOfBoundsError(f"cell {c} outside {self.width}x{self.height} grid")
        return int(self.materials[c[1], c[0]])

    def is_free_cell(self, c: CellIndex) -> bool:
        return self.material(c) == FREE

    def serialize(self) -> str:
        lines = [f"width {self.width}", f"height {self.height}", f"resolution {self.resolution!r}"]
        for row in range(self.height):
            lines.append("".join(_MATERIAL_TO_CHAR[int(m)] for m in self.materials[row]))
        return "\n".join(lines) + "\n"


def parse_map(text: str) -> GridMap:
    """Parse the plain-text map format: header lines, then a `.#%` raster."""
    lines = text.splitlines()
    header: dict[str, float] = {}
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        parts = stripped.split()
        if parts[0] in ("width", "height", "resolution"):
            if len(parts) != 2:
                raise MapParseError(f"line {i + 1}: malformed header line {stripped!r}")
            key = parts[0]
            try:
                value = int(parts[1]) if key != "resolution" else float(parts[1])
            except ValueError:
                raise MapParseError(f"line {i + 1}: bad {key} value {parts[1]!r}") from None
            if key in header:
                raise MapParseError(f"line {i + 1}: duplicate header key {key!r}")
            header[key] = value
            i += 1
            continue
        break

    if "width" not in header or "height" not in header:
        raise MapParseError("header must declare width and height")
    width = int(header["width"])
    height = int(header["height"])
    resolution = float(header.get("resolution", DEFAULT_RESOLUTION))
    if width < 1 or height < 1:
        raise MapParseError("width and height must be >= 1")
    if not (math.isfinite(resolution) and resolution > 0):
        raise MapParseError(f"resolution must be finite and > 0, got {resolution!r}")

    rows = []
    for r in range(height):
        if i >= len(lines):
            raise MapParseError(f"line {i + 1}: raster ends after {r} of {height} rows")
        line = lines[i]
        if len(line) != width:
            raise MapParseError(
                f"line {i + 1}: ragged raster row of length {len(line)}, expected {width}"
            )
        row = np.empty(width, dtype=np.uint8)
        for col, ch in enumerate(line):
            try:
                row[col] = _CHAR_TO_MATERIAL[ch]
            except KeyError:
                raise MapParseError(f"line {i + 1}, column {col + 1}: unknown character {ch!r}") from None
        rows.append(row)
        i += 1

    for j in range(i, len(lines)):
        if lines[j].strip():
            raise MapParseError(f"line {j + 1}: unexpected content after raster")

    return GridMap(width=width, height=height, resolution=resolution, materials=np.vstack(rows))


_RUN_CODES = np.array([WALL, GLASS], dtype=np.uint8)
_SAMPLE_BLOCK = 1 << 14  # samples per block of cast rows in segment_runs
_PIECE = 16              # sample steps per piece of a long batch in segment_runs


def segment_steps(grid: GridMap, a: WorldPoint, b: WorldPoint) -> int:
    """Sample steps of the segment a-b: the fewest of length <= resolution/2."""
    return max(1, math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / (grid.resolution * 0.5)))


def _cells(v: np.ndarray, res: float, last) -> np.ndarray:
    """Cells of the coordinates v, which are overwritten: v / res truncated,
    with the far map edge folded into the last cell. Samples lie between
    in-bounds endpoints, so only the far edge needs folding."""
    np.divide(v, res, out=v)
    cells = v.astype(np.int64)
    return np.minimum(cells, last, out=cells)


def _box_obstacles(grid: GridMap, box: np.ndarray) -> np.ndarray:
    """Obstacle count in the box between two cells per row, given as
    box[end, axis] (a (2, 2, rows) int array, overwritten) with box[0, 0]
    <= box[1, 0]: four lookups in grid.obstacle_table. Only the rows need
    ordering."""
    lo = np.minimum(box[0, 1], box[1, 1])
    np.maximum(box[0, 1], box[1, 1], out=box[1, 1])
    box[0, 1] = lo
    box[1] += 1
    box[:, 1] *= grid.width + 1
    corner = grid.obstacle_table.reshape(-1).take(box[:, None, 1] + box[None, :, 0])
    return corner[1, 1] - corner[0, 1] - corner[1, 0] + corner[0, 0]


def _piece_box(grid: GridMap, ax, ay, dx, dy, n, k0: int) -> np.ndarray:
    """The first and last sample cells, box[end, axis], of the piece of
    _PIECE steps from sample k0 of each row a-(a + d) (1-D arrays, rows
    longer than k0), placed as _sampled_runs places them. The coordinates
    are freed on return, before the box test allocates its lookups."""
    t0 = k0 * (1.0 / n)
    t1 = np.where(k0 + _PIECE >= n, 1.0, (k0 + _PIECE) * (1.0 / n))
    return _cells(np.concatenate((ax + t0 * dx, ay + t0 * dy, ax + t1 * dx, ay + t1 * dy))
                  .reshape(2, 2, -1), grid.resolution, ((grid.width - 1,), (grid.height - 1,)))


def _sampled_runs(grid: GridMap, ax, ay, dx, dy, n, width: int, k0: int = 0) -> np.ndarray:
    """Runs along the rows a-(a + d), sampled at n + 1 points and padded to
    width samples by repeating the endpoint sample, which starts no run:
    scalars for one row, (k, 1) arrays for k rows. From k0 > 0, only the
    samples k0 .. k0 + width - 1 are taken, and the runs that start after
    sample k0 are counted."""
    k = np.arange(k0, k0 + width)
    t = np.where(k >= n, 1.0, k * (1.0 / n))
    cells = _cells(ay + t * dy, grid.resolution, grid.height - 1)
    cells *= grid.width
    cells += _cells(ax + t * dx, grid.resolution, grid.width - 1)
    hit = grid.materials.reshape(-1).take(cells) == _RUN_CODES.reshape((2,) + (1,) * cells.ndim)
    rises = (hit[..., 1:] > hit[..., :-1]).sum(axis=-1)
    return hit[..., 0] + rises if k0 == 0 else rises


def _piece_runs(grid: GridMap, ax, ay, dx, dy, n, cast) -> np.ndarray:
    """Runs along the rows a-(a + d) (1-D arrays) listed in cast, zero on
    the others, shape (2, rows), piece by piece: for k0 = 0, _PIECE,
    2 * _PIECE, ..., the piece of _PIECE steps from sample k0 of every row
    longer than k0 is box-tested, and sampled only if its box holds an
    obstacle. The rows go _SAMPLE_BLOCK / 4 at a time, so that their boxes'
    ends fill one sample block, and the pieces sampled at once hold about
    _SAMPLE_BLOCK samples."""
    runs = np.zeros((2, n.size), dtype=np.int64)
    chunk, group = max(1, _SAMPLE_BLOCK // 4), max(1, _SAMPLE_BLOCK // (_PIECE + 1))
    for i in range(0, cast.size, chunk):
        live = cast[i:i + chunk]
        for k0 in range(0, int(n[live].max()), _PIECE):
            live = live[n[live] > k0]
            box = _piece_box(grid, *(v[live] for v in (ax, ay, dx, dy, n)), k0)
            sampled = live[np.flatnonzero(_box_obstacles(grid, box))]
            for j in range(0, sampled.size, group):
                rows = sampled[j:j + group, None]
                runs[:, rows[:, 0]] += _sampled_runs(grid, ax[rows], ay[rows], dx[rows], dy[rows],
                                                     n[rows], _PIECE + 1, k0)
    return runs


def segment_runs(grid: GridMap, ax, ay, bx, by, n) -> np.ndarray:
    """Wall and glass runs along segments a-b, each sampled at n + 1 evenly
    spaced points; the first axis of the result holds (walls, glass).

    The coordinates and n are scalars for one segment, or (..., 1) arrays of
    one shape for many segments, each with its own step count (n may also be
    one int for all); the result then has shape (2, ...). The sample
    parameters are bit-equal to np.linspace(0, 1, n + 1). Callers pass the
    endpoints in canonical order (a <= b), so counts are exactly symmetric;
    a batch's box tests rely on that order too.

    A row's sample cells are monotone in t, so they all lie in the box of
    its first sample cell (at ax + 0.0 * (bx - ax) == ax) and its last (at
    ax + 1.0 * (bx - ax)). A row whose box holds no obstacle (four lookups
    in grid.obstacle_table) has no runs and is not sampled. The rows left,
    each padded to the longest, are sampled in one call when they fit
    _SAMPLE_BLOCK samples. Otherwise each is cut into pieces of _PIECE
    steps, and a piece is sampled only if the box of its first and last
    sample cells holds an obstacle: a clean piece holds only FREE samples,
    so no run starts in it.
    """
    res, W, H = grid.resolution, grid.width, grid.height
    table = grid.obstacle_table
    if np.ndim(ax) == 0:
        # one segment: its box in Python floats, with the same operations
        # (numpy calls on a single row would cost more than the pruning saves)
        c0, c1 = sorted((min(int(ax / res), W - 1), min(int((ax + (bx - ax)) / res), W - 1)))
        r0, r1 = sorted((min(int(ay / res), H - 1), min(int((ay + (by - ay)) / res), H - 1)))
        if table.item(r1 + 1, c1 + 1) - table.item(r0, c1 + 1) \
                - table.item(r1 + 1, c0) + table.item(r0, c0) == 0:
            return np.zeros(2, dtype=np.int64)
        return _sampled_runs(grid, ax, ay, bx - ax, by - ay, n, n + 1)
    shape = (2,) + np.shape(ax)[:-1]
    ax, ay, bx, by = (np.ravel(v) for v in (ax, ay, bx, by))
    n = np.ravel(n) if np.ndim(n) else np.full(ax.size, n)
    dx, dy = bx - ax, by - ay
    # the first and last sample cells, the last at ax + 1.0 * dx
    cast = np.flatnonzero(_box_obstacles(grid, _cells(
        np.concatenate((ax, ay, ax + dx, ay + dy), dtype=float).reshape(2, 2, -1),
        res, ((W - 1,), (H - 1,)))))
    # the cast rows, each padded to the longest with its endpoint sample
    width = int(n[cast].max(initial=0)) + 1
    if cast.size * width > _SAMPLE_BLOCK:
        return _piece_runs(grid, ax, ay, dx, dy, n, cast).reshape(shape)
    runs = np.zeros((2, ax.size), dtype=np.int64)
    if cast.size:
        rows = cast[:, None]
        runs[:, cast] = _sampled_runs(grid, ax[rows], ay[rows], dx[rows], dy[rows], n[rows], width)
    return runs.reshape(shape)


def count_traversals(grid: GridMap, a: WorldPoint, b: WorldPoint) -> tuple[int, int]:
    """Wall and glass crossings (walls, glass) of the straight segment a-b.

    A physical wall usually spans several cells, so each maximal run of
    Wall cells along the segment counts as one wall (same for glass). The
    segment is supersampled at steps <= resolution/2. Each segment is
    raycast once per map: later calls, in either order, read grid.traversals.
    """
    grid.require_in_bounds(a)
    grid.require_in_bounds(b)
    a, b = (float(a[0]), float(a[1])), (float(b[0]), float(b[1]))
    if b < a:
        a, b = b, a
    counts = grid.traversals.get((a, b))
    if counts is None:
        counts = grid.traversals[a, b] = tuple(segment_runs(grid, a[0], a[1], b[0], b[1],
                                                            segment_steps(grid, a, b)).tolist())
    return counts


def count_traversals_batch(grid: GridMap,
                           segments: list[tuple[WorldPoint, WorldPoint]]) -> list[tuple[int, int]]:
    """count_traversals of each segment (a, b), bit for bit, for endpoints
    given in canonical order (a <= b): every endpoint is checked, then all
    segments are raycast in one padded segment_runs call."""
    if not segments:
        return []
    ends = np.array(segments, dtype=float).reshape(-1, 4, 1)
    x, y = ends[:, 0::2], ends[:, 1::2]
    if not ((0.0 <= x) & (x <= grid.world_width) & (0.0 <= y) & (y <= grid.world_height)).all():
        # the first bad endpoint raises as count_traversals would; NaN lands here too
        for a, b in segments:
            grid.require_in_bounds(a)
            grid.require_in_bounds(b)
    ax, ay, bx, by = ends.transpose(1, 0, 2)
    # segment_steps of each segment, written out: a call per segment costs
    # more than the expression on the tick path
    h = grid.resolution * 0.5
    steps = np.array([[max(1, math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / h))]
                      for a, b in segments])
    return list(zip(*segment_runs(grid, ax, ay, bx, by, steps).tolist()))

