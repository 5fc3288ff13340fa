"""Occupancy-grid world model: map parsing, geometry and obstacle raycasting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class TraversalCount(NamedTuple):
    walls: int
    glass: int


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


def _sampled_runs(grid: GridMap, ax, ay, dx, dy, n, width: int) -> np.ndarray:
    """Runs along the rows a-(a + d), sampled at n + 1 points and padded to
    width samples by repeating the endpoint sample, which starts no run:
    scalars for one row, (k, 1) arrays for k rows."""
    k = np.arange(width)
    t = np.where(k >= n, 1.0, k * (1.0 / n))
    cells = _cells(ay + t * dy, grid.resolution, grid.height - 1)
    cells *= grid.width
    cells += _cells(ax + t * dx, grid.resolution, grid.width - 1)
    hit = grid.materials.reshape(-1).take(cells) == _RUN_CODES.reshape((2,) + (1,) * cells.ndim)
    return hit[..., 0] + (hit[..., 1:] > hit[..., :-1]).sum(axis=-1)


def segment_runs(grid: GridMap, ax, ay, bx, by, n) -> np.ndarray:
    """Wall and glass runs along segments a-b, each sampled at n + 1 evenly
    spaced points; the first axis of the result holds (walls, glass).

    The coordinates and n are scalars for one segment, or (..., 1) arrays of
    one shape for many segments, each with its own step count (n may also be
    one int for all); the result then has shape (2, ...). The sample
    parameters are bit-equal to np.linspace(0, 1, n + 1). Callers pass the
    endpoints in canonical order, so counts are exactly symmetric.

    A row's sample cells are monotone in t, so they all lie in the box of
    its first sample cell (at ax + 0.0 * (bx - ax) == ax) and its last (at
    ax + 1.0 * (bx - ax)). A row whose box holds no obstacle (four lookups
    in grid.obstacle_table) has no runs and is not sampled.
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
    # box[axis, end]: first and last sample cells, sorted, the last one + 1
    box = _cells(np.stack((ax, ax + dx, ay, ay + dy), dtype=float).reshape(2, 2, -1),
                 res, np.array([[[W - 1]], [[H - 1]]]))
    box.sort(axis=1)
    box[:, 1] += 1
    box[1] *= W + 1
    corner = table.reshape(-1).take(box[1, :, None] + box[0, None])
    inside = corner[1, 1] - corner[0, 1] - corner[1, 0] + corner[0, 0]
    # the other rows, sorted by step count, in blocks of about _SAMPLE_BLOCK
    # samples, each padded to its longest row
    cast = np.flatnonzero(inside)
    cast = cast[np.argsort(n[cast], kind="stable"), None]
    ax, ay, dx, dy, n = (v[cast] for v in (ax, ay, dx, dy, n))
    runs = np.zeros((2, inside.size), dtype=np.int64)
    i = 0
    while i < cast.size:
        # the rows that fit the budget at the first row's width, then at the last's
        j = min(cast.size, i + max(1, _SAMPLE_BLOCK // int(n[i, 0] + 1)))
        j = i + max(1, min(j - i, _SAMPLE_BLOCK // int(n[j - 1, 0] + 1)))
        runs[:, cast[i:j, 0]] = _sampled_runs(grid, ax[i:j], ay[i:j], dx[i:j], dy[i:j],
                                              n[i:j], int(n[j - 1, 0]) + 1)
        i = j
    return runs.reshape(shape)


def count_traversals(grid: GridMap, a: WorldPoint, b: WorldPoint) -> TraversalCount:
    """Wall and glass crossings of the straight segment a-b.

    A physical wall usually spans several cells, so each maximal run of
    Wall cells along the segment counts as one wall (same for glass). The
    segment is supersampled at steps <= resolution/2.
    """
    grid.require_in_bounds(a)
    grid.require_in_bounds(b)
    if (b[0], b[1]) < (a[0], a[1]):
        a, b = b, a
    walls, glass = segment_runs(grid, a[0], a[1], b[0], b[1], segment_steps(grid, a, b)).tolist()
    return TraversalCount(walls, glass)


def line_of_sight(grid: GridMap, a: WorldPoint, b: WorldPoint) -> bool:
    """True iff the segment a-b crosses no wall and no glass."""
    return count_traversals(grid, a, b) == (0, 0)
