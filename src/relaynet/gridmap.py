"""Occupancy-grid world model: map parsing, geometry and obstacle raycasting."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if self.resolution <= 0:
            raise MapParseError("resolution must be > 0")
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
    if resolution <= 0:
        raise MapParseError("resolution must be > 0")

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


def segment_runs(grid: GridMap, ax, ay, bx, by, n: int) -> np.ndarray:
    """Wall and glass runs along segments a-b, each sampled at n + 1 evenly
    spaced points; the first axis of the result holds (walls, glass).

    The coordinates are floats for one segment, or (k, 1) arrays for k
    segments sharing n. Callers pass the endpoints in canonical order, so
    counts are exactly symmetric.
    """
    t = np.linspace(0.0, 1.0, n + 1)
    xs = ax + t * (bx - ax)
    ys = ay + t * (by - ay)
    # samples lie between in-bounds endpoints, so only the far edge needs folding
    cols = np.minimum((xs / grid.resolution).astype(np.int64), grid.width - 1)
    rows = np.minimum((ys / grid.resolution).astype(np.int64), grid.height - 1)
    mats = grid.materials[rows, cols]
    hit = mats == _RUN_CODES.reshape((2,) + (1,) * mats.ndim)
    return hit[..., 0] + (hit[..., 1:] > hit[..., :-1]).sum(axis=-1)


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
    n = max(1, math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / (grid.resolution * 0.5)))
    walls, glass = segment_runs(grid, a[0], a[1], b[0], b[1], n).tolist()
    return TraversalCount(walls, glass)


def line_of_sight(grid: GridMap, a: WorldPoint, b: WorldPoint) -> bool:
    """True iff the segment a-b crosses no wall and no glass."""
    return count_traversals(grid, a, b) == (0, 0)
