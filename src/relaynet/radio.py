"""Indoor RF propagation: log-distance path loss with wall shadowing and
seeded Gaussian multipath, per-cell coverage fields, and the guaranteed
coverage distance used by the deployment feasibility check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gridmap import (
    FREE,
    CellIndex,
    GridMap,
    WorldPoint,
    count_traversals,
    segment_runs,
    segment_steps,
)

MIN_SEPARATION = 0.1   # meters; clamp below this to dodge the log10 singularity
NO_SIGNAL = -math.inf  # rss sentinel on obstacle cells


class RadioConfigError(ValueError):
    pass


class InfeasibleRadioError(ValueError):
    pass


@dataclass(frozen=True)
class RadioParams:
    """Signal model parameters. Defaults follow a measured indoor WiFi fit."""

    p_tx: float = 10.0        # transmit power, dBm
    l0: float = 40.0          # path loss at 1 m, dB
    n_los: float = 1.7
    n_nlos: float = 1.4
    a_wall: float = 10.0      # dB per traversed wall
    a_glass: float = 2.5      # dB per traversed glass plate
    sigma2_los: float = 3.45  # multipath variance, dB^2
    sigma2_nlos: float = 3.25
    gamma: float = -70.0      # rss threshold for communication, dBm
    margin_k: float = 0.0     # multipath safety factor on the coverage distance
    seed: int = 0

    def __post_init__(self):
        if self.l0 < 0 or self.a_wall < 0 or self.a_glass < 0:
            raise RadioConfigError("l0 and attenuations must be >= 0")
        if self.sigma2_los < 0 or self.sigma2_nlos < 0:
            raise RadioConfigError("multipath variances must be >= 0")
        if self.n_los <= 0 or self.n_nlos <= 0:
            raise RadioConfigError("path-loss exponents must be > 0")
        if self.seed < 0:
            raise RadioConfigError("seed must be >= 0")

    def with_(self, **kw) -> "RadioParams":
        return replace(self, **kw)


@dataclass(frozen=True, eq=False)
class RssField:
    """Per-cell received signal strength (dBm) from one or more transmitters."""

    grid: GridMap
    rss: np.ndarray            # shape (height, width), dBm; NO_SIGNAL on obstacles
    sources: tuple[WorldPoint, ...]
    gamma: float
    rss_ref: float             # strongest plausible signal, p_tx - l0

    def __post_init__(self):
        self.rss.flags.writeable = False

    @property
    def mask(self) -> np.ndarray:
        return self.rss >= self.gamma

    def covered(self, cell: CellIndex) -> bool:
        return bool(self.rss[cell[1], cell[0]] >= self.gamma)

    def to_csv(self) -> str:
        lines = []
        for row in self.rss:
            lines.append(",".join("nan" if v == NO_SIGNAL else f"{v:.4f}" for v in row))
        return "\n".join(lines) + "\n"


def _multipath_draw(params: RadioParams, sigma2: float, cell_a: CellIndex,
                    cell_b: CellIndex, key: tuple[int, ...]) -> float:
    """One seeded Gaussian multipath draw, symmetric in the cell pair."""
    if sigma2 == 0.0:
        return 0.0
    if cell_b < cell_a:
        cell_a, cell_b = cell_b, cell_a
    seq = np.random.SeedSequence(
        [int(params.seed), cell_a[0], cell_a[1], cell_b[0], cell_b[1], *(int(k) for k in key)]
    )
    rng = np.random.default_rng(seq)
    return float(rng.normal(0.0, math.sqrt(sigma2)))


def _link_loss(params: RadioParams, tx: WorldPoint, rx: WorldPoint, walls: int, glass: int) -> float:
    """Deterministic loss tx->rx in dB from the segment's wall and glass runs."""
    n = params.n_los if walls == glass == 0 else params.n_nlos
    d = max(math.hypot(rx[0] - tx[0], rx[1] - tx[1]), MIN_SEPARATION)
    return params.l0 + 10.0 * n * math.log10(d) + walls * params.a_wall + glass * params.a_glass


def path_loss(grid: GridMap, tx: WorldPoint, rx: WorldPoint, params: RadioParams,
              mode: str = "deterministic", key: tuple[int, ...] = ()) -> float:
    """Total path loss tx->rx in dB.

    Distance term uses the LoS exponent when the segment crosses nothing,
    the NLoS exponent otherwise; shadowing adds a_wall/a_glass per crossed
    run. In stochastic mode a seeded zero-mean Gaussian multipath term is
    added; the draw is keyed on (seed, cell pair, key) so repeated calls
    with the same inputs are identical and order-independent.
    """
    grid.require_in_bounds(tx)
    grid.require_in_bounds(rx)
    walls, glass = count_traversals(grid, tx, rx)
    loss = _link_loss(params, tx, rx, walls, glass)
    if mode == "stochastic":
        sigma2 = params.sigma2_los if walls == glass == 0 else params.sigma2_nlos
        loss += _multipath_draw(params, sigma2, grid.to_cell(tx), grid.to_cell(rx), key)
    elif mode != "deterministic":
        raise ValueError(f"unknown mode {mode!r}")
    return loss


def rss(grid: GridMap, tx: WorldPoint, rx: WorldPoint, params: RadioParams,
        mode: str = "deterministic", key: tuple[int, ...] = ()) -> float:
    return params.p_tx - path_loss(grid, tx, rx, params, mode, key)


def _traversal_field(grid: GridMap, tx: WorldPoint) -> tuple[np.ndarray, np.ndarray]:
    """Wall/glass run counts from tx to every cell center, in one
    segment_runs call (obstacle cells included)."""
    res = grid.resolution
    ex = ((np.arange(grid.width) + 0.5) * res)[None, :]
    ey = ((np.arange(grid.height) + 0.5) * res)[:, None]
    tx0, ty0 = float(tx[0]), float(tx[1])
    swap = (ex < tx0) | ((ex == tx0) & (ey < ty0))
    sx = np.where(swap, ex, tx0)
    sy = np.where(swap, ey, ty0)
    fx = np.where(swap, tx0, ex)
    fy = np.where(swap, ty0, ey)
    d = np.hypot(ex - tx0, ey - ty0)
    nsteps = np.maximum(1, np.ceil(d / (res * 0.5))).astype(np.int64)
    walls, glass = segment_runs(grid, sx[..., None], sy[..., None], fx[..., None],
                                fy[..., None], nsteps[..., None])
    return walls, glass


def coverage_field(grid: GridMap, tx: WorldPoint, params: RadioParams) -> RssField:
    """Deterministic rss at every cell center for a single transmitter."""
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
    walls, glass = _traversal_field(grid, tx)
    los = (walls == 0) & (glass == 0)
    n = np.where(los, params.n_los, params.n_nlos)
    loss = params.l0 + 10.0 * n * np.log10(d) + walls * params.a_wall + glass * params.a_glass
    values = params.p_tx - loss
    values[grid.materials != FREE] = NO_SIGNAL
    return RssField(grid=grid, rss=values, sources=(tuple(tx),), gamma=params.gamma,
                    rss_ref=params.p_tx - params.l0)


def empty_field(grid: GridMap, params: RadioParams) -> RssField:
    """Field with no transmitters: no cell is covered."""
    values = np.full((grid.height, grid.width), NO_SIGNAL)
    return RssField(grid=grid, rss=values, sources=(), gamma=params.gamma,
                    rss_ref=params.p_tx - params.l0)


def combine_coverage(fields: list[RssField]) -> RssField:
    """Cellwise maximum over single-source fields sharing one grid."""
    if not fields:
        raise ValueError("combine_coverage needs at least one field")
    first = fields[0]
    for f in fields[1:]:
        if f.grid is not first.grid and f.grid != first.grid:
            raise ValueError("fields built on different grids")
        if f.gamma != first.gamma or f.rss_ref != first.rss_ref:
            raise ValueError("fields built with different radio parameters")
    values = first.rss.copy()
    for f in fields[1:]:
        np.maximum(values, f.rss, out=values)
    sources: list[WorldPoint] = []
    for f in fields:
        for s in f.sources:
            if s not in sources:
                sources.append(s)
    return RssField(grid=first.grid, rss=values, sources=tuple(sources),
                    gamma=first.gamma, rss_ref=first.rss_ref)


def coverage_distance(params: RadioParams) -> float:
    """Largest LoS free-space range still meeting the rss threshold.

    Solves p_tx - (l0 + 10 n_los log10 d) - margin_k*sqrt(sigma2_los) >= gamma
    for d in closed form. Below the 1 m model reference there is no usable
    range, which is reported as an infeasible radio configuration.
    """
    margin = params.margin_k * math.sqrt(params.sigma2_los)
    exponent = (params.p_tx - params.l0 - margin - params.gamma) / (10.0 * params.n_los)
    d = 10.0 ** exponent
    if d < 1.0:
        raise InfeasibleRadioError(
            f"no coverage range: p_tx {params.p_tx} dBm cannot reach gamma {params.gamma} dBm at 1 m"
        )
    return d


class CoverageBook:
    """Radio memo over one grid: single-source coverage fields keyed by
    source cell, and deterministic link losses keyed by the canonical point
    pair (a loss is exactly reciprocal, so one entry serves both directions).
    """

    def __init__(self, grid: GridMap, params: RadioParams):
        self.grid = grid
        self.params = params
        self._fields: dict[CellIndex, RssField] = {}
        self._losses: dict[tuple[WorldPoint, WorldPoint], float] = {}

    def field_at(self, src: WorldPoint) -> RssField:
        cell = self.grid.to_cell(src)
        field = self._fields.get(cell)
        if field is None:
            field = coverage_field(self.grid, self.grid.to_world(cell), self.params)
            self._fields[cell] = field
        return field

    def combined(self, sources: list[WorldPoint]) -> RssField:
        if not sources:
            return empty_field(self.grid, self.params)
        return combine_coverage([self.field_at(s) for s in sources])

    def rss(self, a: WorldPoint, b: WorldPoint, noise: RadioParams | None = None,
            key: tuple[int, ...] = ()) -> float:
        """rss between a and b: deterministic and memoised, or with noise
        (these params under the noise seed) rss(grid, a, b, noise,
        "stochastic", key). Every path_loss call is then a memo miss or a
        noisy link; bench/tracing.py counts them per link.
        """
        if noise is not None:
            return noise.p_tx - path_loss(self.grid, a, b, noise, "stochastic", key)
        a, b = tuple(a), tuple(b)
        pair = (a, b) if a <= b else (b, a)
        loss = self._losses.get(pair)
        if loss is None:
            loss = self._losses[pair] = path_loss(self.grid, pair[0], pair[1], self.params)
        return self.params.p_tx - loss

    def links(self, points: list[WorldPoint]) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j in lexicographic order, whose memoised
        deterministic rss clears gamma: exactly the pairs with
        rss(points[i], points[j]) >= gamma. The memo misses are raycast
        together in one segment_runs call and finished with path_loss's
        formula, so every loss is bit-equal to path_loss's.
        """
        grid = self.grid
        pts = [tuple(p) for p in points]
        for p in pts:
            grid.require_in_bounds(p)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        keys = [(pts[i], pts[j]) if pts[i] <= pts[j] else (pts[j], pts[i]) for i, j in pairs]
        misses = list(dict.fromkeys(k for k in keys if k not in self._losses))
        if misses:
            ax, ay, bx, by = np.array(misses, dtype=float).reshape(-1, 4, 1).transpose(1, 0, 2)
            steps = np.array([[segment_steps(grid, a, b)] for a, b in misses])
            runs = segment_runs(grid, ax, ay, bx, by, steps)
            for (a, b), walls, glass in zip(misses, *runs.tolist()):
                self._losses[(a, b)] = _link_loss(self.params, a, b, walls, glass)
        p_tx, gamma = self.params.p_tx, self.params.gamma
        return [ij for ij, k in zip(pairs, keys) if p_tx - self._losses[k] >= gamma]
