"""Indoor RF propagation: log-distance path loss with wall shadowing and
seeded Gaussian multipath, per-cell coverage fields, and the guaranteed
coverage distance used by the deployment feasibility check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .gridmap import (
    FREE,
    CellIndex,
    GridMap,
    WorldPoint,
    count_traversals,
    count_traversals_batch,
    segment_runs,
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
        if not math.isfinite(self.p_tx - self.l0 - self.gamma):
            raise RadioConfigError(
                f"radio span overflows: p_tx {self.p_tx} dBm, l0 {self.l0} dB, gamma {self.gamma} dBm"
            )

    def with_(self, **kw) -> "RadioParams":
        return replace(self, **kw)


def _seed_words(values) -> np.ndarray:
    """The entropy SeedSequence reads from a list of ints, as one uint32
    array: each int split into little-endian 32-bit words, [0] for 0. An
    array seeds the same generator as the list, without numpy's per-int
    conversion."""
    words = []
    for v in values:
        v = int(v)
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & 0xFFFFFFFF)
        v >>= 32
        while v:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
    return np.array(words, dtype=np.uint32)


def _multipath_draw(params: RadioParams, sigma2: float, cell_a: CellIndex,
                    cell_b: CellIndex, key: tuple[int, ...]) -> float:
    """One seeded Gaussian multipath draw, symmetric in the cell pair."""
    if sigma2 == 0.0:
        return 0.0
    if cell_b < cell_a:
        cell_a, cell_b = cell_b, cell_a
    seq = np.random.SeedSequence(_seed_words((params.seed, *cell_a, *cell_b, *key)))
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
    """Wall/glass run counts from tx to every free cell center, in one
    segment_runs call; obstacle cells read (0, 0)."""
    res = grid.resolution
    free = np.flatnonzero(grid.materials == FREE)
    ex = (free % grid.width + 0.5) * res
    ey = (free // grid.width + 0.5) * res
    tx0, ty0 = float(tx[0]), float(tx[1])
    nsteps = np.maximum(1, np.ceil(np.hypot(ex - tx0, ey - ty0) / (res * 0.5))).astype(np.int64)
    # canonical endpoints: s the smaller point, f the other (f overwrites e)
    swap = (ex < tx0) | ((ex == tx0) & (ey < ty0))
    sx = np.where(swap, ex, tx0)
    sy = np.where(swap, ey, ty0)
    fx, fy = ex, ey
    fx[swap], fy[swap] = tx0, ty0
    runs = np.zeros((2, grid.height * grid.width), dtype=np.int64)
    runs[:, free] = segment_runs(grid, sx[:, None], sy[:, None], fx[:, None], fy[:, None],
                                 nsteps[:, None])
    walls, glass = runs.reshape(2, grid.height, grid.width)
    return walls, glass


def coverage_field(grid: GridMap, tx: WorldPoint, params: RadioParams) -> np.ndarray:
    """Deterministic rss (dBm) at every cell center for a single
    transmitter, as a read-only (height, width) array. A cell is covered
    where rss >= params.gamma; every obstacle cell reads NO_SIGNAL, which
    no (finite) gamma reaches, so no obstacle cell is ever covered."""
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
    values.flags.writeable = False
    return values


def coverage_distance(params: RadioParams) -> float:
    """Largest LoS free-space range still meeting the rss threshold.

    Solves p_tx - (l0 + 10 n_los log10 d) - margin_k*sqrt(sigma2_los) >= gamma
    for d in closed form. Below the 1 m model reference there is no usable
    range, which is reported as an infeasible radio configuration; a range
    too large for a float is a configuration error.
    """
    margin = params.margin_k * math.sqrt(params.sigma2_los)
    exponent = (params.p_tx - params.l0 - margin - params.gamma) / (10.0 * params.n_los)
    try:
        d = 10.0 ** exponent
    except OverflowError:
        d = math.inf
    if d == math.inf:
        raise RadioConfigError(
            f"coverage range overflows: p_tx {params.p_tx} dBm against gamma {params.gamma} dBm"
        )
    if d < 1.0:
        raise InfeasibleRadioError(
            f"no coverage range: p_tx {params.p_tx} dBm cannot reach gamma {params.gamma} dBm at 1 m"
        )
    return d


class CoverageBook:
    """Radio memo over one grid: the read-only rss arrays of single-source
    coverage fields keyed by source cell, which every book on the grid with
    equal parameters shares (grid.coverage_fields), and this book's
    deterministic link losses keyed by the canonical point pair (a loss is
    exactly reciprocal, so one entry serves both directions).
    """

    def __init__(self, grid: GridMap, params: RadioParams):
        self.grid = grid
        self.params = params
        self._rss: dict[CellIndex, np.ndarray] = grid.coverage_fields.setdefault(params, {})
        self._losses: dict[tuple[WorldPoint, WorldPoint], float] = {}

    def field_at(self, src: WorldPoint) -> np.ndarray:
        cell = self.grid.to_cell(src)
        rss = self._rss.get(cell)
        if rss is None:
            tx = self.grid.to_world(cell)
            rss = self._rss[cell] = coverage_field(self.grid, tx, self.params)
        return rss

    def combined(self, sources: list[WorldPoint]) -> np.ndarray:
        """Cellwise maximum rss over the sources' fields, as a fresh array;
        all NO_SIGNAL with no sources."""
        values = np.full((self.grid.height, self.grid.width), NO_SIGNAL)
        for s in sources:
            np.maximum(values, self.field_at(s), out=values)
        return values

    def rss_pairs(self, pairs: list[tuple[WorldPoint, WorldPoint]]) -> list[float]:
        """Deterministic rss of each pair of (x, y) tuples, memoised. The
        memo misses are raycast together (count_traversals_batch) and
        finished with path_loss's formula, so every loss is bit-equal to
        path_loss's."""
        keys = [(a, b) if a <= b else (b, a) for a, b in pairs]
        misses = list(dict.fromkeys(k for k in keys if k not in self._losses))
        for (a, b), (walls, glass) in zip(misses, count_traversals_batch(self.grid, misses)):
            self._losses[(a, b)] = _link_loss(self.params, a, b, walls, glass)
        p_tx = self.params.p_tx
        return [p_tx - self._losses[k] for k in keys]

    def links(self, points: list[WorldPoint]) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j in lexicographic order, whose rss clears gamma."""
        pts = [tuple(p) for p in points]
        pairs = itertools.combinations(range(len(pts)), 2)
        values = self.rss_pairs(list(itertools.combinations(pts, 2)))
        return [ij for ij, r in zip(pairs, values) if r >= self.params.gamma]
