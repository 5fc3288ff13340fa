import heapq
from unittest import mock

import numpy as np
import pytest

from relaynet import eikonal
from relaynet.gridmap import GridMap, parse_map
from relaynet.mission import Scenario
from relaynet.radio import RadioParams


def make_map(rows: list[str], resolution: float = 0.5) -> GridMap:
    """Build a map from raster rows (strings of . # %)."""
    text = f"width {len(rows[0])}\nheight {len(rows)}\nresolution {resolution}\n" + "\n".join(rows)
    return parse_map(text)


def open_map(width: int, height: int, resolution: float = 0.5) -> GridMap:
    return make_map(["." * width] * height, resolution)


def acceptance_order(grid, F, source) -> tuple[eikonal.DistanceField, list]:
    """The finished field of solve_eikonal and its cells (c, r, d) in the
    order the march accepts them, read from the march's heap pops.

    A cell is pushed only with values below its trial value, so exactly one
    pop per accepted cell carries its final accepted value."""
    pops = []

    def heappop(heap):
        pops.append(heapq.heappop(heap))
        return pops[-1]

    with mock.patch.object(eikonal, "heappop", heappop):
        dfield = eikonal.solve_eikonal(grid, F, source)
        dfield.D  # finishes the march
    Wp = dfield._stride
    return dfield, [(i % Wp - 1, i // Wp - 1, d) for d, i in pops if d == dfield._final[i]]


@pytest.fixture
def traversal_map() -> GridMap:
    # 10x10, 0.5 m/cell: a wall band three rows thick with a one-cell doorway
    # at column 2, used for hand-walked raycast fixtures
    rows = [
        "..........",
        "..........",
        "..........",
        "##.#######",
        "##.#######",
        "##.#######",
        "..........",
        "..........",
        "..........",
        "..........",
    ]
    return make_map(rows)


def fig2_map() -> GridMap:
    # 20x12 m at 0.5 m/cell: one wall band with a left gap and a door on the
    # right, separating a bottom strip from the main hall
    rows = []
    for r in range(24):
        if r == 5:
            rows.append("".join("#" if (2 <= c <= 31 or 34 <= c <= 39) else "."
                                for c in range(40)))
        else:
            rows.append("." * 40)
    return make_map(rows)


def fig2_scenario() -> Scenario:
    # base-station hall with a goal chain plus two goals cut off behind the
    # wall band; coverage distance ~8 m so the far pair needs a relay
    return Scenario(
        map=fig2_map(),
        bs=(3.0, 6.0),
        robot_starts=[(1.0 + 0.5 * i, 10.5) for i in range(6)],
        goals=[(9.0, 4.5), (13.0, 8.0), (16.0, 5.5), (17.0, 10.0), (15.5, 1.0), (18.5, 1.0)],
        radio=RadioParams(p_tx=-14.65, l0=40.0, gamma=-70.0),
    )


@pytest.fixture
def fig2() -> Scenario:
    return fig2_scenario()


def corridor_scenario(n_cells: int, d_cov: float = 10.0, n_robots: int = 3,
                      goal_cols: list[int] | None = None) -> Scenario:
    """Walled 1-cell corridor with the BS at the left end; exact 1-D geometry.

    RadioParams use n_los = 2 so the coverage distance is exactly 10^((p_tx -
    l0 - gamma)/20) with no float slop at round numbers.
    """
    import math

    rows = ["#" * n_cells, "." * n_cells, "#" * n_cells]
    grid = make_map(rows)
    p_tx = -70.0 + 40.0 + 20.0 * math.log10(d_cov)
    params = RadioParams(p_tx=p_tx, l0=40.0, gamma=-70.0, n_los=2.0, n_nlos=2.0)
    goal_cols = goal_cols or [n_cells - 1]
    starts = [grid.to_world((1 + i, 1)) for i in range(n_robots)]
    return Scenario(
        map=grid,
        bs=grid.to_world((0, 1)),
        robot_starts=starts,
        goals=[grid.to_world((c, 1)) for c in goal_cols],
        radio=params,
    )
