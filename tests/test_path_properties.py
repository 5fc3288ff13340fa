"""Property tests of the path code against its scalar oracles: the
chord-cost kernel against the one-sample-at-a-time integral, string pulling
against the scalar scan, and the descent against its corner-loop form, bit
for bit, on random velocity fields."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaynet import eikonal
from relaynet.eikonal import (
    _CHORD_BLOCK,
    PathExtractionError,
    UnreachableError,
    _chord_costs,
    _shortcut,
    extract_path,
    solve_eikonal,
)
from relaynet.gridmap import GridMap

from helpers import extract_path_reference, metric_cost, shortcut

PROPS = settings(max_examples=40, deadline=None)


def random_field(seed: int, w: int, h: int, res: float, density: float) -> tuple[GridMap, np.ndarray]:
    """A walled map and a velocity on it: 0 on walls and on a few extra free
    cells, elsewhere 1 plus a random boost at a random scale."""
    rng = np.random.default_rng(seed)
    materials = (rng.random((h, w)) < density).astype(np.uint8)
    grid = GridMap(width=w, height=h, resolution=res, materials=materials)
    F = (materials == 0) * (1.0 + rng.random((h, w)) * rng.choice([0.0, 0.3, 1.0, 7.5]))
    F[rng.random((h, w)) < 0.03] = 0.0
    return grid, F * rng.choice([1.0, 0.37, 3.1])


@st.composite
def fields(draw, max_cells: int = 12):
    return random_field(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, max_cells)),
                        draw(st.integers(1, max_cells)), draw(st.sampled_from([0.5, 1.0, 0.3])),
                        draw(st.sampled_from([0.0, 0.1, 0.3])))


def points(grid: GridMap):
    """Any in-bounds point, or one on the half-cell lattice, whose samples
    fall on cell edges and on the far map edge."""
    def coord(cells: int):
        return st.floats(0.0, cells * grid.resolution) | \
            st.integers(0, 2 * cells).map(lambda i: i * grid.resolution / 2)
    return st.tuples(coord(grid.width), coord(grid.height))


@PROPS
@given(fields(), st.data())
def test_chord_costs_bit_equal_to_scalar_integral(field, data):
    grid, F = field
    a = data.draw(points(grid))
    bs = data.draw(st.lists(points(grid) | st.just(a), min_size=1, max_size=2 * _CHORD_BLOCK))
    expected = [metric_cost(grid, F, a, b) for b in bs]
    assert _chord_costs(grid, F, a, bs).tolist() == expected
    # one start point per row, as for the polyline's own segments
    starts = data.draw(st.lists(points(grid), min_size=len(bs), max_size=len(bs)))
    rows = [metric_cost(grid, F, s, b) for s, b in zip(starts, bs)]
    assert _chord_costs(grid, F, starts, bs).tolist() == rows


@PROPS
@given(fields(), st.data())
def test_chord_costs_on_zero_length_far_edge_and_blocked_chords(field, data):
    grid, F = field
    res = grid.resolution
    a = data.draw(points(grid))
    far = (grid.width * res, grid.height * res)
    blocked = [((c + 0.5) * res, (r + 0.5) * res) for r, c in np.argwhere(F <= 0.0).tolist()]
    blocked = [b for b in blocked if b != a]
    bs = [a, far, (far[0], a[1]), (a[0], far[1])] + blocked
    costs = _chord_costs(grid, F, a, bs)
    assert costs.tolist() == [metric_cost(grid, F, a, b) for b in bs]
    assert costs[0] == 0.0
    assert np.isinf(costs[4:]).all()


@st.composite
def half_cell_walks(draw, grid: GridMap):
    """A polyline on the half-cell lattice whose consecutive points are at
    most one lattice step apart, long enough to span several chord blocks."""
    half = grid.resolution / 2
    i, j = draw(st.integers(0, 2 * grid.width)), draw(st.integers(0, 2 * grid.height))
    steps = draw(st.lists(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1),
                                           (-1, -1), (1, -1), (-1, 1), (0, 0)]),
                          min_size=0, max_size=3 * _CHORD_BLOCK))
    pts = [(i * half, j * half)]
    for di, dj in steps:
        i = min(max(i + di, 0), 2 * grid.width)
        j = min(max(j + dj, 0), 2 * grid.height)
        pts.append((i * half, j * half))
    return pts


@PROPS
@given(fields(), st.data(), st.sampled_from([1, 2, 3, 7, _CHORD_BLOCK]))
def test_shortcut_equals_scalar_oracle_on_half_cell_walks(field, data, block):
    # small blocks put the block edges where short walks pull their chords
    grid, F = field
    pts = data.draw(half_cell_walks(grid))
    with mock.patch.object(eikonal, "_CHORD_BLOCK", block):
        assert _shortcut(grid, F, pts) == shortcut(grid, F, pts)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), w=st.integers(4, 40), h=st.integers(4, 40),
       density=st.sampled_from([0.0, 0.1, 0.25]))
def test_extract_path_equals_scalar_string_pulling(seed, w, h, density):
    grid, F = random_field(seed, w, h, 0.5, density)
    free = np.argwhere(F > 0.0)
    assume(len(free) >= 2)
    rng = np.random.default_rng(seed + 1)
    (sr, sc), (gr, gc) = free[rng.choice(len(free), 2, replace=False)]
    dfield = solve_eikonal(grid, F, (int(gc), int(gr)))
    assume(np.isfinite(dfield.at((int(sc), int(sr)))))
    try:
        path = extract_path(dfield, (int(sc), int(sr)))
    except PathExtractionError:
        assume(False)
    with mock.patch.object(eikonal, "_shortcut", shortcut):
        assert extract_path(dfield, (int(sc), int(sr))).points == path.points


@st.composite
def descent_problems(draw):
    """A walled map, one to three cells wide as often as wider, with the
    velocity comm_velocity builds (1 plus a boost clipped to [0, 1], often
    at its ends) and some free cells blocked; a source and a start, often on
    the map border, and cells to read before the descent starts."""
    w = draw(st.integers(1, 3) | st.integers(1, 16))
    h = draw(st.integers(1, 3) | st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3]))
    grid = GridMap(width=w, height=h, resolution=draw(st.sampled_from([0.5, 1.0, 0.3])),
                   materials=(rng.random((h, w)) < density).astype(np.uint8))
    scale, shift = draw(st.sampled_from([(0.0, 0.0), (1.0, 0.0), (3.0, 1.0)]))
    boost = np.clip(rng.random((h, w)) * scale - shift, 0.0, 1.0)
    F = (grid.materials == 0) * (1.0 + boost)
    F[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.05, 0.2]))] = 0.0
    free = [(c, r) for r, c in np.argwhere(F > 0.0).tolist()]
    assume(free)
    border = [(c, r) for c, r in free if c in (0, w - 1) or r in (0, h - 1)]
    source = draw(st.sampled_from(border) | st.sampled_from(free))
    start = draw(st.sampled_from(border) | st.sampled_from(free)
                 | st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)))
    reads = draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)), max_size=3))
    return grid, F, source, start, reads


def _descent(extract, grid, F, source, start, reads):
    """The path's points and length, or the error raised, and how many
    cells the lazy field had accepted after the call."""
    dfield = solve_eikonal(grid, F, source)
    for c in reads:
        dfield.at(c)
    try:
        path = extract(dfield, start)
        outcome = path.points, path.length
    except (UnreachableError, PathExtractionError) as e:
        outcome = type(e), e.args
    return outcome, dfield.accepted


@settings(max_examples=300, deadline=None)
@given(descent_problems())
def test_extract_path_equals_corner_loop_descent_and_marches_as_far(problem):
    # the accepted count pins the march: reading a zero-weight corner would
    # advance a lazy field further than the reference does
    assert _descent(extract_path, *problem) == _descent(extract_path_reference, *problem)
