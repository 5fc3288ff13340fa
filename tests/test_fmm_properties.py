"""Property tests of the resumable fast march against the eager loop it
replaced (helpers.fmm_reference), bit for bit: the finished field, the
acceptance order, values read on demand in any order, and the planners that
stop the march early, on random walled and glazed maps."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaynet import connectivity, eikonal
from relaynet.connectivity import check_feasibility
from relaynet.eikonal import (
    PathExtractionError,
    UnreachableError,
    base_velocity,
    ca_fmm_path,
    comm_velocity,
    extract_path,
    solve_eikonal,
)
from relaynet.gridmap import FREE, GLASS, WALL, GridMap
from relaynet.radio import CoverageBook, RadioParams, coverage_field

from conftest import acceptance_order
from helpers import fmm_reference

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def grids(draw, max_cells: int = 24):
    w = draw(st.integers(1, max_cells))
    h = draw(st.integers(1, max_cells))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3]))
    materials = rng.choice([FREE, WALL, GLASS], size=(h, w),
                           p=[1.0 - density, density / 2, density / 2]).astype(np.uint8)
    return GridMap(width=w, height=h, resolution=draw(st.sampled_from([0.5, 1.0, 0.3])),
                   materials=materials)


@st.composite
def velocities(draw, grid: GridMap) -> np.ndarray:
    """The base velocity F, or comm_velocity boosted around a transmitter on a
    free cell with some cells blocked by robots (some of them off the grid)."""
    free = [(c, r) for r, c in np.argwhere(grid.materials == FREE).tolist()]
    if not free or draw(st.booleans()):
        return base_velocity(grid)
    params = RadioParams()
    rss = coverage_field(grid, grid.to_world(draw(st.sampled_from(free))), params)
    robots = draw(st.lists(st.tuples(st.integers(-1, grid.width), st.integers(-1, grid.height)),
                           max_size=6))
    return comm_velocity(grid, rss, params, robots, draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])))


@st.composite
def sources(draw, F: np.ndarray) -> tuple[int, int]:
    """A cell with F > 0, often on an edge or a corner of the grid, where the
    seeded ball around the source is clipped."""
    H, W = F.shape
    free = [(c, r) for r, c in np.argwhere(F > 0.0).tolist()]
    assume(free)
    edge = [(c, r) for c, r in free if c in (0, W - 1) or r in (0, H - 1)]
    corner = [(c, r) for c, r in edge if c in (0, W - 1) and r in (0, H - 1)]
    return draw(st.sampled_from(draw(st.sampled_from([pool for pool in (free, edge, corner)
                                                      if pool]))))


@st.composite
def problems(draw):
    grid = draw(grids())
    F = draw(velocities(grid))
    return grid, F, draw(sources(F))


@PROPS
@given(problems())
def test_finished_field_and_acceptance_order_equal_reference(problem):
    grid, F, source = problem
    expected = []
    ref = fmm_reference(grid, F, source, lambda c, r, d: expected.append((c, r, d)))
    dfield, order = acceptance_order(grid, F, source)
    assert order == expected
    assert all(b[2] >= a[2] for a, b in zip(order, order[1:]))
    assert dfield.D.tobytes() == ref.tobytes()


@PROPS
@given(problems(), st.data())
def test_values_read_on_demand_in_any_order_equal_reference(problem, data):
    grid, F, source = problem
    ref = fmm_reference(grid, F, source)
    H, W = ref.shape
    cells = data.draw(st.permutations([(c, r) for r in range(H) for c in range(W)]))
    dfield = solve_eikonal(grid, F, source)
    for c, r in cells[:data.draw(st.integers(1, len(cells)))]:
        assert dfield.at((c, r)) == ref[r, c]
    assert dfield.accepted <= int(np.isfinite(ref).sum())
    assert dfield.D.tobytes() == ref.tobytes()
    assert dfield.accepted == int(np.isfinite(ref).sum())


def _finished(grid, F, source):
    dfield = solve_eikonal(grid, F, source)
    dfield.D  # finishes the march
    return dfield


def _outcome(plan):
    """A path's points, length and coverage, or the planning error raised."""
    try:
        path = plan()
    except (UnreachableError, PathExtractionError) as e:
        return type(e), e.args
    return path.points, path.length, path.coverage_fraction


@PROPS
@given(problems(), st.data())
def test_extract_path_from_a_lazy_field_equals_a_finished_one(problem, data):
    grid, F, source = problem
    ref = fmm_reference(grid, F, source)
    start = data.draw(st.sampled_from([(c, r) for r, c in np.argwhere(np.isfinite(ref)).tolist()]))
    expected = _outcome(lambda: extract_path(_finished(grid, F, source), start))
    assert _outcome(lambda: extract_path(solve_eikonal(grid, F, source), start)) == expected


@PROPS
@given(grids(), st.data())
def test_ca_fmm_path_from_lazy_fields_equals_finished_ones(grid, data):
    free = [(c, r) for r, c in np.argwhere(grid.materials == FREE).tolist()]
    assume(free)
    start, goal = data.draw(st.sampled_from(free)), data.draw(st.sampled_from(free))
    relays = [grid.to_world(c) for c in data.draw(st.lists(st.sampled_from(free), max_size=2))]
    blocked = data.draw(st.lists(st.sampled_from(free), max_size=4))

    def plan():
        return ca_fmm_path(CoverageBook(grid, RadioParams()), start, goal, relays, 1.0, blocked)

    with mock.patch.object(eikonal, "solve_eikonal", _finished):
        expected = _outcome(plan)
    assert _outcome(plan) == expected


@PROPS
@given(grids(), st.data())
def test_feasibility_report_equals_one_from_the_reference(grid, data):
    free = [(c, r) for r, c in np.argwhere(grid.materials == FREE).tolist()]
    assume(free)
    bs = grid.to_world(data.draw(st.sampled_from(free)))
    goals = [grid.to_world(c) for c in data.draw(st.lists(st.sampled_from(free), min_size=1,
                                                         max_size=5))]
    n_robots = data.draw(st.integers(0, 6))
    params = RadioParams()

    def reference(grid, F, source):
        ref = fmm_reference(grid, F, source)
        return SimpleNamespace(at=lambda c: float(ref[c[1], c[0]]))

    with mock.patch.object(connectivity, "solve_eikonal", reference):
        expected = check_feasibility(grid, bs, goals, n_robots, params)
    assert check_feasibility(grid, bs, goals, n_robots, params) == expected
