"""The random scenario generator against the per-cell generator it replaced
(helpers.random_scenario_reference): the same map, base station, robot
starts, goals and radio, or the same InfeasibleScenarioError message, on
drawn seeds, map shapes (square or not), goal counts, densities and
resolutions, on the two benchmark recipes and on each resample reason; and
the nearest-cell pick where np.hypot and math.hypot disagree."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet.cli import _nearest, random_scenario
from relaynet.mission import InfeasibleScenarioError

from conftest import open_map
from helpers import random_scenario_reference


def outcome(generator, *args):
    """What a draw yields: the map bytes and the points as written (repr,
    so a numpy float would show), or the error message."""
    try:
        sc = generator(*args)
    except InfeasibleScenarioError as e:
        return f"InfeasibleScenarioError: {e}"
    grid = sc.map
    return (grid.width, grid.height, grid.resolution, grid.materials.dtype,
            grid.materials.tobytes(), repr((sc.bs, sc.robot_starts, sc.goals)), sc.radio)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), width=st.integers(7, 48), height=st.integers(7, 48),
       n_goals=st.integers(1, 12), density=st.floats(0.0, 1.0),
       resolution=st.sampled_from([0.5, 0.3, 1.0]))
def test_generator_equals_the_reference(seed, width, height, n_goals, density, resolution):
    args = (seed, width, height, n_goals, density, None, resolution)
    assert outcome(random_scenario, *args) == outcome(random_scenario_reference, *args)


@pytest.mark.parametrize("args", [
    (7, 128, 128, 10, 0.1),    # hall128-plan
    (100, 64, 64, 15, 0.5),    # relay64-compare
])
def test_benchmark_recipes_equal_the_reference(args):
    got = outcome(random_scenario, *args)
    assert not isinstance(got, str)
    assert got == outcome(random_scenario_reference, *args)


@pytest.mark.parametrize("args, message", [
    ((0, 7, 7, 12, 0.5), "generated map has too few free cells"),
    ((5, 12, 7, 8, 1.0), "base station room is too small"),
    ((0, 7, 7, 4, 0.5), "could not sample enough separated goals"),
    # exactly 2 * 13 + 1 free cells: the free-cell bound lets it through
    ((0, 8, 7, 13, 0.0), "could not sample enough separated goals"),
])
def test_each_resample_reason_equals_the_reference(args, message):
    assert outcome(random_scenario, *args) == f"InfeasibleScenarioError: {message}"
    assert outcome(random_scenario_reference, *args) == f"InfeasibleScenarioError: {message}"


def test_nearest_keeps_cells_that_numpy_ranks_one_ulp_apart():
    # offsets (8.5, 26) and (14, 23.5) m from the point are equally far by
    # math.hypot, but np.hypot puts the second one ulp nearer: the margin
    # must keep both, so the cell tie-break picks (17, 52)
    grid = open_map(30, 53)
    cols, rows = np.array([28, 17]), np.array([47, 52])
    offsets = (cols + 0.5) * 0.5 - 0.25, (rows + 0.5) * 0.5 - 0.25
    assert np.hypot(*offsets)[0] < np.hypot(*offsets)[1]
    assert math.hypot(8.5, 26.0) == math.hypot(14.0, 23.5)
    assert _nearest(grid, cols, rows, (0.25, 0.25), 1) == [(17, 52)]
