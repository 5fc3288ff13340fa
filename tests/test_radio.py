import math

import numpy as np
import pytest

from relaynet.cli import generate_map
from relaynet.gridmap import FREE, GLASS, GridMap, OutOfBoundsError, parse_map
from relaynet.radio import (
    NO_SIGNAL,
    CoverageBook,
    InfeasibleRadioError,
    RadioConfigError,
    RadioParams,
    combine_coverage,
    coverage_distance,
    coverage_field,
    empty_field,
    path_loss,
    rss,
)

from conftest import fig2_map, fig2_scenario, make_map, open_map
from helpers import coverage_field_reference


class TestPathLoss:
    def test_one_meter_los_is_reference_loss(self):
        m = open_map(20, 5)
        params = RadioParams()
        L = path_loss(m, (2.25, 1.25), (3.25, 1.25), params)
        assert L == pytest.approx(40.0, abs=1e-12)

    def test_ten_meters_los(self):
        m = open_map(24, 4)
        L = path_loss(m, (0.75, 0.75), (10.75, 0.75), RadioParams())
        assert L == pytest.approx(40.0 + 17.0, abs=1e-12)

    def test_one_wall_switches_to_nlos(self):
        # d = 1 m through one wall: NLoS exponent (log term 0) plus a_wall
        wall_map = make_map(["." * 6, "#" * 6, "." * 6])
        La = path_loss(wall_map, (0.75, 0.25), (0.75, 1.25), RadioParams())
        assert La == pytest.approx(40.0 + 0.0 + 10.0, abs=1e-12)
        # d = 10 m through the same wall: 40 + 14*log10(10) + 10
        tall = make_map(["." * 3] + ["#" * 3] + ["." * 3] * 19)
        Lb = path_loss(tall, (0.75, 0.25), (0.75, 10.25), RadioParams())
        assert Lb == pytest.approx(40.0 + 14.0 + 10.0, abs=1e-12)

    def test_minimum_separation_clamp(self):
        m = open_map(5, 5)
        params = RadioParams()
        near = path_loss(m, (1.25, 1.25), (1.26, 1.25), params)
        at_min = 40.0 + 10 * 1.7 * math.log10(0.1)
        assert near == pytest.approx(at_min, abs=1e-12)

    def test_stochastic_repeatable_and_distinct_pairs(self):
        m = open_map(20, 20)
        params = RadioParams(seed=42)
        a, b = (1.25, 1.25), (6.25, 6.25)
        l1 = path_loss(m, a, b, params, mode="stochastic")
        l2 = path_loss(m, a, b, params, mode="stochastic")
        assert l1 == l2
        other = path_loss(m, a, (6.25, 6.75), params, mode="stochastic")
        assert other != l1

    def test_stochastic_reciprocal(self):
        m = open_map(20, 20)
        params = RadioParams(seed=3)
        a, b = (1.25, 1.75), (8.25, 4.25)
        assert path_loss(m, a, b, params, "stochastic") == path_loss(m, b, a, params, "stochastic")

    def test_deterministic_reciprocity_random(self):
        m = make_map(["........", "..##....", "....%...", "........"])
        params = RadioParams()
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = (float(rng.uniform(0, 4)), float(rng.uniform(0, 2)))
            b = (float(rng.uniform(0, 4)), float(rng.uniform(0, 2)))
            assert path_loss(m, a, b, params) == path_loss(m, b, a, params)

    def test_unknown_mode_rejected(self):
        m = open_map(3, 3)
        with pytest.raises(ValueError, match="mode"):
            path_loss(m, (0.25, 0.25), (1.25, 0.25), RadioParams(), mode="fuzzy")


class TestCoverageField:
    def test_matches_scalar_path_loss_everywhere(self):
        m = make_map([
            "..........",
            "..####....",
            "......%...",
            "..........",
            "..........",
        ])
        params = RadioParams()
        tx = m.to_world((1, 3))
        field = coverage_field(m, tx, params)
        for r in range(m.height):
            for c in range(m.width):
                if m.material((c, r)) != 0:
                    assert field.rss[r, c] == NO_SIGNAL
                else:
                    expect = params.p_tx - path_loss(m, tx, m.to_world((c, r)), params)
                    assert field.rss[r, c] == pytest.approx(expect, abs=1e-12)

    def test_tx_cell_is_covered(self):
        m = open_map(6, 6)
        params = RadioParams()
        field = coverage_field(m, m.to_world((2, 2)), params)
        assert field.covered((2, 2))

    def test_extra_wall_run_costs_one_attenuation(self):
        # receivers at equal distance and equal NLoS regime; the extra wall
        # run lowers rss by exactly a_wall
        m = make_map([
            "...........",   # up receiver at (5, 0), one wall in between
            "...........",
            "...........",
            ".....#.....",
            "...........",   # tx at (5, 4)
            ".....#.....",
            "...........",
            ".....#.....",
            "...........",   # down receiver at (5, 8), two wall runs
        ])
        params = RadioParams()
        tx = m.to_world((5, 4))
        up = rss(m, tx, m.to_world((5, 0)), params)
        down = rss(m, tx, m.to_world((5, 8)), params)
        assert up - down == pytest.approx(params.a_wall, abs=1e-12)
        field = coverage_field(m, tx, params)
        assert field.rss[0, 5] == pytest.approx(up, abs=1e-12)
        assert field.rss[8, 5] == pytest.approx(down, abs=1e-12)

    def test_all_wall_map_covers_only_tx_cell(self):
        m = make_map(["###", "#.#", "###"])
        params = RadioParams()
        field = coverage_field(m, m.to_world((1, 1)), params)
        assert field.mask.sum() == 1
        assert field.covered((1, 1))

    def test_tx_on_obstacle_rejected(self):
        m = make_map(["#.", ".."])
        with pytest.raises(RadioConfigError):
            coverage_field(m, (0.25, 0.25), RadioParams())


def _hall128() -> GridMap:
    # the 128 x 128 generated hall (border walls, a few wall lines with door
    # gaps) with a glass pane added, so both run codes occur
    grid = generate_map(128, 128, 0.1, np.random.default_rng(7))
    materials = grid.materials.copy()
    materials[40, 20:30] = GLASS
    return GridMap(width=128, height=128, resolution=grid.resolution, materials=materials)


def _next_to_walls(grid: GridMap, count: int) -> list[tuple[int, int]]:
    """Free cells with an obstacle to the left or above, spread over the grid."""
    m = grid.materials
    cells = [(c, r) for r in range(1, grid.height - 2) for c in range(1, grid.width - 2)
             if m[r, c] == FREE and (m[r, c - 1] != FREE or m[r - 1, c] != FREE)]
    return cells[::max(1, len(cells) // count)][:count]


class TestCoverageFieldOracle:
    """coverage_field (one raycast call over every cell) against the field
    built one step-count group at a time, bit for bit, -inf included."""

    @staticmethod
    def check(grid: GridMap, tx, params: RadioParams):
        got = coverage_field(grid, tx, params).rss
        expected = coverage_field_reference(grid, tx, params).rss
        assert np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()

    def test_hall128(self):
        grid = _hall128()
        params = RadioParams()
        corners = [(1, 1), (126, 1), (1, 126), (126, 126)]
        mid = [(64, 64), (31, 97)]
        cells = corners + _next_to_walls(grid, 4) + [c for c in mid if grid.is_free_cell(c)]
        assert len(cells) >= 9
        for c in cells:
            self.check(grid, grid.to_world(c), params)
        # off-centre transmitters: on a cell corner (ties in the canonical
        # order) and at an arbitrary point
        self.check(grid, (32.0, 32.0), params)
        self.check(grid, (17.3, 45.81), params)

    def test_fig2(self):
        grid = fig2_map()
        sc = fig2_scenario()
        cells = [(0, 0), (39, 23), (0, 5), (1, 5), (32, 5), (33, 5), (10, 4), (10, 6), (20, 12)]
        for c in cells:
            self.check(grid, grid.to_world(c), sc.radio)
        for p in [sc.bs] + sc.goals:
            self.check(grid, p, sc.radio)


class TestCombine:
    def test_single_field_identity(self):
        m = open_map(8, 8)
        params = RadioParams()
        f = coverage_field(m, m.to_world((2, 2)), params)
        g = combine_coverage([f])
        assert np.array_equal(g.rss, f.rss)

    def test_idempotent(self):
        m = open_map(8, 8)
        params = RadioParams()
        f = coverage_field(m, m.to_world((2, 2)), params)
        g = combine_coverage([f, f])
        assert np.array_equal(g.rss, f.rss)
        assert g.sources == f.sources

    def test_disjoint_disks_union(self):
        # short-range transmitters at opposite corners of a long hall
        m = open_map(60, 9)
        params = RadioParams(p_tx=-70.0 + 40.0 + 10 * 1.7 * math.log10(3.0))  # d_cov = 3 m
        f1 = coverage_field(m, m.to_world((4, 4)), params)
        f2 = coverage_field(m, m.to_world((55, 4)), params)
        both = combine_coverage([f1, f2])
        assert both.mask.sum() == f1.mask.sum() + f2.mask.sum()
        assert np.all(both.rss >= f1.rss)
        assert np.all(both.rss >= f2.rss)

    def test_mismatched_grids_rejected(self):
        params = RadioParams()
        f1 = coverage_field(open_map(5, 5), (1.25, 1.25), params)
        f2 = coverage_field(open_map(6, 5), (1.25, 1.25), params)
        with pytest.raises(ValueError, match="different grids"):
            combine_coverage([f1, f2])

    def test_empty_field_has_no_coverage(self):
        m = open_map(4, 4)
        f = empty_field(m, RadioParams())
        assert not f.mask.any()


class TestCoverageDistance:
    def test_boundary_one_meter(self):
        params = RadioParams(p_tx=-30.0, l0=40.0, gamma=-70.0, margin_k=0.0)
        assert coverage_distance(params) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_bisection(self):
        params = RadioParams(p_tx=10.0, l0=40.0, gamma=-70.0, n_los=1.7)
        d = coverage_distance(params)

        def margin(x):
            return params.p_tx - (params.l0 + 10 * params.n_los * math.log10(x)) - params.gamma

        lo, hi = 1.0, 1e6
        for _ in range(200):
            mid = (lo + hi) / 2
            if margin(mid) >= 0:
                lo = mid
            else:
                hi = mid
        assert d == pytest.approx(lo, rel=1e-9)
        assert d == pytest.approx(225.393, abs=0.05)

    def test_margin_strictly_decreases_range(self):
        base = RadioParams(p_tx=10.0)
        prev = coverage_distance(base)
        for k in (0.5, 1.0, 2.0, 3.0):
            d = coverage_distance(base.with_(margin_k=k))
            assert d < prev
            prev = d

    def test_infeasible_radio(self):
        with pytest.raises(InfeasibleRadioError):
            coverage_distance(RadioParams(p_tx=-50.0, l0=40.0, gamma=-70.0))


class TestStochasticStats:
    def test_mean_and_variance_smoke(self):
        # acceptance runs the full 10^4-draw version; this is a fast sanity
        m = open_map(30, 30)
        draws = []
        for seed in range(2000):
            p = RadioParams(seed=seed)
            det = path_loss(m, (2.25, 2.25), (9.25, 7.25), p)
            sto = path_loss(m, (2.25, 2.25), (9.25, 7.25), p, mode="stochastic")
            draws.append(sto - det)
        draws = np.array(draws)
        assert abs(draws.mean()) < 0.25
        assert abs(draws.var() - 3.45) / 3.45 < 0.2


class TestRssMonotonicity:
    def test_rss_non_increasing_along_los_ray(self):
        m = open_map(60, 3)
        params = RadioParams()
        tx = m.to_world((0, 1))
        field = coverage_field(m, tx, params)
        row = field.rss[1, 1:]
        assert np.all(np.diff(row) <= 1e-12)


class TestValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(RadioConfigError):
            RadioParams(l0=-1.0)
        with pytest.raises(RadioConfigError):
            RadioParams(sigma2_los=-0.5)
        with pytest.raises(RadioConfigError):
            RadioParams(n_los=0.0)

    def test_coverage_book_caches_by_cell(self):
        m = open_map(10, 10)
        book = CoverageBook(m, RadioParams())
        f1 = book.field_at((1.3, 1.4))
        f2 = book.field_at((1.2, 1.2))  # same cell
        assert f1 is f2

    def test_links_check_every_point_before_pricing(self):
        m = open_map(10, 10)
        book = CoverageBook(m, RadioParams())
        with pytest.raises(OutOfBoundsError):
            book.links([(0.25, 0.25), (1.0, 1.0), (5.5, 1.0)])
        with pytest.raises(OutOfBoundsError):
            book.links([(0.25, 0.25), (1.0, -0.1)])
        assert book._losses == {}


class TestExport:
    def test_field_csv_matrix(self):
        m = make_map(["..", ".#"])
        field = coverage_field(m, m.to_world((0, 0)), RadioParams())
        lines = field.to_csv().strip().splitlines()
        assert len(lines) == 2
        assert all(len(line.split(",")) == 2 for line in lines)
        assert lines[1].split(",")[1] == "nan"  # obstacle cell carries no signal
