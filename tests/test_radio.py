import math

import numpy as np
import pytest

import relaynet.radio as radio
from relaynet.cli import generate_map
from relaynet.gridmap import FREE, GLASS, GridMap, OutOfBoundsError, parse_map
from relaynet.radio import (
    NO_SIGNAL,
    CoverageBook,
    InfeasibleRadioError,
    RadioConfigError,
    RadioParams,
    coverage_distance,
    coverage_field,
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

    def test_zero_los_variance_draws_no_los_multipath(self):
        m = open_map(20, 20)
        params = RadioParams(sigma2_los=0.0, seed=5)
        a, b = (1.25, 1.75), (8.25, 4.25)
        assert path_loss(m, a, b, params, "stochastic") == path_loss(m, a, b, params)

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

    @pytest.mark.parametrize("tx, rx, message", [
        ((-0.5, 1.0), (1.0, 1.0), "point (-0.5, 1.0) outside map 2.0x2.0 m"),
        ((1.0, 1.0), (1.0, 2.5), "point (1.0, 2.5) outside map 2.0x2.0 m"),
        ((math.nan, 1.0), (1.0, 1.0), "point (nan, 1.0) outside map 2.0x2.0 m"),
        ((1.0, 1.0), (1.0, math.nan), "point (1.0, nan) outside map 2.0x2.0 m"),
        ((3.0, 1.0), (1.0, -1.0), "point (3.0, 1.0) outside map 2.0x2.0 m"),
        ((1.0, -1.0), (3.0, 1.0), "point (1.0, -1.0) outside map 2.0x2.0 m"),
    ])
    def test_out_of_bounds_endpoint_errors(self, tx, rx, message):
        # the first bad endpoint in (tx, rx) order names itself, in both
        # modes and whether or not the good pair was priced before
        m = open_map(4, 4)
        params = RadioParams()
        path_loss(m, (1.0, 1.0), (1.0, 1.0), params)
        for call in (lambda: path_loss(m, tx, rx, params),
                     lambda: path_loss(m, tx, rx, params, "stochastic", (3,)),
                     lambda: path_loss(m, tx, rx, params, mode="fuzzy"),
                     lambda: rss(m, tx, rx, params)):
            with pytest.raises(OutOfBoundsError) as err:
                call()
            assert type(err.value) is OutOfBoundsError
            assert err.value.args == (message,)


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
                    assert field[r, c] == NO_SIGNAL
                else:
                    expect = params.p_tx - path_loss(m, tx, m.to_world((c, r)), params)
                    assert field[r, c] == pytest.approx(expect, abs=1e-12)

    def test_tx_cell_is_covered(self):
        m = open_map(6, 6)
        params = RadioParams()
        field = coverage_field(m, m.to_world((2, 2)), params)
        assert field[2, 2] >= params.gamma

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
        assert field[0, 5] == pytest.approx(up, abs=1e-12)
        assert field[8, 5] == pytest.approx(down, abs=1e-12)

    def test_all_wall_map_covers_only_tx_cell(self):
        m = make_map(["###", "#.#", "###"])
        params = RadioParams()
        mask = coverage_field(m, m.to_world((1, 1)), params) >= params.gamma
        assert mask.sum() == 1
        assert mask[1, 1]

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
    """coverage_field (one raycast call over the free cells, its rows cut
    into pieces on hall128) against the field built from whole rows to
    every cell, one step-count group at a time, bit for bit, -inf
    included."""

    @staticmethod
    def check(grid: GridMap, tx, params: RadioParams):
        got = coverage_field(grid, tx, params)
        expected = coverage_field_reference(grid, tx, params)
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
        book = CoverageBook(open_map(8, 8), RadioParams())
        p = book.grid.to_world((2, 2))
        assert book.combined([p]).tobytes() == book.field_at(p).tobytes()

    def test_idempotent(self):
        book = CoverageBook(open_map(8, 8), RadioParams())
        p = book.grid.to_world((2, 2))
        assert book.combined([p, p]).tobytes() == book.field_at(p).tobytes()

    def test_disjoint_disks_union(self):
        # short-range transmitters at opposite corners of a long hall
        m = open_map(60, 9)
        params = RadioParams(p_tx=-70.0 + 40.0 + 10 * 1.7 * math.log10(3.0))  # d_cov = 3 m
        book = CoverageBook(m, params)
        p1, p2 = m.to_world((4, 4)), m.to_world((55, 4))
        f1, f2 = book.field_at(p1), book.field_at(p2)
        both = book.combined([p1, p2])
        gamma = params.gamma
        assert (both >= gamma).sum() == (f1 >= gamma).sum() + (f2 >= gamma).sum()
        assert np.all(both >= f1)
        assert np.all(both >= f2)

    def test_empty_field_has_no_coverage(self):
        m = open_map(4, 4)
        values = CoverageBook(m, RadioParams()).combined([])
        assert values.shape == (4, 4)
        assert np.all(values == NO_SIGNAL)


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

    # n_los 5e-324 makes the exponent inf, and 10.0 ** inf is inf, not an OverflowError
    @pytest.mark.parametrize("params", [RadioParams(p_tx=1e30), RadioParams(gamma=-1e30),
                                        RadioParams(n_los=5e-324)])
    def test_overflowing_range_is_a_config_error(self, params):
        with pytest.raises(RadioConfigError, match="coverage range overflows"):
            coverage_distance(params)

    def test_overflowing_radio_span_is_a_config_error(self):
        # p_tx - l0 - gamma is inf, so every rss would be inf - inf = NaN
        with pytest.raises(RadioConfigError, match="radio span overflows"):
            RadioParams(p_tx=1e308, gamma=-1e308)


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
        row = field[1, 1:]
        assert np.all(np.diff(row) <= 1e-12)


class TestValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(RadioConfigError):
            RadioParams(l0=-1.0)
        with pytest.raises(RadioConfigError):
            RadioParams(sigma2_los=-0.5)
        with pytest.raises(RadioConfigError):
            RadioParams(n_los=0.0)
        with pytest.raises(RadioConfigError, match="seed"):
            RadioParams(seed=-1)

    def test_coverage_book_caches_by_cell(self):
        m = open_map(10, 10)
        book = CoverageBook(m, RadioParams())
        f1 = book.field_at((1.3, 1.4))
        f2 = book.field_at((1.2, 1.2))  # same cell
        assert f1 is f2

    def test_coverage_arrays_are_read_only(self):
        # the map's memo shares each field with every book on the map
        m = open_map(6, 6)
        book = CoverageBook(m, RadioParams())
        p, q = m.to_world((1, 1)), m.to_world((4, 3))
        for field in (coverage_field(m, p, RadioParams()), book.field_at(p)):
            with pytest.raises(ValueError, match="read-only"):
                field[0, 0] = 0.0
        before = book.field_at(p).copy()
        for sources in ([], [p], [p, q]):
            combined = book.combined(sources)
            combined[...] = 0.0
            assert book.field_at(p).tobytes() == before.tobytes()

    def test_books_on_one_map_share_its_fields(self, monkeypatch):
        built = []

        def counting(grid, tx, params):
            built.append((grid, grid.to_cell(tx), params))
            return coverage_field(grid, tx, params)

        monkeypatch.setattr(radio, "coverage_field", counting)
        m, params = fig2_map(), RadioParams(p_tx=-14.65)
        cells = [(2, 2), (12, 9), (30, 4)]
        a, b = CoverageBook(m, params), CoverageBook(m, params.with_())  # equal, not identical
        for c in cells:
            ref = coverage_field_reference(m, m.to_world(c), params)
            field = a.field_at(m.to_world(c))
            # both books return the map's one rss array
            other = b.field_at((m.to_world(c)[0] + 0.1, m.to_world(c)[1] - 0.1))
            assert other is field
            assert np.array_equal(field, ref)
        assert [(g is m, c) for g, c, _ in built] == [(True, c) for c in cells]
        # other parameters, or an equal but distinct map, build their own
        louder = params.with_(p_tx=-10.0)
        other = CoverageBook(m, louder).field_at(m.to_world(cells[0]))
        assert np.array_equal(other, coverage_field_reference(m, m.to_world(cells[0]), louder))
        twin = fig2_map()
        assert twin == m
        CoverageBook(twin, params).field_at(m.to_world(cells[0]))
        assert [(g is twin, p) for g, _, p in built[len(cells):]] == [(False, louder),
                                                                       (True, params)]

    def test_links_check_every_point_before_pricing(self):
        m = open_map(10, 10)
        book = CoverageBook(m, RadioParams())
        with pytest.raises(OutOfBoundsError):
            book.links([(0.25, 0.25), (1.0, 1.0), (5.5, 1.0)])
        with pytest.raises(OutOfBoundsError):
            book.links([(0.25, 0.25), (1.0, -0.1)])
        assert book._losses == {}
