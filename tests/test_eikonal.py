import math

import numpy as np
import pytest

from relaynet.eikonal import (
    PathExtractionError,
    UnreachableError,
    base_velocity,
    ca_fmm_path,
    comm_velocity,
    coverage_fraction,
    extract_path,
    solve_eikonal,
)
from relaynet.gridmap import GLASS, WALL, OutOfBoundsError
from relaynet.radio import NO_SIGNAL, CoverageBook, RadioConfigError, RadioParams, coverage_field

from conftest import acceptance_order, make_map, open_map
from helpers import dijkstra8, fmm_reference


class TestBaseVelocity:
    def test_all_free(self):
        v = base_velocity(open_map(5, 4))
        assert v.shape == (4, 5)
        assert np.all(v == 1.0)

    def test_walls_and_glass_blocked(self):
        m = make_map(["..#", ".%."])
        v = base_velocity(m)
        assert v[0, 2] == 0.0
        assert v[1, 1] == 0.0
        assert v.sum() == 4.0


def no_signal(m):
    return np.full((m.height, m.width), NO_SIGNAL)


class TestCommVelocity:
    def test_uncovered_cell_keeps_unit_speed(self):
        m = open_map(6, 6)
        v = comm_velocity(m, no_signal(m), RadioParams(), [], w_c=1.0)
        assert np.all(v == base_velocity(m))

    def test_boost_range_and_robot_blocking(self):
        m = open_map(20, 20)
        params = RadioParams()
        rss = coverage_field(m, m.to_world((10, 10)), params)
        v = comm_velocity(m, rss, params, [(3, 3)], w_c=1.0)
        free = m.materials == 0
        assert np.all(v[free] <= 2.0 + 1e-12)
        covered = (rss >= params.gamma) & free
        assert np.all(v[covered & (v > 0)] >= 1.0)
        assert v[3, 3] == 0.0

    def test_strongest_signal_hits_one_plus_wc(self):
        m = open_map(9, 9)
        params = RadioParams()
        rss = coverage_field(m, m.to_world((4, 4)), params)
        v = comm_velocity(m, rss, params, [], w_c=1.0)
        # tx's own cell sits at the clamped minimum distance, above rss_ref
        assert v[4, 4] == pytest.approx(2.0)

    def test_threshold_cell_gets_no_boost(self):
        m = open_map(9, 9)
        params = RadioParams()
        rss = coverage_field(m, m.to_world((4, 4)), params).copy()
        rss[0, 0] = params.gamma  # exactly at threshold
        v = comm_velocity(m, rss, params, [], w_c=1.0)
        assert v[0, 0] == pytest.approx(1.0)

    def test_velocity_arrays_are_read_only(self):
        m = open_map(4, 4)
        params = RadioParams()
        rss = coverage_field(m, m.to_world((1, 1)), params)
        for F in (base_velocity(m), comm_velocity(m, rss, params, [(2, 2)], w_c=1.0)):
            with pytest.raises(ValueError, match="read-only"):
                F[0, 0] = 3.0

    @pytest.mark.parametrize("w_c", [-0.5, math.inf, math.nan])
    def test_negative_or_non_finite_weight_rejected(self, w_c):
        # an infinite weight would give NaN speeds outside the coverage
        m = open_map(4, 4)
        with pytest.raises(ValueError, match="w_c must be finite and >= 0"):
            comm_velocity(m, no_signal(m), RadioParams(), [], w_c=w_c)

    def test_degenerate_normalization_rejected(self):
        # rss_ref = p_tx - l0 = -81 dBm lies below gamma
        m = open_map(4, 4)
        params = RadioParams(p_tx=-41.0, l0=40.0, gamma=-70.0)
        with pytest.raises(RadioConfigError, match="degenerate coverage normalization"):
            comm_velocity(m, no_signal(m), params, [], 1.0)


class TestSolveEikonal:
    def test_corridor_exact(self):
        m = make_map(["." * 30])
        d = solve_eikonal(m, base_velocity(m), (0, 0))
        for k in range(30):
            assert d.at((k, 0)) == pytest.approx(k * 0.5, abs=1e-12)

    def test_empty_grid_accuracy(self):
        m = open_map(51, 51)
        d = solve_eikonal(m, base_velocity(m), (25, 25))
        cx, cy = m.to_world((25, 25))
        xs = (np.arange(51) + 0.5) * 0.5
        gx, gy = np.meshgrid(xs, xs)
        true = np.hypot(gx - cx, gy - cy)
        sel = true > 0
        rel = np.abs(d.D - true)[sel] / true[sel]
        assert rel.max() <= 0.08
        axis = np.abs(d.D[25] - np.abs(xs - cx))
        assert axis[np.abs(xs - cx) > 0].max() / 0.5 <= 0.005

    def test_wall_bisect_unreachable(self):
        m = make_map(["....#....."] * 7)
        d = solve_eikonal(m, base_velocity(m), (0, 3))
        assert math.isinf(d.at((9, 3)))
        assert math.isfinite(d.at((3, 0)))

    def test_source_on_obstacle_rejected(self):
        m = make_map([".#."])
        with pytest.raises(UnreachableError):
            solve_eikonal(m, base_velocity(m), (1, 0))

    def test_source_off_the_grid_rejected(self):
        with pytest.raises(UnreachableError, match="outside grid"):
            m = open_map(4, 2)
            solve_eikonal(m, base_velocity(m), (4, 0))

    def test_cells_off_the_grid_raise(self):
        m = open_map(4, 2)
        d = solve_eikonal(m, base_velocity(m), (0, 0))
        off = ((-1, 0), (4, 0), (0, -1), (0, 2), (-1, -1))
        for c in off:
            with pytest.raises(OutOfBoundsError):
                d.at(c)
        assert d.D[0, 3] == 1.5  # finishes the march
        for c in off:
            with pytest.raises(OutOfBoundsError):
                d.at(c)

    def test_query_near_the_source_stops_the_march_early(self):
        m = open_map(60, 4)
        d = solve_eikonal(m, base_velocity(m), (0, 1))
        assert d.accepted == 0
        assert d.at((1, 1)) == 0.5
        assert d.accepted < 240 // 10
        assert np.isfinite(d.D).all()
        assert d.accepted == 240

    def test_monotone_acceptance_order(self):
        m = make_map(["..........", "..##..#...", ".....#....", ".........."])
        expected = []
        fmm_reference(m, base_velocity(m), (0, 0), lambda c, r, d: expected.append((c, r, d)))
        _, order = acceptance_order(m, base_velocity(m), (0, 0))
        assert order == expected
        assert all(b[2] >= a[2] for a, b in zip(order, order[1:]))

    def test_upwind_residual_near_one(self):
        m = make_map(["..........", "..##......", ".....#....", "..........",
                      "..........", "....##...."])
        F = base_velocity(m)
        d = solve_eikonal(m, F, (1, 1))
        h = m.resolution
        for r in range(m.height):
            for c in range(m.width):
                if F[r, c] <= 0 or not math.isfinite(d.D[r, c]):
                    continue
                if abs(c - 1) <= 2 and abs(r - 1) <= 2:
                    continue  # seeded ball around the source
                gx = 0.0
                if c > 0 or c < m.width - 1:
                    best = math.inf
                    if c > 0:
                        best = min(best, d.D[r, c - 1])
                    if c < m.width - 1:
                        best = min(best, d.D[r, c + 1])
                    gx = max(d.D[r, c] - best, 0.0) / h
                gy = 0.0
                best = math.inf
                if r > 0:
                    best = min(best, d.D[r - 1, c])
                if r < m.height - 1:
                    best = min(best, d.D[r + 1, c])
                gy = max(d.D[r, c] - best, 0.0) / h
                residual = math.hypot(gx, gy) * F[r, c]
                assert 0.9 <= residual <= 1.1, (c, r, residual)

    def test_refinement_converges_to_geodesic(self):
        # same 10x5 m world with one wall slab, sampled at two resolutions:
        # the field converges to the exact around-the-corner geodesic while
        # the graph-oracle gap stays inside the discretization bound
        def world(scale: int):
            W, H = 20 * scale, 10 * scale
            rows = []
            for r in range(H):
                row = ["."] * W
                if 4 * scale <= r < 5 * scale:
                    for c in range(6 * scale, 14 * scale):
                        row[c] = "#"
                rows.append("".join(row))
            return make_map(rows, resolution=0.5 / scale)

        def true_length(s, t):
            # slab occupies [3,7] x [2,2.5]; route around either end
            out = math.inf
            for x in (3.0, 7.0):
                via = (math.hypot(s[0] - x, s[1] - 2.0) + 0.5
                       + math.hypot(t[0] - x, t[1] - 2.5))
                out = min(out, via)
            return out

        errors = []
        for scale in (1, 2):
            m = world(scale)
            F = base_velocity(m)
            src, tgt = (1 * scale, 1 * scale), (18 * scale, 8 * scale)
            d = solve_eikonal(m, F, src)
            oracle = dijkstra8(m, F, src)
            gap = abs(d.at(tgt) - oracle[tgt]) / oracle[tgt]
            assert gap <= 0.10
            true = true_length(m.to_world(src), m.to_world(tgt))
            errors.append(abs(d.at(tgt) - true) / true)
        assert errors[1] < errors[0]

    def test_dijkstra_oracle_small_maps(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            mats = (rng.random((20, 20)) < 0.2)
            mats[0, 0] = False
            mats[19, 19] = False
            rows = ["".join("#" if x else "." for x in row) for row in mats]
            m = make_map(rows)
            F = base_velocity(m)
            d = solve_eikonal(m, F, (0, 0))
            oracle = dijkstra8(m, F, (0, 0))
            target = (19, 19)
            fmm = d.at(target)
            dk = oracle.get(target, math.inf)
            assert math.isinf(fmm) == math.isinf(dk)
            if math.isfinite(fmm):
                assert abs(fmm - dk) / dk <= 0.10


class TestExtractPath:
    def test_identity(self):
        m = open_map(9, 9)
        d = solve_eikonal(m, base_velocity(m), (4, 4))
        p = extract_path(d, (4, 4))
        assert p.points == [m.to_world((4, 4))]
        assert p.length == 0.0

    def test_corridor_straight(self):
        m = make_map(["." * 21])
        d = solve_eikonal(m, base_velocity(m), (0, 0))
        p = extract_path(d, (20, 0))
        assert abs(p.length - 20 * 0.5) <= 0.25
        assert p.points[-1] == m.to_world((0, 0))
        assert p.points[0] == (10.25, 0.25)  # the start cell's centre

    def test_open_grid_corner_length(self):
        m = open_map(41, 41)
        d = solve_eikonal(m, base_velocity(m), (20, 20))
        p = extract_path(d, (40, 40))
        true = math.hypot(10.0, 10.0)
        assert p.length <= true * 1.02

    def test_off_grid_start_rejected(self):
        m = open_map(4, 2)
        d = solve_eikonal(m, base_velocity(m), (0, 0))
        with pytest.raises(UnreachableError, match="outside grid"):
            extract_path(d, (0, 2))

    def test_unreachable_start(self):
        m = make_map(["....#....."] * 5)
        d = solve_eikonal(m, base_velocity(m), (0, 2))
        with pytest.raises(UnreachableError):
            extract_path(d, (9, 2))

    def test_steps_bounded_and_off_obstacles(self):
        m = make_map([
            "............",
            "..########..",
            "..#......#..",
            "..#......#..",
            "..########..",
            "............",
        ])
        d = solve_eikonal(m, base_velocity(m), (0, 0))
        p = extract_path(d, (11, 5))
        step = m.resolution * math.sqrt(2)
        for a, b in zip(p.points, p.points[1:]):
            assert math.hypot(b[0] - a[0], b[1] - a[1]) <= step + 1e-9
        for pt in p.points:
            c = m.to_cell(pt)
            assert m.material(c) != WALL and m.material(c) != GLASS


def strip_fixture():
    """Open 30x30 map; start and goal on the bottom row, relay above the line
    between them so coverage sits beside the shortest path."""
    m = open_map(30, 30)
    params = RadioParams(p_tx=-70.0 + 40.0 + 10 * 1.7 * math.log10(5.0))  # d_cov = 5 m
    start, goal = (2, 2), (27, 2)
    relays = [m.to_world((10, 8)), m.to_world((15, 8)), m.to_world((20, 8))]
    return m, params, start, goal, relays


class TestCaFmmPath:
    def test_no_relays_equals_plain_fmm(self):
        m = make_map(["..........", "..##......", ".....#....", ".........."])
        params = RadioParams()
        d = solve_eikonal(m, base_velocity(m), (9, 3))
        plain = extract_path(d, (0, 0))
        ca = ca_fmm_path(CoverageBook(m, params), (0, 0), (9, 3), [])
        assert ca.points == plain.points
        assert ca.coverage_fraction == 0.0

    def test_coverage_bias_and_length_order(self):
        m, params, start, goal, relays = strip_fixture()
        fmm = ca_fmm_path(CoverageBook(m, params), start, goal, [])
        ca = ca_fmm_path(CoverageBook(m, params), start, goal, relays, w_c=1.0)
        # evaluate both fractions against the same mask
        mask = np.maximum.reduce([coverage_field(m, s, params) for s in relays]) >= params.gamma
        f_fmm = coverage_fraction(m, fmm.points, mask)
        f_ca = coverage_fraction(m, ca.points, mask)
        assert f_ca >= f_fmm
        assert f_ca > 0.3
        assert ca.length >= fmm.length - m.resolution / 2

    def test_wc_monotone_coverage(self):
        m, params, start, goal, relays = strip_fixture()
        fracs = []
        for w_c in (0.0, 0.5, 1.0, 2.0):
            p = ca_fmm_path(CoverageBook(m, params), start, goal, relays, w_c=w_c)
            fracs.append(p.coverage_fraction)
        assert all(b >= a - 1e-9 for a, b in zip(fracs, fracs[1:]))

    def test_length_optimality_at_zero_weight(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            mats = rng.random((18, 18)) < 0.18
            mats[1, 1] = False
            mats[16, 16] = False
            rows = ["".join("#" if x else "." for x in row) for row in mats]
            m = make_map(rows)
            F = base_velocity(m)
            oracle = dijkstra8(m, F, (1, 1))
            if (16, 16) not in oracle:
                continue
            p = ca_fmm_path(CoverageBook(m, RadioParams()), (16, 16), (1, 1), [], w_c=0.0)
            assert p.length <= oracle[(16, 16)] + 2 * m.resolution

    def test_goal_walled_off(self):
        m = make_map(["...#.", "...#.", "...#."])
        with pytest.raises(UnreachableError):
            ca_fmm_path(CoverageBook(m, RadioParams()), (0, 1), (4, 1), [])

    @pytest.mark.parametrize("start, goal, match", [
        ((0, 1), (5, 1), "outside grid"),
        ((0, 1), (2, 1), "goal cell .* is blocked"),
        ((2, 1), (0, 1), "start cell .* is blocked"),
    ])
    def test_off_grid_or_blocked_ends_rejected(self, start, goal, match):
        m = make_map([".....", "..#..", "....."])
        with pytest.raises(UnreachableError, match=match):
            ca_fmm_path(CoverageBook(m, RadioParams()), start, goal, [])

    def test_blocked_cells_excluded(self):
        m = make_map(["....." , ".....", "....."])
        p = ca_fmm_path(CoverageBook(m, RadioParams()), (0, 1), (4, 1), [], blocked=[(2, 1)])
        for pt in p.points:
            assert m.to_cell(pt) != (2, 1)
