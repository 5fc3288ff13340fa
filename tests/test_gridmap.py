import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet import gridmap
from relaynet.gridmap import (
    FREE,
    GLASS,
    WALL,
    GridMap,
    MapParseError,
    OutOfBoundsError,
    count_traversals,
    line_of_sight,
    parse_map,
    segment_runs,
    segment_steps,
)

from conftest import make_map, open_map
from helpers import scalar_runs


class TestParseMap:
    def test_single_free_cell(self):
        m = parse_map("width 1\nheight 1\nresolution 0.5\n.")
        assert (m.width, m.height) == (1, 1)
        assert m.material((0, 0)) == FREE

    def test_two_by_two_materials(self):
        m = parse_map("width 2\nheight 2\nresolution 0.5\n.#\n%.")
        assert m.material((0, 0)) == FREE
        assert m.material((1, 0)) == WALL
        assert m.material((0, 1)) == GLASS
        assert m.material((1, 1)) == FREE

    def test_ragged_raster_rejected(self):
        with pytest.raises(MapParseError, match="ragged"):
            parse_map("width 3\nheight 2\nresolution 0.5\n...\n..")

    def test_unknown_character_names_position(self):
        with pytest.raises(MapParseError, match="line 4, column 2"):
            parse_map("width 3\nheight 1\nresolution 0.5\n.X.")

    def test_missing_header(self):
        with pytest.raises(MapParseError, match="width and height"):
            parse_map("height 1\n.")

    def test_bad_header_value(self):
        with pytest.raises(MapParseError, match="bad width"):
            parse_map("width x\nheight 1\n.")

    def test_default_resolution(self):
        m = parse_map("width 1\nheight 1\n.")
        assert m.resolution == 0.5

    def test_roundtrip_random_maps(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w, h = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            chars = rng.choice(list(".#%"), size=(h, w))
            rows = ["".join(row) for row in chars]
            m = make_map(rows, resolution=float(rng.choice([0.25, 0.5, 1.0])))
            assert parse_map(m.serialize()) == m

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "0", "-0.5"])
    def test_non_finite_or_nonpositive_resolution_rejected(self, value):
        with pytest.raises(MapParseError, match="resolution"):
            parse_map(f"width 1\nheight 1\nresolution {value}\n.")
        with pytest.raises(MapParseError, match="resolution"):
            GridMap(width=1, height=1, resolution=float(value),
                    materials=np.zeros((1, 1), dtype=np.uint8))


_JUNK = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=3)
# resolutions: well-formed, non-finite and out of range
_RESOLUTIONS = st.one_of(
    st.sampled_from(["0.5", "nan", "inf", "-inf", "1e400", "1e-320", "0", "-1"]),
    st.floats().map(repr),
)


@st.composite
def map_texts(draw) -> str:
    """A width/height/resolution header, sometimes with a junk value, a line
    dropped or duplicated, in any order; then either a raster of the
    declared shape or rows of arbitrary length and characters."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = {"width": str(w), "height": str(h), "resolution": draw(_RESOLUTIONS)}
    bad = draw(st.sampled_from([None, None, None, "width", "height", "resolution"]))
    if bad:
        values[bad] = draw(_JUNK)
    header = [f"{k} {v}" for k, v in draw(st.permutations(list(values.items())))]
    header = header[:draw(st.sampled_from([3, 3, 3, 2]))] + draw(st.sampled_from([[], [], [], header[:1]]))
    if draw(st.booleans()):
        rows = [draw(st.text(".#%", min_size=w, max_size=w)) for _ in range(h)]
    else:
        rows = draw(st.lists(st.text(".#%X ", max_size=5), max_size=5))
    return "\n".join(header + rows)


@settings(max_examples=300, deadline=None)
@given(map_texts())
def test_parse_map_raises_only_map_parse_error(text):
    try:
        m = parse_map(text)
    except MapParseError:
        return
    assert math.isfinite(m.resolution) and m.resolution > 0
    declared = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in ("width", "height"):
            declared[parts[0]] = int(parts[1])
    assert (m.width, m.height) == (declared["width"], declared["height"])
    assert m.materials.shape == (m.height, m.width)


class TestGeometry:
    def test_cell_world_inverse(self):
        m = open_map(8, 6)
        for c in [(0, 0), (3, 2), (7, 5)]:
            assert m.to_cell(m.to_world(c)) == c

    def test_world_cell_within_one_diagonal(self):
        m = open_map(8, 6)
        rng = np.random.default_rng(3)
        diag = m.resolution * math.sqrt(2)
        for _ in range(100):
            p = (float(rng.uniform(0, m.world_width)), float(rng.uniform(0, m.world_height)))
            q = m.to_world(m.to_cell(p))
            assert math.hypot(p[0] - q[0], p[1] - q[1]) <= diag

    def test_out_of_bounds_query_is_error(self):
        m = open_map(4, 4)
        with pytest.raises(OutOfBoundsError):
            m.to_cell((-0.1, 0.5))
        with pytest.raises(OutOfBoundsError):
            m.material((4, 0))
        with pytest.raises(OutOfBoundsError):
            count_traversals(m, (0.5, 0.5), (99.0, 0.5))


class TestCountTraversals:
    def test_zero_length_segment(self, traversal_map):
        p = (0.75, 0.75)
        assert count_traversals(traversal_map, p, p) == (0, 0)

    def test_three_cell_thick_wall_is_one_wall(self, traversal_map):
        # vertical shot through the three-row band at column 4
        a, b = (2.25, 0.75), (2.25, 4.25)
        assert count_traversals(traversal_map, a, b) == (1, 0)

    def test_through_doorway_is_zero(self, traversal_map):
        a, b = (1.25, 0.75), (1.25, 4.25)
        assert count_traversals(traversal_map, a, b) == (0, 0)

    def test_two_separate_runs_count_two(self):
        m = make_map([
            "..........",
            "..#...#...",
            "..........",
        ])
        a, b = (0.25, 0.75), (4.75, 0.75)
        assert count_traversals(m, a, b).walls == 2

    def test_glass_counted_separately(self):
        m = make_map([
            "..........",
            "..#..%%...",
            "..........",
        ])
        a, b = (0.25, 0.75), (4.75, 0.75)
        assert count_traversals(m, a, b) == (1, 1)

    def test_symmetry_random_pairs(self, traversal_map):
        rng = np.random.default_rng(11)
        m = traversal_map
        for _ in range(200):
            a = (float(rng.uniform(0, m.world_width)), float(rng.uniform(0, m.world_height)))
            b = (float(rng.uniform(0, m.world_width)), float(rng.uniform(0, m.world_height)))
            assert count_traversals(m, a, b) == count_traversals(m, b, a)

    def test_inserting_wall_run_never_decreases(self):
        base = open_map(12, 5)
        with_wall = make_map([
            "............",
            "............",
            ".....##.....",
            "............",
            "............",
        ])
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = (float(rng.uniform(0.1, 1.4)), float(rng.uniform(0.1, 2.4)))
            b = (float(rng.uniform(4.6, 5.9)), float(rng.uniform(0.1, 2.4)))
            assert count_traversals(with_wall, a, b).walls >= count_traversals(base, a, b).walls


class TestObstacleTable:
    def test_equals_brute_force_box_counts(self):
        rng = np.random.default_rng(13)
        m = make_map(["".join(row) for row in rng.choice(list("..#%"), size=(5, 7))])
        table = m.obstacle_table
        assert table.shape == (6, 8) and table.dtype == np.int32
        obstacle = m.materials != FREE
        for r0 in range(6):
            for r1 in range(r0, 6):
                for c0 in range(8):
                    for c1 in range(c0, 8):
                        box = table[r1, c1] - table[r0, c1] - table[r1, c0] + table[r0, c0]
                        assert box == obstacle[r0:r1, c0:c1].sum()

    def test_built_once_and_not_compared(self):
        a = make_map(["..#", "%.."])
        table = a.obstacle_table
        assert not table.flags.writeable
        count_traversals(a, (0.25, 0.25), (1.25, 0.75))
        segment_runs(a, np.array([[0.25]]), np.array([[0.25]]), np.array([[1.25]]),
                     np.array([[0.75]]), 4)
        assert a.obstacle_table is table
        b = make_map(["..#", "%.."])
        assert "obstacle_table" not in vars(b)
        assert a == b and b == a
        assert a != make_map(["...", "%.."])


class TestSegmentPruning:
    @pytest.fixture
    def sampled(self, monkeypatch):
        """The number of rows of each call to the sampler."""
        rows = []
        sample = gridmap._sampled_runs

        def spy(grid, ax, ay, dx, dy, n, width):
            rows.append(np.size(n))
            return sample(grid, ax, ay, dx, dy, n, width)

        monkeypatch.setattr(gridmap, "_sampled_runs", spy)
        return rows

    @staticmethod
    def runs(grid, segs, sampled):
        """segment_runs one segment at a time and as one batch, at the
        natural step counts, with the rows sampled by each."""
        steps = [segment_steps(grid, a, b) for a, b in segs]
        one = []
        for (a, b), n in zip(segs, steps):
            sampled.clear()
            one.append((tuple(segment_runs(grid, a[0], a[1], b[0], b[1], n).tolist()),
                        sum(sampled)))
        sampled.clear()
        ax, ay, bx, by = (np.array([[p[k]] for p in ends]) for ends in zip(*segs) for k in (0, 1))
        batch = segment_runs(grid, ax, ay, bx, by, np.array(steps)[:, None])
        return one, [tuple(r) for r in batch.T.tolist()], sum(sampled)

    def test_obstacle_in_the_box_off_the_ray(self, sampled):
        # the diagonal from cell (0, 0) to cell (3, 3) stays on cells with
        # col == row; its box holds the wall at (3, 0), so it is sampled,
        # and it still has no runs
        m = make_map(["...#", "....", "....", "...."])
        diagonal = ((0.25, 0.25), (1.75, 1.75))
        clear = ((0.25, 1.25), (1.75, 1.75))
        one, batch, rows = self.runs(m, [diagonal, clear], sampled)
        assert one == [((0, 0), 1), ((0, 0), 0)]
        assert batch == [(0, 0), (0, 0)]
        assert rows == 1
        assert scalar_runs(m, *diagonal) == scalar_runs(m, *clear) == (0, 0)

    def test_rows_ending_on_the_far_map_edge(self, sampled):
        # world 3 x 1 m; the last sample of a row ending at x == 3.0 or
        # y == 1.0 folds into the last column or row, where only (5, 1)
        # is a wall
        m = make_map(["......", ".....#"])
        segs = [((0.25, 0.25), (3.0, 0.25)),   # row 0 to the far edge: clear
                ((0.25, 0.75), (3.0, 0.75)),   # row 1 onto the wall
                ((0.25, 0.25), (0.25, 1.0)),   # column 0 to the far edge: clear
                ((2.75, 0.25), (2.75, 1.0)),   # column 5 onto the wall
                ((0.0, 0.0), (3.0, 1.0)),      # corner to corner: box holds the wall
                ((3.0, 0.0), (3.0, 0.25)),     # along the far edge, in row 0: clear
                ((3.0, 0.0), (3.0, 1.0))]      # along the far edge onto the wall
        one, batch, rows = self.runs(m, segs, sampled)
        expected = [scalar_runs(m, a, b) for a, b in segs]
        assert expected == [(0, 0), (1, 0), (0, 0), (1, 0), (1, 0), (0, 0), (1, 0)]
        assert one == [(e, int(e != (0, 0))) for e in expected]
        assert batch == expected
        assert rows == 4


class TestLineOfSight:
    def test_adjacent_free_cells(self, traversal_map):
        m = traversal_map
        assert line_of_sight(m, m.to_world((0, 0)), m.to_world((1, 0)))

    def test_any_wall_blocks(self, traversal_map):
        assert not line_of_sight(traversal_map, (2.25, 0.75), (2.25, 4.25))

    def test_wall_shadow_pair_on_fixture(self, traversal_map):
        # both endpoints in free columns, the band lies between them
        assert not line_of_sight(traversal_map, (0.25, 1.25), (0.25, 3.75))

    def test_glass_blocks_los(self):
        m = make_map(["...", ".%.", "..."])
        assert not line_of_sight(m, m.to_world((0, 1)), m.to_world((2, 1)))
