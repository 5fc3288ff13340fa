"""Property tests of the link layer over small random maps and sparse ones
(where most segments clear the obstacle table and are not sampled): the
shared raycast kernel, its padded batches and its piece path (forced on
small batches, and natural on the fans of two larger maps), the per-map
raycast memo, the coverage field's run counts, the movement-cost matrix,
the memoised pairwise rss, the multipath draw's seeding, the batched links
and coverage, the obstacle rule of coverage, the tick tree, and the single
BFS."""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet import gridmap
from relaynet.connectivity import bfs_tree, build_conn_graph, movement_cost, movement_costs
from relaynet.gridmap import (
    FREE,
    GridMap,
    OutOfBoundsError,
    count_traversals,
    count_traversals_batch,
    segment_runs,
    segment_steps,
)
from relaynet.mission import _tick_tree
from relaynet.radio import (
    NO_SIGNAL,
    CoverageBook,
    RadioConfigError,
    RadioParams,
    _multipath_draw,
    _traversal_field,
    coverage_field,
    path_loss,
    rss,
)

from helpers import (
    bfs_hops,
    movement_cost_reference,
    multipath_draw_reference,
    path_loss_reference,
    scalar_runs,
)

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def small_maps(draw) -> GridMap:
    w = draw(st.integers(2, 9))
    h = draw(st.integers(2, 9))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=w * h, max_size=w * h))
    res = draw(st.sampled_from([0.5, 1.0, 0.3]))
    return GridMap(width=w, height=h, resolution=res,
                   materials=np.array(cells, dtype=np.uint8).reshape(h, w))


@st.composite
def sparse_maps(draw) -> GridMap:
    """Open maps up to 24 x 24 with at most four wall or glass cells, so
    that one map has both rows whose box holds no obstacle and rows that
    are sampled."""
    w = draw(st.integers(2, 24))
    h = draw(st.integers(2, 24))
    materials = np.zeros((h, w), dtype=np.uint8)
    for c, r, code in draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1),
                                              st.sampled_from([1, 2])), max_size=4)):
        materials[r, c] = code
    res = draw(st.sampled_from([0.5, 1.0, 0.3]))
    return GridMap(width=w, height=h, resolution=res, materials=materials)


def points(grid: GridMap):
    """Any in-bounds point, or one on the half-cell lattice, where samples
    fall on cell edges and the far map edge."""
    def coord(cells: int):
        return st.floats(0.0, cells * grid.resolution) | \
            st.integers(0, 2 * cells).map(lambda i: i * grid.resolution / 2)
    return st.tuples(coord(grid.width), coord(grid.height))


@PROPS
@given(st.data())
def test_kernel_equals_count_traversals_both_orders(data):
    grid = data.draw(small_maps())
    pts = data.draw(st.lists(points(grid), min_size=2, max_size=6))
    for a in pts:
        for b in pts:
            expected = scalar_runs(grid, a, b)
            assert tuple(count_traversals(grid, a, b)) == expected
            lo, hi = (a, b) if (a[0], a[1]) <= (b[0], b[1]) else (b, a)
            n = max(1, math.ceil(math.hypot(hi[0] - lo[0], hi[1] - lo[1]) / (grid.resolution * 0.5)))
            one = segment_runs(grid, lo[0], lo[1], hi[0], hi[1], n)
            batched = segment_runs(grid, *(np.array([[v]]) for v in (*lo, *hi)), n)
            assert tuple(one.tolist()) == expected
            assert tuple(batched[:, 0].tolist()) == expected
    segs = [(a, b) if a <= b else (b, a) for a in pts for b in pts]
    assert count_traversals_batch(grid, segs) == [scalar_runs(grid, a, b) for a, b in segs]


@PROPS
@given(st.data())
def test_batch_bounds_check_accepts_the_far_edge_and_raises_as_count_traversals(data):
    # one array test covers the batch; a failing endpoint must still raise
    # the message count_traversals gives for its pair, for the first bad one
    grid = data.draw(small_maps())
    ww, wh = grid.world_width, grid.world_height
    edge = [(0.0, 0.0), (ww, 0.0), (0.0, wh), (ww, wh)]
    pts = data.draw(st.lists(points(grid) | st.sampled_from(edge), min_size=1, max_size=6))
    segs = [(a, b) if a <= b else (b, a) for a, b in zip(pts, pts[1:] + pts[:1])]
    assert count_traversals_batch(grid, segs) == [scalar_runs(grid, a, b) for a, b in segs]

    seg = [list(segs[0][0]), list(segs[0][1])]
    for end, axis in data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                        min_size=1, max_size=4, unique=True)):
        far = (ww, wh)[axis]
        seg[end][axis] = data.draw(st.sampled_from([
            math.nextafter(0.0, -1.0), -1.0, math.nan, math.nextafter(far, math.inf), 2 * far]))
    bad = (tuple(seg[0]), tuple(seg[1]))
    with pytest.raises(OutOfBoundsError) as scalar:
        count_traversals(grid, *bad)
    at = data.draw(st.integers(0, len(segs)))
    with pytest.raises(OutOfBoundsError) as batched:
        count_traversals_batch(grid, segs[:at] + [bad] + segs[at:])
    assert batched.value.args == scalar.value.args


@PROPS
@given(st.data())
def test_count_traversals_memo_equals_scalar_oracle(data):
    # repeated and reversed pairs are served from the map's memo, which
    # holds one canonical float-tuple key per segment; bounds are checked
    # before the memo is read, and an equal map has a memo of its own
    grid = data.draw(small_maps() | sparse_maps())
    pts = [tuple(p) for p in data.draw(st.lists(points(grid), min_size=1, max_size=5))]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                               min_size=1, max_size=10))
    pairs += [(b, a) for a, b in reversed(pairs)]
    for a, b in pairs:
        assert count_traversals(grid, a, b) == scalar_runs(grid, a, b)
    assert set(grid.traversals) == {(min(a, b), max(a, b)) for a, b in pairs}
    assert all(a <= b for a, b in grid.traversals)
    assert {type(v) for seg in grid.traversals for p in seg for v in p} == {float}

    twin = GridMap(width=grid.width, height=grid.height, resolution=grid.resolution,
                   materials=grid.materials.copy())
    assert twin == grid and twin.traversals == {}
    memo = dict(grid.traversals)
    a, b = pairs[0]
    assert count_traversals(twin, b, a) == scalar_runs(grid, a, b)
    assert twin.traversals.keys() == {(min(a, b), max(a, b))}
    assert grid.traversals == memo

    ww, wh = grid.world_width, grid.world_height
    seg = [list(a), list(b)]
    end, axis = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    far = (ww, wh)[axis]
    seg[end][axis] = data.draw(st.sampled_from([
        math.nextafter(0.0, -1.0), -1.0, math.nan, math.nextafter(far, math.inf), 2 * far]))
    bad = (tuple(seg[0]), tuple(seg[1]))
    fresh = GridMap(width=grid.width, height=grid.height, resolution=grid.resolution,
                    materials=grid.materials)
    for ends in (bad, bad[::-1]):
        with pytest.raises(OutOfBoundsError) as unmemoised:
            count_traversals(fresh, *ends)
        with pytest.raises(OutOfBoundsError) as memoised:
            count_traversals(grid, *ends)
        assert memoised.value.args == unmemoised.value.args
    assert grid.traversals == memo and fresh.traversals == {}


@settings(max_examples=200, deadline=None)
@given(seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**70 - 1),
       cells=st.tuples(*[st.integers(0, 300)] * 4),
       key=st.lists(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**40),
                    max_size=3).map(tuple),
       sigma2=st.sampled_from([0.0, 3.25, 3.45]) | st.floats(0.0, 100.0))
def test_multipath_draw_equals_list_seeded_reference(seed, cells, key, sigma2):
    # the uint32 word array seeds the same generator as the list of ints
    params = RadioParams(seed=seed)
    a, b = cells[:2], cells[2:]
    draw = _multipath_draw(params, sigma2, a, b, key)
    assert draw.hex() == multipath_draw_reference(params, sigma2, a, b, key).hex()
    assert draw.hex() == _multipath_draw(params, sigma2, b, a, key).hex()


@PROPS
@given(seed=st.integers(0, 2**70 - 1), key=st.lists(st.integers(0, 2**40), max_size=3),
       at=st.integers(0, 3), negative=st.integers(-2**40, -1))
def test_negative_key_entry_raises_like_the_reference(seed, key, at, negative):
    params = RadioParams(seed=seed)
    key = tuple(key[:at] + [negative] + key[at:])
    with pytest.raises(ValueError) as ours:
        _multipath_draw(params, 3.25, (1, 2), (3, 4), key)
    with pytest.raises(ValueError) as reference:
        multipath_draw_reference(params, 3.25, (1, 2), (3, 4), key)
    assert ours.value.args == reference.value.args


@PROPS
@given(st.data())
def test_mixed_step_batch_equals_scalar_calls(data):
    # rows of one batch take their own step counts: the natural one, n = 1,
    # n = 49 (the least n with n * (1 / n) < 1) or any other, so short rows
    # are padded by up to ~120 endpoint samples
    grid = data.draw(small_maps())
    segs = data.draw(st.lists(st.tuples(points(grid), points(grid)), min_size=1, max_size=8))
    segs = [(a, b) if a <= b else (b, a) for a, b in segs]
    if data.draw(st.booleans()):
        segs.append((segs[0][0], segs[0][0]))  # coincident endpoints
    steps = [data.draw(st.sampled_from([segment_steps(grid, a, b), 1, 49]) | st.integers(1, 120))
             for a, b in segs]
    ax, ay, bx, by = (np.array([[p[k]] for p in ends]) for ends in zip(*segs) for k in (0, 1))
    batch = segment_runs(grid, ax, ay, bx, by, np.array(steps)[:, None])
    assert batch.shape == (2, len(segs))
    for (a, b), n, walls, glass in zip(segs, steps, *batch.tolist()):
        expected = scalar_runs(grid, a, b, n)
        assert tuple(segment_runs(grid, a[0], a[1], b[0], b[1], n).tolist()) == expected
        assert (walls, glass) == expected
        if n == segment_steps(grid, a, b):
            assert tuple(count_traversals(grid, a, b)) == expected


def test_padded_row_ends_on_its_endpoint():
    # the row (0, 0.25)-(1, 0.25) at n = 49 ends on the edge of the wall
    # cell 2, which only its last sample reaches (49 * (1 / 49) < 1), and
    # padding it to the 120-step row must not carry it on to the wall cell 4
    grid = GridMap(width=5, height=1, resolution=0.5,
                   materials=np.array([[0, 0, 1, 0, 1]], dtype=np.uint8))
    assert scalar_runs(grid, (0.0, 0.25), (1.0, 0.25), 49) == (1, 0)
    assert segment_runs(grid, 0.0, 0.25, 1.0, 0.25, 49).tolist() == [1, 0]
    batch = segment_runs(grid, np.array([[0.0], [0.0]]), np.array([[0.25], [0.25]]),
                         np.array([[1.0], [2.5]]), np.array([[0.25], [0.25]]),
                         np.array([[49], [120]]))
    assert batch.tolist() == [[1, 2], [0, 0]]


@PROPS
@given(st.data())
def test_movement_costs_equal_scalar_formula(data):
    # one raycast batch per matrix, each canonical segment once: every entry
    # is bit-equal to the one-pair formula, on repeated points, coincident
    # pairs and both orders of a pair
    grid = data.draw(small_maps() | sparse_maps())
    pts = [tuple(p) for p in data.draw(st.lists(points(grid), min_size=1, max_size=6))]
    froms = data.draw(st.lists(st.sampled_from(pts), max_size=7))
    tos = data.draw(st.lists(st.sampled_from(pts), max_size=7))
    expected = [[movement_cost_reference(grid, a, b) for b in tos] for a in froms]
    assert movement_costs(grid, froms, tos) == expected
    assert [[movement_cost(grid, a, b) for b in tos] for a in froms] == expected


@PROPS
@given(st.data())
def test_batched_losses_equal_path_loss(data):
    # every deterministic rss goes through rss_pairs, which prices its memo
    # misses in one batch: on any pair list (reversed, repeated and already
    # memoised pairs), one pair per call and all pairs through links, the
    # loss is bit-equal to path_loss, so >= gamma decides the same way
    grid = data.draw(small_maps())
    params = RadioParams(p_tx=data.draw(st.floats(-40.0, 10.0)))
    book = CoverageBook(grid, params)
    pts = [tuple(p) for p in data.draw(st.lists(points(grid), min_size=1, max_size=7))]
    pair_lists = st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=8)
    for a, b in data.draw(pair_lists):
        assert book.rss_pairs([(a, b)]) == [rss(grid, a, b, params)]  # memo hits for the batches
    pairs = data.draw(pair_lists)
    pairs += [(b, a) for a, b in reversed(pairs)]
    links = [(i, j) for i, j in itertools.combinations(range(len(pts)), 2)
             if rss(grid, pts[i], pts[j], params) >= params.gamma]
    for _ in range(2):  # the second pass is served from the memo
        assert book.rss_pairs(pairs) == [rss(grid, a, b, params) for a, b in pairs]
        assert book.links(pts) == links
        assert book._losses == {(a, b): path_loss(grid, a, b, params) for a, b in book._losses}
        assert all(a <= b for a, b in book._losses)


@PROPS
@given(st.data())
def test_tick_tree_equals_unmemoised_oracle(data):
    # parents are the lowest-index neighbour one hop closer to the base
    # station, over links decided by the scalar-sampler rss (noisy on some
    # ticks, with the list-seeded draw)
    grid = data.draw(small_maps())
    params = RadioParams(p_tx=data.draw(st.floats(-40.0, 10.0)))
    noise = data.draw(st.none() | st.integers(0, 50).map(lambda s: params.with_(seed=s)))
    tick = data.draw(st.integers(0, 1000))
    book = CoverageBook(grid, params)
    bs = data.draw(points(grid))
    for _ in range(2):  # the book's memo carries over between ticks
        robots = data.draw(st.lists(points(grid), min_size=1, max_size=6))
        parents, connected = _tick_tree(book, bs, robots, noise, tick)
        nodes = [bs] + robots
        if noise is None:
            link = lambda a, b: params.p_tx - path_loss_reference(grid, a, b, params)
        else:
            link = lambda a, b: noise.p_tx - path_loss_reference(grid, a, b, noise,
                                                                 "stochastic", (tick,))
        edges = {(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
                 if link(nodes[i], nodes[j]) >= params.gamma}
        depth = bfs_hops(len(nodes), edges)
        expected = [None] + [
            None if depth[v] is None else
            min(u for u in range(len(nodes)) if depth[u] == depth[v] - 1
                and (min(u, v), max(u, v)) in edges)
            for v in range(1, len(nodes))]
        assert parents == expected
        assert connected == [d is not None for d in depth[1:]]


@PROPS
@given(st.data())
def test_conn_graph_edges_equal_unmemoised_rss(data):
    grid = data.draw(small_maps())
    params = RadioParams(p_tx=data.draw(st.floats(-40.0, 10.0)))
    free = [grid.to_world((c, r)) for r in range(grid.height) for c in range(grid.width)
            if grid.is_free_cell((c, r))]
    if not free:
        return
    pts = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=7))
    assert build_conn_graph(CoverageBook(grid, params), pts) == [
        (i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
        if rss(grid, pts[i], pts[j], params) >= params.gamma]


@PROPS
@given(st.data())
def test_sparse_map_kernel_equals_scalar_oracle(data):
    # one segment at a time, one int n for a batch of array coordinates, and
    # a batch of mixed step counts, on maps where most boxes are clear
    grid = data.draw(sparse_maps())
    segs = data.draw(st.lists(st.tuples(points(grid), points(grid)), min_size=1, max_size=8))
    segs = [(a, b) if a <= b else (b, a) for a, b in segs]
    ax, ay, bx, by = (np.array([[p[k]] for p in ends]) for ends in zip(*segs) for k in (0, 1))
    for a, b in segs:
        n = segment_steps(grid, a, b)
        assert tuple(segment_runs(grid, a[0], a[1], b[0], b[1], n).tolist()) == \
            scalar_runs(grid, a, b, n)
    n = data.draw(st.integers(1, 120))
    batch = segment_runs(grid, ax, ay, bx, by, n)
    assert batch.shape == (2, len(segs))
    assert [tuple(runs) for runs in batch.T.tolist()] == [scalar_runs(grid, a, b, n)
                                                          for a, b in segs]
    steps = [data.draw(st.sampled_from([segment_steps(grid, a, b), 1, 49]) | st.integers(1, 120))
             for a, b in segs]
    batch = segment_runs(grid, ax, ay, bx, by, np.array(steps)[:, None])
    assert [tuple(runs) for runs in batch.T.tolist()] == [scalar_runs(grid, a, b, n)
                                                          for (a, b), n in zip(segs, steps)]


@PROPS
@given(st.data())
def test_field_counts_equal_count_traversals(data):
    # rays go to the free cells only: an obstacle cell reads (0, 0), and
    # coverage_field gives it NO_SIGNAL whatever its counts
    grid = data.draw(small_maps() | sparse_maps())
    tx = data.draw(points(grid))
    walls, glass = _traversal_field(grid, tx)
    for r in range(grid.height):
        for c in range(grid.width):
            counts = count_traversals(grid, tx, grid.to_world((c, r))) \
                if grid.is_free_cell((c, r)) else (0, 0)
            assert (walls[r, c], glass[r, c]) == tuple(counts)


@PROPS
@given(st.data())
def test_combined_coverage_is_no_signal_on_every_obstacle_cell(data):
    # the one statement of the rule that obstacles are never covered: with
    # any radio and any sources, none at all included, every non-FREE cell
    # reads NO_SIGNAL, and RadioParams admits no gamma that NO_SIGNAL reaches
    grid = data.draw(small_maps() | sparse_maps())
    params = RadioParams(p_tx=data.draw(st.floats(-60.0, 30.0)), l0=data.draw(st.floats(0.0, 60.0)),
                         n_los=data.draw(st.floats(0.5, 4.0)), n_nlos=data.draw(st.floats(0.5, 4.0)),
                         a_wall=data.draw(st.floats(0.0, 30.0)), a_glass=data.draw(st.floats(0.0, 10.0)),
                         gamma=data.draw(st.floats(-150.0, 0.0)))
    free = [grid.to_world((c, r)) for r in range(grid.height) for c in range(grid.width)
            if grid.is_free_cell((c, r))]
    sources = data.draw(st.lists(st.sampled_from(free), max_size=4)) if free else []
    combined = CoverageBook(grid, params).combined(sources)
    assert np.all(combined[grid.materials != FREE] == NO_SIGNAL)
    assert not np.any((combined >= params.gamma) & (grid.materials != FREE))
    with pytest.raises(RadioConfigError):
        params.with_(gamma=data.draw(st.sampled_from([math.inf, -math.inf, math.nan])))


@contextmanager
def pieces(block: int, piece: int):
    """segment_runs with the given sample block and piece length; yields
    the list of the row counts handed to the piece path."""
    calls = []

    def spy(grid, ax, ay, dx, dy, n, cast):
        calls.append(cast.size)
        return piece_runs(grid, ax, ay, dx, dy, n, cast)

    piece_runs = gridmap._piece_runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridmap, "_SAMPLE_BLOCK", block)
        mp.setattr(gridmap, "_PIECE", piece)
        mp.setattr(gridmap, "_piece_runs", spy)
        yield calls


def piece_steps(data, piece: int, natural: int):
    """A step count around the piece length P: n < P, n = P, kP, kP + 1,
    the segment's own count, or any other."""
    k = data.draw(st.integers(1, 5))
    return data.draw(st.sampled_from([max(1, piece - 1), piece, k * piece, k * piece + 1,
                                      natural, 1]) | st.integers(1, 90))


@PROPS
@given(st.data())
def test_piece_path_equals_scalar_oracle(data):
    # cast rows cut into pieces under a sample block of 0-40 samples, so
    # that 1-10 rows are box-tested and 1-20 pieces sampled at a time:
    # padded last pieces, far-edge endpoints, coincident endpoints and rows
    # of mixed step counts
    grid = data.draw(small_maps() | sparse_maps())
    ww, wh = grid.world_width, grid.world_height
    edge = [(0.0, 0.0), (ww, 0.0), (0.0, wh), (ww, wh), (ww, wh / 2), (ww / 2, wh)]
    ends = points(grid) | st.sampled_from(edge)
    segs = data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=8))
    segs = [(a, b) if a <= b else (b, a) for a, b in segs]
    if data.draw(st.booleans()):
        segs.append((segs[0][1], segs[0][1]))
    piece = data.draw(st.integers(1, 6))
    steps = [piece_steps(data, piece, segment_steps(grid, a, b)) for a, b in segs]
    expected = [scalar_runs(grid, a, b, n) for (a, b), n in zip(segs, steps)]
    ax, ay, bx, by = (np.array([[p[k]] for p in e]) for e in zip(*segs) for k in (0, 1))
    block = data.draw(st.sampled_from([0, 4, 12, 40]))
    with pieces(block, piece) as calls:
        batch = segment_runs(grid, ax, ay, bx, by, np.array(steps)[:, None])
    assert [tuple(runs) for runs in batch.T.tolist()] == expected
    # a row with runs is cast, so its samples count towards the block
    if sum(n + 1 for n, runs in zip(steps, expected) if any(runs)) > block:
        assert calls


@PROPS
@given(st.data())
def test_piece_path_with_obstacles_on_piece_boundaries(data):
    # wall and glass cells placed on the samples where pieces meet (k = jP)
    # and next to them, where a piece's box test and its first sample decide
    grid = data.draw(sparse_maps())
    a, b = sorted(data.draw(st.tuples(points(grid), points(grid))))
    piece = data.draw(st.integers(1, 6))
    n = piece_steps(data, piece, segment_steps(grid, a, b))
    materials = grid.materials.copy()
    res = grid.resolution
    for k in data.draw(st.lists(st.integers(0, n // piece), min_size=1, max_size=4)):
        k = min(n, k * piece + data.draw(st.sampled_from([0, 0, -1, 1])))
        t = np.linspace(0.0, 1.0, n + 1)[max(k, 0)]
        col = min(int((a[0] + t * (b[0] - a[0])) / res), grid.width - 1)
        row = min(int((a[1] + t * (b[1] - a[1])) / res), grid.height - 1)
        materials[row, col] = data.draw(st.sampled_from([1, 2]))
    grid = GridMap(width=grid.width, height=grid.height, resolution=res, materials=materials)
    expected = scalar_runs(grid, a, b, n)
    with pieces(0, piece) as calls:
        batch = segment_runs(grid, *(np.array([[v]]) for v in (*a, *b)), np.array([[n]]))
    assert tuple(batch[:, 0].tolist()) == expected
    assert calls


@PROPS
@given(st.data())
def test_batch_is_sampled_in_one_call_or_in_pieces(data):
    # the cast rows of a batch go to one padded call when rows x (longest
    # n + 1) fits the sample block, else to the piece path: blocks just
    # over and just under that bound, and blocks that hold the rows' step
    # sum but not their padded size (which a loop over sorted blocks used
    # to split), with the block patched small; rows across a full-height
    # obstacle column are always cast, rows on one free cell never are
    grid = data.draw(small_maps().filter(lambda g: g.width >= 3))
    res, col = grid.resolution, grid.width // 2
    materials = grid.materials.copy()
    materials[:, col] = data.draw(st.sampled_from([1, 2]))
    materials[0, 0] = 0
    grid = GridMap(width=grid.width, height=grid.height, resolution=res, materials=materials)
    left = st.tuples(st.floats(0.0, col * res, exclude_max=True), st.floats(0.0, grid.world_height))
    right = st.tuples(st.floats((col + 1) * res, grid.world_width), st.floats(0.0, grid.world_height))
    cast = data.draw(st.lists(st.tuples(left, right, st.integers(1, 40)), min_size=1, max_size=8))
    clear = data.draw(st.lists(st.tuples(st.just((0.1, 0.1)), st.just((0.1, 0.1)),
                                         st.integers(1, 200)), max_size=3))
    rows = data.draw(st.permutations(cast + clear))
    padded = len(cast) * (max(n for _, _, n in cast) + 1)
    total = sum(n + 1 for _, _, n in cast)
    block = data.draw(st.sampled_from([padded, padded + 1, padded - 1, max(0, padded - 2)])
                      | st.integers(total, max(total, padded - 1)))
    ax, ay, bx, by = (np.array([[row[end][k]] for row in rows]) for end in (0, 1) for k in (0, 1))
    steps = np.array([[n] for _, _, n in rows])
    with pieces(block, data.draw(st.integers(1, 6))) as calls:
        batch = segment_runs(grid, ax, ay, bx, by, steps)
    assert [tuple(runs) for runs in batch.T.tolist()] == [scalar_runs(grid, a, b, n)
                                                          for a, b, n in rows]
    assert bool(calls) == (padded > block)


def fan_map(dense: bool) -> GridMap:
    """A 96 x 96 map whose fan of rays from any free cell holds more samples
    than one sample block: a quarter wall or glass, where more rows are
    cast than are box-tested at once, or four obstacles in the open."""
    rng = np.random.default_rng(5)
    if dense:
        materials = np.where(rng.random((96, 96)) < 0.25, rng.integers(1, 3, (96, 96)), 0)
    else:
        materials = np.zeros((96, 96), dtype=np.int64)
        materials[[20, 30, 31, 84], [17, 40, 40, 9]] = [1, 2, 1, 2]
    return GridMap(width=96, height=96, resolution=0.5, materials=materials.astype(np.uint8))


FAN_MAPS = {dense: fan_map(dense) for dense in (True, False)}


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_natural_fan_above_the_sample_block_equals_scalar_oracle(data):
    # a coverage field's fan, cut into pieces at the package's own sizes,
    # checked row by row against the scalar sampler on a drawn subset
    grid = FAN_MAPS[data.draw(st.booleans())]
    free = [(c, r) for r in range(grid.height) for c in range(grid.width)
            if grid.is_free_cell((c, r))]
    tx = grid.to_world(data.draw(st.sampled_from(free)))
    with pieces(gridmap._SAMPLE_BLOCK, gridmap._PIECE) as calls:
        walls, glass = _traversal_field(grid, tx)
    assert calls
    for c, r in data.draw(st.lists(st.sampled_from(free), min_size=20, max_size=40)):
        assert (walls[r, c], glass[r, c]) == scalar_runs(grid, tx, grid.to_world((c, r)))


@PROPS
@given(st.data())
def test_memoised_rss_bit_equal(data):
    grid = data.draw(small_maps())
    params = RadioParams(seed=data.draw(st.integers(0, 50)))
    noise = params.with_(seed=data.draw(st.integers(0, 50)))
    book = CoverageBook(grid, params)
    pts = data.draw(st.lists(points(grid), min_size=2, max_size=5))
    tick = data.draw(st.integers(0, 1000))
    pairs = {(a, b) for a in map(tuple, pts) for b in map(tuple, pts) if a <= b}
    for _ in range(2):  # the second pass is served from the memo
        for a in pts:
            for b in pts:
                expected = params.p_tx - path_loss_reference(grid, a, b, params)
                assert book.rss_pairs([(a, b)]) == [expected]
        # a noisy tick prices its links outside the memo, which keeps
        # exactly the deterministic loss of each pair
        _tick_tree(book, pts[0], pts[1:], noise, tick)
        assert book._losses == {p: path_loss_reference(grid, *p, params) for p in pairs}


@PROPS
@given(st.data())
def test_memoised_coverage_bit_equal(data):
    # the reference is the unmemoised per-source build and combine
    grid = data.draw(small_maps())
    params = RadioParams(p_tx=data.draw(st.floats(-40.0, 10.0)))
    free = [(c, r) for r in range(grid.height) for c in range(grid.width)
            if grid.is_free_cell((c, r))]
    cells = data.draw(st.lists(st.sampled_from(free), max_size=4)) if free else []
    sources = [grid.to_world(c) for c in cells]
    book = CoverageBook(grid, params)
    assert not (book.combined([]) >= params.gamma).any()
    if sources:
        expected = np.maximum.reduce([coverage_field(grid, s, params) for s in sources])
        for _ in range(2):  # the second pass is served from the memo
            assert book.combined(sources).tobytes() == expected.tobytes()


@PROPS
@given(st.integers(1, 12), st.data())
def test_bfs_matches_hop_oracle(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    parent, depth = bfs_tree(n, edges)
    assert depth == bfs_hops(n, edges)
    for v in range(1, n):
        if depth[v] is None:
            assert parent[v] is None
        else:
            # the parent is the lowest-index neighbour one hop closer to the root
            closer = [u for u in range(n) if depth[u] == depth[v] - 1
                      and (min(u, v), max(u, v)) in edges]
            assert parent[v] == min(closer)
    # the tree depends only on the edge set, not on its order or orientation
    shuffled = data.draw(st.permutations(sorted(edges)))
    flipped = [(j, i) if data.draw(st.booleans()) else (i, j) for i, j in shuffled]
    assert bfs_tree(n, shuffled) == bfs_tree(n, flipped) == (parent, depth)
