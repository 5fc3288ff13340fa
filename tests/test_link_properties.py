"""Property tests of the link layer over small random maps and sparse ones
(where most segments clear the obstacle table and are not sampled): the
shared raycast kernel and its padded batches, the coverage field's run
counts, the memoised pairwise rss, the batched links and coverage, the tick
tree, and the single BFS."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet.connectivity import bfs_tree, build_conn_graph
from relaynet.gridmap import GridMap, count_traversals, segment_runs, segment_steps
from relaynet.mission import _tick_tree
from relaynet.radio import (
    CoverageBook,
    RadioParams,
    _traversal_field,
    combine_coverage,
    coverage_field,
    path_loss,
    rss,
)

from helpers import bfs_hops, scalar_runs

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
def test_batched_losses_equal_path_loss(data):
    # links() prices its memo misses in one batch; the losses it stores
    # must be bit-equal to path_loss, so >= gamma decides the same way
    grid = data.draw(small_maps())
    params = RadioParams(p_tx=data.draw(st.floats(-40.0, 10.0)))
    book = CoverageBook(grid, params)
    pts = data.draw(st.lists(points(grid), min_size=1, max_size=7))
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                                   max_size=3)):
        book.rss(a, b)  # some pairs are memo hits before the batch
    for _ in range(2):  # the second pass is served from the memo
        pairs = list(itertools.combinations(range(len(pts)), 2))
        assert book.links(pts) == [(i, j) for i, j in pairs
                                   if rss(grid, pts[i], pts[j], params) >= params.gamma]
        for i, j in pairs:
            a, b = sorted((pts[i], pts[j]))
            assert book._losses[(a, b)] == path_loss(grid, a, b, params)


@PROPS
@given(st.data())
def test_tick_tree_equals_unmemoised_oracle(data):
    # parents are the lowest-index neighbour one hop closer to the base
    # station, over links decided by unmemoised rss (noisy on some ticks)
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
            link = lambda a, b: rss(grid, a, b, params)
        else:
            link = lambda a, b: rss(grid, a, b, noise, "stochastic", (tick,))
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
    graph = build_conn_graph(CoverageBook(grid, params), pts)
    assert graph.edges == {(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                           if rss(grid, pts[i], pts[j], params) >= params.gamma}


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
    grid = data.draw(small_maps() | sparse_maps())
    tx = data.draw(points(grid))
    walls, glass = _traversal_field(grid, tx)
    for r in range(grid.height):
        for c in range(grid.width):
            counts = count_traversals(grid, tx, grid.to_world((c, r)))
            assert (walls[r, c], glass[r, c]) == tuple(counts)


@PROPS
@given(st.data())
def test_memoised_rss_bit_equal(data):
    grid = data.draw(small_maps())
    params = RadioParams(seed=data.draw(st.integers(0, 50)))
    noise = params.with_(seed=data.draw(st.integers(0, 50)))
    book = CoverageBook(grid, params)
    pts = data.draw(st.lists(points(grid), min_size=2, max_size=5))
    tick = data.draw(st.integers(0, 1000))
    for _ in range(2):  # the second pass is served from the memo
        for a in pts:
            for b in pts:
                assert book.rss(a, b) == rss(grid, a, b, params)
                assert book.rss(a, b, noise, (tick,)) == \
                    noise.p_tx - path_loss(grid, a, b, noise, "stochastic", (tick,))


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
    assert not book.combined([]).mask.any()
    if sources:
        expected = combine_coverage([coverage_field(grid, s, params) for s in sources]).rss
        for _ in range(2):  # the second pass is served from the memo
            assert book.combined(sources).rss.tobytes() == expected.tobytes()


@PROPS
@given(st.integers(1, 12), st.data())
def test_bfs_matches_hop_oracle(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    adj = [sorted({j for i, j in edges if i == v} | {i for i, j in edges if j == v})
           for v in range(n)]
    parent, depth = bfs_tree(adj)
    assert depth == bfs_hops(n, edges)
    for v in range(1, n):
        if depth[v] is None:
            assert parent[v] is None
        else:
            # the parent is the lowest-index neighbour one hop closer to the root
            closer = [u for u in adj[v] if depth[u] == depth[v] - 1]
            assert parent[v] == min(closer)
