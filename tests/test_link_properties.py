"""Property tests of the link layer over small random maps: the shared
raycast kernel, the coverage field's run counts, the memoised pairwise rss,
and the single BFS."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaynet.connectivity import bfs_tree
from relaynet.gridmap import GridMap, count_traversals, segment_runs
from relaynet.radio import CoverageBook, RadioParams, _traversal_field, path_loss, rss

from helpers import bfs_hops

PROPS = settings(max_examples=40, deadline=None)


@st.composite
def small_maps(draw) -> GridMap:
    w = draw(st.integers(2, 9))
    h = draw(st.integers(2, 9))
    cells = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=w * h, max_size=w * h))
    res = draw(st.sampled_from([0.5, 1.0, 0.3]))
    return GridMap(width=w, height=h, resolution=res,
                   materials=np.array(cells, dtype=np.uint8).reshape(h, w))


def points(grid: GridMap):
    """Any in-bounds point, or one on the half-cell lattice, where samples
    fall on cell edges and the far map edge."""
    def coord(cells: int):
        return st.floats(0.0, cells * grid.resolution) | \
            st.integers(0, 2 * cells).map(lambda i: i * grid.resolution / 2)
    return st.tuples(coord(grid.width), coord(grid.height))


def scalar_runs(grid: GridMap, a, b) -> tuple[int, int]:
    """Wall and glass runs along a-b, sampled independently of the package."""
    if (b[0], b[1]) < (a[0], a[1]):
        a, b = b, a
    n = max(1, math.ceil(math.hypot(b[0] - a[0], b[1] - a[1]) / (grid.resolution * 0.5)))
    mats = []
    for t in np.linspace(0.0, 1.0, n + 1):
        x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        col = min(max(int(x / grid.resolution), 0), grid.width - 1)
        row = min(max(int(y / grid.resolution), 0), grid.height - 1)
        mats.append(int(grid.materials[row, col]))
    return tuple(sum(1 for i, m in enumerate(mats) if m == code and (i == 0 or mats[i - 1] != code))
                 for code in (1, 2))


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
def test_field_counts_equal_count_traversals(data):
    grid = data.draw(small_maps())
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
