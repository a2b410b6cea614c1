import math
from unittest import mock

import numpy as np
import pytest

from invgeom import (
    INFINITE,
    ExtendedMetric,
    all_pairs_bfs,
    cayley_metric,
    symmetrize,
)
from invgeom.cayley import word_successors
from invgeom.extmetric import (
    UNREACHED,
    bfs,
    metric_from_int_table,
    successor_array,
    trace_paths,
)


def test_path_graph_distances():
    m = all_pairs_bfs(successor_array(3, [0, 1, 1, 2], [1, 0, 2, 1]))
    assert m.dist(0, 2) == 2
    assert m.dist(0, 0) == 0
    assert np.array_equal(m.table, m.table.T)


def test_disconnected_components():
    m = all_pairs_bfs(successor_array(3, [0, 1], [1, 0]))
    assert m.dist(0, 2) == INFINITE
    assert math.isinf(m.table[0, 2])
    assert m.components() == ((0, 1), (2,))
    assert m.max_finite() == 1


def test_successor_array_pads_each_row_with_its_vertex():
    succ = successor_array(4, [0, 0, 2], [1, 3, 0])
    assert succ.tolist() == [[1, 3], [1, 1], [0, 2], [3, 3]]
    assert successor_array(2, [], []).shape == (2, 0)
    # against a padded neighbour list, built one row at a time
    close = np.random.default_rng(0).random((30, 30)) < 0.2
    rows = [np.flatnonzero(row).tolist() for row in close]
    width = max(map(len, rows))
    padded = [row + [u] * (width - len(row)) for u, row in enumerate(rows)]
    assert successor_array(30, *np.nonzero(close)).tolist() == padded


def test_components_reads_no_full_finite_mask(i3, i3_transpositions):
    metric = cayley_metric(i3, i3_transpositions).metric
    mask = ExtendedMetric.finite_mask
    reads = []

    def counted(self):
        reads.append(self)
        return mask.fget(self)

    with mock.patch.object(ExtendedMetric, "finite_mask", property(counted)):
        comps = metric.components()
    assert len(reads) <= 1
    assert {frozenset(c) for c in comps} == {frozenset(c) for c in i3.lclasses}


def test_int_table_wrapper():
    m = metric_from_int_table([[0, 1, -1], [1, 0, -1], [-1, -1, 0]])
    assert m.dist(0, 1) == 1
    assert m.dist(0, 2) == INFINITE


@pytest.mark.parametrize("seed", range(4))
def test_bfs_matches_scipy_on_random_digraphs(seed):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(seed)
    n, width = 60, 3
    succ = rng.integers(0, n, size=(n, width))
    sinks = rng.random(n) < 0.25  # only self-loops: nothing beyond them
    succ[sinks] = np.flatnonzero(sinks)[:, None]
    rows = np.repeat(np.arange(n), width)
    graph = sparse.csr_matrix(
        (np.ones(n * width), (rows, succ.ravel())), shape=(n, n)
    )
    expected = csgraph.shortest_path(graph, directed=True, unweighted=True)
    assert np.isinf(expected).any()
    level = bfs(succ, np.arange(n))
    assert np.array_equal(level, np.where(np.isinf(expected), UNREACHED, expected))
    sources = rng.permutation(n)[:7]
    assert np.array_equal(bfs(succ, sources), level[sources])


def test_bfs_depth_limit_and_shortest_words_on_i3(i3, i3_transpositions):
    letters = symmetrize(i3, i3_transpositions)
    succ = word_successors(i3, letters)
    everything = np.arange(i3.order)
    full, parent, column = bfs(succ, everything, parents=True)
    assert (full > 1).any()
    limited = bfs(succ, everything, limit=1)
    assert np.array_equal(limited, np.where(full <= 1, full, UNREACHED))
    sources, targets = np.nonzero(full != UNREACHED)
    vertices, columns, steps = trace_paths(full, parent, column, sources, targets)
    for src, s, row, cols, k in zip(sources, targets, vertices, columns, steps):
        path, cols = row[: k + 1].tolist(), cols[:k].tolist()
        assert len(cols) == full[src, s]
        acc = src
        for u, j in zip(path, cols):
            assert acc == u
            acc = i3.mul(letters[j], acc)
        assert acc == s
        if src != s:
            # the documented tie-break: least column, then least parent
            prev = np.flatnonzero(full[src] == full[src, s] - 1)
            j = min(j for j in range(len(letters)) if np.any(succ[prev, j] == s))
            assert column[src, s] == j
            assert parent[src, s] == prev[succ[prev, j] == s].min()
