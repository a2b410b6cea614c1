import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgeom import (
    INFINITE,
    all_pairs_bfs,
    cayley_metric,
    cayley_self_action,
    fileio,
    rips_graph,
    semilattice_times_group,
    symmetrize,
    validate_metric_predicates,
)
from invgeom import extmetric
from invgeom.cayley import word_successors
from invgeom.extmetric import (
    UNREACHED,
    bfs,
    first_increases,
    successor_array,
    trace_paths,
)
from invgeom.families import build_example, chain_semilattice, cyclic_group_table

from conftest import block_metric, dense, dense_bfs, first_increase, properness_loop


def test_path_graph_distances():
    m = all_pairs_bfs(successor_array(3, [0, 1, 1, 2], [1, 0, 2, 1]))
    assert m.dist(0, 2) == 2
    assert m.dist(0, 0) == 0
    assert np.array_equal(dense(m), dense(m).T)


def test_disconnected_components():
    m = all_pairs_bfs(successor_array(3, [0, 1], [1, 0]))
    assert m.dist(0, 2) == INFINITE
    assert math.isinf(dense(m)[0, 2])
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


def test_int_table_wrapper():
    m = block_metric([[0, 1, -1], [1, 0, -1], [-1, -1, 0]])
    assert m.dist(0, 1) == 1
    assert m.dist(0, 2) == INFINITE
    assert m.table.tolist() == [0, 1, 1, 0, 0]
    assert dense(m).tolist() == [[0, 1, math.inf], [1, 0, math.inf], [math.inf] * 2 + [0]]


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


# Block metrics against the dense tables they replaced.


@st.composite
def symmetric_graphs(draw, sizes=(0, 1, 2, 5, 9, 17, 34)):
    """(n, succ): a random symmetric successor array on n vertices, often
    disconnected, with isolated vertices, and on I3's 34 elements with
    components that cut across its L-classes."""
    n = draw(st.sampled_from(sizes))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = draw(st.lists(pairs, max_size=2 * n)) if n else []
    both = sorted({(a, b) for a, b in edges if a != b} | {(b, a) for a, b in edges if a != b})
    u, v = (np.array([e[i] for e in both], dtype=np.intp) for i in (0, 1))
    return n, successor_array(n, u, v)


def dense_components(table):
    """Finite-distance classes read off the rows of a dense table."""
    seen, comps = set(), []
    for x in range(len(table)):
        if x not in seen:
            cls = tuple(np.flatnonzero(np.isfinite(table[x])).tolist())
            seen.update(cls)
            comps.append(cls)
    return tuple(comps)


def dense_metric_json(table):
    finite = np.isfinite(table)
    rows = np.where(finite, table, 0).astype(np.int64).astype(object)
    rows[~finite] = None
    return json.dumps({"size": len(table), "rows": rows.tolist()},
                      sort_keys=True, separators=(",", ":"))


def dense_metric_text(table, labels):
    blocks = []
    for comp in dense_components(table):
        cell = {(i, j): str(int(table[i, j])) for i in comp for j in comp}
        width = max([len(labels[i]) for i in comp] + [len(c) for c in cell.values()])
        lines = [" ".join([" " * width] + [labels[j].rjust(width) for j in comp])]
        for i in comp:
            lines.append(" ".join(
                [labels[i].rjust(width)] + [cell[i, j].rjust(width) for j in comp]
            ))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@given(symmetric_graphs())
@settings(max_examples=80, deadline=None)
def test_block_metric_matches_the_dense_search(graph):
    n, succ = graph
    metric, table = all_pairs_bfs(succ), dense_bfs(succ)
    assert np.array_equal(dense(metric), table)
    assert metric.components() == dense_components(table)
    assert metric.table.size == sum(len(c) ** 2 for c in metric.components())
    assert metric.max_finite() == int(table[np.isfinite(table)].max(initial=0))
    for x in range(n):
        for y in range(n):
            assert metric.dist(x, y) == table[x, y]
    x, y = np.divmod(np.arange(n * n), max(n, 1))
    assert np.array_equal(metric.distances(x, y, fill=INFINITE), table.ravel())
    labels = [f"e{i}" for i in range(n)]
    text = json.dumps(fileio.metric_to_json(metric), sort_keys=True, separators=(",", ":"))
    assert text == dense_metric_json(table)
    assert fileio.metric_to_text(metric, labels) == dense_metric_text(table, labels)


def dense_components_witness(monoid, table):
    dom = monoid.dom_table
    bad = np.argwhere(np.isfinite(table) != (dom[:, None] == dom[None, :]))
    return tuple(bad[0].tolist()) if bad.size else None


def dense_uniform_witness(monoid, table, f1):
    limit = int(table[np.isfinite(table)].max(initial=0))
    depth = bfs(word_successors(monoid, f1), np.arange(monoid.order), limit)
    bad = np.argwhere(np.isfinite(table) & ((depth == UNREACHED) | (depth > table)))
    return tuple(bad[0].tolist()) if bad.size else None


@given(symmetric_graphs(sizes=(34,)))
@settings(max_examples=40, deadline=None)
def test_predicate_witnesses_match_the_dense_sweeps(i3, graph):
    # on I3's elements, whatever the components: the least pair in
    # row-major order across all blocks
    _, succ = graph
    metric = all_pairs_bfs(succ)
    table = dense(metric)
    for f1 in (properness_loop(i3, metric)[1], (), i3.generating_set[:2]):
        report = validate_metric_predicates(i3, metric, f1=f1)
        assert report.components.witness == dense_components_witness(i3, table)
        check = report.uniform_properness
        assert check.witness == dense_uniform_witness(i3, table, tuple(sorted(f1)))


@st.composite
def stretched_metrics(draw):
    """(metric, maps): a random partition-shaped metric with small distances,
    its components often single points, and random point maps, which
    send many points into other components."""
    n = draw(st.integers(1, 12))
    label = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=int)
    values = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    table = np.where(label[:, None] == label, np.reshape(values, (n, n)), -1)
    columns = draw(st.integers(0, 3))
    maps = draw(st.lists(st.integers(0, n - 1), min_size=n * columns, max_size=n * columns))
    return block_metric(table), np.reshape(np.array(maps, dtype=int), (n, columns))


@given(stretched_metrics(), st.sampled_from([1, 2, 3, 7, extmetric.BLOCK_PAIRS]))
@settings(max_examples=150, deadline=None)
def test_first_increases_matches_the_per_component_oracle(case, block_pairs):
    # a small block size splits components across blocks
    metric, maps = case
    with mock.patch.object(extmetric, "BLOCK_PAIRS", block_pairs):
        blocks = list(metric.row_blocks())
        found = first_increases(metric, maps)
    # whole rows, component by component, fewer than block_pairs beyond the first
    width = metric.sizes[metric.label[np.concatenate(metric.points)]]
    assert all(x.size - metric.sizes[metric.label[x[0]]] < block_pairs for x, _, _ in blocks)
    x, y, d = (np.concatenate(part) for part in zip(*blocks))
    assert np.array_equal(x, np.repeat(np.concatenate(metric.points), width))
    assert np.array_equal(d, metric.table)
    assert np.array_equal(metric.distances(x, y), d)
    want = []
    for c, pts in enumerate(metric.points):
        for j in range(maps.shape[1]):
            bad = first_increase(metric, pts, maps[pts, j])
            if bad is not None:
                want.append((c, j, int(pts[bad[0]]), int(pts[bad[1]])))
    assert repr(found) == repr(want)


@pytest.mark.parametrize("name", ["i3", "i4"])
def test_one_entry_tampers_fail_with_the_dense_witness(name):
    built = build_example(name)
    monoid, word = built.monoid, cayley_metric(built.monoid, built.quasi_generators).metric
    table = dense(word)
    rng = np.random.default_rng(5)
    finite = np.argwhere(np.isfinite(table) & (table > 0))
    for s, _ in finite[rng.choice(len(finite), 8, replace=False)].tolist():
        # one point's label changed: s alone in its component
        bent = np.array(table)
        bent[s, :] = bent[:, s] = INFINITE
        bent[s, s] = 0
        check = validate_metric_predicates(monoid, block_metric(bent), f1=()).components
        assert not check.passed
        assert check.witness == dense_components_witness(monoid, bent)


@pytest.mark.parametrize("name", ["i4", "chain"])
def test_metrics_hold_one_block_per_component(name):
    if name == "chain":
        monoid = semilattice_times_group(chain_semilattice(4), cyclic_group_table(60))
        gens = (3 * 60 + 1, 3 * 60 + 59)
    else:
        built = build_example(name)
        monoid, gens = built.monoid, built.quasi_generators
    action = cayley_self_action(monoid, gens)
    metrics = [
        cayley_metric(monoid, gens).metric,
        action.presheaf.metric,
        rips_graph(action, monoid.identity, 2).metric,
    ]
    blocks = sum(len(c) ** 2 for c in monoid.lclasses)
    assert blocks < monoid.order ** 2 // 3
    for metric in metrics:
        assert metric.components() == tuple(sorted(monoid.lclasses))
        assert metric.table.shape == (blocks,)
        assert metric.table.dtype == np.int16
