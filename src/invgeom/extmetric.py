"""Unit-edge path metrics: one breadth-first kernel and the distance tables it fills.

Every graph in this package is a successor array ``succ[u, j]``, and
every metric the path metric of one with unit edges: for word metrics a
gathered block of product-table rows, for fiber and Rips graphs each
vertex's sorted neighbours padded with the vertex itself
(``successor_array``).  ``bfs`` searches such an array from many sources
at once and returns integer levels, with UNREACHED for vertices a
source does not reach.

A symmetric metric is stored in a float64 table where ``math.inf`` marks
pairs in different components.  Finite values are integers, which
float64 represents exactly, so comparisons never hit rounding.
Callers compare them with fractional radii exactly, through integer
thresholds such as floor(R).
"""

import math
from dataclasses import dataclass

import numpy as np

INFINITE = math.inf
UNREACHED = -1  # unreached level; metric_from_int_table reads -1 as infinite


@dataclass(frozen=True, eq=False)
class ExtendedMetric:
    table: np.ndarray  # (m, m) float64, inf off-component

    @property
    def size(self):
        return int(self.table.shape[0])

    def dist(self, x, y):
        """Distance as an int, or math.inf across components."""
        v = self.table[x, y]
        return INFINITE if math.isinf(v) else int(v)

    @property
    def finite_mask(self):
        return np.isfinite(self.table)

    def max_finite(self):
        vals = self.table[self.finite_mask]
        return int(vals.max()) if vals.size else 0

    def components(self):
        """Finite-distance classes, each a tuple of indices."""
        m = self.size
        seen = np.zeros(m, dtype=bool)
        comps = []
        for x in range(m):
            if seen[x]:
                continue
            cls = np.flatnonzero(np.isfinite(self.table[x]))
            seen[cls] = True
            comps.append(tuple(int(i) for i in cls))
        return tuple(comps)


def metric_from_int_table(table):
    """Wrap an integer table using -1 as the infinite marker."""
    arr = np.asarray(table, dtype=np.float64)
    arr[arr < 0] = INFINITE
    arr.setflags(write=False)
    return ExtendedMetric(arr)


def bfs(succ, sources, limit=None, parents=False):
    """Breadth-first levels from each source over a successor array.

    ``succ[u, j]`` is the j-th successor of vertex u; a row may repeat u
    as padding.  Row i of the result holds the number of steps from
    ``sources[i]`` to every vertex, or UNREACHED where that source does
    not reach within ``limit`` steps.  All sources advance together, one
    level at a time, with the level table itself as the visited set.

    With ``parents`` the result is ``(level, parent, column)``: each
    reached vertex's predecessor on a shortest path and the successor
    column that led to it, -1 at the sources and where nothing was
    reached.  Ties are broken by the smallest column, then by the
    smallest predecessor: v's column is the least j with succ[u, j] = v
    for some u one level closer, and its parent the least such u.
    """
    succ = np.asarray(succ)
    n = succ.shape[0]
    sources = np.asarray(sources, dtype=np.intp)
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    level = np.full((sources.size, n), UNREACHED, dtype=dtype)
    flat = level.reshape(-1)
    if parents:
        parent = np.full_like(flat, -1)
        column = np.full_like(flat, -1)
    # the frontier as sorted keys row * n + vertex
    frontier = np.arange(sources.size) * n + sources
    flat[frontier] = 0
    depth = 0
    while frontier.size and (limit is None or depth < limit):
        depth += 1
        u = frontier % n
        # a column's fresh keys are marked at once, so no later column
        # finds them again; within a column they come in frontier order
        keys, picks = [frontier[:0]], [frontier[:0]]
        for j, col in enumerate(succ.T):
            key = frontier + (col[u] - u)
            fresh = np.flatnonzero(flat[key] == UNREACHED)
            key = key[fresh]
            flat[key] = depth
            keys.append(key)
            if parents:
                picks.append(fresh + j * u.size)
        key = np.concatenate(keys)
        if parents:
            # stably sorted, a key's first candidate has its least column,
            # then its least predecessor, as frontier keys are sorted
            order = np.argsort(key, kind="stable")
            key, pick = key[order], np.concatenate(picks)[order]
        else:
            key.sort()
        first = np.diff(key, prepend=-1) != 0
        frontier = key[first]
        if parents:
            parent[frontier] = u[pick[first] % u.size]
            column[frontier] = pick[first] // u.size
    if parents:
        return level, parent.reshape(level.shape), column.reshape(level.shape)
    return level


def trace_paths(level, parent, column, rows, targets):
    """Recorded paths from the sources of ``rows`` to ``targets``, walked together.

    ``level``, ``parent`` and ``column`` are the tables of ``bfs``.
    Returns ``(vertices, columns, steps)``: path i has steps[i] edges, row
    i of ``vertices`` lists its vertices from the source on, and row i of
    ``columns`` the successor column of each edge.  Past its end a path's
    vertices repeat its target and its columns read -1.  A target that its
    source does not reach gives a path of no steps.
    """
    rows = np.asarray(rows, dtype=np.intp)
    at = np.array(targets, dtype=np.intp)
    steps = np.maximum(level[rows, at], 0)
    width = int(steps.max(initial=0))
    vertices = np.repeat(at.astype(level.dtype)[:, None], width + 1, axis=1)
    columns = np.full((at.size, width), -1, dtype=level.dtype)
    for k in range(width):
        # paths longer than k take their k-th step back, along the edge
        # numbered steps - k - 1 into vertex steps - k
        live = np.flatnonzero(steps > k)
        edge = steps[live] - k - 1
        columns[live, edge] = column[rows[live], at[live]]
        at[live] = parent[rows[live], at[live]]
        vertices[live, edge] = at[live]
    return vertices, columns, steps


def successor_array(n, u, v):
    """Successor array of n vertices from edges u -> v, sorted by u, then v.

    Row u lists u's successors in increasing order, padded with u itself
    to the largest out-degree.  ``bfs`` breaks ties by column, so the
    order fixes its parent pointers.
    """
    u = np.asarray(u, dtype=np.intp)
    degree = np.bincount(u, minlength=n)
    succ = np.repeat(np.arange(n)[:, None], degree.max(initial=0), axis=1)
    first = np.cumsum(degree) - degree
    succ[u, np.arange(u.size) - first[u]] = v
    return succ


def all_pairs_bfs(succ):
    """Unit-edge path metric of a symmetric successor array; inf across components."""
    return metric_from_int_table(bfs(succ, np.arange(len(succ))))
