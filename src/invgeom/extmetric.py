"""Unit-edge path metrics: one breadth-first kernel and the distance tables it fills.

Every metric in this package is the path metric of a graph with unit
edges, given as a successor array ``succ[u, j]``: for word metrics a
gathered block of product-table rows, for fiber and Rips graphs an
adjacency list padded with each vertex itself.  ``bfs`` searches such an
array from many sources at once and returns integer levels, with
UNREACHED for vertices a source does not reach.

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
            cls = np.flatnonzero(self.finite_mask[x])
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
    level at a time and one successor column at a time, with the level
    table itself as the visited set.

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
        found = []
        for j, col in enumerate(succ.T):
            key = frontier + (col[u] - u)
            fresh = flat[key] == UNREACHED
            key, first = np.unique(key[fresh], return_index=True)
            flat[key] = depth
            if parents:
                parent[key] = u[fresh][first]
                column[key] = j
            found.append(key)
        frontier = np.sort(np.concatenate(found)) if found else frontier[:0]
    if parents:
        return level, parent.reshape(level.shape), column.reshape(level.shape)
    return level


def trace_back(parent, column, row, target):
    """Vertices and columns of the recorded path from row's source to target."""
    vertices, columns = [int(target)], []
    while parent[row, vertices[-1]] >= 0:
        columns.append(int(column[row, vertices[-1]]))
        vertices.append(int(parent[row, vertices[-1]]))
    return vertices[::-1], columns[::-1]


def pad_adjacency(adjacency):
    """Successor array of an adjacency list, each row padded with its vertex."""
    n = len(adjacency)
    width = max(map(len, adjacency), default=0)
    succ = np.repeat(np.arange(n)[:, None], width, axis=1)
    for u, nbrs in enumerate(adjacency):
        succ[u, : len(nbrs)] = nbrs
    return succ


def all_pairs_bfs(succ):
    """Unit-edge path metric of a symmetric successor array; inf across components."""
    return metric_from_int_table(bfs(succ, np.arange(len(succ))))
