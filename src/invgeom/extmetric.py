"""Unit-edge path metrics: one breadth-first kernel and the distance blocks it fills.

Every graph in this package is a successor array ``succ[u, j]``, and
every metric the path metric of one with unit edges: for word metrics a
gathered block of product-table rows, for fiber and Rips graphs each
vertex's sorted neighbours padded with the vertex itself
(``successor_array``).  ``bfs`` searches such an array from many sources
at once and returns integer levels, with UNREACHED for vertices a
source does not reach.

An extended metric is finite exactly within its components, and
``ExtendedMetric`` stores it that way: a component label per point, the
points of each component in increasing order, and one flat integer
``table`` holding each component's |C| x |C| distances as consecutive
row-major blocks, in int16, or in int32 when a distance needs it.  The
distance between components is infinite and stored nowhere, so no array
has an entry per pair of points.  Distances are integers, so comparisons
with fractional radii go through integer thresholds such as floor(R).
Sweeps over all pairs run a block at a time, and where a dense sweep
would report its first pair in row-major order, the blocks report the
least key x * m + y among them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

INFINITE = math.inf
UNREACHED = -1  # unreached level, and the distance across components
BLOCK_PAIRS = 1 << 16  # pairs per block of a sweep over a metric's finite pairs


@dataclass(frozen=True, eq=False)
class ExtendedMetric:
    label: np.ndarray  # (m,) component of each point, numbered by least point
    points: tuple      # each component's points, increasing
    table: np.ndarray  # the components' distance blocks, one after another
    sizes: np.ndarray = field(init=False, repr=False)     # points per component
    position: np.ndarray = field(init=False, repr=False)  # index within its component
    offset: np.ndarray = field(init=False, repr=False)    # where each block starts
    row_start: np.ndarray = field(init=False, repr=False)  # where each row starts

    def __post_init__(self):
        sizes = np.array([p.size for p in self.points], dtype=np.intp)
        position = np.empty(self.label.size, dtype=np.intp)
        if position.size:
            starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
            position[np.concatenate(self.points)] = np.arange(position.size) - starts
        offset = np.concatenate([[0], np.cumsum(sizes * sizes)]).astype(np.intp)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "offset", offset)
        start = offset[self.label] + position * sizes[self.label]
        object.__setattr__(self, "row_start", start)

    @property
    def size(self):
        return int(self.label.shape[0])

    def dist(self, x, y):
        """Distance as an int, or math.inf across components."""
        if self.label[x] != self.label[y]:
            return INFINITE
        return int(self.table[self.row_start[x] + self.position[y]])

    def distances(self, x, y, fill=UNREACHED):
        """d(x, y) over broadcast index arrays, ``fill`` across components.

        With the default fill the result has the table's integer dtype;
        with ``fill=INFINITE`` it is float64, exact on integers.
        """
        same = self.label[x] == self.label[y]
        key = np.where(same, self.row_start[x] + self.position[y], 0)
        return np.where(same, self.table[key], fill)

    def among(self, pts):
        """d over pts x pts, one gather from a block when pts share a component."""
        c = self.label[pts]
        if not (pts.size and np.all(c == c[0])):
            return self.distances(pts[:, None], pts)
        at = self.position[pts]
        return self.block(c[0])[at[:, None], at]

    def pairs(self, rows):
        """(x, y, d(x, y)) for every finite pair with x in ``rows``, in row-major
        order when ``rows`` increase."""
        c = self.label[rows]
        width = self.sizes[c]
        x = np.repeat(rows, width)
        # pair i is the k-th of its row, k = i - before, and y is the k-th
        # point of x's component
        before = np.cumsum(width) - width
        i = np.arange(x.size)
        first = np.cumsum(self.sizes) - self.sizes
        y = np.concatenate(self.points)[i + np.repeat(first[c] - before, width)]
        return x, y, self.table[i + np.repeat(self.row_start[rows] - before, width)]

    def row_blocks(self):
        """(x, y, d) as ``pairs`` gives them for every row, a block at a time.
        Rows come component by component, increasing within each, so a
        block's pairs are a run of ``table``, which ``d`` is, and each
        component's are in row-major order.  A block holds under
        BLOCK_PAIRS pairs beyond its first row's."""
        rows = np.concatenate([np.zeros(0, dtype=np.intp), *self.points])
        ends = np.cumsum(self.sizes[self.label[rows]])
        cuts = np.arange(BLOCK_PAIRS, ends[-1] if ends.size else 0, BLOCK_PAIRS)
        for block in np.split(rows, np.searchsorted(ends, cuts, "right")):
            if block.size:
                x, y, _ = self.pairs(block)
                start = self.row_start[block[0]]
                yield x, y, self.table[start : start + x.size]

    def block(self, c):
        """Component c's distances, rows and columns in ``points[c]`` order."""
        k = self.sizes[c]
        return self.table[self.offset[c] : self.offset[c + 1]].reshape(k, k)

    def row(self, x):
        """(points, distances): x's component and the distance to each point."""
        c = self.label[x]
        return self.points[c], self.block(c)[self.position[x]]

    def max_finite(self):
        return int(self.table.max(initial=0))

    def components(self):
        """Finite-distance classes, each a tuple of indices, by least index."""
        return tuple(tuple(pts.tolist()) for pts in self.points)


def classes(label, count=0):
    """Each class's indices, increasing: class c is {x : label[x] = c}, for
    every c below ``count`` and up to the largest label."""
    label = np.asarray(label, dtype=np.intp)
    if not (label.size or count):
        return ()
    order = np.argsort(label, kind="stable")
    bounds = np.cumsum(np.bincount(label, minlength=count))[:-1]
    return tuple(np.split(order, bounds))


def narrow(table):
    """An integer table in int16, or in int32 when a value needs it."""
    high = int(table.max(initial=0))
    dtype = np.int16 if high <= np.iinfo(np.int16).max else np.int32
    return table.astype(dtype, copy=False)


def bfs(succ, sources, limit=None, parents=False, spans=None):
    """Breadth-first levels from each source over a successor array.

    ``succ[u, j]`` is the j-th successor of vertex u; a row may repeat u
    as padding.  Row i of the result holds the number of steps from
    ``sources[i]`` to every vertex, or UNREACHED where that source does
    not reach within ``limit`` steps.  All sources advance together, one
    level at a time, with the level table itself as the visited set.

    With ``spans``, a pair of arrays (lo, hi), the search from sources[i]
    covers the vertices lo[i] .. hi[i] - 1 alone, which no edge from them
    may leave.  Row i then holds the levels of those vertices only, and
    the rows come concatenated in one flat array.

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
    if spans is None:
        lo, width = np.zeros_like(sources), np.full_like(sources, n)
    else:
        lo = np.asarray(spans[0], dtype=np.intp)
        width = np.asarray(spans[1], dtype=np.intp) - lo
    top = n if spans is None else int(width.max(initial=0))
    dtype = np.int16 if top <= np.iinfo(np.int16).max else np.int32
    flat = np.full(int(width.sum()), UNREACHED, dtype=dtype)
    if parents:
        parent = np.full_like(flat, -1)
        column = np.full_like(flat, -1)
    # the frontier as sorted keys: vertex v of row i at start[i] + v - lo[i]
    start = np.cumsum(width) - width
    frontier = start + sources - lo
    flat[frontier] = 0
    depth = 0
    while frontier.size and (limit is None or depth < limit):
        depth += 1
        if spans is None:
            u = frontier % n
        else:
            row = np.searchsorted(start, frontier, side="right") - 1
            u = frontier - start[row] + lo[row]
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
    shape = (sources.size, n) if spans is None else flat.shape
    if parents:
        return flat.reshape(shape), parent.reshape(shape), column.reshape(shape)
    return flat.reshape(shape)


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
    """Unit-edge path metric of a symmetric successor array; inf across components.

    The components come first: every vertex takes the least label among
    itself and its successors, then the label of its label, until nothing
    changes, which leaves each component labelled by its least vertex.
    Renumbered component by component, the vertices are then searched
    from all at once, each within its own component, so the levels come
    out as the metric's table, block by block.
    """
    succ = np.asarray(succ, dtype=np.intp)
    n = succ.shape[0]
    least = np.arange(n)
    while True:
        lower = np.minimum(least, least[succ].min(axis=1, initial=n))
        lower = lower[lower]
        if np.array_equal(lower, least):
            break
        least = lower
    label = np.searchsorted(np.flatnonzero(least == np.arange(n)), least)
    points = classes(label)
    order = np.argsort(label, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    counts = np.bincount(label)
    lo = np.repeat(np.cumsum(counts) - counts, counts)
    levels = bfs(rank[succ[order]], np.arange(n), spans=(lo, lo + np.repeat(counts, counts)))
    table = narrow(levels)
    table.setflags(write=False)
    return ExtendedMetric(label, points, table)


def class_pairs(label):
    """Every pair (x, y) with label[x] = label[y], in row-major order."""
    label = np.asarray(label, dtype=np.intp)
    if not label.size:
        return label, label
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    width = sizes[label]
    x = np.repeat(np.arange(label.size), width)
    # x's partners are its class in increasing order: order[start:start + width]
    y = np.arange(x.size)
    y += np.repeat((np.cumsum(sizes) - sizes)[label] - (np.cumsum(width) - width), width)
    return x, order[y]


def first_split(a, b):
    """The least (x, y) in row-major order on which two partitions disagree.

    Points x and y are in one class of ``a`` but not of ``b``, or the
    other way round; None when the partitions are equal.  x has such a
    partner iff its two classes and their intersection differ in size.
    """
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if not a.size:
        return None
    order = np.lexsort((b, a))
    fresh = np.ones(a.size, dtype=bool)
    fresh[1:] = (np.diff(a[order]) != 0) | (np.diff(b[order]) != 0)
    run = np.cumsum(fresh) - 1
    both = np.empty(a.size, dtype=np.intp)
    both[order] = np.bincount(run)[run]
    split = (both != np.bincount(a)[a]) | (both != np.bincount(b)[b])
    if not split.any():
        return None
    x = int(np.argmax(split))
    return x, int(np.argmax((a == a[x]) != (b == b[x])))


def first_increases(metric, maps):
    """Sorted (c, j, x, y) for each component c that column j of ``maps``
    stretches: (x, y) is the least pair of c in row-major order with
    d(maps[x, j], maps[y, j]) > d(x, y), infinity exceeding every finite
    distance.  The pairs are read ``row_blocks`` at a time.
    """
    maps = np.asarray(maps, dtype=np.intp).T
    # d(gx, gy) sits in table at head[x] + tail[y] when gx and gy share a
    # component; across components the label terms put the sum outside it
    size = metric.table.size
    head = metric.row_start[maps] + 2 * size * metric.label[maps]
    tail = metric.position[maps] - 2 * size * metric.label[maps]
    found = {}
    for x, y, before in metric.row_blocks():
        for j, (h, t) in enumerate(zip(head, tail)):
            key = h.take(x) + t.take(y)
            after = metric.table.take(key, mode="clip")
            bad = np.flatnonzero((key < 0) | (key >= size) | (after > before))
            if bad.size:
                # each component's first in the block, unless an earlier block had one
                firsts = np.unique(metric.label[x[bad]], return_index=True)[1]
                for i in bad[firsts].tolist():
                    found.setdefault((int(metric.label[x[i]]), j), (int(x[i]), int(y[i])))
    return sorted((c, j, x, y) for (c, j), (x, y) in found.items())
