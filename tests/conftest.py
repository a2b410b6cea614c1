"""Shared fixtures and independent oracles."""

import json
import math
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from invgeom import PartialBijection, cayley_self_action, symmetric_inverse_monoid
from invgeom.extmetric import UNREACHED, ExtendedMetric, bfs, classes, narrow


def enumerate_partial_bijections(n):
    """Every partial bijection on n points, by brute force.

    Independent of the closure construction: picks a domain subset, a
    range subset of equal size, and a bijection between them.
    """
    out = set()
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for ran in combinations(range(n), k):
                for perm in permutations(ran):
                    img = [None] * n
                    for x, y in zip(dom, perm):
                        img[x] = y
                    out.add(tuple(img))
    return {PartialBijection(n, img) for img in out}


def read_metric_file(path):
    """The distance table of a metric file, each null read as infinity."""
    data = json.loads(Path(path).read_text())
    size = data["size"]
    rows = [[math.inf if v is None else v for v in row] for row in data["rows"]]
    return np.array(rows, dtype=np.float64).reshape(size, size)


def dense(metric):
    """The N x N float64 table of a metric, inf across components."""
    out = np.full((metric.size, metric.size), math.inf)
    for c, pts in enumerate(metric.points):
        out[np.ix_(pts, pts)] = metric.block(c)
    return out


def dense_bfs(succ):
    """The path metric of a symmetric successor array as one N x N table,
    by a search from every vertex at once, inf where none reaches."""
    level = bfs(succ, np.arange(len(succ))).astype(np.float64)
    level[level < 0] = math.inf
    return level


def block_metric(table):
    """The metric of an N x N table, with -1 or inf across components.

    The finite pairs must be the pairs of classes of a partition."""
    table = np.asarray(table, dtype=np.float64)
    finite = np.isfinite(table) & (table >= 0)
    least = finite.argmax(axis=1)
    label = np.searchsorted(np.flatnonzero(least == np.arange(len(table))), least)
    assert np.array_equal(finite, label[:, None] == label[None, :]), "not a partition"
    points = classes(label)
    blocks = [table[np.ix_(pts, pts)].ravel() for pts in points]
    flat = np.concatenate([np.zeros(0), *blocks]).astype(np.int64)
    return ExtendedMetric(label, points, narrow(flat))


def first_increase(metric, points, images):
    """The least (i, j) with d(images[i], images[j]) > d(points[i], points[j]).

    An infinite distance exceeds every finite one but not itself.  None
    when no pair increases.  The oracle of ``extmetric.first_increases``,
    one component and one map at a time.
    """
    before, after = metric.among(points), metric.among(images)
    bad = (before != UNREACHED) & ((after == UNREACHED) | (after > before))
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), len(points))


def qi_bounds_hold(report, mapped, da, db):
    """(1/L) d - C <= d' <= L d + C on every finite pair, exactly: d from
    ``da``, d' from ``db`` at the mapped points, (L, C) from a QiReport."""
    mask = np.isfinite(da)
    a = da[mask].astype(np.int64)
    b = db[np.ix_(mapped, mapped)][mask].astype(np.int64)
    L, C = report.mult, report.add
    pairs = zip(a.tolist(), b.tolist())
    return all(Fraction(x) / L - C <= y <= L * x + C for x, y in pairs)


# The fields data files keep in .npy sidecars, and the two layouts a
# reader must take: a sidecar's name, or an inline list of lists.
SIDECAR_FIELDS = ("product", "restrict", "act")
LAYOUTS = ("inline", "sidecar")


def sidecars(path):
    """The sidecar paths the data file at ``path`` names, by field."""
    path = Path(path)
    data = json.loads(path.read_text())
    return {
        f: path.parent / data[f]
        for f in SIDECAR_FIELDS
        if isinstance(data.get(f), str)
    }


def data_file_bytes(path):
    """The bytes of the data file at ``path`` and of each sidecar it names."""
    files = [Path(path), *sidecars(path).values()]
    return {f.name: f.read_bytes() for f in files}


def copy_data_file(path, out_dir):
    """Copy the data file at ``path`` and its sidecars into ``out_dir``."""
    for f in [Path(path), *sidecars(path).values()]:
        (Path(out_dir) / f.name).write_bytes(f.read_bytes())


def inline_tables(path):
    """Rewrite the data file at ``path`` with every sidecar table inline,
    the layout earlier versions wrote; the sidecars stay on disk."""
    path = Path(path)
    data = json.loads(path.read_text())
    for field, sidecar in sidecars(path).items():
        data[field] = np.load(sidecar).tolist()
    path.write_text(json.dumps(data))


def set_table_entries(path, field, layout, entries):
    """Set entries, {(row, column): value}, of a table of a data file.

    With layout "inline" the table goes into the JSON file as a list of
    lists.  With "sidecar" the sidecar is rewritten in the dtype numpy
    gives the new values: a float makes a float table, and a bool a bool
    table, whose other entries then read as booleans too.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    sidecar = path.parent / data[field]
    table = np.load(sidecar)
    if layout == "inline":
        rows = table.tolist()
        for (i, j), v in entries.items():
            rows[i][j] = v
        data[field] = rows
        path.write_text(json.dumps(data))
    else:
        table = table.astype(np.asarray(list(entries.values())).dtype)
        for index, v in entries.items():
            table[index] = v
        np.save(sidecar, table)


def transposition_indices(monoid, n):
    index = {f.image: i for i, f in enumerate(monoid.elements)}
    return tuple(
        index[PartialBijection.transposition(n, i, j).image]
        for i in range(n)
        for j in range(i + 1, n)
    )


@pytest.fixture(scope="session")
def i2():
    return symmetric_inverse_monoid(2)


@pytest.fixture(scope="session")
def i3():
    return symmetric_inverse_monoid(3)


@pytest.fixture(scope="session")
def i4():
    return symmetric_inverse_monoid(4)


@pytest.fixture(scope="session")
def i2_swap(i2):
    """Index of the transposition in I2."""
    return transposition_indices(i2, 2)[0]


@pytest.fixture(scope="session")
def i3_transpositions(i3):
    return transposition_indices(i3, 3)


@pytest.fixture(scope="session")
def i4_transpositions(i4):
    return transposition_indices(i4, 4)


@pytest.fixture(scope="session")
def i2_action(i2, i2_swap):
    return cayley_self_action(i2, (i2_swap,))


@pytest.fixture(scope="session")
def i3_action(i3, i3_transpositions):
    return cayley_self_action(i3, i3_transpositions)
