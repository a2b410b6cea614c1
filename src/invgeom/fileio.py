"""Readers and writers for the on-disk formats, plus DOT and matrix export.

All structured files are canonical JSON (sorted keys, two-space indent,
trailing newline), so save/load round-trips are byte-exact.  Undefined
points of a partial bijection are encoded as null, as are infinite
distances and missing edge labels.
"""

import json
import math
from pathlib import Path

import numpy as np

from .action import EtaleAction
from .errors import ParseError
from .monoid import from_table, generate_monoid
from .partial_bijection import UNDEFINED, PartialBijection
from .presheaf import MetricPresheaf, Semilattice


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path, text):
    Path(path).write_text(text)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def _require(data, field, kind, path):
    if field not in data:
        raise ParseError(f"{path}: missing field {field!r}", field=field)
    value = data[field]
    if kind is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ParseError(
            f"{path}: field {field!r} has type {type(value).__name__}",
            field=field,
        )
    return value


def _is_index(value, bound):
    """True for an int (not a bool) in [0, bound)."""
    return type(value) is int and 0 <= value < bound


def _check_index_table(rows, shape, bound, path, field):
    """ParseError unless ``rows`` is a ``shape`` table of ints in [0, bound)."""
    if len(rows) != shape[0] or any(
        not isinstance(r, list) or len(r) != shape[1] for r in rows
    ):
        raise ParseError(
            f"{path}: {field} is not an {shape[0]}x{shape[1]} table", field=field
        )
    for i, row in enumerate(rows):
        if set(map(type, row)) <= {int} and 0 <= min(row) and max(row) < bound:
            continue  # bools and floats are other types
        j, v = next((j, v) for j, v in enumerate(row) if not _is_index(v, bound))
        raise ParseError(
            f"{path}: {field}[{i}][{j}] = {v!r} is not an index below {bound}",
            field=field,
        )


def _check_index_list(values, bound, path, field):
    """ParseError unless ``values`` is a list of ints in [0, bound)."""
    if not isinstance(values, list):
        raise ParseError(f"{path}: {field} is not a list", field=field)
    for i, v in enumerate(values):
        if not _is_index(v, bound):
            raise ParseError(
                f"{path}: {field}[{i}] = {v!r} is not an index below {bound}",
                field=field,
            )


def save_generator_file(path, ground_size, generators):
    data = {
        "ground_size": int(ground_size),
        "generators": [list(g.image) for g in generators],
    }
    _write(path, dumps_canonical(data))


def load_generator_file(path):
    data = _read_json(path)
    n = _require(data, "ground_size", int, path)
    if n < 1:
        raise ParseError(f"{path}: ground_size must be positive", field="ground_size")
    rows = _require(data, "generators", list, path)
    gens = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(
                f"{path}: generator {i} is not a length-{n} array",
                field="generators",
            )
        for j, v in enumerate(row):
            if v is not None and not _is_index(v, n):
                raise ParseError(
                    f"{path}: generators[{i}][{j}] = {v!r} is not null or a "
                    f"point below {n}",
                    field="generators",
                )
        try:
            gens.append(
                PartialBijection(n, tuple(UNDEFINED if v is None else v for v in row))
            )
        except ValueError as exc:
            raise ParseError(
                f"{path}: generator {i}: {exc}", field="generators"
            ) from exc
    return n, gens


def save_monoid_table(path, monoid):
    data = {
        "order": monoid.order,
        "identity": monoid.identity,
        "product": [[int(v) for v in row] for row in monoid.product],
    }
    _write(path, dumps_canonical(data))


def load_monoid_table(path):
    data = _read_json(path)
    order = _require(data, "order", int, path)
    identity = _require(data, "identity", int, path)
    if not _is_index(identity, order):
        raise ParseError(f"{path}: identity {identity} out of range", field="identity")
    product = _require(data, "product", list, path)
    _check_index_table(product, (order, order), order, path, "product")
    return from_table(product, identity)


def load_monoid_any(path):
    """Load either a generator file or a table file.

    Returns (monoid, generator_indices) where the indices are the file
    generators located inside the built monoid, or None for table files.
    """
    data = _read_json(path)
    if "generators" in data:
        n, gens = load_generator_file(path)
        monoid = generate_monoid(gens, ground_size=n)
        index = {f.image: i for i, f in enumerate(monoid.elements)}
        return monoid, tuple(sorted({index[g.image] for g in gens}))
    if "product" in data:
        return load_monoid_table(path), None
    raise ParseError(f"{path}: neither a generator file nor a table file")


def save_presheaf(path, presheaf):
    k = presheaf.base.size
    fibers = [[] for _ in range(k)]
    for u, v, label in presheaf.edges:
        fibers[int(presheaf.proj[u])].append(
            [u, v, None if label is None else int(label)]
        )
    data = {
        "base": {
            "meet": [[int(v) for v in row] for row in presheaf.base.meet],
            "labels": None
            if presheaf.base.labels is None
            else [int(e) for e in presheaf.base.labels],
        },
        "proj": [int(v) for v in presheaf.proj],
        "restrict": [[int(v) for v in row] for row in presheaf.restrict],
        "fibers": [sorted(edges) for edges in fibers],
    }
    _write(path, dumps_canonical(data))


def load_presheaf(path):
    data = _read_json(path)
    base = _require(data, "base", dict, path)
    meet = _require(base, "meet", list, f"{path}:base")
    labels = base.get("labels")
    proj = _require(data, "proj", list, path)
    restrict = _require(data, "restrict", list, path)
    fibers = _require(data, "fibers", list, path)
    k, m = len(meet), len(proj)
    _check_index_table(meet, (k, k), k, path, "meet")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == k
        and all(type(e) is int for e in labels)
    ):
        raise ParseError(
            f"{path}: labels is not a list of {k} element indices", field="labels"
        )
    _check_index_list(proj, k, path, "proj")
    _check_index_table(restrict, (m, k), m, path, "restrict")
    edges = []
    for i, fiber_edges in enumerate(fibers):
        if not isinstance(fiber_edges, list):
            raise ParseError(f"{path}: fibers[{i}] is not a list", field="fibers")
        for entry in fiber_edges:
            if not (
                isinstance(entry, list) and len(entry) == 3
                and _is_index(entry[0], m) and _is_index(entry[1], m)
                and (entry[2] is None or type(entry[2]) is int)
            ):
                raise ParseError(
                    f"{path}: fiber edge {entry!r} is not [u, v, label] with "
                    f"points below {m} and an integer or null label",
                    field="fibers",
                )
            edges.append(tuple(entry))
    lattice = Semilattice(
        meet=np.asarray(meet, dtype=np.int32),
        labels=None if labels is None else tuple(labels),
    )
    return MetricPresheaf.build(lattice, proj, restrict, edges)


def save_action(path, action, monoid_path, presheaf_path, gens=None):
    data = {
        "monoid": str(monoid_path),
        "presheaf": str(presheaf_path),
        "act": [[int(v) for v in row] for row in action.act],
        "gens": None if gens is None else [int(g) for g in gens],
    }
    _write(path, dumps_canonical(data))


def load_action(path):
    """Returns (action, gens) where gens is the stored set or None."""
    data = _read_json(path)
    monoid_rel = _require(data, "monoid", str, path)
    presheaf_rel = _require(data, "presheaf", str, path)
    act = _require(data, "act", list, path)
    gens = data.get("gens")
    root = Path(path).parent
    monoid, _ = load_monoid_any(root / monoid_rel)
    presheaf = load_presheaf(root / presheaf_rel)
    points = presheaf.num_points
    _check_index_table(act, (points, monoid.order), points, path, "act")
    if gens is not None:
        _check_index_list(gens, monoid.order, path, "gens")
    action = EtaleAction(
        monoid=monoid,
        presheaf=presheaf,
        act=np.asarray(act, dtype=np.int32),
    )
    return action, None if gens is None else tuple(gens)


def metric_to_json(metric):
    rows = [
        [None if math.isinf(v) else int(v) for v in row]
        for row in metric.table
    ]
    return {"size": metric.size, "rows": rows}


def save_metric(path, metric):
    _write(path, dumps_canonical(metric_to_json(metric)))


def load_metric(path):
    from .extmetric import INFINITE, ExtendedMetric

    data = _read_json(path)
    size = _require(data, "size", int, path)
    rows = _require(data, "rows", list, path)
    if len(rows) != size:
        raise ParseError(f"{path}: expected {size} rows", field="rows")
    table = np.full((size, size), INFINITE, dtype=np.float64)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v is not None:
                table[i, j] = v
    table.setflags(write=False)
    return ExtendedMetric(table)


def metric_to_text(metric, labels=None, components=None):
    """Fixed-width grid per component; 'inf' never appears inside one."""
    if components is None:
        components = metric.components()
    if labels is None:
        labels = [str(i) for i in range(metric.size)]
    blocks = []
    for comp in components:
        comp = list(comp)
        width = max(
            [len(labels[i]) for i in comp]
            + [
                len(str(metric.dist(i, j)))
                for i in comp
                for j in comp
            ]
        )
        header = " ".join(
            [" " * width] + [labels[j].rjust(width) for j in comp]
        )
        lines = [header]
        for i in comp:
            cells = [str(metric.dist(i, j)).rjust(width) for j in comp]
            lines.append(" ".join([labels[i].rjust(width)] + cells))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _dot_quote(text):
    return '"' + str(text).replace('"', '\\"') + '"'


def dot_labeled_digraph(graph, vertex_labels=None, edge_label=str, name="cayley"):
    lines = [f"digraph {name} {{"]
    for v in range(graph.num_vertices):
        label = vertex_labels[v] if vertex_labels else str(v)
        lines.append(f"  {v} [label={_dot_quote(label)}];")
    for s, t, g in sorted(graph.edges):
        lines.append(f"  {s} -> {t} [label={_dot_quote(edge_label(g))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_fiber(presheaf, e, vertex_labels=None, edge_label=str):
    """One fiber graph as DOT, with edge labels."""
    lines = [f"digraph fiber_{e} {{"]
    for v in presheaf.fiber(e):
        label = vertex_labels[v] if vertex_labels else str(v)
        lines.append(f"  {v} [label={_dot_quote(label)}];")
    for u, v, label in sorted(
        (u, v, g) for u, v, g in presheaf.edges if presheaf.proj[u] == e
    ):
        text = "" if label is None else edge_label(label)
        lines.append(f"  {u} -> {v} [label={_dot_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_rips(rips, vertex_labels=None):
    lines = [f"graph rips_{rips.radius.numerator}_{rips.radius.denominator} {{"]
    for v in range(rips.order):
        label = vertex_labels[v] if vertex_labels else str(v)
        lines.append(f"  {v} [label={_dot_quote(label)}];")
    for s, t in sorted(rips.edges()):
        lines.append(f"  {s} -- {t};")
    lines.append("}")
    return "\n".join(lines) + "\n"
