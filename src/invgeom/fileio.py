"""Readers and writers for the on-disk formats, plus DOT and matrix export.

Data files (generator, table, presheaf, action and metric files) are
compact canonical JSON: sorted keys, no whitespace, a trailing newline,
so save/load round trips are byte-exact.  Reports and ``qi`` output keep
a two-space indent.  The readers take any JSON layout, so files written
indented by earlier versions still load.  Undefined points of a partial
bijection are encoded as null, as are infinite distances and missing
edge labels.

The three tables that grow with the monoid, a table file's ``product``,
a presheaf file's ``restrict`` and an action file's ``act``, are written
to ``.npy`` sidecars, and the JSON field holds the sidecar's file name:
the JSON name without ``.json``, then ``.<field>.npy``, in the same
directory and resolved relative to it (``w.monoid.json`` gets
``w.monoid.product.npy``).  A sidecar is int16 when the field's bound
(the order for ``product``, the number of points otherwise) is at most
2**15 and int32 above, so its bytes depend only on the table's values.
The reader loads it without pickles and checks its integer dtype, its
shape and its range with array passes.  A field holding an inline list
of lists, as earlier versions wrote, still loads through the per-entry
check, the only one that can tell a JSON ``true`` from 1.
"""

import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .monoid import from_table, generate_monoid, generator_indices
from .partial_bijection import UNDEFINED, PartialBijection


def dumps_canonical(obj):
    """Reports' layout: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path, obj):
    """Write the data file ``obj`` as compact canonical JSON.

    Without an indent, json's C encoder serves the call.  It writes a
    float infinity as the invalid token Infinity, so callers pass None.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n")


def _read_json(path):
    """The JSON object in ``path``; every file format is one object."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level is not a JSON object")
    return data


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


def _save_index_table(path, field, table, bound):
    """Write ``table`` to the ``field`` sidecar of ``path``; return its name."""
    name = f"{Path(path).name.removesuffix('.json')}.{field}.npy"
    dtype = np.int16 if bound <= 2**15 else np.int32
    with open(Path(path).parent / name, "wb") as f:
        np.save(f, np.ascontiguousarray(table, dtype=dtype), allow_pickle=False)
    return name


def _index_table(value, shape, bound, path, field):
    """The int32 ``shape`` table of ints in [0, bound) that ``value`` holds.

    ``value`` is an inline list of lists or the name of a sidecar next to
    ``path``; anything else in the file or the sidecar is a ParseError.
    """
    if isinstance(value, list):
        _check_index_table(value, shape, bound, path, field)
        return np.asarray(value, dtype=np.int32)
    sidecar = Path(path).parent / value
    try:
        table = np.load(sidecar, allow_pickle=False)
    except (OSError, ValueError, EOFError, MemoryError) as exc:
        # MemoryError: a header can claim a shape too large to allocate
        raise ParseError(
            f"{sidecar}: {field} is not a readable .npy table ({exc})", field=field
        ) from exc
    if not isinstance(table, np.ndarray):
        table.close()
        raise ParseError(f"{sidecar}: {field} is not a .npy table", field=field)
    if table.dtype.kind not in "iu":
        raise ParseError(
            f"{sidecar}: {field} has dtype {table.dtype}, not an integer one",
            field=field,
        )
    if table.shape != shape:
        raise ParseError(
            f"{sidecar}: {field} is not an {shape[0]}x{shape[1]} table "
            f"(shape {table.shape})",
            field=field,
        )
    if table.size and (table.min() < 0 or table.max() >= bound):
        i, j = np.argwhere((table < 0) | (table >= bound))[0].tolist()
        raise ParseError(
            f"{sidecar}: {field}[{i}][{j}] = {table[i, j]} is not an index below "
            f"{bound}",
            field=field,
        )
    return table.astype(np.int32, copy=False)


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
    _write(path, data)


def load_generator_file(path):
    return _generators(path, _read_json(path))


def _generators(path, data):
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
        "product": _save_index_table(path, "product", monoid.product, monoid.order),
    }
    _write(path, data)


def _table(path, data):
    order = _require(data, "order", int, path)
    identity = _require(data, "identity", int, path)
    if not _is_index(identity, order):
        raise ParseError(f"{path}: identity {identity} out of range", field="identity")
    product = _require(data, "product", (list, str), path)
    return from_table(
        _index_table(product, (order, order), order, path, "product"), identity
    )


def load_monoid_any(path):
    """(monoid, indices of a generator file's generators, or None for a table)."""
    return _monoid(path, _read_json(path))


def _monoid(path, data):
    if "generators" in data:
        n, gens = _generators(path, data)
        monoid = generate_monoid(gens, ground_size=n)
        return monoid, generator_indices(monoid, gens)
    if "product" in data:
        return _table(path, data), None
    raise ParseError(f"{path}: neither a generator file nor a table file")


def load_input(path):
    """(monoid, gens, action or None) from a command's input file, read once.

    The first top-level field present of ``act`` (action file), ``generators``
    and ``product`` decides the kind; ``gens`` are the file's own, or None.
    """
    data = _read_json(path)
    if "act" in data:
        action, gens = load_action(path, data)
        return action.monoid, gens, action
    return (*_monoid(path, data), None)


def save_presheaf(path, presheaf):
    proj = presheaf.proj.tolist()
    fibers = [[] for _ in range(presheaf.base.size)]
    for u, v, label in presheaf.edges:
        fibers[proj[u]].append([u, v, None if label is None else int(label)])
    data = {
        "base": {
            "meet": presheaf.base.meet.tolist(),
            "labels": None
            if presheaf.base.labels is None
            else [int(e) for e in presheaf.base.labels],
        },
        "proj": proj,
        "restrict": _save_index_table(
            path, "restrict", presheaf.restrict, presheaf.num_points
        ),
        # a null label sorts before an int one on the same (u, v)
        "fibers": [
            sorted(edges, key=lambda e: (e[0], e[1], e[2] is not None, e[2] or 0))
            for edges in fibers
        ],
    }
    _write(path, data)


def load_presheaf(path):
    from .presheaf import MetricPresheaf, Semilattice

    data = _read_json(path)
    base = _require(data, "base", dict, path)
    meet = _require(base, "meet", list, f"{path}:base")
    labels = base.get("labels")
    proj = _require(data, "proj", list, path)
    restrict = _require(data, "restrict", (list, str), path)
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
    restrict = _index_table(restrict, (m, k), m, path, "restrict")
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
        "act": _save_index_table(path, "act", action.act, action.presheaf.num_points),
        "gens": None if gens is None else [int(g) for g in gens],
    }
    _write(path, data)


def load_action(path, data):
    """(action, stored gens or None) from the parsed action file at ``path``."""
    from .action import EtaleAction

    monoid_rel = _require(data, "monoid", str, path)
    presheaf_rel = _require(data, "presheaf", str, path)
    act = _require(data, "act", (list, str), path)
    gens = data.get("gens")
    root = Path(path).parent
    monoid, _ = load_monoid_any(root / monoid_rel)
    presheaf = load_presheaf(root / presheaf_rel)
    if presheaf.base.labels != monoid.idempotents:
        raise ParseError(
            f"{root / presheaf_rel}: labels are not the monoid's idempotents in order",
            field="labels",
        )
    points = presheaf.num_points
    act = _index_table(act, (points, monoid.order), points, path, "act")
    if gens is not None:
        _check_index_list(gens, monoid.order, path, "gens")
    action = EtaleAction(monoid=monoid, presheaf=presheaf, act=act)
    return action, None if gens is None else tuple(gens)


def metric_to_json(metric):
    """The metric file's object, with null for each infinite distance."""
    table = metric.table
    finite = np.isfinite(table)
    rows = np.where(finite, table, 0).astype(np.int64).astype(object)
    rows[~finite] = None
    return {"size": metric.size, "rows": rows.tolist()}


def save_metric(path, metric):
    _write(path, metric_to_json(metric))


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


def dot_graph(name, nodes, edges, directed=True):
    """DOT text of a graph, with nodes and edges in the order given.

    ``nodes`` are (vertex, label) pairs and ``edges`` (u, v, label)
    triples; an edge label of None writes no label attribute.
    """
    kind, arrow = ("digraph", "->") if directed else ("graph", "--")
    lines = [f"{kind} {name} {{"]
    lines += [f"  {v} [label={_dot_quote(label)}];" for v, label in nodes]
    for u, v, label in edges:
        attr = "" if label is None else f" [label={_dot_quote(label)}]"
        lines.append(f"  {u} {arrow} {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
