import json
from dataclasses import replace

import numpy as np
import pytest

from invgeom import (
    ParseError,
    PartialBijection,
    cayley_metric,
    cayley_presheaf,
    cayley_self_action,
    from_table,
    rips_graph,
)
from invgeom import fileio
from invgeom.action import EtaleAction
from invgeom.cayley import word_successors
from invgeom.cli import main
from invgeom.families import build_example, symmetric_inverse_generators
from invgeom.presheaf import MetricPresheaf, Semilattice

from conftest import (
    LAYOUTS,
    block_metric,
    data_file_bytes,
    dense,
    inline_tables,
    read_metric_file,
    set_table_entries,
    sidecars,
)


def test_generator_file_round_trip(tmp_path):
    path = tmp_path / "gens.json"
    gens = [
        PartialBijection.transposition(3, 0, 1),
        PartialBijection.partial_identity(3, [0, 1]),
    ]
    fileio.save_generator_file(path, 3, gens)
    n, loaded = fileio.load_generator_file(path)
    assert n == 3 and loaded == gens
    # undefined entries are JSON null
    raw = json.loads(path.read_text())
    assert raw["generators"][1][2] is None
    fileio.save_generator_file(tmp_path / "again.json", n, loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_monoid_table_round_trip(tmp_path, i2):
    path = tmp_path / "m.json"
    fileio.save_monoid_table(path, i2)
    loaded, gens, action = fileio.load_input(path)
    assert gens is None and action is None
    assert np.array_equal(loaded.product, i2.product)
    assert loaded.identity == i2.identity
    (tmp_path / "again").mkdir()
    fileio.save_monoid_table(tmp_path / "again" / "m.json", loaded)
    assert json.loads(path.read_text())["product"] == "m.product.npy"
    assert data_file_bytes(tmp_path / "again" / "m.json") == data_file_bytes(path)


def test_load_monoid_any_from_generators(tmp_path):
    path = tmp_path / "gens.json"
    swap = PartialBijection.transposition(2, 0, 1)
    fileio.save_generator_file(path, 2, [swap, swap])
    monoid, gens = fileio.load_monoid_any(path)
    assert monoid.order == 2
    assert gens is not None and len(gens) == 1  # repeats are dropped


def test_presheaf_round_trip(tmp_path, i3, i3_transpositions):
    p = cayley_presheaf(i3, i3_transpositions)
    path = tmp_path / "p.json"
    fileio.save_presheaf(path, p)
    loaded = fileio.load_presheaf(path)
    assert np.array_equal(loaded.proj, p.proj)
    assert np.array_equal(loaded.restrict, p.restrict)
    assert np.array_equal(dense(loaded.metric), dense(p.metric))
    assert set(loaded.edges) == set(p.edges)
    (tmp_path / "again").mkdir()
    fileio.save_presheaf(tmp_path / "again" / "p.json", loaded)
    assert json.loads(path.read_text())["restrict"] == "p.restrict.npy"
    assert data_file_bytes(tmp_path / "again" / "p.json") == data_file_bytes(path)


def test_presheaf_with_a_null_and_an_int_label_on_one_pair_round_trips(tmp_path):
    base = Semilattice(meet=np.zeros((1, 1), dtype=np.int32))
    # label 0 first, so that a null label read as 0 would keep this order
    p = MetricPresheaf.build(base, [0, 0], [[0], [1]], [(0, 1, 0), (0, 1, None)])
    path = tmp_path / "p.json"
    fileio.save_presheaf(path, p)
    assert json.loads(path.read_text())["fibers"] == [[[0, 1, None], [0, 1, 0]]]
    loaded = fileio.load_presheaf(path)
    assert set(loaded.edges) == set(p.edges) == {(0, 1, None), (0, 1, 0)}
    (tmp_path / "again").mkdir()
    fileio.save_presheaf(tmp_path / "again" / "p.json", loaded)
    assert data_file_bytes(tmp_path / "again" / "p.json") == data_file_bytes(path)


def save_i2_action(out, i2, i2_swap, i2_action):
    """The I2 action's monoid, presheaf and action files in ``out``."""
    fileio.save_monoid_table(out / "m.json", i2)
    fileio.save_presheaf(out / "p.json", i2_action.presheaf)
    fileio.save_action(out / "a.json", i2_action, "m.json", "p.json", gens=(i2_swap,))
    return [out / name for name in ("m.json", "p.json", "a.json")]


def test_action_round_trip(tmp_path, i2, i2_swap, i2_action):
    paths = save_i2_action(tmp_path, i2, i2_swap, i2_action)
    monoid, gens, loaded = fileio.load_input(tmp_path / "a.json")
    assert gens == (i2_swap,)
    assert np.array_equal(loaded.act, i2_action.act)
    assert loaded.monoid.order == i2.order
    again = tmp_path / "again"
    again.mkdir()
    copies = save_i2_action(again, monoid, gens[0], loaded)
    assert [data_file_bytes(p) for p in copies] == [data_file_bytes(p) for p in paths]


def test_metric_round_trip(tmp_path, i2, i2_swap):
    cm = cayley_metric(i2, [i2_swap])
    path = tmp_path / "d.json"
    fileio.save_metric(path, cm.metric)
    table = read_metric_file(path)
    assert np.array_equal(table, dense(cm.metric))
    raw = json.loads(path.read_text())
    assert any(None in row for row in raw["rows"])  # infinities as null
    assert "Infinity" not in path.read_text()
    fileio.save_metric(tmp_path / "again.json", block_metric(table))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_data_files_are_compact_canonical_json(tmp_path, i2, i2_swap, i2_action):
    paths = save_i2_action(tmp_path, i2, i2_swap, i2_action)
    fileio.save_generator_file(tmp_path / "g.json", 2, list(i2.elements))
    fileio.save_metric(tmp_path / "d.json", cayley_metric(i2, [i2_swap]).metric)
    for path in [*paths, tmp_path / "g.json", tmp_path / "d.json"]:
        text = path.read_text()
        compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == compact + "\n", path.name
        assert text.count("\n") == 1 and " " not in text


def test_indented_data_files_still_load(tmp_path, i2, i2_swap, i2_action):
    paths = save_i2_action(tmp_path, i2, i2_swap, i2_action)
    fileio.save_generator_file(tmp_path / "g.json", 2, list(i2.elements))
    # the two-space layout earlier versions wrote data files in
    for path in [*paths, tmp_path / "g.json"]:
        path.write_text(fileio.dumps_canonical(json.loads(path.read_text())))
    monoid, gens, action = fileio.load_input(tmp_path / "a.json")
    assert np.array_equal(monoid.product, i2.product)
    assert monoid.identity == i2.identity and gens == (i2_swap,)
    assert np.array_equal(action.act, i2_action.act)
    assert np.array_equal(action.presheaf.restrict, i2_action.presheaf.restrict)
    assert set(action.presheaf.edges) == set(i2_action.presheaf.edges)
    table, _, _ = fileio.load_input(tmp_path / "m.json")
    assert np.array_equal(table.product, i2.product)
    assert fileio.load_generator_file(tmp_path / "g.json") == (2, list(i2.elements))
    # the layout before sidecars: every table inline, and no .npy file
    for path in paths:
        inline_tables(path)
    for path in tmp_path.glob("*.npy"):
        path.unlink()
    monoid, gens, action = fileio.load_input(tmp_path / "a.json")
    assert np.array_equal(monoid.product, i2.product) and gens == (i2_swap,)
    # an inline table is held at its sidecar's width
    assert action.act.dtype == np.int16 and monoid.product.dtype == np.int16
    assert np.array_equal(action.act, i2_action.act)
    assert np.array_equal(action.presheaf.restrict, i2_action.presheaf.restrict)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_source_holds_the_product_at_one_width(tmp_path, n):
    monoid = build_example(f"i{n}").monoid
    fileio.save_generator_file(tmp_path / "g.json", n, symmetric_inverse_generators(n))
    fileio.save_monoid_table(tmp_path / "m.json", monoid)
    sources = [
        fileio.load_monoid_any(tmp_path / "g.json")[0],
        fileio.load_monoid_any(tmp_path / "m.json")[0],
        from_table(np.asarray(monoid.product).astype(np.int64), monoid.identity),
    ]
    inline_tables(tmp_path / "m.json")
    (tmp_path / "m.product.npy").unlink()
    sources.append(fileio.load_monoid_any(tmp_path / "m.json")[0])
    for loaded in sources:
        assert loaded.product.dtype == np.int16
        assert np.array_equal(loaded.product, monoid.product)


def test_metric_text_grid(i2, i2_swap):
    cm = cayley_metric(i2, [i2_swap])
    text = fileio.metric_to_text(cm.metric)
    assert "inf" not in text  # blocks are per component
    assert text.endswith("\n")


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="line"):
        fileio.load_generator_file(bad)
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    with pytest.raises(ParseError, match="ground_size"):
        fileio.load_generator_file(missing)
    with pytest.raises(ParseError, match="neither"):
        fileio.load_monoid_any(missing)
    short = tmp_path / "short.json"
    short.write_text(
        json.dumps({"ground_size": 2, "generators": [[0]]})
    )
    with pytest.raises(ParseError, match="generator 0"):
        fileio.load_generator_file(short)
    non_injective = tmp_path / "dup.json"
    non_injective.write_text(
        json.dumps({"ground_size": 2, "generators": [[0, 0]]})
    )
    with pytest.raises(ParseError, match="injective"):
        fileio.load_generator_file(non_injective)


def test_dot_exports(i2, i2_swap, i2_action):
    label = i2.element_label
    nodes = [(s, label(s)) for s in range(i2.order)]
    succ = word_successors(i2, [i2_swap]).tolist()
    edges = [(s, t, label(i2_swap)) for s, (t,) in enumerate(succ)]
    dot = fileio.dot_graph("cayley", nodes, edges)
    assert dot.startswith("digraph") and "->" in dot
    p = i2_action.presheaf
    fiber = [(u, v, label(g)) for u, v, g in p.edges if p.proj[u] == 0]
    fiber_dot = fileio.dot_graph("fiber_0", [(v, v) for v in p.fiber(0)], fiber)
    assert "digraph fiber_0" in fiber_dot
    rips = rips_graph(i2_action, i2.identity, 1)
    pairs = [
        (s, t, None)
        for s, row in enumerate(rips.successors.tolist())
        for t in row
        if s < t
    ]
    rips_dot = fileio.dot_graph("rips_1_1", nodes, pairs, directed=False)
    assert rips_dot.startswith("graph") and "--" in rips_dot


GENERATOR_FILE = {"ground_size": 2, "generators": [[1, None]]}
TABLE_FILE = {"order": 2, "identity": 0, "product": [[0, 1], [1, 1]]}


def _with(data, path, value):
    """A deep copy of ``data`` with the entry at ``path`` set to ``value``,
    or to ``value(entry)`` when ``value`` is a function."""
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return data


@pytest.mark.parametrize(
    "data,field",
    [
        (_with(GENERATOR_FILE, ["generators", 0, 0], True), "generators"),
        (_with(GENERATOR_FILE, ["generators", 0, 0], 1.0), "generators"),
        (_with(GENERATOR_FILE, ["generators", 0, 0], "1"), "generators"),
        (_with(GENERATOR_FILE, ["generators", 0, 0], 2), "generators"),
        (_with(GENERATOR_FILE, ["ground_size"], 0), "ground_size"),
        (_with(GENERATOR_FILE, ["ground_size"], True), "ground_size"),
        (_with(TABLE_FILE, ["product", 1, 0], 0.5), "product"),
        (_with(TABLE_FILE, ["product", 1, 0], "x"), "product"),
        (_with(TABLE_FILE, ["product", 1, 0], True), "product"),
        (_with(TABLE_FILE, ["product", 1, 0], 2), "product"),
        (_with(TABLE_FILE, ["product", 1, 0], -1), "product"),
        (_with(TABLE_FILE, ["identity"], 2), "identity"),
    ],
    ids=[
        "generator-bool", "generator-float", "generator-str", "generator-range",
        "ground-size-zero", "ground-size-bool", "table-float", "table-str",
        "table-bool", "table-range", "table-negative", "identity-range",
    ],
)
def test_bad_entries_are_parse_errors(tmp_path, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError) as err:
        fileio.load_monoid_any(path)
    assert err.value.field == field
    assert str(path) in str(err.value) and field in str(err.value)
    if field != "product":
        return
    # the same entry, product[1][0], in a sidecar
    np.save(tmp_path / "bad.product.npy", np.array(TABLE_FILE["product"]))
    path.write_text(json.dumps({**TABLE_FILE, "product": "bad.product.npy"}))
    set_table_entries(path, "product", "sidecar", {(1, 0): data["product"][1][0]})
    with pytest.raises(ParseError) as err:
        fileio.load_monoid_any(path)
    assert err.value.field == field
    assert "bad.product.npy" in str(err.value) and field in str(err.value)


@pytest.mark.parametrize("value", [99999, -1, 0.5, True])
def test_bad_act_entry_is_a_parse_error(tmp_path, i2, i2_action, value):
    for layout in LAYOUTS:
        out = tmp_path / layout
        out.mkdir()
        fileio.save_monoid_table(out / "m.json", i2)
        fileio.save_presheaf(out / "p.json", i2_action.presheaf)
        fileio.save_action(out / "a.json", i2_action, "m.json", "p.json")
        set_table_entries(out / "a.json", "act", layout, {(3, 4): value})
        # a sidecar of floats or booleans fails on its dtype as a whole
        where, name = {
            "inline": (r"act\[3\]\[4\] = ", "a.json"),
            "sidecar": (
                r"act\[3\]\[4\] = " if type(value) is int else "act has dtype",
                "a.act.npy",
            ),
        }[layout]
        with pytest.raises(ParseError, match=where) as err:
            fileio.load_input(out / "a.json")
        assert err.value.field == "act" and name in str(err.value), layout


@pytest.mark.parametrize(
    "path,value,field",
    [
        (["proj", 0], 999, "proj"),
        (["proj", 0], 0.5, "proj"),
        (["restrict", 0, 0], 99999, "restrict"),
        (["fibers", 0, 0, 0], 99999, "fibers"),
        (["fibers", 0, 0, 0], "x", "fibers"),
        (["fibers", 0, 0, 2], "x", "fibers"),
        (["fibers", 0], 5, "fibers"),
        (["fibers"], lambda f: [*f, []], "fibers"),
        (["fibers"], lambda f: [[], f[0] + f[1], *f[2:]], "fibers"),
        (["base", "meet", 0, 0], 99, "meet"),
        (["base", "labels", 0], "x", "labels"),
    ],
    ids=[
        "proj-range", "proj-float", "restrict-range", "edge-range", "edge-str",
        "edge-label-str", "fiber-not-list", "fiber-count", "edge-misfiled",
        "meet-range", "base-label-str",
    ],
)
def test_bad_presheaf_entry_is_a_parse_error(tmp_path, i2_action, path, value, field):
    fileio.save_presheaf(tmp_path / "p.json", i2_action.presheaf)
    if field == "restrict":
        for layout in LAYOUTS:
            fileio.save_presheaf(tmp_path / "p.json", i2_action.presheaf)
            set_table_entries(tmp_path / "p.json", field, layout, {tuple(path[1:]): value})
            name = {"inline": "p.json", "sidecar": "p.restrict.npy"}[layout]
            with pytest.raises(ParseError, match=r"restrict\[0\]\[0\] = ") as err:
                fileio.load_presheaf(tmp_path / "p.json")
            assert err.value.field == field and name in str(err.value), layout
        return
    data = _with(json.loads((tmp_path / "p.json").read_text()), path, value)
    (tmp_path / "p.json").write_text(json.dumps(data))
    with pytest.raises(ParseError) as err:
        fileio.load_presheaf(tmp_path / "p.json")
    assert err.value.field == field and "p.json" in str(err.value)


@pytest.mark.parametrize("gens", [[999], ["x"], [True], 5])
def test_bad_action_gens_are_a_parse_error(tmp_path, i2, i2_action, gens):
    fileio.save_monoid_table(tmp_path / "m.json", i2)
    fileio.save_presheaf(tmp_path / "p.json", i2_action.presheaf)
    fileio.save_action(tmp_path / "a.json", i2_action, "m.json", "p.json")
    data = json.loads((tmp_path / "a.json").read_text())
    data["gens"] = gens
    (tmp_path / "a.json").write_text(json.dumps(data))
    with pytest.raises(ParseError) as err:
        fileio.load_input(tmp_path / "a.json")
    assert err.value.field == "gens" and "a.json" in str(err.value)


def _with_first_entry(table, value):
    table = table.astype(np.int64)
    table[0, 0] = value
    return table


# How each case breaks a sidecar (None: the case writes its own bytes),
# and what the reader must say.  I2's order and its self-action's number
# of points are both 7, the bound of all three tables; restrict has a
# column per idempotent.
BAD_SIDECARS = {
    "bool": (lambda t: t.astype(bool), "has dtype bool, not an integer one"),
    "float": (lambda t: t.astype(np.float64), "has dtype float64, not an integer one"),
    "object": (lambda t: t.astype(object), "is not a readable .npy table"),
    "ndim": (lambda t: t.ravel(), r"is not an 7x\d table \(shape \(\d+,\)\)"),
    "shape": (lambda t: t[:-1], r"is not an 7x(\d) table \(shape \(6, \1\)\)"),
    "minus-one": (
        lambda t: _with_first_entry(t, -1), r"\[0\]\[0\] = -1 is not an index below 7"
    ),
    "bound": (
        lambda t: _with_first_entry(t, 7), r"\[0\]\[0\] = 7 is not an index below 7"
    ),
    "missing": (None, "is not a readable .npy table"),
    "truncated": (None, "is not a readable .npy table"),
    "npz": (None, "is not a .npy table"),
    "huge-shape": (None, "is not a readable .npy table"),
}


@pytest.mark.parametrize("case", list(BAD_SIDECARS))
@pytest.mark.parametrize("field", ["product", "restrict", "act"])
def test_bad_sidecar_is_a_parse_error(
    tmp_path, capsys, i2, i2_swap, i2_action, field, case
):
    assert i2.order == i2_action.presheaf.num_points == 7
    save_i2_action(tmp_path, i2, i2_swap, i2_action)
    owner = {"product": "m.json", "restrict": "p.json", "act": "a.json"}[field]
    sidecar = sidecars(tmp_path / owner)[field]
    table = np.load(sidecar)
    breaks, message = BAD_SIDECARS[case]
    if breaks is not None:
        np.save(sidecar, breaks(table), allow_pickle=case == "object")
    elif case == "missing":
        sidecar.unlink()
    elif case == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-3])
    elif case == "huge-shape":
        # a header whose shape no machine can allocate, and no data
        header = {"descr": "<i2", "fortran_order": False, "shape": (10**6, 10**6)}
        with open(sidecar, "wb") as f:
            np.lib.format.write_array_header_1_0(f, header)
    else:
        with open(sidecar, "wb") as f:
            np.savez(f, table=table)
    with pytest.raises(ParseError, match=f"{field}.*{message}") as err:
        fileio.load_input(tmp_path / "a.json")
    assert err.value.field == field and str(sidecar) in str(err.value)
    assert main(["verify", "--input", str(tmp_path / "a.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{sidecar}: {field}" in err


def test_sidecar_bytes_depend_only_on_values(tmp_path, i2, i2_action):
    # every monoid holds an int16 table here; the writer gives a wider one
    # the same bytes
    tables = [i2, replace(i2, product=np.asarray(i2.product).astype(np.int32))]
    acts = [i2_action.act.astype(dtype) for dtype in (np.int16, np.int32, np.int64)]
    acts.append(np.asfortranarray(acts[-1]))  # and in column-major order
    written = []
    for k, (monoid, act) in enumerate(zip(tables * 2, acts)):
        out = tmp_path / str(k)
        out.mkdir()
        fileio.save_monoid_table(out / "m.json", monoid)
        action = EtaleAction(monoid=i2, presheaf=i2_action.presheaf, act=act)
        fileio.save_action(out / "a.json", action, "m.json", "p.json")
        written.append([(out / n).read_bytes() for n in ("m.product.npy", "a.act.npy")])
    assert written[0] == written[1] == written[2] == written[3]
    assert np.load(tmp_path / "0" / "a.act.npy").dtype == np.int16
    # int16 holds every index below a bound of 2**15, and int32 the rest
    for bound, dtype in ((2**15, np.int16), (2**15 + 1, np.int32)):
        name = fileio._save_index_table(tmp_path / "x.json", "act", [[bound - 1]], bound)
        assert name == "x.act.npy"
        assert np.load(tmp_path / name).dtype == dtype
        assert np.load(tmp_path / name).tolist() == [[bound - 1]]
