import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgeom import (
    INFINITE,
    MetricPresheaf,
    PreconditionError,
    Semilattice,
    ValidationError,
    cayley_presheaf,
    trivial_monoid,
    validate_presheaf,
)
from invgeom.cayley import symmetrize, word_successors
from invgeom.extmetric import UNREACHED, bfs, trace_paths
from invgeom.families import build_example

from conftest import dense


def single_fiber_presheaf():
    base = Semilattice(meet=np.array([[0]]))
    return MetricPresheaf.build(
        base, proj=[0, 0], restrict=[[0], [1]], edges=[(0, 1)]
    )


def test_semilattice_validate_chain():
    chain = Semilattice(meet=np.minimum.outer(np.arange(3), np.arange(3)))
    chain.validate()
    assert chain.top() == 2
    assert chain.leq(0, 2) and not chain.leq(2, 0)


def test_semilattice_rejects_noncommutative():
    with pytest.raises(ValidationError, match="commutative"):
        Semilattice(meet=np.array([[0, 0], [1, 1]])).validate()


def test_semilattice_rejects_nonidempotent():
    with pytest.raises(ValidationError, match="idempotent"):
        Semilattice(meet=np.array([[1, 0], [0, 0]])).validate()


def test_single_fiber_presheaf_valid():
    p = single_fiber_presheaf()
    assert validate_presheaf(p) == []
    assert p.distance(0, 1) == 1


def test_disconnected_fiber_rejected():
    base = Semilattice(meet=np.array([[0]]))
    with pytest.raises(ValidationError, match="disconnected"):
        MetricPresheaf.build(base, proj=[0, 0], restrict=[[0], [1]], edges=[])


@pytest.mark.parametrize(
    "restrict, message",
    [
        ([[0.0], [1.0]], "not an integer one"),
        ([[0], [2**32 + 1]], "restriction value out of range"),
    ],
)
def test_restrict_is_checked_before_it_is_narrowed(restrict, message):
    base = Semilattice(meet=np.array([[0]]))
    with pytest.raises(ValidationError, match=message):
        MetricPresheaf.build(base, proj=[0, 0], restrict=restrict, edges=[(0, 1)])
    p = MetricPresheaf.build(
        base, proj=[0, 0], restrict=np.array([[0], [1]]), edges=[(0, 1)]
    )
    assert p.restrict.dtype == np.int16


def test_cross_fiber_edge_rejected():
    base = Semilattice(meet=np.minimum.outer(np.arange(2), np.arange(2)))
    with pytest.raises(ValidationError, match="fibers"):
        MetricPresheaf.build(
            base, proj=[1, 0], restrict=[[1, 0], [1, 1]], edges=[(0, 1)]
        )


def test_cayley_presheaf_i2(i2, i2_swap):
    p = cayley_presheaf(i2, [i2_swap])
    assert validate_presheaf(p) == []
    sizes = sorted(len(p.fiber(e)) for e in range(p.base.size))
    assert sizes == [1, 2, 2, 2]
    # fibers are the L-classes keyed by dom
    for e in range(p.base.size):
        pts = p.fiber(e)
        assert {i2.dom(s) for s in pts} == {p.base.labels[e]}
    assert p.base.size == len(i2.idempotents)


def test_cayley_presheaf_requires_quasi_generation(i2):
    with pytest.raises(PreconditionError) as err:
        cayley_presheaf(i2, [])
    assert err.value.witness is not None


def test_trivial_cayley_presheaf():
    m = trivial_monoid()
    p = cayley_presheaf(m, [])
    assert p.num_points == 1
    assert p.base.size == 1
    assert validate_presheaf(p) == []


def test_ext_distance_examples(i2, i2_swap, i2_action):
    p = i2_action.presheaf
    for x in range(p.num_points):
        assert p.distance(x, x) == 0
    assert p.distance(i2.identity, i2_swap) == 1
    # across fibers
    e0 = [e for e in i2.idempotents if e != i2.identity][0]
    assert p.distance(i2.identity, e0) == INFINITE


def test_presheaf_leq_examples(i2, i2_swap, i2_action):
    p = i2_action.presheaf
    a = next(
        s
        for s in range(i2.order)
        if i2.elements[s].image == (1, None)
    )
    for x in range(p.num_points):
        assert p.leq(x, x)
    assert p.leq(a, i2_swap)
    assert not p.leq(i2_swap, a)
    empty = next(
        s for s in range(i2.order) if i2.elements[s].image == (None, None)
    )
    assert not p.leq(a, empty)


def test_tampered_restrict_reported(i2, i2_swap):
    p = cayley_presheaf(i2, [i2_swap])
    bad = np.array(p.restrict)
    x = 2
    bad[x, p.proj[x]] = (x + 1) % p.num_points
    tampered = dataclasses.replace(p, restrict=bad)
    report = validate_presheaf(tampered)
    axiom2 = [v for v in report if v.check == "axiom-2"]
    assert axiom2 and axiom2[0].witness == (x,)


def test_restriction_is_one_lipschitz(i3, i3_transpositions):
    p = cayley_presheaf(i3, i3_transpositions)
    table = dense(p.metric)
    for e in range(p.base.size):
        pts = list(p.fiber(e))
        for f in range(p.base.size):
            for x in pts:
                for y in pts:
                    rx, ry = p.restrict[x, f], p.restrict[y, f]
                    assert table[rx, ry] <= table[x, y]


def test_shortest_path_is_unit_geodesic(i3, i3_transpositions):
    p = cayley_presheaf(i3, i3_transpositions)
    table = dense(p.metric)
    for e in range(p.base.size):
        pts = p.fiber(e)
        x = pts[0]
        level, parent, column = bfs(p.successors, [x], parents=True)
        vertices, steps_taken, steps = trace_paths(
            level, parent, column, [0] * len(pts), pts
        )
        for y, row, cols, k in zip(pts, vertices, steps_taken, steps):
            path, columns = row[: k + 1].tolist(), cols[:k].tolist()
            assert len(path) == table[x, y] + 1 == len(columns) + 1
            for u, v, j in zip(path, path[1:], columns):
                assert table[u, v] == 1
                assert p.successors[u, j] == v
    # across fibers there is no path
    assert level[0, p.fiber(1)[0]] == UNREACHED


def test_presheaf_edges_carry_generator_labels(i2, i2_swap):
    p = cayley_presheaf(i2, [i2_swap])
    labels = {g for _, _, g in p.edges}
    assert labels == {i2_swap}


# The array passes of presheaf.py against the loops they replaced.


def associativity_witness_loop(m):
    for e in range(len(m)):
        if not np.array_equal(m[m[e, :], :], m[e, m]):
            f, g = np.argwhere(m[m[e, :], :] != m[e, m])[0]
            return (e, int(f), int(g))
    return None


def top_loop(lattice):
    for e in range(lattice.size):
        if all(lattice.leq(f, e) for f in range(lattice.size)):
            return e
    return None


@st.composite
def meet_tables(draw):
    """A k x k commutative, idempotent table: often a chain or a product of
    chains, otherwise random off the diagonal."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        pairs = list(product(range(a), range(b)))
        index = {pair: i for i, pair in enumerate(pairs)}
        return np.array([
            [index[min(x[0], y[0]), min(x[1], y[1])] for y in pairs] for x in pairs
        ])
    m = np.array(draw(st.lists(st.integers(0, k - 1), min_size=k * k, max_size=k * k)))
    m = m.reshape(k, k)
    m = np.triu(m, 1) + np.triu(m, 1).T
    np.fill_diagonal(m, np.arange(k))
    return m


@given(meet_tables())
@settings(max_examples=150, deadline=None)
def test_semilattice_checks_match_the_loops(m):
    lattice = Semilattice(meet=m)
    witness = associativity_witness_loop(m)
    if witness is None:
        lattice.validate()
    else:
        with pytest.raises(ValidationError, match="associative") as err:
            lattice.validate()
        assert err.value.witness == witness
    assert lattice.top() == top_loop(lattice)


def clean_edges_loop(proj, edges):
    """The edges build keeps, or the ValidationError it raises, one edge at
    a time; the fiber connectivity check is left out."""
    m = len(proj)
    cleaned, seen = [], set()
    for u, v, *rest in edges:
        label = rest[0] if rest else None
        if not (0 <= u < m and 0 <= v < m):
            raise ValidationError(f"edge ({u},{v}) out of range")
        if u == v:
            continue
        if proj[u] != proj[v]:
            raise ValidationError("edge joins different fibers", witness=(int(u), int(v)))
        if (u, v, label) in seen:
            continue
        seen.add((u, v, label))
        cleaned.append((int(u), int(v), label))
    return tuple(cleaned)


def disconnected_fiber(proj, edges, k):
    """The least fiber whose edges do not join all its points, or None."""
    comp = list(range(len(proj)))
    for u, v, _ in edges:
        a, b = comp[u], comp[v]
        comp = [a if c == b else c for c in comp]
    for e in range(k):
        if len({c for x, c in enumerate(comp) if proj[x] == e}) > 1:
            return e
    return None


@st.composite
def edge_lists(draw):
    """(proj, edges) over a chain of k fibers: edges as (u, v) or (u, v,
    label) tuples, some out of range, loops, repeats or across fibers, and
    often a path through every fiber as well."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    proj = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    fibers = [[x for x in range(m) if proj[x] == e] for e in range(k)]
    ends = st.integers(0, m - 1)
    if draw(st.integers(0, 9)) == 0:
        ends = st.integers(-1, m)
    edges = []
    if draw(st.booleans()):
        edges += [(a, b) for fiber in fibers for a, b in zip(fiber, fiber[1:])]
    edge = st.one_of(
        st.tuples(ends, ends),
        st.tuples(ends, ends, st.sampled_from([None, -1, 0, 1, 2])),
    )
    edges += draw(st.lists(edge, max_size=12))
    if draw(st.booleans()):
        edges = [(u, v, *rest) for u, v, *rest in edges if proj[u % m] == proj[v % m]]
    return k, proj, draw(st.permutations(edges))


@given(edge_lists())
@settings(max_examples=300, deadline=None)
def test_build_cleans_edges_as_the_loop(case):
    k, proj, edges = case
    base = Semilattice(meet=np.minimum.outer(np.arange(k), np.arange(k)))
    restrict = np.zeros((len(proj), k), dtype=int)
    try:
        cleaned = clean_edges_loop(proj, edges)
    except ValidationError as want:
        with pytest.raises(ValidationError) as err:
            MetricPresheaf.build(base, proj, restrict, edges)
        assert (str(err.value), err.value.witness) == (str(want), want.witness)
        return
    e = disconnected_fiber(proj, cleaned, k)
    if e is None:
        p = MetricPresheaf.build(base, proj, restrict, edges)
        assert repr(p.edges) == repr(cleaned)
    else:
        with pytest.raises(ValidationError, match=f"fiber {e} is disconnected"):
            MetricPresheaf.build(base, proj, restrict, edges)


@pytest.mark.parametrize("name", ["i3", "chain3_z3", "i4"])
def test_cayley_presheaf_keeps_the_edges_of_the_loop(name):
    built = build_example(name)
    monoid = built.monoid
    sym = symmetrize(monoid, built.quasi_generators)
    succ = word_successors(monoid, sym, within_class=True)
    edges = [
        (int(s), int(succ[s, j]), sym[j])
        for j, s in zip(*np.nonzero(succ.T != np.arange(monoid.order)))
    ]
    p = cayley_presheaf(monoid, built.quasi_generators)
    assert repr(p.edges) == repr(clean_edges_loop(p.proj, edges))
    assert repr(MetricPresheaf.build(p.base, p.proj, p.restrict, edges).edges) == repr(p.edges)
