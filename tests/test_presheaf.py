import dataclasses

import numpy as np
import pytest

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
from invgeom.extmetric import UNREACHED, bfs, trace_paths

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
