import math

import numpy as np
import pytest

from invgeom import (
    PreconditionError,
    cayley_metric,
    from_table,
    symmetrize,
    trivial_monoid,
    word_distances,
)
from invgeom.cayley import quasi_generation_witness, word_successors
from invgeom.families import chain_semilattice, cyclic_group_table

from conftest import transposition_indices


def elt(monoid, *image):
    target = tuple(image)
    return next(i for i, f in enumerate(monoid.elements) if f.image == target)


def test_cayley_graph_trivial_monoid():
    m = trivial_monoid()
    assert word_successors(m, [0]).tolist() == [[0]]


def test_cayley_graph_i2(i2, i2_swap):
    succ = word_successors(i2, [i2_swap])
    assert succ.size == i2.order  # |G| * N
    e0 = elt(i2, 0, None)
    a = elt(i2, 1, None)
    assert succ[e0, 0] == a


def test_edge_count_scales_with_generators(i3, i3_transpositions):
    succ = word_successors(i3, sorted(set(i3_transpositions)))
    assert succ.size == len(i3_transpositions) * i3.order


def test_schutzenberger_components_i2(i2, i2_swap):
    parts = cayley_metric(i2, [i2_swap]).components
    expected = {frozenset(c) for c in i2.lclasses}
    assert {frozenset(c) for c in parts} == expected
    sizes = sorted(len(c) for c in parts)
    assert sizes == [1, 2, 2, 2]


def test_schutzenberger_single_component_for_group():
    z3 = from_table(cyclic_group_table(3), 0)
    parts = cayley_metric(z3, [1]).components
    assert len(parts) == 1


def test_schutzenberger_singletons_for_semilattice():
    lattice = from_table(chain_semilattice(3), 2)
    parts = cayley_metric(lattice, []).components
    assert all(len(c) == 1 for c in parts)
    assert len(parts) == 3


def test_schutzenberger_detects_non_generation(i2):
    with pytest.raises(PreconditionError, match="not quasi-generating"):
        cayley_metric(i2, [])


def test_is_quasi_generating(i2, i2_swap):
    assert quasi_generation_witness(i2, range(i2.order)) is None
    assert quasi_generation_witness(i2, [i2_swap]) is None
    assert quasi_generation_witness(i2, []) is not None


def test_cayley_metric_examples(i2, i2_swap):
    cm = cayley_metric(i2, [i2_swap])
    d = cm.metric
    for s in range(i2.order):
        assert d.dist(s, s) == 0
    e0 = elt(i2, 0, None)
    a = elt(i2, 1, None)
    assert d.dist(e0, a) == 1
    assert math.isinf(d.table[i2.identity, e0])
    assert {frozenset(c) for c in cm.components} == {
        frozenset(c) for c in i2.lclasses
    }


def test_cayley_metric_requires_quasi_generation(i2):
    with pytest.raises(PreconditionError, match="unreachable"):
        cayley_metric(i2, [])


def test_symmetrize(i3, i3_transpositions):
    sym = symmetrize(i3, i3_transpositions)
    assert set(sym) == set(i3_transpositions)  # transpositions self-inverse
    for g in sym:
        assert i3.inv(g) in sym


@pytest.mark.parametrize("fixture,gens_fixture", [("i2", "i2_swap"), ("i3", "i3_transpositions")])
def test_word_metric_agreement_oracle(fixture, gens_fixture, request):
    # BFS word search over M, over M plus idempotents, and the per-class
    # path metric must agree on every L-equivalent pair
    m = request.getfixturevalue(fixture)
    gens = request.getfixturevalue(gens_fixture)
    gens = (gens,) if isinstance(gens, int) else gens
    sym = symmetrize(m, gens)
    with_idem = sorted(set(sym) | set(m.idempotents))
    table = cayley_metric(m, gens).metric.table
    pure_from, mixed_from = word_distances(m, sym), word_distances(m, with_idem)
    for t in range(m.order):
        pure, mixed = pure_from[t], mixed_from[t]
        for s in range(m.order):
            if m.dom(s) == m.dom(t):  # s L t
                assert pure[s] == mixed[s] == table[s, t]


def test_word_metric_agreement_catches_tampered_metric(i3, i3_transpositions):
    from invgeom.verify import check_word_metric_agreement

    table = np.array(cayley_metric(i3, i3_transpositions).metric.table)
    assert check_word_metric_agreement(i3, i3_transpositions, table).passed
    s, t = np.argwhere(np.isfinite(table) & (table > 0))[5]
    table[s, t] += 1
    result = check_word_metric_agreement(i3, i3_transpositions, table)
    assert not result.passed
    assert result.witness == (s, t)
    assert result.data == {"against": "path-metric"}


def test_right_subinvariance_exhaustive(i2, i2_swap):
    table = cayley_metric(i2, [i2_swap]).metric.table
    for s in range(i2.order):
        for t in range(i2.order):
            for x in range(i2.order):
                assert table[i2.mul(s, x), i2.mul(t, x)] <= table[s, t]


def test_uniform_discreteness(i3, i3_transpositions):
    table = cayley_metric(i3, i3_transpositions).metric.table
    off = table[~np.eye(i3.order, dtype=bool)]
    assert off[np.isfinite(off)].min() >= 1


def test_edge_pairing_within_lclasses(i4, i4_transpositions):
    from invgeom.verify import check_edge_pairing

    result = check_edge_pairing(i4)
    assert result.passed
    assert result.data["edges_checked"] > 0
