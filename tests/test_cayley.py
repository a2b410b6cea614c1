import math
from fractions import Fraction

import numpy as np
import pytest

from invgeom import (
    LabeledDigraph,
    PreconditionError,
    ValidationError,
    bilipschitz_constants,
    cayley_graph,
    cayley_metric,
    from_table,
    is_quasi_generating,
    reduce_quasi_generators,
    schutzenberger_components,
    symmetrize,
    trivial_monoid,
    word_distances,
)
from invgeom.families import chain_semilattice, cyclic_group_table

from conftest import transposition_indices


def elt(monoid, *image):
    target = tuple(image)
    return next(i for i, f in enumerate(monoid.elements) if f.image == target)


def test_labeled_digraph_validation():
    LabeledDigraph(2, ((0, 1, 0), (1, 0, 0)))
    with pytest.raises(ValidationError, match="duplicate"):
        LabeledDigraph(2, ((0, 1, 0), (0, 1, 0)))
    with pytest.raises(ValidationError, match="range"):
        LabeledDigraph(2, ((0, 2, 0),))


def test_cayley_graph_trivial_monoid():
    m = trivial_monoid()
    g = cayley_graph(m, [0])
    assert g.edges == ((0, 0, 0),)


def test_cayley_graph_i2(i2, i2_swap):
    g = cayley_graph(i2, [i2_swap])
    assert len(g.edges) == i2.order  # |G| * N
    e0 = elt(i2, 0, None)
    a = elt(i2, 1, None)
    assert (e0, a, i2_swap) in g.edges


def test_edge_count_scales_with_generators(i3, i3_transpositions):
    g = cayley_graph(i3, i3_transpositions)
    assert len(g.edges) == len(i3_transpositions) * i3.order


def test_schutzenberger_components_i2(i2, i2_swap):
    parts = schutzenberger_components(i2, [i2_swap])
    expected = {frozenset(c) for c in i2.lclasses}
    assert {frozenset(c) for c in parts} == expected
    sizes = sorted(len(c) for c in parts)
    assert sizes == [1, 2, 2, 2]


def test_schutzenberger_single_component_for_group():
    z3 = from_table(cyclic_group_table(3), 0)
    parts = schutzenberger_components(z3, [1])
    assert len(parts) == 1


def test_schutzenberger_singletons_for_semilattice():
    lattice = from_table(chain_semilattice(3), 2)
    parts = schutzenberger_components(lattice, [])
    assert all(len(c) == 1 for c in parts)
    assert len(parts) == 3


def test_schutzenberger_detects_non_generation(i2):
    with pytest.raises(ValidationError, match="generate"):
        schutzenberger_components(i2, [])


def test_is_quasi_generating(i2, i2_swap):
    assert is_quasi_generating(i2, range(i2.order))
    assert is_quasi_generating(i2, [i2_swap])
    assert not is_quasi_generating(i2, [])


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
            if m.green_L(s, t):
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


def test_bilipschitz_equal_sets(i3, i3_transpositions):
    l1, l2 = bilipschitz_constants(i3, i3_transpositions, i3_transpositions)
    assert (l1, l2) == (1, 1)


def test_bilipschitz_i3_two_generating_sets(i3, i3_transpositions):
    cycle = elt(i3, 1, 2, 0)
    other = (cycle, i3.inv(cycle), i3_transpositions[0])
    l1, l2 = bilipschitz_constants(i3, i3_transpositions, other)
    assert l1 >= 1 and l2 >= 1
    dm = cayley_metric(i3, i3_transpositions).metric.table
    dn = cayley_metric(i3, other).metric.table
    mask = np.isfinite(dm)
    assert np.all(dn[mask] <= float(l1) * dm[mask])
    assert np.all(dm[mask] <= float(l2) * dn[mask])
    # constants are attained somewhere
    assert np.any(dn[mask] * 1.0 == float(l1) * dm[mask])


def test_reduce_quasi_generators(i3, i3_transpositions):
    reduced = reduce_quasi_generators(i3, i3_transpositions)
    assert set(reduced) <= set(symmetrize(i3, i3_transpositions))
    assert is_quasi_generating(i3, reduced)
    assert len(reduced) < len(i3_transpositions)


def test_edge_pairing_within_lclasses(i4, i4_transpositions):
    from invgeom.verify import check_edge_pairing

    result = check_edge_pairing(i4)
    assert result.passed
    assert result.data["edges_checked"] > 0
