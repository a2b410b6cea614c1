import math

import numpy as np
import pytest

from invgeom import (
    PreconditionError,
    build_example,
    cayley_metric,
    cayley_presheaf,
    from_table,
    semilattice_times_group,
    symmetrize,
    trivial_monoid,
    word_distances,
)
from invgeom.cayley import word_successors
from invgeom.families import chain_semilattice, cyclic_group_table

from conftest import block_metric, dense, mulclose, transposition_indices


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
    parts = cayley_metric(i2, [i2_swap]).metric.components()
    expected = {frozenset(c) for c in i2.lclasses}
    assert {frozenset(c) for c in parts} == expected
    sizes = sorted(len(c) for c in parts)
    assert sizes == [1, 2, 2, 2]


def test_schutzenberger_single_component_for_group():
    z3 = from_table(cyclic_group_table(3), 0)
    parts = cayley_metric(z3, [1]).metric.components()
    assert len(parts) == 1


def test_schutzenberger_singletons_for_semilattice():
    lattice = from_table(chain_semilattice(3), 2)
    parts = cayley_metric(lattice, []).metric.components()
    assert all(len(c) == 1 for c in parts)
    assert len(parts) == 3


def test_schutzenberger_detects_non_generation(i2):
    with pytest.raises(PreconditionError, match="not quasi-generating"):
        cayley_metric(i2, [])


def test_is_quasi_generating(i2, i2_swap):
    for build in (cayley_metric, cayley_presheaf):
        build(i2, range(i2.order))
        build(i2, [i2_swap])
        with pytest.raises(PreconditionError, match="element 2 unreachable") as info:
            build(i2, [])
        assert info.value.witness == (2,)


def closure_witness(monoid, gens):
    """The least element outside the closure of the symmetrized set and the
    idempotents, or None: the oracle of the component-label witness."""
    seeds = set(symmetrize(monoid, gens)) | set(monoid.idempotents)
    missing = sorted(set(range(monoid.order)) - mulclose(monoid.product, seeds))
    return missing[0] if missing else None


@pytest.mark.parametrize(
    "name", ["trivial", "i1", "i2", "i3", "i4", "chain2_z2", "chain3_z3", "chain4_z6"]
)
def test_quasi_generation_witness_is_the_closure_witness(name):
    # seeded subsets of every size, so that some sets quasi-generate and
    # some miss an element
    if name == "chain4_z6":
        m = semilattice_times_group(chain_semilattice(4), cyclic_group_table(6))
    else:
        m = build_example(name).monoid
    rng = np.random.default_rng(29)
    failing = 0
    for trial in range(24):
        size = rng.integers(0, min(m.order, 12) + 1)
        gens = sorted(rng.choice(m.order, size, replace=False).tolist())
        witness = closure_witness(m, gens)
        failing += witness is not None
        for build in (cayley_metric, cayley_presheaf):
            if witness is None:
                build(m, gens)
                continue
            with pytest.raises(PreconditionError, match="not quasi-generating") as info:
                build(m, gens)
            assert info.value.witness == (witness,), (gens, build)
    assert 0 < failing < 24 or m.order <= 2


def test_cayley_metric_examples(i2, i2_swap):
    cm = cayley_metric(i2, [i2_swap])
    d = cm.metric
    for s in range(i2.order):
        assert d.dist(s, s) == 0
    e0 = elt(i2, 0, None)
    a = elt(i2, 1, None)
    assert d.dist(e0, a) == 1
    assert math.isinf(d.dist(i2.identity, e0))
    assert {frozenset(c) for c in cm.metric.components()} == {
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
    table = dense(cayley_metric(m, gens).metric)
    pure_from, mixed_from = word_distances(m, sym), word_distances(m, with_idem)
    for t in range(m.order):
        pure, mixed = pure_from[t], mixed_from[t]
        for s in range(m.order):
            if m.dom(s) == m.dom(t):  # s L t
                assert pure[s] == mixed[s] == table[s, t]


def test_word_metric_agreement_catches_tampered_metric(i3, i3_transpositions):
    from invgeom.verify import check_word_metric_agreement

    table = np.array(dense(cayley_metric(i3, i3_transpositions).metric))
    assert check_word_metric_agreement(i3, i3_transpositions, block_metric(table)).passed
    s, t = np.argwhere(np.isfinite(table) & (table > 0))[5]
    table[s, t] += 1
    result = check_word_metric_agreement(i3, i3_transpositions, block_metric(table))
    assert not result.passed
    assert result.witness == (s, t)
    assert result.data == {"against": "path-metric"}


def test_right_subinvariance_exhaustive(i2, i2_swap):
    table = dense(cayley_metric(i2, [i2_swap]).metric)
    for s in range(i2.order):
        for t in range(i2.order):
            for x in range(i2.order):
                assert table[i2.mul(s, x), i2.mul(t, x)] <= table[s, t]


def test_uniform_discreteness(i3, i3_transpositions):
    table = dense(cayley_metric(i3, i3_transpositions).metric)
    off = table[~np.eye(i3.order, dtype=bool)]
    assert off[np.isfinite(off)].min() >= 1


def test_edge_pairing_within_lclasses(i4, i4_transpositions):
    from invgeom.verify import check_edge_pairing

    result = check_edge_pairing(i4)
    assert result.passed
    assert result.data["edges_checked"] > 0
