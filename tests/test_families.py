import numpy as np
import pytest

from invgeom import (
    CapacityError,
    PreconditionError,
    ValidationError,
    build_example,
    cayley_presheaf,
    cayley_self_action,
    list_examples,
    partial_bijection_count,
    semilattice_times_group,
    symmetric_inverse_monoid,
    validate_action,
)
from invgeom.families import chain_semilattice, cyclic_group_table

from conftest import dense, enumerate_partial_bijections, mulclose


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_inverse_orders_against_enumeration(n):
    # the oracle enumerates domains, ranges, and bijections explicitly
    oracle = len(enumerate_partial_bijections(n))
    m = symmetric_inverse_monoid(n)
    assert m.order == oracle
    assert partial_bijection_count(n) == oracle


def test_symmetric_inverse_order_5():
    oracle = len(enumerate_partial_bijections(5))
    assert oracle == 1546
    assert symmetric_inverse_monoid(5).order == oracle


def test_symmetric_inverse_caps():
    with pytest.raises(CapacityError):
        symmetric_inverse_monoid(0)
    with pytest.raises(CapacityError):
        symmetric_inverse_monoid(7)


def test_chain_times_z2():
    m = semilattice_times_group(chain_semilattice(2), cyclic_group_table(2))
    assert m.order == 4
    assert len(m.idempotents) == 2
    assert m.labels is not None


def test_product_formula_spot_checks():
    m = semilattice_times_group(chain_semilattice(3), cyclic_group_table(3))
    # (e, g)(f, h) = (min(e,f), g+h)
    for e1 in range(3):
        for g1 in range(3):
            for e2 in range(3):
                for g2 in range(3):
                    a = e1 * 3 + g1
                    b = e2 * 3 + g2
                    assert m.mul(a, b) == min(e1, e2) * 3 + (g1 + g2) % 3


def test_semilattice_without_top_rejected():
    # bottom plus two incomparable atoms
    meet = np.array(
        [
            [0, 0, 0],
            [0, 1, 0],
            [0, 0, 2],
        ]
    )
    with pytest.raises(PreconditionError, match="top"):
        semilattice_times_group(meet, cyclic_group_table(2))


def test_bad_group_table_rejected():
    bad = np.array([[0, 1], [1, 1]])  # row 1 not a bijection
    with pytest.raises(ValidationError):
        semilattice_times_group(chain_semilattice(2), bad)


def test_group_table_error_names_the_first_row_that_is_no_bijection():
    # column 0 and row 0 are the identity; rows 2 and 3 repeat a value
    bad = cyclic_group_table(4)
    bad[2] = [2, 3, 3, 1]
    bad[3] = [3, 0, 0, 2]
    with pytest.raises(ValidationError, match="group row 2 is not a bijection"):
        semilattice_times_group(chain_semilattice(2), bad)
    bad[2] = cyclic_group_table(4)[2]
    with pytest.raises(ValidationError, match="group row 3 is not a bijection"):
        semilattice_times_group(chain_semilattice(2), bad)
    bad[:, 0] = [1, 0, 2, 3]  # no row and column are both the identity
    with pytest.raises(ValidationError, match="no identity"):
        semilattice_times_group(chain_semilattice(2), bad)


def test_restriction_maps_between_fibers_are_isometries():
    m = semilattice_times_group(chain_semilattice(3), cyclic_group_table(3))
    gens = (2 * 3 + 1, 2 * 3 + 2)
    p = cayley_presheaf(m, gens)
    table = dense(p.metric)
    for e in range(p.base.size):
        pts = np.array(p.fiber(e))
        for f in range(p.base.size):
            moved = p.restrict[pts, f]
            assert np.array_equal(
                table[np.ix_(pts, pts)], table[np.ix_(moved, moved)]
            )


def test_registry_lists_and_builds():
    specs = list_examples()
    names = [s.name for s in specs]
    assert "i2" in names and "chain3_z3" in names and "trivial" in names
    for spec in specs:
        if spec.name in ("i4", "i5"):
            continue  # larger fixtures exercised elsewhere
        built = build_example(spec.name)
        assert built.monoid.order >= 1
        m, seeds = built.monoid, set(built.quasi_generators)
        assert mulclose(m.product, seeds | set(m.idempotents)) == frozenset(range(m.order))
        action = cayley_self_action(built.monoid, built.quasi_generators)
        assert validate_action(action) == []


def test_unknown_example():
    with pytest.raises(KeyError):
        build_example("nope")


@pytest.mark.parametrize(
    "name", ["trivial", "i1", "i2", "i3", "chain2_z2", "chain3_z3"]
)
def test_bundled_examples_run_the_whole_pipeline(name):
    from invgeom import (
        cayley_metric,
        coboundedness_constant,
        extract_generators,
        orbit_map_qi,
        properness_witness,
    )
    from invgeom.action import coset_cover_holds

    built = build_example(name)
    m = built.monoid
    action = cayley_self_action(m, built.quasi_generators)
    assert validate_action(action) == []
    x1 = min(action.identity_fiber())
    t = coboundedness_constant(action, x1)
    assert t == 0  # self-actions are 0-cobounded
    extraction = extract_generators(action, x1, t)
    cover = properness_witness(action, x1, extraction.threshold)
    assert coset_cover_holds(m, cover, extraction.generators)
    qi = orbit_map_qi(action, x1, cayley_metric(m, built.quasi_generators))
    assert qi.mult >= 1 and qi.add >= 0
    assert qi.order_preserving is True


def test_symmetric_inverse_order_6_samples():
    from invgeom.partial_bijection import compose, invert

    m = symmetric_inverse_monoid(6)
    assert m.order == partial_bijection_count(6) == 13327
    rng = np.random.default_rng(6)
    elems = m.elements
    for a, b in rng.integers(m.order, size=(200, 2)).tolist():
        assert elems[m.mul(a, b)] == compose(elems[a], elems[b])
        assert elems[m.inv(a)] == invert(elems[a])
