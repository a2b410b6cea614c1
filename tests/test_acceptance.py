"""Acceptance suite: one test per criterion, with stated budgets enforced.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from invgeom import (
    cayley_metric,
    cayley_presheaf,
    cayley_self_action,
    check_theta_isometry,
    extract_generators,
    orbit_inequalities,
    orbit_map_qi,
    properness_witness,
    qi_constants,
    quasi_generators_from_metric,
    rips_embedding_bounds,
    rips_graph,
    semilattice_times_group,
    symmetric_inverse_monoid,
    symmetrize,
    validate_action,
    validate_metric_predicates,
    validate_presheaf,
    word_distances,
)
from invgeom.action import _qualifying, coset_cover_holds
from invgeom.families import chain_semilattice, cyclic_group_table
from invgeom.verify import check_edge_pairing

from conftest import (
    dense,
    dense_subinvariance_witness,
    enumerate_partial_bijections,
    properness_loop,
    qi_bounds_hold,
    separation,
    transposition_indices,
)

EXPECTED_ORDERS = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546}


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def assert_inverse_monoid_invariants(m):
    """Exhaustive unique-inverse and commuting-idempotent sweeps."""
    n = m.order
    product = m.product
    elems = np.arange(n)
    for s in range(n):
        sts = product[product[s, :], s]
        tst = product[product[:, s], elems]
        sols = np.flatnonzero((sts == s) & (tst == elems))
        assert sols.size == 1, f"element {s} has {sols.size} inverses"
        assert sols[0] == m.inv(s)
    idem = np.array(m.idempotents, dtype=np.intp)
    sub = product[np.ix_(idem, idem)]
    assert np.array_equal(sub, sub.T), "idempotents do not commute"
    assert np.all(product[idem, idem] == idem)


def test_criterion_1_algebra_oracle():
    t0 = time.perf_counter()
    built = {}
    for n in (1, 2, 3, 4):
        built[n] = symmetric_inverse_monoid(n)
        assert_inverse_monoid_invariants(built[n])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"construction through n=4 took {elapsed:.2f}s"
    built[5] = symmetric_inverse_monoid(5)
    assert_inverse_monoid_invariants(built[5])
    for n, m in built.items():
        oracle = len(enumerate_partial_bijections(n))
        assert m.order == oracle == EXPECTED_ORDERS[n]
    report(1, f"orders 2,7,34,209,1546 confirmed by enumeration; n<=4 in {elapsed:.2f}s")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_2_word_metric_without_idempotents(n, request):
    m = symmetric_inverse_monoid(n)
    gens = transposition_indices(m, n)
    sym = symmetrize(m, gens)
    with_idem = sorted(set(sym) | set(m.idempotents))
    table = dense(cayley_metric(m, gens).metric)
    dom = m.dom_table
    pairs = 0
    pure_from, mixed_from = word_distances(m, sym), word_distances(m, with_idem)
    for t in range(m.order):
        pure, mixed = pure_from[t], mixed_from[t]
        same = dom == dom[t]
        assert np.array_equal(pure[same], mixed[same])
        assert np.array_equal(table[same, t], pure[same])
        pairs += int(same.sum())
    report(2, f"I{n}: BFS over M equals BFS over M+E on all {pairs} L-pairs")


def test_criterion_3_edge_pairing_i4(i4):
    t0 = time.perf_counter()
    result = check_edge_pairing(i4)  # all |S| labels, so all N^2 products
    elapsed = time.perf_counter() - t0
    assert result.passed, result.witness
    assert elapsed < 10.0, f"edge sweep took {elapsed:.2f}s"
    triples = i4.order ** 3
    report(
        3,
        f"zero counterexamples; {result.data['edges_checked']} in-class edges, "
        f"quantifier over {triples} triples, {elapsed:.2f}s",
    )


def test_criterion_4_theta_isometry_i4(i4, i4_transpositions):
    action = cayley_self_action(i4, i4_transpositions)
    for s in range(i4.order):
        ok, witness = check_theta_isometry(action, s)
        assert ok, f"theta failed at {witness}"
    report(4, f"all {i4.order} elements of I4 act as fiber isometries")


def test_criterion_5_generation_pipeline_i3(i3, i3_transpositions, i3_action):
    t0 = time.perf_counter()
    x1 = i3.identity
    extraction = extract_generators(i3_action, x1, 0)
    cover = properness_witness(i3_action, x1, 1)
    assert coset_cover_holds(i3, cover, extraction.generators)
    word = cayley_metric(i3, i3_transpositions)
    qi = orbit_map_qi(i3_action, x1, word)  # finiteness inside
    assert qi.mult >= 1 and qi.add >= 0
    assert qi.order_preserving is True
    table = dense(i3_action.presheaf.metric)
    for cert in extraction.certificates:
        s = cert.element
        d = table[i3_action.apply(x1, s), i3_action.apply(x1, i3.dom(s))]
        assert len(cert.factors) <= d + 2
    assert orbit_inequalities(i3_action, x1, word) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    report(
        5,
        f"G of size {len(extraction.generators)} generates, cover size "
        f"{len(cover)}, QI (L,C)=({qi.mult},{qi.add}), {elapsed:.2f}s",
    )


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_criterion_6_rips_metric_predicates(radius, i3, i3_action):
    x1 = i3.identity
    rips = rips_graph(i3_action, x1, radius)
    f1 = properness_witness(i3_action, x1, radius)
    result = validate_metric_predicates(i3, rips.metric, f1=f1)
    for check in result.checks:
        assert check.passed, f"R={radius}: {check}"
    # the predicates proved from the action axioms, by their oracles
    assert separation(rips.metric) >= 1
    assert properness_loop(i3, rips.metric)[0].passed
    assert dense_subinvariance_witness(i3, dense(rips.metric)) is None
    report(6, f"R={radius}: all predicates pass with F1 from the radius-{radius} cover")


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_criterion_7_rips_embedding_bounds(radius, i3, i3_transpositions, i3_action):
    x1 = i3.identity
    rips = rips_graph(i3_action, x1, radius)
    assert rips_embedding_bounds(i3_action, x1, rips) == []
    word = cayley_metric(i3, i3_transpositions)
    both = qi_constants(np.arange(i3.order), rips.metric, word.metric)
    assert both.mult < math.inf and both.add < math.inf
    assert qi_bounds_hold(both, np.arange(i3.order), dense(rips.metric), dense(word.metric))
    report(
        7,
        f"R={radius}: subdivision and Lipschitz bounds exact; "
        f"d^R vs d_M constants ({both.mult},{both.add})",
    )


def test_criterion_8_quasi_generators_from_metrics(i3, i3_transpositions, i3_action):
    x1 = i3.identity
    word = cayley_metric(i3, i3_transpositions)
    for name, metric, f1 in (
        ("d_M", word.metric, word.generators),
        ("d^1", rips_graph(i3_action, x1, 1).metric, properness_witness(i3_action, x1, 1)),
    ):
        predicates = validate_metric_predicates(i3, metric, f1=f1)
        cert = quasi_generators_from_metric(i3, metric, predicates)
        for s, letters in cert.factorizations.items():
            bound = math.ceil(metric.dist(s, i3.dom(s)))
            assert len(letters) <= bound
            acc = i3.dom(s)
            for letter in letters:
                acc = i3.mul(letter, acc)
            assert acc == s
    report(8, "F1 closures and per-element factorizations verified for d_M and d^1")


def test_criterion_9_basepoint_shift_product_example():
    m = semilattice_times_group(chain_semilattice(3), cyclic_group_table(3))
    gens = (2 * 3 + 1, 2 * 3 + 2)
    action = cayley_self_action(m, gens)
    y1 = m.identity
    table = dense(action.presheaf.metric)
    shifts = 0
    for z1 in action.identity_fiber():
        d = int(table[y1, z1])
        for radius in (0, 1, 2, 3):
            cover = properness_witness(action, y1, radius + 2 * d)
            qualifying = _qualifying(action, z1, radius)
            assert coset_cover_holds(m, cover, qualifying), (z1, radius)
            shifts += 1
    report(9, f"{shifts} basepoint/radius combinations re-covered exactly")


def test_criterion_10_product_example_validators():
    m = semilattice_times_group(chain_semilattice(3), cyclic_group_table(3))
    gens = (2 * 3 + 1, 2 * 3 + 2)
    assert m.order == 9 and len(m.idempotents) == 3
    presheaf = cayley_presheaf(m, gens)
    assert validate_presheaf(presheaf) == []
    action = cayley_self_action(m, gens)
    assert validate_action(action) == []
    table = dense(presheaf.metric)
    for e in range(presheaf.base.size):
        pts = np.array(presheaf.fiber(e))
        for f in range(presheaf.base.size):
            moved = presheaf.restrict[pts, f]
            assert np.array_equal(
                table[np.ix_(pts, pts)], table[np.ix_(moved, moved)]
            ), (e, f)
    report(10, "3-chain x Z/3 passes all validators; restrictions are isometries")
