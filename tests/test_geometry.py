import math
from fractions import Fraction

import numpy as np
import pytest

from invgeom import (
    INFINITE,
    EtaleAction,
    PreconditionError,
    RipsGraph,
    cayley_metric,
    cayley_self_action,
    extract_generators,
    from_table,
    orbit_inequalities,
    orbit_map_qi,
    properness_witness,
    qi_constants,
    quasi_generators_from_metric,
    rips_embedding_bounds,
    rips_graph,
    semilattice_times_group,
    symmetrize,
    trivial_monoid,
    validate_metric_predicates,
)
from invgeom import geometry
from invgeom.action import coset_cover_holds
from invgeom.families import chain_semilattice, cyclic_group_table
from invgeom.report import Violation
from invgeom.verify import run_verification

from conftest import (
    block_metric,
    dense,
    dense_subinvariance_witness,
    properness_loop,
    qi_bounds_hold,
    separation,
)
from test_action import half_rotation_action


def elt(monoid, *image):
    target = tuple(image)
    return next(i for i, f in enumerate(monoid.elements) if f.image == target)


def test_extract_generators_trivial():
    m = trivial_monoid()
    act = cayley_self_action(m, [])
    ex = extract_generators(act, 0, 0)
    assert ex.generators == (0,)
    assert len(ex.certificates) == 1


def test_extract_generators_i2(i2, i2_swap, i2_action):
    x1 = i2.identity
    ex = extract_generators(i2_action, x1, 0)
    # with threshold 1 every element of I2 qualifies
    assert ex.generators == tuple(range(i2.order))
    assert set(i2.idempotents) <= set(ex.generators)
    table = dense(i2_action.presheaf.metric)
    for cert in ex.certificates:
        s = cert.element
        d = table[i2_action.apply(x1, s), i2_action.apply(x1, i2.dom(s))]
        # chain length bound from the path construction
        assert len(cert.factors) <= d + 2
        # consecutive path points at distance exactly 1
        for u, v in zip(cert.path_points, cert.path_points[1:]):
            assert table[u, v] == 1
        # representatives within the coboundedness radius, last forced to s
        for p, rep in zip(cert.path_points, cert.representatives):
            assert table[p, i2_action.apply(x1, rep)] <= 0
        assert cert.representatives[-1] == s
        # the telescoping product recovers the element
        acc = cert.factors[0]
        for u in cert.factors[1:]:
            acc = i2.mul(u, acc)
        assert acc == s
    # generating sets coming from isometric orbits are symmetric
    assert all(i2.inv(g) in ex.generators for g in ex.generators)


def test_extract_generators_i3(i3, i3_action):
    ex = extract_generators(i3_action, i3.identity, 0)
    gen_set = set(ex.generators)
    for cert in ex.certificates:
        assert set(cert.factors) <= gen_set
        # running products v_i = u_i ... u_1 dom(s), ending at the element
        chain = [i3.dom(cert.element)]
        for u in cert.factors:
            chain.append(i3.mul(u, chain[-1]))
        assert chain[-1] == cert.element
        # intermediate products stay in the element's L-class
        assert {i3.dom(v) for v in chain} == {i3.dom(cert.element)}


def test_a_passing_extraction_computes_no_closure(i3, i3_action, monkeypatch):
    # every element is a product of its factors, all in the result, so
    # the result generates without a closure being computed
    calls = []
    monkeypatch.setattr(geometry, "mulclose", lambda *args: calls.append(args))
    ex = extract_generators(i3_action, i3.identity, 0)
    assert len(ex.certificates) == i3.order
    assert calls == []


def test_extract_generators_needs_enough_cobound():
    act = half_rotation_action()
    with pytest.raises(PreconditionError, match="cobounded"):
        extract_generators(act, 0, 0)
    ex = extract_generators(act, 0, 1)
    assert set(ex.generators) == {0, 1}
    assert ex.cobound == 1 and ex.threshold == 3


def test_properness_cover_contains_extracted_generators(i3, i3_action):
    x1 = i3.identity
    ex = extract_generators(i3_action, x1, 0)
    cover = properness_witness(i3_action, x1, ex.threshold)
    assert coset_cover_holds(i3, cover, ex.generators)


def test_orbit_map_qi_identity(i2, i2_swap, i2_action):
    report = orbit_map_qi(i2_action, i2.identity, cayley_metric(i2, (i2_swap,)))
    assert report.mult == 1 and report.add == 0
    assert report.coarse_radius == 0
    assert report.order_preserving is True


def test_orbit_map_qi_half_rotation():
    act = half_rotation_action()
    report = orbit_map_qi(act, 0, cayley_metric(act.monoid, (1,)))
    assert report.mult == 2 and report.add == 0
    assert report.coarse_radius == 1
    assert report.order_preserving is True


def test_orbit_map_qi_rejects_a_map_that_breaks_finiteness(i3, i3_transpositions, i3_action):
    word = cayley_metric(i3, i3_transpositions)
    x1 = i3.identity
    p = i3_action.presheaf
    act = np.array(i3_action.act)
    s = next(s for s in range(i3.order) if i3.mul(s, s) != s)
    # x1.s moves to another fiber, away from x1.dom(s) in s's L-class
    act[x1, s] = next(y for y in range(p.num_points) if p.proj[y] != p.proj[act[x1, s]])
    bent = EtaleAction(monoid=i3, presheaf=p, act=act)
    fin_w = np.isfinite(dense(word.metric))
    fin_x = np.isfinite(dense(p.metric)[np.ix_(act[x1], act[x1])])
    expected = tuple(int(i) for i in np.argwhere(fin_w != fin_x)[0])
    with pytest.raises(PreconditionError, match="does not preserve finiteness") as exc:
        orbit_map_qi(bent, x1, word)
    assert exc.value.witness == expected


def test_orbit_order_preservation_explicitly(i2, i2_swap, i2_action):
    p = i2_action.presheaf
    e0 = elt(i2, 0, None)
    # e0 <= 1 in the natural order: e0 = e 1 for some idempotent e
    assert any(i2.mul(e, i2.identity) == e0 for e in i2.idempotents)
    assert p.leq(
        i2_action.apply(i2.identity, e0),
        i2_action.apply(i2.identity, i2.identity),
    )


def test_orbit_inequalities_empty(i2, i2_swap, i3, i3_transpositions, i2_action, i3_action):
    word2 = cayley_metric(i2, (i2_swap,))
    word3 = cayley_metric(i3, i3_transpositions)
    assert orbit_inequalities(i2_action, i2.identity, word2) == []
    assert orbit_inequalities(i3_action, i3.identity, word3) == []


def test_rips_radius_zero(i2, i2_swap, i2_action):
    rips = rips_graph(i2_action, i2.identity, 0)
    # the orbit map is injective here, so no two elements are adjacent
    assert (rips.successors == np.arange(i2.order)[:, None]).all()
    assert rips.metric.dist(0, 0) == 0


def point_action():
    """Z/2 acting trivially on a one-point presheaf."""
    import numpy as np

    from invgeom import EtaleAction, MetricPresheaf, Semilattice

    m = from_table([[0, 1], [1, 0]], 0)
    base = Semilattice(meet=np.array([[0]], dtype=np.int32), labels=(0,))
    p = MetricPresheaf.build(base, proj=[0], restrict=[[0]], edges=[])
    return EtaleAction(monoid=m, presheaf=p, act=np.array([[0, 0]], dtype=np.int32))


def test_rips_radius_zero_with_collapsed_orbit():
    from invgeom import coboundedness_constant, validate_action

    act = point_action()
    assert validate_action(act) == []
    assert coboundedness_constant(act, 0) == 0
    rips = rips_graph(act, 0, 0)
    # both elements hit the same orbit point, so they are adjacent at R = 0
    assert rips.successors.tolist() == [[1], [0]]
    assert rips.metric.dist(0, 1) == 1


def test_rips_large_radius_completes_lclasses(i2, i2_swap, i2_action):
    rips = rips_graph(i2_action, i2.identity, 10)
    table = dense(rips.metric)
    for s in range(i2.order):
        for t in range(i2.order):
            expected = (
                0 if s == t else (1 if i2.dom(s) == i2.dom(t) else INFINITE)
            )
            assert table[s, t] == expected


def test_rips_radius_one_example(i2, i2_swap, i2_action):
    rips = rips_graph(i2_action, i2.identity, 1)
    e0 = elt(i2, 0, None)
    a = elt(i2, 1, None)
    assert rips.metric.dist(e0, a) == 1


def test_rips_preconditions(i2, i2_action):
    with pytest.raises(PreconditionError, match="identity fiber"):
        rips_graph(i2_action, elt(i2, 0, None), 1)
    with pytest.raises(PreconditionError, match="non-negative"):
        rips_graph(i2_action, i2.identity, -1)


def test_rips_fractional_radius_exact(i2, i2_swap, i2_action):
    # radius 3/2 admits exactly the pairs at orbit distance <= 1
    r1 = rips_graph(i2_action, i2.identity, 1)
    r32 = rips_graph(i2_action, i2.identity, Fraction(3, 2))
    assert np.array_equal(r1.successors, r32.successors)


def test_metric_predicates_word_metric(i3, i3_transpositions):
    cm = cayley_metric(i3, i3_transpositions)
    report = validate_metric_predicates(i3, cm.metric, f1=cm.generators)
    assert all(c.passed for c in report.checks)
    assert separation(cm.metric) >= 1
    proper, _ = properness_loop(i3, cm.metric)
    assert proper.passed
    assert dense_subinvariance_witness(i3, dense(cm.metric)) is None
    sizes = proper.data["factor_counts"]
    assert sizes[0] == 0  # no distinct pairs at distance 0
    assert all(v > 0 for r, v in sizes.items() if r >= 1)


def test_metric_predicates_rips(i3, i3_transpositions, i3_action):
    x1 = i3.identity
    for radius in (1, 2, 3):
        rips = rips_graph(i3_action, x1, radius)
        f1 = properness_witness(i3_action, x1, radius)
        report = validate_metric_predicates(i3, rips.metric, f1=f1)
        assert all(c.passed for c in report.checks), radius
        assert tuple(report.uniform_properness.data["f1"]) == tuple(sorted(f1))


def test_metric_predicates_catch_wrong_components(i2, i2_swap):
    cm = cayley_metric(i2, [i2_swap])
    bad = dense(cm.metric)
    e0 = elt(i2, 0, None)
    # one component across the L-classes of the identity and of e0
    a, b = (cm.metric.points[cm.metric.label[x]] for x in (i2.identity, e0))
    bad[np.ix_(a, b)] = bad[np.ix_(b, a)] = 5.0
    report = validate_metric_predicates(i2, block_metric(bad), f1=(i2_swap,))
    assert not report.components.passed
    assert report.components.witness is not None


def test_quasi_generators_from_word_metric(i3, i3_transpositions):
    cm = cayley_metric(i3, i3_transpositions)
    report = validate_metric_predicates(i3, cm.metric, f1=cm.generators)
    cert = quasi_generators_from_metric(i3, cm.metric, report)
    for s, word in cert.factorizations.items():
        d = cm.metric.dist(s, i3.dom(s))
        assert len(word) <= math.ceil(d)
        acc = i3.dom(s)
        for letter in word:
            acc = i3.mul(letter, acc)
        assert acc == s


def test_quasi_generators_from_rips_metric(i2, i2_swap, i2_action):
    rips = rips_graph(i2_action, i2.identity, 1)
    f1 = properness_witness(i2_action, i2.identity, 1)
    report = validate_metric_predicates(i2, rips.metric, f1=f1)
    cert = quasi_generators_from_metric(i2, rips.metric, report)
    assert set(cert.generators) == set(f1)


def test_quasi_generators_trivial():
    m = trivial_monoid()
    act = cayley_self_action(m, [])
    rips = rips_graph(act, 0, 1)
    report = validate_metric_predicates(m, rips.metric, f1=())
    cert = quasi_generators_from_metric(m, rips.metric, report)
    assert cert.generators == ()
    assert cert.factorizations == {}


def test_qi_constants_identity(i3, i3_transpositions):
    cm = cayley_metric(i3, i3_transpositions)
    report = qi_constants(np.arange(i3.order), cm.metric, cm.metric)
    assert report.mult == 1 and report.add == 0
    assert report.coarse_radius == 0
    assert qi_bounds_hold(report, np.arange(i3.order), dense(cm.metric), dense(cm.metric))


def test_qi_constants_rejects_finiteness_mismatch(i2, i2_swap):
    cm = cayley_metric(i2, [i2_swap])
    collapse = np.zeros(i2.order, dtype=int)  # everything to one point
    single = block_metric([[0] * i2.order for _ in range(i2.order)])
    with pytest.raises(PreconditionError, match="finiteness"):
        qi_constants(collapse, cm.metric, single)


def test_rips_embedding_bounds(i3, i3_transpositions, i3_action):
    x1 = i3.identity
    for radius in (1, 2, 3):
        rips = rips_graph(i3_action, x1, radius)
        assert rips_embedding_bounds(i3_action, x1, rips) == []


def test_rips_embedding_bounds_at_fractional_radius():
    # an edge of the radius-3/2 Rips graph spans at most floor(3/2) = 1,
    # so the upper bound is d/1 + 1, not d/(3/2) + 1
    m = semilattice_times_group(chain_semilattice(1), cyclic_group_table(8))
    act = cayley_self_action(m, (1, 7))
    rips = rips_graph(act, 0, Fraction(3, 2))
    assert rips.metric.dist(0, 4) == 4
    assert rips_embedding_bounds(act, 0, rips) == []
    checks, passed = run_verification(act, (1, 7), radius=Fraction(3, 2))
    assert passed, [str(c) for c in checks if not c.passed]


def _rips_bounds_oracle(a, x1, rips):
    """The bounds of ``rips_embedding_bounds`` as one Fraction test per pair."""
    r, step = rips.radius, math.floor(rips.radius)
    orbit = np.asarray(a.act[x1, :], dtype=np.intp)
    fiber_d = dense(a.presheaf.metric)[np.ix_(orbit, orbit)]
    rips_d = dense(rips.metric)
    out = []
    for s, t in np.argwhere(np.isfinite(fiber_d)).tolist():
        d, dr = int(fiber_d[s, t]), rips_d[s, t]
        if math.isinf(dr):
            out.append(Violation("rips-finite", (s, t),
                                 "orbit distance finite but Rips distance infinite"))
            continue
        dr = int(dr)
        if Fraction(dr) > Fraction(d, step) + 1:
            out.append(Violation("rips-upper", (s, t), f"d_R={dr} > {d}/{step} + 1"))
        if Fraction(d) > r * dr:
            out.append(Violation("rips-lipschitz", (s, t), f"d={d} > ({r}) * {dr}"))
    return out


@pytest.mark.parametrize(
    "radius", [1, Fraction(3, 2), 2, Fraction(7, 3), 10**30 + Fraction(1, 3)]
)
def test_rips_embedding_bounds_match_the_fraction_oracle(i3, i3_action, radius):
    x1 = i3.identity
    rips = rips_graph(i3_action, x1, radius)
    table = dense(rips.metric)
    rng = np.random.default_rng(3)
    finite = np.argwhere(np.isfinite(table))
    # every Rips value from 0 to 6 at a few pairs crosses each bound's edge
    # every distance tripled: findings in every component, in row-major order
    tampers = [None, "tripled"] + [
        (s, t, value)
        for s, t in finite[rng.choice(len(finite), 4, replace=False)]
        for value in (INFINITE, *range(7))
        if value != table[s, t]
    ]
    kinds = set()
    for tamper in tampers:
        metric = np.array(table)
        if tamper == "tripled":
            metric *= 3
        elif tamper is not None:
            s, t, value = tamper
            if value == INFINITE:
                # s alone in its component, infinitely far from t
                metric[s, :] = metric[:, s] = INFINITE
                metric[s, s] = 0
            else:
                metric[s, t] = value
        bent = RipsGraph(radius=rips.radius, successors=rips.successors,
                         metric=block_metric(metric))
        found = rips_embedding_bounds(i3_action, x1, bent)
        assert found == _rips_bounds_oracle(i3_action, x1, bent), tamper
        kinds |= {v.check for v in found}
    assert kinds == {"rips-finite", "rips-upper", "rips-lipschitz"}


def _subinvariance_violations(monoid, table):
    """Every x with d(s x, u x) > d(s, u) for some s, u: the all-x sweep."""
    return [
        x
        for x in range(monoid.order)
        if np.any(table[np.ix_(monoid.product[:, x], monoid.product[:, x])] > table)
    ]


def test_right_subinvariance_over_generators_matches_all_x(i3, i3_transpositions):
    table = dense(cayley_metric(i3, i3_transpositions).metric)
    gens = set(i3.generating_set)
    rng = np.random.default_rng(0)
    finite = np.argwhere(np.isfinite(table) & (table > 0))
    outside = 0
    for _ in range(20):
        s, u = finite[rng.integers(len(finite))]
        bent = np.array(table)
        bent[s, u] -= 1
        witness = dense_subinvariance_witness(i3, bent)
        violators = _subinvariance_violations(i3, bent)
        assert (witness is None) == (not violators)
        if violators:
            a, b, x = witness
            # the least violator is in G: G holds each element that the
            # elements before it do not generate
            assert x == violators[0] and x in gens
            assert bent[i3.mul(a, x), i3.mul(b, x)] > bent[a, b]
            # swept from the last index down, the first violator lies outside G
            outside += violators[-1] not in gens
    assert outside > 0
    assert _subinvariance_violations(i3, table) == []


def test_uniform_properness_fails_without_a_needed_letter():
    # on Z/8 with generators 1 and 7, the letter 1 alone needs five steps
    # for the distance-3 pair (0, 5)
    m = semilattice_times_group(chain_semilattice(1), cyclic_group_table(8))
    metric = cayley_metric(m, (1, 7)).metric
    report = validate_metric_predicates(m, metric, f1=(1, 7))
    assert all(c.passed for c in report.checks)
    report = validate_metric_predicates(m, metric, f1=(1,))
    assert not report.uniform_properness.passed
    assert report.uniform_properness.witness == (0, 5)


def test_quasi_generators_need_a_uniformly_proper_report():
    m = semilattice_times_group(chain_semilattice(1), cyclic_group_table(8))
    metric = cayley_metric(m, (1, 7)).metric
    report = validate_metric_predicates(m, metric, f1=(1,))
    with pytest.raises(PreconditionError, match="uniformly proper"):
        quasi_generators_from_metric(m, metric, report)


def test_rips_vs_word_qi_finite(i3, i3_transpositions, i3_action):
    cm = cayley_metric(i3, i3_transpositions)
    for radius in (1, 2):
        rips = rips_graph(i3_action, i3.identity, radius)
        report = qi_constants(np.arange(i3.order), rips.metric, cm.metric)
        assert report.mult >= 1 and report.add >= 0
        assert qi_bounds_hold(
            report, np.arange(i3.order), dense(rips.metric), dense(cm.metric)
        )


def test_non_proper_fallback(i3, i3_action):
    # the extracted generators alone support a finite-constant orbit QI,
    # with no properness cover involved
    x1 = i3.identity
    ex = extract_generators(i3_action, x1, 0)
    dg = cayley_metric(i3, ex.generators)
    orbit = np.asarray(i3_action.act[x1, :], dtype=np.intp)
    report = qi_constants(orbit, dg.metric, i3_action.presheaf.metric)
    assert report.mult < INFINITE and report.add < INFINITE
    assert report.coarse_radius == 0
