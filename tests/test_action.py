import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from invgeom import (
    EtaleAction,
    MetricPresheaf,
    PreconditionError,
    Semilattice,
    cayley_self_action,
    check_theta_isometry,
    coboundedness_constant,
    from_table,
    properness_witness,
    trivial_monoid,
    validate_action,
)
from invgeom.action import _qualifying, coset_cover_holds
from invgeom.families import build_example, cyclic_group_table
from invgeom.report import Violation

from conftest import dense


def elt(monoid, *image):
    target = tuple(image)
    return next(i for i, f in enumerate(monoid.elements) if f.image == target)


@pytest.fixture(scope="module")
def trivial_action():
    m = trivial_monoid()
    return cayley_self_action(m, [])


def stranded_point_action():
    """I1 acting with an extra point no orbit reaches."""
    m = from_table([[0, 1], [1, 1]], 0)  # two-element semilattice {1, e}
    base = Semilattice(
        meet=np.array([[0, 1], [1, 1]], dtype=np.int32), labels=(0, 1)
    )
    # point 0 over the identity, points 1 and 2 over e
    proj = [0, 1, 1]
    restrict = [[0, 1], [1, 1], [2, 2]]
    p = MetricPresheaf.build(base, proj, restrict, edges=[(1, 2)])
    act = np.array(restrict, dtype=np.int32)
    return EtaleAction(monoid=m, presheaf=p, act=act)


def half_rotation_action():
    """Z/2 = {0, 2} inside Z/4 acting on the 4-cycle by rotation."""
    m = from_table([[0, 1], [1, 0]], 0)
    base = Semilattice(meet=np.array([[0]], dtype=np.int32), labels=(0,))
    proj = [0, 0, 0, 0]
    restrict = [[0], [1], [2], [3]]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    p = MetricPresheaf.build(base, proj, restrict, edges)
    act = np.array([[x, (x + 2) % 4] for x in range(4)], dtype=np.int32)
    return EtaleAction(monoid=m, presheaf=p, act=act)


def test_self_action_valid(i2_action, i3_action):
    assert validate_action(i2_action) == []
    assert validate_action(i3_action) == []


def test_trivial_action_valid(trivial_action):
    assert validate_action(trivial_action) == []


def test_stranded_and_half_rotation_actions_valid():
    assert validate_action(stranded_point_action()) == []
    assert validate_action(half_rotation_action()) == []


def test_tampered_action_reports_lipschitz(i3, i3_transpositions, i3_action):
    p = i3_action.presheaf
    table = dense(p.metric)
    units = [s for s in range(i3.order) if i3.dom(s) == i3.identity]
    u, v = units[0], None
    for cand in units[1:]:
        if table[u, cand] == 1:
            v = cand
            break
    far = next(w for w in units if table[w, i3_action.apply(v, i3.identity)] == 2)
    bad = np.array(i3_action.act)
    bad[u, i3.identity] = far
    tampered = dataclasses.replace(i3_action, act=bad)
    report = validate_action(tampered)
    kinds = {viol.check for viol in report}
    assert "lipschitz" in kinds
    lip = next(viol for viol in report if viol.check == "lipschitz")
    assert len(lip.witness) == 3


def sweep_every_element(a):
    """The action axioms with s swept over every element: the reference oracle.

    Same checks, order and witnesses as ``validate_action``, with no
    closure argument: each of the law, fiber preservation and 1-Lipschitz
    is tested for every s.
    """
    out = []
    mon, p, act = a.monoid, a.presheaf, a.act
    n = mon.order
    idem = mon.idempotents
    local = {e: i for i, e in enumerate(idem)}
    for i, e in enumerate(idem):
        for x in np.flatnonzero(act[:, e] != p.restrict[:, i])[:1]:
            out.append(Violation("extends-restriction", (int(x), e)))
    product = mon.product
    for s in range(n):
        lhs = act[act[:, s], :]
        rhs = act[:, product[s, :]]
        if not np.array_equal(lhs, rhs):
            x, t = np.argwhere(lhs != rhs)[0]
            out.append(Violation("action-law", (int(x), s, int(t))))
    conj = np.array(
        [[local[int(product[product[mon.inv(s), e], s])] for s in range(n)]
         for e in idem]
    )
    proj = p.proj
    for s in range(n):
        for x in np.flatnonzero(proj[act[:, s]] != conj[proj, s])[:1]:
            out.append(Violation("fiber-preservation", (int(x), s)))
    table = dense(p.metric)
    for i in range(len(idem)):
        pts = np.flatnonzero(proj == i)
        sub = table[np.ix_(pts, pts)]
        for s in range(n):
            imgs = act[pts, s]
            for bi, bj in np.argwhere(table[np.ix_(imgs, imgs)] > sub)[:1]:
                out.append(Violation("lipschitz", (int(pts[bi]), int(pts[bj]), s)))
    return out


def theta_every_element(a):
    return all(check_theta_isometry(a, s)[0] for s in range(a.monoid.order))


@pytest.mark.parametrize("name", ["i3", "i4"])
def test_generator_sweep_matches_every_element_sweep(name, request):
    """Seeded one-entry tampers of act, in columns outside G and E(S).

    The generator sweep fails iff the sweep of every element does, with
    the same first finding unless that finding is a 1-Lipschitz one.
    """
    monoid = request.getfixturevalue(name)
    action = cayley_self_action(
        monoid, request.getfixturevalue(f"{name}_transpositions")
    )
    assert sweep_every_element(action) == []
    assert theta_every_element(action)
    swept = set(monoid.generating_set) | set(monoid.idempotents)
    columns = [s for s in range(monoid.order) if s not in swept]
    rng = np.random.default_rng(7)
    m = action.presheaf.num_points
    for _ in range(12):
        x, s = int(rng.integers(m)), int(rng.choice(columns))
        bad = np.array(action.act)
        bad[x, s] = (bad[x, s] + rng.integers(1, m)) % m
        tampered = dataclasses.replace(action, act=bad)
        found, oracle = validate_action(tampered), sweep_every_element(tampered)
        assert bool(found) == bool(oracle), (x, s)
        if oracle[0].check != "lipschitz":
            assert found[0].check == oracle[0].check, (x, s)
            assert found[0].witness == oracle[0].witness, (x, s)
        if not found:
            assert theta_every_element(tampered), (x, s)


def relabel(monoid, order):
    """The monoid with element order[i] renamed i."""
    new = np.empty(monoid.order, dtype=np.intp)
    new[order] = np.arange(monoid.order)
    product = new[monoid.product][np.ix_(order, order)]
    return from_table(product, int(new[monoid.identity])), new


def test_tampered_identity_column_outside_generators(i3, i3_transpositions):
    """The identity tamper of test_tampered_action_reports_lipschitz, with
    I3 relabelled so that its identity is generated by smaller units."""
    order = [s for s in range(i3.order) if s != i3.identity] + [i3.identity]
    monoid, new = relabel(i3, order)
    assert monoid.identity not in monoid.generating_set
    action = cayley_self_action(monoid, tuple(int(new[t]) for t in i3_transpositions))
    assert validate_action(action) == []
    table = dense(action.presheaf.metric)
    one = monoid.identity
    units = [s for s in range(monoid.order) if monoid.dom(s) == one]
    u = units[0]
    v = next(w for w in units[1:] if table[u, w] == 1)
    far = next(w for w in units if table[w, action.apply(v, one)] == 2)
    bad = np.array(action.act)
    bad[u, one] = far
    tampered = dataclasses.replace(action, act=bad)
    assert "lipschitz" in {viol.check for viol in sweep_every_element(tampered)}
    assert validate_action(tampered) != []


def test_tampered_action_reports_fiber_preservation(i2, i2_action):
    bad = np.array(i2_action.act)
    # send a unit into the wrong fiber
    e0 = elt(i2, 0, None)
    bad[i2.identity, i2.identity] = e0
    tampered = dataclasses.replace(i2_action, act=bad)
    kinds = {viol.check for viol in validate_action(tampered)}
    assert "fiber-preservation" in kinds
    assert "extends-restriction" in kinds


def test_theta_isometry_identity_and_idempotents(i3, i3_action):
    ok, _ = check_theta_isometry(i3_action, i3.identity)
    assert ok
    for e in i3.idempotents:
        ok, witness = check_theta_isometry(i3_action, e)
        assert ok, witness


def test_theta_isometry_all_elements(i3, i3_action):
    for s in range(i3.order):
        ok, witness = check_theta_isometry(i3_action, s)
        assert ok, witness


def test_fiber_of_image_depends_only_on_fiber(i2, i2_action):
    p = i2_action.presheaf
    for s in range(i2.order):
        seen = {}
        for x in range(p.num_points):
            key = int(p.proj[x])
            img = int(p.proj[i2_action.apply(x, s)])
            assert seen.setdefault(key, img) == img


def test_coboundedness_of_self_action(i2_action, i3_action, trivial_action):
    assert coboundedness_constant(i2_action, i2_action.monoid.identity) == 0
    assert coboundedness_constant(i3_action, i3_action.monoid.identity) == 0
    assert coboundedness_constant(trivial_action, 0) == 0


def test_coboundedness_none_when_orbit_misses():
    act = stranded_point_action()
    assert coboundedness_constant(act, 0) is None


def test_coboundedness_half_rotation():
    act = half_rotation_action()
    assert coboundedness_constant(act, 0) == 1


def test_coboundedness_requires_identity_fiber(i2, i2_action):
    e0 = elt(i2, 0, None)
    with pytest.raises(PreconditionError):
        coboundedness_constant(i2_action, e0)


def test_displacement_always_finite(i3, i3_action):
    table = dense(i3_action.presheaf.metric)
    x1 = i3.identity
    for s in range(i3.order):
        a = i3_action.apply(x1, s)
        b = i3_action.apply(x1, i3.dom(s))
        assert math.isfinite(table[a, b])


def test_properness_witness_i2(i2, i2_swap, i2_action):
    x1 = i2.identity
    cover = properness_witness(i2_action, x1, 1)
    qualifying = _qualifying(i2_action, x1, 1)
    assert coset_cover_holds(i2, cover, qualifying)
    # the word-length cover {1} u M works too
    assert coset_cover_holds(i2, (i2.identity, i2_swap), qualifying)
    assert set(cover) <= {i2.identity, i2_swap}


def test_properness_witness_at_a_radius_beyond_float_range(i2, i2_action):
    # every element qualifies, as at any radius past the largest distance
    x1 = i2.identity
    huge = Fraction(10) ** 400
    assert _qualifying(i2_action, x1, huge) == list(range(i2.order))
    assert properness_witness(i2_action, x1, huge) == properness_witness(
        i2_action, x1, 3
    )


def test_properness_witness_radius_zero_free_orbit():
    z3 = from_table(cyclic_group_table(3), 0)
    act = cayley_self_action(z3, [1, 2])
    assert properness_witness(act, 0, 0) == (0,)


# properness_witness from the identity at radii 0, 1, 2 and 3, on the
# bundled examples' self-actions
COVERS = {
    "trivial": ((0,), (0,), (0,), (0,)),
    "i1": ((0,), (0,), (0,), (0,)),
    "i2": ((0,), (0, 2), (0, 2), (0, 2)),
    "i3": ((0,), (0, 2, 7, 16), (0, 2, 7, 9, 14, 16), (0, 2, 7, 9, 14, 16)),
    "i4": (
        (0,),
        (0, 2, 7, 16, 34, 75, 111),
        (0, 2, 7, 9, 14, 16, 34, 36, 41, 50, 68, 75, 77, 82, 104, 109, 111, 118),
        (0, 2, 7, 9, 14, 16, 34, 36, 41, 43, 48, 50, 68, 70, 75, 77, 82, 84,
         102, 104, 109, 111, 116, 118),
    ),
    "chain2_z2": ((2,), (2, 3), (2, 3), (2, 3)),
    "chain3_z3": ((6,), (6, 7, 8), (6, 7, 8), (6, 7, 8)),
}


@pytest.mark.parametrize("name", sorted(COVERS))
def test_properness_covers_of_the_bundled_examples(name):
    built = build_example(name)
    action = cayley_self_action(built.monoid, built.quasi_generators)
    for radius, cover in enumerate(COVERS[name]):
        assert properness_witness(action, built.monoid.identity, radius) == cover


def test_properness_cover_breaks_ties_toward_the_least_element(i2, i2_action):
    # On the bundled examples every greedy tie ends in the same cover.  Here
    # x1.s is moved onto x1.dom(s) for s = [1,-], so s qualifies at radius 0
    # beside E(S): the identity covers E(S), then s lies in two cosets, its
    # own and the swap's, each a gain of one, and the least element wins.
    s, swap = elt(i2, 1, None), elt(i2, 1, 0)
    assert swap < s
    act = np.array(i2_action.act)
    act[i2.identity, s] = act[i2.identity, i2.dom(s)]
    bent = dataclasses.replace(i2_action, act=act)
    assert properness_witness(bent, i2.identity, 0) == (i2.identity, swap)


def test_properness_witness_needs_identity_fiber(i2, i2_action):
    with pytest.raises(PreconditionError):
        properness_witness(i2_action, elt(i2, 0, None), 1)


def test_basepoint_shift(i3, i3_transpositions, i3_action):
    # a cover at radius R + 2D for one basepoint covers radius R for another
    p = i3_action.presheaf
    x1 = i3.identity
    for z1 in i3_action.identity_fiber():
        d = p.metric.dist(x1, z1)
        for radius in (0, 1, 2):
            cover = properness_witness(i3_action, x1, radius + 2 * d)
            qualifying = _qualifying(i3_action, z1, radius)
            assert coset_cover_holds(i3, cover, qualifying), (z1, radius)


def test_action_table_shape_checked(i2, i2_action):
    with pytest.raises(Exception):
        EtaleAction(
            monoid=i2,
            presheaf=i2_action.presheaf,
            act=np.zeros((2, 2), dtype=np.int32),
        )
