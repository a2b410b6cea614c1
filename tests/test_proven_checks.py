"""The checks `verify` leaves to their proofs cannot fail where it runs.

theta-isometry follows from the presheaf and action axioms, and
edge-pairing and word-metric agreement from the table checks of
`from_table` (the proofs are in `validate_action`, `build_from_tables` and
`cayley_metric`).  Every one-entry mutant of a small example's act,
restrict and product tables is swept here: each mutant that fails one of
the three oracles fails a check that `verify` still runs, so dropping
them changes no verdict.  On the same act and restrict mutants, the
validators' array sweeps give the finding lists of the per-fiber loops
they replaced, kept below as oracles.

Every word metric `cayley_metric` builds is uniformly proper over its
symmetrized generators, with L-class components, separation at least 1,
properness and right-subinvariance (the proof is there).  Every Rips
metric of an action that passes the action axioms has the last three
(the proof is in `validate_metric_predicates`, which checks only the
first two), and where those two pass, F1 quasi-generates with the size
`verify` reports (the proof is in `verify._rips_quasi_generators`).  The
three are checked by the oracles in conftest; the word and Rips metrics
on the bundled examples and 4-chain x Z/60, over their own and seeded
random generating sets, and the Rips metrics, at radii 0 to 2 by halves,
also on every one-entry act mutant of the three small examples that
passes the action axioms.
"""

from fractions import Fraction

import numpy as np
import pytest

from invgeom import (
    EtaleAction,
    MetricPresheaf,
    build_example,
    cayley_metric,
    cayley_self_action,
    from_table,
    quasi_generators_from_metric,
    semilattice_times_group,
    validate_action,
    validate_metric_predicates,
    validate_presheaf,
)
from invgeom.action import check_theta_isometry
from invgeom.errors import PreconditionError, ValidationError
from invgeom.families import chain_semilattice, cyclic_group_table
from invgeom.monoid import row_blocks
from invgeom.report import Violation
from invgeom.verify import (
    VerificationRun,
    _rips_quasi_generators,
    check_edge_pairing,
    check_theta_all,
    check_word_metric_agreement,
)

from conftest import (
    dense,
    dense_subinvariance_witness,
    first_increase,
    properness_loop,
    separation,
)

EXAMPLES = ("i2", "chain2_z2", "chain3_z3")


def one_entry_mutants(table, bound):
    """A copy of ``table`` for every entry and every other value below ``bound``."""
    for index in np.ndindex(table.shape):
        for value in range(bound):
            if value != table[index]:
                mutant = np.array(table, dtype=np.int32)
                mutant[index] = value
                yield mutant


def validate_presheaf_loop(p):
    """validate_presheaf as a loop over fibers and base elements."""
    out = []
    m = p.num_points
    k = p.base.size
    proj, restrict, meet = p.proj, p.restrict, p.base.meet
    points = np.arange(m)
    for e in range(k):
        for f in range(k):
            lhs = restrict[restrict[:, e], f]
            rhs = restrict[:, meet[e, f]]
            for x in np.flatnonzero(lhs != rhs)[:1]:
                out.append(Violation("axiom-1", (int(x), e, f), "(x.e).f != x.(ef)"))
    bad2 = np.flatnonzero(restrict[points, proj] != points)
    out.extend(Violation("axiom-2", (int(x),), "x.p(x) != x") for x in bad2)
    for e in range(k):
        lhs = proj[restrict[:, e]]
        rhs = meet[proj, e]
        for x in np.flatnonzero(lhs != rhs)[:1]:
            out.append(Violation("axiom-3", (int(x), e), "p(x.e) != p(x)e"))
    present = set(proj.tolist())
    for e in range(k):
        if e not in present:
            out.append(Violation("surjective", (e,), "empty fiber"))
    for e in range(k):
        pts = np.flatnonzero(proj == e)
        for f in range(k):
            bad = first_increase(p.metric, pts, restrict[pts, f])
            if bad is not None:
                i, j = bad
                out.append(
                    Violation(
                        "monotone",
                        (int(pts[i]), int(pts[j]), f),
                        "restriction increased a distance",
                    )
                )
    return out


def validate_action_loop(a):
    """validate_action as a loop over idempotents, generators and fibers."""
    out = []
    mon, p, act = a.monoid, a.presheaf, a.act
    idem = mon.idempotents
    for i, e in enumerate(idem):
        bad = np.flatnonzero(act[:, e] != p.restrict[:, i])
        for x in bad[:1]:
            out.append(
                Violation(
                    "extends-restriction", (int(x), e),
                    "idempotent does not act as restriction",
                )
            )
    product, gens = mon.product, mon.generating_set
    for s in gens:
        for rows in row_blocks(*act.shape):
            bad = act[act[rows, s], :] != act[rows][:, product[s, :]]
            if bad.any():
                x, t = divmod(int(np.argmax(bad)), mon.order)
                out.append(
                    Violation("action-law", (int(rows[x]), s, t), "(x.s).t != x.(st)")
                )
                break
    proj, idem = p.proj, np.array(idem, dtype=np.intp)
    for s in gens:
        lhs = proj[act[:, s]]
        rhs = a.base_of[product[product[mon.inv(s), idem], s]][proj]
        for x in np.flatnonzero(lhs != rhs)[:1]:
            out.append(
                Violation("fiber-preservation", (int(x), s), "p(x.s) != s^-1 p(x) s")
            )
    for i in range(len(idem)):
        pts = np.flatnonzero(proj == i)
        for s in gens:
            bad = first_increase(p.metric, pts, act[pts, s])
            if bad is not None:
                bi, bj = bad
                out.append(
                    Violation(
                        "lipschitz", (int(pts[bi]), int(pts[bj]), s),
                        "action increased a fiber distance",
                    )
                )
    return out


def mutant_actions(name):
    """The example's Cayley self-action, then one per one-entry act mutant,
    then one per one-entry restrict mutant."""
    built = build_example(name)
    monoid = built.monoid
    action = cayley_self_action(monoid, built.quasi_generators)
    p = action.presheaf
    return [action] + [
        EtaleAction(monoid, p, act)
        for act in one_entry_mutants(action.act, p.num_points)
    ] + [
        EtaleAction(
            monoid, MetricPresheaf.build(p.base, p.proj, r, p.edges), action.act
        )
        for r in one_entry_mutants(p.restrict, p.num_points)
    ]


def theta_holds(action):
    """check_theta_all, and every theta_s an isometry, s over the whole monoid."""
    return check_theta_all(action).passed and all(
        check_theta_isometry(action, s)[0] for s in range(action.monoid.order)
    )


@pytest.mark.parametrize("name", EXAMPLES)
def test_validators_give_the_findings_of_the_per_fiber_loops(name):
    kinds = set()
    for action in mutant_actions(name):
        # repr compares the witnesses' types too: a report needs ints
        found = validate_presheaf(action.presheaf) + validate_action(action)
        loops = validate_presheaf_loop(action.presheaf) + validate_action_loop(action)
        assert repr(found) == repr(loops)
        kinds.update(v.check for v in found)
    # the mutants reach the monotone and lipschitz sweeps
    assert {"monotone", "lipschitz"} <= kinds


@pytest.mark.parametrize("name", ["i3", "chain3_z3"])
def test_validators_order_many_findings_as_the_loops(name):
    # several entries changed at once fail in several fibers and columns,
    # which must come by fiber, then by column
    action = mutant_actions(name)[0]
    p = action.presheaf
    rng = np.random.default_rng(18)
    for _ in range(40):
        act, restrict = np.array(action.act), np.array(p.restrict)
        for table in (act, restrict):
            rows = rng.integers(table.shape[0], size=6)
            cols = rng.integers(table.shape[1], size=6)
            table[rows, cols] = rng.integers(p.num_points, size=6)
        bent = MetricPresheaf.build(p.base, p.proj, restrict, p.edges)
        for mutant in (EtaleAction(action.monoid, bent, action.act),
                       EtaleAction(action.monoid, p, act)):
            found = validate_presheaf(mutant.presheaf) + validate_action(mutant)
            loops = validate_presheaf_loop(mutant.presheaf) + validate_action_loop(mutant)
            assert repr(found) == repr(loops)


@pytest.mark.parametrize("name", EXAMPLES)
def test_theta_fails_only_where_an_axiom_fails(name):
    action, *mutants = mutant_actions(name)
    assert theta_holds(action)
    theta_failures = 0
    for mutant in mutants:
        if not theta_holds(mutant):
            theta_failures += 1
            assert validate_presheaf(mutant.presheaf) or validate_action(mutant)
    assert theta_failures > 0


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_accepted_product_table_pairs_edges_and_agrees(name):
    built = build_example(name)
    monoid, gens = built.monoid, built.quasi_generators
    tables = [np.array(monoid.product, dtype=np.int32)]
    tables += one_entry_mutants(monoid.product, monoid.order)
    accepted = 0
    for table in tables:
        try:
            m = from_table(table, monoid.identity)
        except ValidationError:
            continue
        accepted += 1
        assert check_edge_pairing(m).passed
        metric = cayley_metric(m, gens).metric
        assert check_word_metric_agreement(m, gens, metric).passed
    assert accepted >= 1  # the unmutated table


def quasi_generated(name):
    """A monoid and its own quasi-generating set: a bundled example, or
    4-chain x Z/60 generated at the top by 1 and -1."""
    if name == "chain4_z60":
        m = semilattice_times_group(chain_semilattice(4), cyclic_group_table(60))
        return m, (3 * 60 + 1, 3 * 60 + 59)
    built = build_example(name)
    return built.monoid, built.quasi_generators


def word_metrics(name, count):
    """The monoid, then (letters, word metric) for its own set and for
    each of ``count`` seeded random sets that quasi-generates: one to
    three random elements, alone or added to the example's own set."""
    monoid, gens = quasi_generated(name)
    rng = np.random.default_rng(19)
    sets = [gens] + [
        rng.choice(monoid.order, size=min(k, monoid.order), replace=False).tolist()
        + (list(gens) if i % 2 else [])
        for i, k in enumerate(rng.integers(1, 4, size=count))
    ]
    built = []
    for letters in sets:
        try:
            built.append((letters, cayley_metric(monoid, letters)))
        except PreconditionError:
            continue  # not quasi-generating
    assert built and built[0][0] is gens  # the example's own set builds
    return monoid, built


def proven_predicates_hold(monoid, metric):
    """Separation at least 1, properness and right-subinvariance, by the
    oracles: the three predicates `validate_metric_predicates` leaves to
    its proof."""
    gap = separation(metric)
    return (
        (gap is None or gap >= 1)
        and properness_loop(monoid, metric)[0].passed
        and dense_subinvariance_witness(monoid, dense(metric)) is None
    )


SELF_ACTIONS = ["trivial", "i1", "i2", "i3", "i4", "chain2_z2", "chain3_z3", "chain4_z60"]
RIPS_RADII = (0, Fraction(1, 2), 1, Fraction(3, 2), 2)


@pytest.mark.parametrize("name", SELF_ACTIONS)
def test_every_word_metric_passes_the_five_predicates(name):
    monoid, built = word_metrics(name, 24)
    for letters, word in built:
        report = validate_metric_predicates(monoid, word.metric, f1=word.generators)
        assert all(c.passed for c in report.checks), (letters, report.checks)
        assert proven_predicates_hold(monoid, word.metric), letters


def rips_sweep(action, gens):
    """Check every Rips metric of ``action`` at RIPS_RADII: the proven
    predicates hold, and where rips-predicates passes, F1 quasi-generates
    with the f1_size that `verify` reports.  Returns how many passed."""
    monoid = action.monoid
    x1 = min(action.identity_fiber())
    passed = 0
    for radius in RIPS_RADII:
        run = VerificationRun(action, tuple(gens), x1, Fraction(radius))
        metric = run.rips.metric
        assert proven_predicates_hold(monoid, metric), radius
        report = run.rips_report
        if all(c.passed for c in report.checks):
            passed += 1
            cert = quasi_generators_from_metric(monoid, metric, report)
            assert len(cert.generators) == _rips_quasi_generators(run).data["f1_size"]
    return passed


@pytest.mark.parametrize("name", SELF_ACTIONS)
def test_every_rips_metric_of_a_self_action_passes_the_proven_predicates(name):
    monoid, built = word_metrics(name, 6)
    passed = 0
    for letters, _ in built:
        passed += rips_sweep(cayley_self_action(monoid, letters), letters)
    assert passed >= 1


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_rips_metric_of_an_act_mutant_passes_the_proven_predicates(name):
    # every one-entry act mutant of these self-actions breaks the action
    # law, so for now the sweep covers the unmutated action alone; an
    # action that is not a self-action would give it mutants to cover
    built = build_example(name)
    action = cayley_self_action(built.monoid, built.quasi_generators)
    p = action.presheaf
    actions = [action] + [
        mutant
        for mutant in (
            EtaleAction(built.monoid, p, act)
            for act in one_entry_mutants(action.act, p.num_points)
        )
        if not validate_action(mutant)
    ]
    for a in actions:
        rips_sweep(a, built.quasi_generators)
