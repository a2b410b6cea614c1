"""The checks `verify` leaves to their proofs cannot fail where it runs.

theta-isometry follows from the presheaf and action axioms, and
edge-pairing and word-metric agreement from the table checks of
`from_table` (the proofs are in `validate_action`, `build_from_tables` and
`cayley_metric`).  Every one-entry mutant of a small example's act,
restrict and product tables is swept here: each mutant that fails one of
the three oracles fails a check that `verify` still runs, so dropping
them changes no verdict.
"""

import numpy as np
import pytest

from invgeom import (
    EtaleAction,
    MetricPresheaf,
    build_example,
    cayley_metric,
    cayley_self_action,
    from_table,
    validate_action,
    validate_presheaf,
)
from invgeom.action import check_theta_isometry
from invgeom.errors import ValidationError
from invgeom.verify import (
    check_edge_pairing,
    check_theta_all,
    check_word_metric_agreement,
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


def theta_holds(action):
    """check_theta_all, and every theta_s an isometry, s over the whole monoid."""
    return check_theta_all(action).passed and all(
        check_theta_isometry(action, s)[0] for s in range(action.monoid.order)
    )


@pytest.mark.parametrize("name", EXAMPLES)
def test_theta_fails_only_where_an_axiom_fails(name):
    built = build_example(name)
    monoid = built.monoid
    action = cayley_self_action(monoid, built.quasi_generators)
    p = action.presheaf
    assert theta_holds(action)
    mutants = [
        EtaleAction(monoid, p, act)
        for act in one_entry_mutants(action.act, p.num_points)
    ] + [
        EtaleAction(
            monoid, MetricPresheaf.build(p.base, p.proj, r, p.edges), action.act
        )
        for r in one_entry_mutants(p.restrict, p.num_points)
    ]
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
