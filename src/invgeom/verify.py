"""The full predicate suite run by the ``verify`` subcommand.

Each check returns a CheckResult; the suite passes iff every check does.
All sweeps are exhaustive at desk scale except where SweepConfig says to
sample, and every result is deterministic for a fixed config.
"""

import math
from fractions import Fraction

import numpy as np

from .action import (
    check_theta_isometry,
    coboundedness_constant,
    coset_cover_holds,
    properness_witness,
    validate_action,
)
from .cayley import cayley_metric, symmetrize, word_distances
from .config import SweepConfig
from .errors import InvgeomError
from .geometry import (
    extract_generators,
    orbit_inequalities,
    orbit_map_qi,
    qi_constants,
    quasi_generators_from_metric,
    rips_embedding_bounds,
    rips_graph,
    validate_metric_predicates,
)
from .presheaf import validate_presheaf
from .report import CheckResult


def check_edge_pairing(monoid, letters=None):
    """Within an L-class, every labelled edge reverses under the inverse label.

    For every label x and every t: with s = x t, if dom(s) = dom(t) then
    t = x^-1 s, and when x is idempotent additionally s = t.
    """
    letters = range(monoid.order) if letters is None else letters
    dom = monoid.dom_table
    elems = np.arange(monoid.order)
    checked = 0
    for x in letters:
        s_vec = monoid.product[x, :]
        same = dom[s_vec] == dom
        checked += int(same.sum())
        back = monoid.product[monoid.inv(x), s_vec]
        bad = np.flatnonzero(same & (back != elems))
        if bad.size:
            t = int(bad[0])
            return CheckResult(
                "edge-pairing", False, witness=(x, t, int(s_vec[t]))
            )
        if monoid.is_idempotent(x):
            loops = np.flatnonzero(same & (s_vec != elems))
            if loops.size:
                t = int(loops[0])
                return CheckResult(
                    "edge-pairing", False, witness=(x, t, int(s_vec[t]))
                )
    return CheckResult("edge-pairing", True, data={"edges_checked": checked})


def check_word_metric_agreement(monoid, gens, metric_table=None, config=None):
    """Word search over M agrees with word search over M and E(S) on L-pairs.

    Both searches run the shared breadth-first kernel from every element
    over unrestricted left multiplication, one without and one with the
    idempotent letters.  The per-L-class path metric, when provided, runs
    the same kernel on a different graph, its Schützenberger graphs, and
    must match them.  The searches are unrestricted on purpose: left
    multiplication never raises dom, so a word that leaves an L-class
    cannot return to it, and agreement on L-pairs checks exactly that.
    """
    sym = symmetrize(monoid, gens)
    with_idem = sorted(set(sym) | set(monoid.idempotents))
    dom = monoid.dom_table
    same = dom[:, None] == dom[None, :]
    pure = word_distances(monoid, sym)
    others = [(word_distances(monoid, with_idem), {})]
    if metric_table is not None:
        others.append((metric_table.T, {"against": "path-metric"}))
    for other, data in others:
        bad = np.argwhere(same & (pure != other))  # rows are sources t
        if bad.size:
            t, s = bad[0]
            return CheckResult(
                "word-metric-agreement", False, witness=(int(s), int(t)), data=data
            )
    return CheckResult("word-metric-agreement", True)


def check_theta_all(action):
    for s in range(action.monoid.order):
        ok, witness = check_theta_isometry(action, s)
        if not ok:
            return CheckResult("theta-isometry", False, witness=witness)
    return CheckResult("theta-isometry", True)


def run_verification(action, gens, radius=1, basepoint=None, config=None):
    """Run every predicate against an action and one Rips radius.

    Returns (checks, passed).  The basepoint defaults to the smallest
    point of the identity fiber.
    """
    config = config or SweepConfig()
    mon = action.monoid
    checks = []
    x1 = basepoint if basepoint is not None else min(action.identity_fiber())
    radius = Fraction(radius)

    presheaf_report = validate_presheaf(action.presheaf)
    checks.append(
        CheckResult(
            "presheaf-axioms",
            not presheaf_report,
            witness=presheaf_report[0].witness if presheaf_report else None,
        )
    )
    action_report = validate_action(action)
    checks.append(
        CheckResult(
            "action-axioms",
            not action_report,
            witness=action_report[0].witness if action_report else None,
        )
    )
    checks.append(check_theta_all(action))
    checks.append(check_edge_pairing(mon))

    try:
        cm = cayley_metric(mon, gens, config)
        checks.append(
            check_word_metric_agreement(
                mon, gens, metric_table=cm.metric.table, config=config
            )
        )
        checks.append(
            _predicate_result(
                "word-metric-predicates",
                validate_metric_predicates(mon, cm.metric, config=config),
            )
        )
    except InvgeomError as exc:
        checks.append(
            CheckResult("word-metric-predicates", False, data={"error": str(exc)})
        )
        cm = None

    cobound = coboundedness_constant(action, x1)
    checks.append(
        CheckResult(
            "cobounded",
            cobound is not None,
            data={"constant": cobound},
        )
    )
    if cobound is None:
        return checks, False

    try:
        extraction = extract_generators(action, x1, cobound)
        max_chain = max(
            len(c.factors) for c in extraction.certificates
        )
        checks.append(
            CheckResult(
                "generator-extraction",
                True,
                data={
                    "generators": len(extraction.generators),
                    "threshold": extraction.threshold,
                    "max_chain": max_chain,
                },
            )
        )
        cover = properness_witness(action, x1, extraction.threshold)
        covered = coset_cover_holds(mon, cover, extraction.generators)
        checks.append(
            CheckResult(
                "properness-cover",
                covered,
                data={"cover_size": len(cover)},
            )
        )
    except InvgeomError as exc:
        checks.append(
            CheckResult("generator-extraction", False, data={"error": str(exc)})
        )

    if cm is not None:
        try:
            qi = orbit_map_qi(action, x1, gens, config)
            checks.append(
                CheckResult(
                    "orbit-map-qi",
                    bool(qi.order_preserving)
                    and qi.coarse_radius != math.inf,
                    data={
                        "L": str(qi.mult),
                        "C": str(qi.add),
                        "coarse_radius": qi.coarse_radius,
                        "order_preserving": qi.order_preserving,
                    },
                )
            )
        except InvgeomError as exc:
            checks.append(
                CheckResult("orbit-map-qi", False, data={"error": str(exc)})
            )
        bounds = orbit_inequalities(action, x1, gens, config)
        checks.append(
            CheckResult(
                "orbit-inequalities",
                not bounds,
                witness=bounds[0].witness if bounds else None,
            )
        )

    rips = rips_graph(action, x1, radius)
    f1 = properness_witness(action, x1, radius)
    rips_report = validate_metric_predicates(
        mon, rips.metric, f1=f1, config=config
    )
    checks.append(
        _predicate_result(f"rips-predicates-r{radius}", rips_report)
    )
    if radius >= 1:
        embed = rips_embedding_bounds(action, x1, rips)
        checks.append(
            CheckResult(
                f"rips-embedding-bounds-r{radius}",
                not embed,
                witness=embed[0].witness if embed else None,
            )
        )
        if cm is not None:
            try:
                both = qi_constants(
                    np.arange(mon.order), rips.metric, cm.metric
                )
                checks.append(
                    CheckResult(
                        f"rips-vs-word-qi-r{radius}",
                        True,
                        data={"L": str(both.mult), "C": str(both.add)},
                    )
                )
            except InvgeomError as exc:
                checks.append(
                    CheckResult(
                        f"rips-vs-word-qi-r{radius}",
                        False,
                        data={"error": str(exc)},
                    )
                )
    if rips_report.all_passed:
        try:
            cert = quasi_generators_from_metric(
                mon, rips.metric, f1=f1, config=config
            )
            checks.append(
                CheckResult(
                    f"rips-quasi-generators-r{radius}",
                    True,
                    data={"f1_size": len(cert.generators)},
                )
            )
        except InvgeomError as exc:
            checks.append(
                CheckResult(
                    f"rips-quasi-generators-r{radius}",
                    False,
                    data={"error": str(exc)},
                )
            )
    passed = all(c.passed for c in checks)
    return checks, passed


def _predicate_result(name, report):
    failing = [c for c in report.checks if not c.passed]
    return CheckResult(
        name,
        report.all_passed,
        witness=failing[0].witness if failing else None,
        data={"failing": [c.name for c in failing]} if failing else {},
    )
