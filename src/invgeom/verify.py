"""The full predicate suite run by the ``verify`` subcommand.

Each check returns a CheckResult; the suite passes iff every check does.
A check runs only once the checks it rests on have passed, and is
reported as skipped otherwise.  Every sweep is exhaustive, and every
result is deterministic.
"""

import math
from dataclasses import dataclass, replace
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


def check_word_metric_agreement(monoid, gens, metric_table):
    """Word search over M agrees with word search over M and E(S) on L-pairs.

    Both searches run the shared breadth-first kernel from every element
    over unrestricted left multiplication, one without and one with the
    idempotent letters.  The per-L-class path metric ``metric_table`` runs
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
    others = (
        (word_distances(monoid, with_idem), {}),
        (metric_table.T, {"against": "path-metric"}),
    )
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


class _shared:
    """A run's value built on first read, with its outcome cached.

    The outcome is the value or the InvgeomError its build raised; every
    read returns that value or raises that error again, so a failing
    build runs once however many checks read it.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.key = f"_{name}"

    def __get__(self, run, owner=None):
        if run is None:
            return self
        if self.key not in run.__dict__:
            try:
                run.__dict__[self.key] = self.build(run)
            except InvgeomError as exc:
                run.__dict__[self.key] = exc
        outcome = run.__dict__[self.key]
        if isinstance(outcome, InvgeomError):
            raise outcome
        return outcome


@dataclass(frozen=True, eq=False)
class VerificationRun:
    """One run's inputs, and the values that several of its checks read.

    Each shared value is computed when a check first reads it, so it is
    built once per run and not at all when every check reading it is
    skipped.
    """

    action: object
    gens: tuple
    basepoint: int
    radius: Fraction

    @property
    def monoid(self):
        return self.action.monoid

    @_shared
    def word(self):
        return cayley_metric(self.monoid, self.gens)

    @_shared
    def cobound(self):
        return coboundedness_constant(self.action, self.basepoint)

    @_shared
    def extraction(self):
        return extract_generators(self.action, self.basepoint, self.cobound)

    @_shared
    def rips(self):
        return rips_graph(self.action, self.basepoint, self.radius)

    @_shared
    def rips_report(self):
        f1 = properness_witness(self.action, self.basepoint, self.radius)
        return validate_metric_predicates(self.monoid, self.rips.metric, f1=f1)


def _check_table(radius):
    """The checks of one run as (name, prerequisites, check), in report order.

    ``check(run)`` returns the check's CheckResult; its name is the
    table's.  Checks name the functions they call in their bodies, so a
    function rebound on this module is the one that runs.
    """
    table = [
        ("presheaf-axioms", (),
         lambda run: _findings(validate_presheaf(run.action.presheaf))),
        ("action-axioms", ("presheaf-axioms",),
         lambda run: _findings(validate_action(run.action))),
        ("theta-isometry", ("action-axioms",),
         lambda run: check_theta_all(run.action)),
        ("edge-pairing", (),
         lambda run: check_edge_pairing(run.monoid)),
        ("word-metric-agreement", (),
         lambda run: check_word_metric_agreement(
             run.monoid, run.gens, run.word.metric.table
         )),
        ("word-metric-predicates", (),
         lambda run: _predicates(
             validate_metric_predicates(run.monoid, run.word.metric)
         )),
        ("cobounded", ("action-axioms",),
         lambda run: _result(run.cobound is not None, constant=run.cobound)),
        ("generator-extraction", ("cobounded",), _generator_extraction),
        ("properness-cover", ("generator-extraction",), _properness_cover),
        ("orbit-map-qi", ("cobounded", "word-metric-predicates"), _orbit_map_qi),
        ("orbit-inequalities", ("cobounded", "word-metric-predicates"),
         lambda run: _findings(
             orbit_inequalities(run.action, run.basepoint, run.word)
         )),
        (f"rips-predicates-r{radius}", ("action-axioms",),
         lambda run: _predicates(run.rips_report)),
    ]
    if radius >= 1:
        table += [
            (f"rips-embedding-bounds-r{radius}", ("action-axioms",),
             lambda run: _findings(
                 rips_embedding_bounds(run.action, run.basepoint, run.rips)
             )),
            (f"rips-vs-word-qi-r{radius}", ("action-axioms", "word-metric-predicates"),
             _rips_vs_word_qi),
        ]
    table.append(
        (f"rips-quasi-generators-r{radius}", (f"rips-predicates-r{radius}",),
         _rips_quasi_generators)
    )
    return table


def run_verification(action, gens, radius=1, basepoint=None):
    """Run every check against an action and one Rips radius.

    Returns (checks, passed).  The basepoint defaults to the smallest
    point of the identity fiber.  A check whose prerequisite failed or
    was skipped does not run: it fails as skipped and names that
    prerequisite.  An error raised inside a check fails that check.
    """
    radius = Fraction(radius)
    if basepoint is None:
        basepoint = min(action.identity_fiber())
    run = VerificationRun(action, gens, basepoint, radius)
    checks, passed = [], set()
    for name, prerequisites, check in _check_table(radius):
        unmet = [p for p in prerequisites if p not in passed]
        if unmet:
            result = CheckResult(name, False, data={"skipped_after": unmet})
        else:
            try:
                result = replace(check(run), name=name)
            except InvgeomError as exc:
                result = CheckResult(name, False, data={"error": str(exc)})
        if result.passed:
            passed.add(name)
        checks.append(result)
    return checks, len(passed) == len(checks)


def _result(passed, witness=None, **data):
    """A CheckResult to be named by the check table."""
    return CheckResult("", passed, witness=witness, data=data)


def _findings(found):
    """Pass iff a validator found nothing; the first finding is the witness."""
    return _result(not found, found[0].witness if found else None)


def _predicates(report):
    failing = [c for c in report.checks if not c.passed]
    if not failing:
        return _result(True)
    return _result(False, failing[0].witness, failing=[c.name for c in failing])


def _generator_extraction(run):
    extraction = run.extraction
    return _result(
        True,
        generators=len(extraction.generators),
        threshold=extraction.threshold,
        max_chain=max(len(c.factors) for c in extraction.certificates),
    )


def _properness_cover(run):
    extraction = run.extraction
    cover = properness_witness(run.action, run.basepoint, extraction.threshold)
    covered = coset_cover_holds(run.monoid, cover, extraction.generators)
    return _result(covered, cover_size=len(cover))


def _orbit_map_qi(run):
    qi = orbit_map_qi(run.action, run.basepoint, run.word)
    return _result(
        bool(qi.order_preserving) and qi.coarse_radius != math.inf,
        L=str(qi.mult),
        C=str(qi.add),
        coarse_radius=qi.coarse_radius,
        order_preserving=qi.order_preserving,
    )


def _rips_vs_word_qi(run):
    both = qi_constants(
        np.arange(run.monoid.order), run.rips.metric, run.word.metric
    )
    return _result(True, L=str(both.mult), C=str(both.add))


def _rips_quasi_generators(run):
    cert = quasi_generators_from_metric(
        run.monoid, run.rips.metric, run.rips_report
    )
    return _result(True, f1_size=len(cert.generators))
