"""The full predicate suite run by the ``verify`` subcommand.

Each check returns a CheckResult; the suite passes iff every check does.
A check runs only once the checks it rests on have passed, and is
reported as skipped otherwise.  Every sweep is exhaustive, and every
result is deterministic.

It runs only checks that some input can fail.  theta-isometry, edge
pairing and word-metric agreement follow from ``validate_action``,
``build_from_tables`` and ``cayley_metric``, whose docstrings prove them.
Their sweeps stay here as test oracles, looked up by name by the
benchmark tracer; they move into the tests once it stops rebinding them.
The word metric's predicates follow from ``cayley_metric`` too, so
word-metric-predicates passes once that metric builds.  On the Rips
metric, ``validate_metric_predicates`` runs the two predicates that can
fail, components and uniform properness over the cover; its docstring
proves the other three from the action axioms.  rips-quasi-generators
follows from those two (the proof is in ``_rips_quasi_generators``).
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
from .extmetric import class_pairs
from .geometry import (
    extract_generators,
    orbit_inequalities,
    orbit_map_qi,
    qi_constants,
    rips_embedding_bounds,
    rips_graph,
    validate_metric_predicates,
)
from .monoid import row_blocks
from .presheaf import validate_presheaf
from .report import CheckResult


def check_edge_pairing(monoid):
    """Within an L-class, every labelled edge reverses under the inverse label.

    For every label x and every t: with s = x t, if dom(s) = dom(t) then
    t = x^-1 s.  Every table ``build_from_tables`` accepts passes (the
    proof is there).  Labels are swept a block of rows at a time; the
    witness is the least failing x, and for it the least t.
    """
    product, dom = monoid.product, monoid.dom_table
    elems = np.arange(monoid.order)
    checked = 0
    for x in row_blocks(monoid.order):
        s = product[x]
        same = dom[s] == dom
        back = same & (product[monoid.inverse[x][:, None], s] != elems)
        bad = np.flatnonzero(back.any(axis=1))
        if bad.size:
            i = bad[0]
            t = int(np.argmax(back[i]))
            return CheckResult(
                "edge-pairing", False, witness=(int(x[i]), t, int(s[i, t]))
            )
        checked += int(np.count_nonzero(same))
    return CheckResult("edge-pairing", True, data={"edges_checked": checked})


def check_word_metric_agreement(monoid, gens, metric):
    """Word search over M agrees with word search over M and E(S) on L-pairs.

    Both searches run the shared breadth-first kernel from every element
    over unrestricted left multiplication, one without and one with the
    idempotent letters.  The per-L-class path metric ``metric`` runs the
    same kernel on a different graph, its Schützenberger graphs, and must
    match them.  They agree on every validated table (the proof is in
    ``cayley_metric``).
    """
    sym = symmetrize(monoid, gens)
    with_idem = sorted(set(sym) | set(monoid.idempotents))
    t, s = class_pairs(monoid.dom_table)  # sources t, in row-major order
    pure = word_distances(monoid, sym)[t, s]
    others = (
        (word_distances(monoid, with_idem)[t, s], {}),
        (metric.distances(s, t, fill=math.inf), {"against": "path-metric"}),
    )
    for other, data in others:
        bad = np.flatnonzero(pure != other)
        if bad.size:
            t, s = t[bad[0]], s[bad[0]]
            return CheckResult(
                "word-metric-agreement", False, witness=(int(s), int(t)), data=data
            )
    return CheckResult("word-metric-agreement", True)


def check_theta_all(action):
    """Is every theta_s an isometry?  Sweeps s over the generating set G.

    Every action that passes ``validate_action`` passes (the proof is
    there).  The sweep is exact given the action axioms: if theta_s and
    theta_u are isometries, then for x in X.su(su)^-1 the point x.s lies
    in X.uu^-1, and theta_su = theta_u theta_s.
    """
    for s in action.monoid.generating_set:
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
        f1 = self.cover(self.radius)
        return validate_metric_predicates(self.monoid, self.rips.metric, f1=f1)

    def cover(self, radius):
        """properness_witness at a radius, built once per floor(radius).

        The cover depends on the radius only through its floor, so the
        extraction threshold and an equal Rips radius share one.
        """
        covers = self.__dict__.setdefault("_covers", {})
        key = math.floor(radius)
        if key not in covers:
            covers[key] = properness_witness(self.action, self.basepoint, key)
        return covers[key]


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
        ("word-metric-predicates", (),
         lambda run: _result(run.word is not None)),
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
    cover = run.cover(extraction.threshold)
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
    """F1 quasi-generates once rips-predicates passes, with |F1| reported.

    Uniform properness gives d_F1(x, y) <= d_R(x, y) on every finite pair,
    and the components are the L-classes, so s and dom(s) share one.  So
    each s is reached from dom(s) within d_R(dom s, s) letters of F1, and
    F1 with the idempotents generates the monoid, as
    ``quasi_generators_from_metric`` would certify.
    """
    return _result(True, f1_size=len(run.rips_report.uniform_properness.data["f1"]))
