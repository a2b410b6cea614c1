"""Right actions of an inverse monoid on a metric presheaf.

An action extends restriction (idempotents act as restriction to their
fiber), obeys the action law, moves fibers by conjugation, and never
increases fiber distances.  Properness and coboundedness are measured
from basepoints in the fiber of the identity idempotent.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .presheaf import MetricPresheaf, cayley_presheaf
from .report import Violation


@dataclass(frozen=True, eq=False)
class EtaleAction:
    monoid: object
    presheaf: MetricPresheaf
    act: np.ndarray  # (num_points, order) point indices

    def __post_init__(self):
        m = self.presheaf.num_points
        n = self.monoid.order
        if self.act.shape != (m, n):
            raise ValidationError(
                f"act table has shape {self.act.shape}, expected {(m, n)}"
            )
        labels = self.presheaf.base.labels
        if labels is None or tuple(labels) != tuple(self.monoid.idempotents):
            raise ValidationError(
                "presheaf base is not the idempotent semilattice of the monoid"
            )

    @cached_property
    def base_of(self):
        """Local base index of each monoid idempotent, -1 at other elements."""
        mask = self.monoid.idempotent_mask
        return np.where(mask, np.cumsum(mask) - 1, -1)

    @cached_property
    def identity_base(self):
        return int(self.base_of[self.monoid.identity])

    def identity_fiber(self):
        """Points of the fiber over the identity idempotent."""
        return self.presheaf.fiber(self.identity_base)

    def apply(self, x, s):
        return int(self.act[x, s])


def cayley_self_action(monoid, gens):
    """The monoid acting on its own Cayley presheaf by right multiplication."""
    p = cayley_presheaf(monoid, gens)
    return EtaleAction(monoid=monoid, presheaf=p, act=monoid.product)


def validate_action(a):
    """Sweep of the four action axioms; empty list iff valid.

    Checks, in order: each idempotent acts as restriction; then, for s in
    the generating set G and every x and t, the action law
    (x.s).t = x.(st), fiber preservation p(x.s) = s^-1 p(x) s, and
    1-Lipschitz behaviour on every fiber.  The elements satisfying each
    of the last three are closed under the product, so sweeping G is
    exact (``monoid.generating_set``):

    - the law: (x.su).t = x.(s(ut)) = ((x.s).u).t;
    - fiber preservation and 1-Lipschitz, given the law: x.su = (x.s).u,
      and x.s, y.s share a fiber.
    """
    out = []
    mon, p, act = a.monoid, a.presheaf, a.act
    idem = mon.idempotents
    for i, e in enumerate(idem):
        bad = np.flatnonzero(act[:, e] != p.restrict[:, i])
        for x in bad[:1]:
            out.append(
                Violation(
                    "extends-restriction",
                    (int(x), e),
                    "idempotent does not act as restriction",
                )
            )
    product, gens = mon.product, mon.generating_set
    for s in gens:
        lhs = act[act[:, s], :]
        rhs = act[:, product[s, :]]
        if not np.array_equal(lhs, rhs):
            x, t = np.argwhere(lhs != rhs)[0]
            out.append(
                Violation(
                    "action-law",
                    (int(x), s, int(t)),
                    "(x.s).t != x.(st)",
                )
            )
    proj, idem = p.proj, np.array(idem, dtype=np.intp)
    for s in gens:
        lhs = proj[act[:, s]]
        rhs = a.base_of[product[product[mon.inv(s), idem], s]][proj]
        bad = np.flatnonzero(lhs != rhs)
        for x in bad[:1]:
            out.append(
                Violation(
                    "fiber-preservation",
                    (int(x), s),
                    "p(x.s) != s^-1 p(x) s",
                )
            )
    table = p.metric.table
    for i in range(len(idem)):
        pts = np.flatnonzero(proj == i)
        sub = table[np.ix_(pts, pts)]
        for s in gens:
            imgs = act[pts, s]
            res = table[np.ix_(imgs, imgs)]
            bad = np.argwhere(res > sub)
            for bi, bj in bad[:1]:
                out.append(
                    Violation(
                        "lipschitz",
                        (int(pts[bi]), int(pts[bj]), s),
                        "action increased a fiber distance",
                    )
                )
    return out


def check_theta_isometry(a, s):
    """Does right action by s give an isometry from X.ss^-1 onto X.s^-1 s?

    Compares extended distances (infinite values must agree) over the
    image of restriction by ran(s).  Returns (ok, witness).
    """
    p, act = a.presheaf, a.act
    ran_local = a.base_of[a.monoid.ran(s)]
    domain = np.flatnonzero(np.bincount(p.restrict[:, ran_local]))
    images = act[domain, s]
    before = p.metric.table[np.ix_(domain, domain)]
    after = p.metric.table[np.ix_(images, images)]
    if np.array_equal(before, after):
        return True, None
    i, j = np.argwhere(before != after)[0]
    return False, (int(domain[i]), int(domain[j]), s)


def coboundedness_constant(a, x1):
    """Least T with B(x1, T) . S = X, or None if some point is unreachable."""
    p, act = a.presheaf, a.act
    if int(p.proj[x1]) != a.identity_base:
        raise PreconditionError(
            f"basepoint {x1} is not in the identity fiber", witness=(x1,)
        )
    row = p.metric.table[x1]
    best = np.full(p.num_points, math.inf)
    for b in np.flatnonzero(np.isfinite(row)):
        np.minimum.at(best, act[b, :], row[b])
    if np.any(np.isinf(best)):
        return None
    return int(best.max())


def _qualifying(a, y1, radius):
    """Elements s with d(y1.s, y1.dom s) <= radius (always a finite value)."""
    act = a.act
    dom = a.monoid.dom_table
    pts_s = act[y1, :]
    pts_d = act[y1, dom]
    dvals = a.presheaf.metric.table[pts_s, pts_d]
    cutoff = math.floor(Fraction(radius))
    return [int(s) for s in np.flatnonzero(dvals <= cutoff)]


def properness_witness(a, y1, radius):
    """A finite C whose idempotent cosets cover the radius-bounded elements.

    Qualifying elements are those moved at most ``radius`` away from their
    restriction to dom.  Properness asks only for some finite cover by
    translates f.E(S), not a least one, and the monoid is finite, so the
    greedy cover (largest new hit first, ties to the least f) witnesses it;
    ``coset_cover_holds`` checks the cover independently.
    """
    p = a.presheaf
    if int(p.proj[y1]) != a.identity_base:
        raise PreconditionError(
            f"basepoint {y1} is not in the identity fiber", witness=(y1,)
        )
    uncovered = set(_qualifying(a, y1, radius))
    mon = a.monoid
    cosets = mon.product[:, np.array(mon.idempotents, dtype=np.intp)]
    hits = [uncovered.intersection(row) for row in cosets.tolist()]
    chosen = []
    while uncovered:
        # max keeps the first of equal gains, so ties go to the least f
        best = max(range(mon.order), key=lambda f: len(hits[f] & uncovered))
        chosen.append(best)
        uncovered -= hits[best]
    return tuple(sorted(chosen))


def coset_cover_holds(monoid, cover, elements):
    """Check that every element lies in f.E(S) for some f in the cover."""
    idem = np.array(monoid.idempotents, dtype=np.intp)
    covered = set()
    for f in cover:
        covered.update(int(x) for x in monoid.product[f, idem])
    return all(s in covered for s in elements)
