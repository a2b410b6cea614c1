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
from .extmetric import UNREACHED, class_pairs, first_split
from .monoid import row_blocks
from .presheaf import MetricPresheaf, cayley_presheaf, column_firsts, fiber_increases
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

    def orbit(self, x1):
        """The row s -> x1.s of a basepoint x1, a point of the identity
        fiber; PreconditionError for any other point."""
        if int(self.presheaf.proj[x1]) != self.identity_base:
            raise PreconditionError(
                f"basepoint {x1} is not in the identity fiber", witness=(x1,)
            )
        return np.asarray(self.act[x1, :], dtype=np.intp)

    def apply(self, x, s):
        return int(self.act[x, s])


def cayley_self_action(monoid, gens):
    """The monoid acting on its own Cayley presheaf by right multiplication.

    ``act`` is the product table read whole, before the presheaf reads
    its columns, so a generated monoid fills its table once.
    """
    act = np.asarray(monoid.product)
    return EtaleAction(monoid=monoid, presheaf=cayley_presheaf(monoid, gens), act=act)


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

    So every theta_s: x -> x.s is an isometry of X.ss^-1 onto X.s^-1 s,
    and ``check_theta_isometry`` cannot fail once these pass.  For x in
    X.ss^-1, x = x.ss^-1, so (x.s).s^-1 = x, and x.s = (x.s).s^-1 s is
    in X.s^-1 s.  So theta_{s^-1} theta_s is the identity on X.ss^-1, and
    likewise theta_s theta_{s^-1} on X.s^-1 s.  Both are 1-Lipschitz, so
    both are isometries.  Infinite distances stay infinite: by fiber
    preservation, theta_{s^-1} maps one fiber into one fiber.
    """
    out = []
    mon, p, act = a.monoid, a.presheaf, a.act
    idem = np.array(mon.idempotents, dtype=np.intp)
    out.extend(
        Violation(
            "extends-restriction",
            (x, mon.idempotents[i]),
            "idempotent does not act as restriction",
        )
        for x, i in column_firsts(act[:, idem] != p.restrict)
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
    # p(x.s) against s^-1 p(x) s, a column per s
    g = np.array(gens, dtype=np.intp)
    conjugate = a.base_of[product[product[mon.inverse[g][:, None], idem], g[:, None]]]
    out.extend(
        Violation("fiber-preservation", (x, gens[j]), "p(x.s) != s^-1 p(x) s")
        for x, j in column_firsts(p.proj[act[:, g]] != conjugate[:, p.proj].T)
    )
    out.extend(
        Violation(
            "lipschitz", (x, y, gens[j]), "action increased a fiber distance"
        )
        for x, y, j in fiber_increases(p, act[:, g])
    )
    return out


def check_theta_isometry(a, s):
    """Does right action by s give an isometry from X.ss^-1 onto X.s^-1 s?

    Compares extended distances (infinite values must agree) over the
    image of restriction by ran(s).  Returns (ok, witness).
    """
    p, act, metric = a.presheaf, a.act, a.presheaf.metric
    ran_local = a.base_of[a.monoid.ran(s)]
    domain = np.flatnonzero(np.bincount(p.restrict[:, ran_local]))
    images = act[domain, s]
    # the pairs finite before, in row-major order, and those finite after only
    i, j = class_pairs(metric.label[domain])
    differ = np.flatnonzero(
        metric.distances(domain[i], domain[j]) != metric.distances(images[i], images[j])
    )
    keys = [(i[k], j[k]) for k in differ[:1]]
    split = first_split(metric.label[domain], metric.label[images])
    keys += [] if split is None else [split]
    if not keys:
        return True, None
    i, j = min(keys)
    return False, (int(domain[i]), int(domain[j]), s)


def coboundedness_constant(a, x1):
    """Least T with B(x1, T) . S = X, or None if some point is unreachable."""
    p, act = a.presheaf, a.act
    a.orbit(x1)  # raises unless x1 is a basepoint
    near, dist = p.metric.row(x1)
    # each point's least level: nearer levels are written last
    best = np.full(p.num_points, UNREACHED)
    for d in range(int(dist.max()), -1, -1):
        best[act[near[dist == d]]] = d
    if np.any(best == UNREACHED):
        return None
    return int(best.max())


def _qualifying(a, y1, radius):
    """Elements s with d(y1.s, y1.dom s) <= radius (always a finite value).

    Distances stay integers, which numpy compares exactly with the floor
    of any rational radius, however large.
    """
    orbit = a.orbit(y1)
    dvals = a.presheaf.metric.distances(orbit, orbit[a.monoid.dom_table])
    cutoff = math.floor(Fraction(radius))
    near = (dvals != UNREACHED) & (dvals <= cutoff)
    return [int(s) for s in np.flatnonzero(near)]


def properness_witness(a, y1, radius):
    """A finite C whose idempotent cosets cover the radius-bounded elements.

    Qualifying elements are those moved at most ``radius`` away from their
    restriction to dom.  Properness asks only for some finite cover by
    translates f.E(S), not a least one, and the monoid is finite, so the
    greedy cover (largest new hit first, ties to the least f) witnesses it;
    ``coset_cover_holds`` checks the cover independently.
    """
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
