"""Presheaves of connected unit-edge graphs over a meet-semilattice.

A presheaf carries points fibered over the base by a projection, with a
restriction map satisfying (x.e).f = x.(ef), x.p(x) = x and p(x.e) = p(x)e.
Each fiber is a connected graph with unit edges; distances across fibers
are infinite.  Restriction must never increase fiber distances.
"""

from dataclasses import dataclass

import numpy as np

from .cayley import symmetric_quasi_generators, word_successors
from .errors import ValidationError
from .extmetric import ExtendedMetric, all_pairs_bfs, successor_array
from .report import Violation


@dataclass(frozen=True, eq=False)
class Semilattice:
    meet: np.ndarray      # (k, k) table over local indices
    labels: tuple | None = None  # e.g. monoid element indices

    @property
    def size(self):
        return int(self.meet.shape[0])

    def validate(self):
        m = self.meet
        k = self.size
        if m.shape != (k, k):
            raise ValidationError(f"meet table is not square: {m.shape}")
        if m.min() < 0 or m.max() >= k:
            raise ValidationError("meet table entry out of range")
        if not np.array_equal(m, m.T):
            e, f = np.argwhere(m != m.T)[0]
            raise ValidationError("meet not commutative", witness=(int(e), int(f)))
        if not np.array_equal(np.diag(m), np.arange(k)):
            e = int(np.argwhere(np.diag(m) != np.arange(k))[0][0])
            raise ValidationError("meet not idempotent", witness=(e,))
        for e in range(k):
            if not np.array_equal(m[m[e, :], :], m[e, m]):
                f, g = np.argwhere(m[m[e, :], :] != m[e, m])[0]
                raise ValidationError(
                    "meet not associative", witness=(e, int(f), int(g))
                )
        return self

    def leq(self, e, f):
        """e <= f in the semilattice order, i.e. ef = e."""
        return int(self.meet[e, f]) == int(e)

    def top(self):
        """The greatest element, or None if there is none."""
        for e in range(self.size):
            if all(self.leq(f, e) for f in range(self.size)):
                return e
        return None


@dataclass(frozen=True, eq=False)
class MetricPresheaf:
    base: Semilattice
    proj: np.ndarray      # (m,) base index of each point
    restrict: np.ndarray  # (m, k) point index
    edges: tuple          # (u, v, label-or-None), oriented, within fibers
    metric: ExtendedMetric
    successors: np.ndarray  # (m, width) in-fiber neighbours, padded with the point

    @property
    def num_points(self):
        return int(self.proj.shape[0])

    def fiber(self, e):
        return tuple(int(x) for x in np.flatnonzero(self.proj == e))

    def distance(self, x, y):
        """Path length in the common fiber graph; inf across fibers."""
        return self.metric.dist(x, y)

    def leq(self, x, y):
        """x <= y iff x is the restriction of y to x's fiber."""
        return int(self.restrict[y, self.proj[x]]) == int(x)

    @classmethod
    def build(cls, base, proj, restrict, edges):
        """Assemble a presheaf, rejecting cross-fiber or disconnected data.

        Edges must join points of a common fiber, and every nonempty fiber
        must be connected; violations raise ValidationError.  The full
        axiom sweep lives in validate_presheaf.
        """
        base.validate()
        proj = np.asarray(proj, dtype=np.int32)
        restrict = np.asarray(restrict, dtype=np.int32)
        m = proj.shape[0]
        k = base.size
        if restrict.shape != (m, k):
            raise ValidationError(
                f"restrict table has shape {restrict.shape}, expected {(m, k)}"
            )
        if m and (proj.min() < 0 or proj.max() >= k):
            raise ValidationError("projection value out of range")
        if m and (restrict.min() < 0 or restrict.max() >= m):
            raise ValidationError("restriction value out of range")
        cleaned = []
        seen = set()
        for u, v, *rest in edges:
            label = rest[0] if rest else None
            if not (0 <= u < m and 0 <= v < m):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if u == v:
                continue
            if proj[u] != proj[v]:
                raise ValidationError(
                    "edge joins different fibers", witness=(int(u), int(v))
                )
            if (u, v, label) in seen:
                continue
            seen.add((u, v, label))
            cleaned.append((int(u), int(v), label))
        u, v = (np.array([e[i] for e in cleaned], dtype=np.intp) for i in (0, 1))
        # both orientations as sorted, distinct keys u * m + v
        key = np.sort(np.concatenate([u * m + v, v * m + u]))
        key = key[np.diff(key, prepend=-1) != 0]
        successors = successor_array(m, *np.divmod(key, m))
        metric = all_pairs_bfs(successors)
        for e in range(k):
            pts = np.flatnonzero(proj == e)
            if pts.size and np.any(
                ~np.isfinite(metric.table[np.ix_(pts, pts)])
            ):
                raise ValidationError(
                    f"fiber {e} is disconnected", witness=(int(e),)
                )
        proj.setflags(write=False)
        restrict.setflags(write=False)
        return cls(
            base=base,
            proj=proj,
            restrict=restrict,
            edges=tuple(cleaned),
            metric=metric,
            successors=successors,
        )


def validate_presheaf(p):
    """Exhaustive sweep of the presheaf axioms; returns a list of findings.

    An empty list means every axiom holds: the two restriction laws, the
    projection law, surjectivity of the projection, fiber connectivity,
    and monotonicity of distances under restriction.
    """
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
                out.append(
                    Violation(
                        "axiom-1",
                        (int(x), e, f),
                        "(x.e).f != x.(ef)",
                    )
                )
    bad2 = np.flatnonzero(restrict[points, proj] != points)
    out.extend(
        Violation("axiom-2", (int(x),), "x.p(x) != x") for x in bad2
    )
    for e in range(k):
        lhs = proj[restrict[:, e]]
        rhs = meet[proj, e]
        for x in np.flatnonzero(lhs != rhs)[:1]:
            out.append(
                Violation("axiom-3", (int(x), e), "p(x.e) != p(x)e")
            )
    present = set(proj.tolist())
    for e in range(k):
        if e not in present:
            out.append(Violation("surjective", (e,), "empty fiber"))
    table = p.metric.table
    for e in range(k):
        pts = np.flatnonzero(proj == e)
        if pts.size == 0:
            continue
        sub = table[np.ix_(pts, pts)]
        if np.any(~np.isfinite(sub)):
            i, j = np.argwhere(~np.isfinite(sub))[0]
            out.append(
                Violation(
                    "connected",
                    (int(pts[i]), int(pts[j])),
                    "fiber not connected",
                )
            )
            continue
        for f in range(k):
            rx = restrict[pts, f]
            res = table[np.ix_(rx, rx)]
            bad = np.argwhere(res > sub)
            for i, j in bad[:1]:
                out.append(
                    Violation(
                        "monotone",
                        (int(pts[i]), int(pts[j]), f),
                        "restriction increased a distance",
                    )
                )
    return out


def cayley_presheaf(monoid, gens):
    """The monoid fibered over its idempotents by dom, with L-class fibers.

    Points are the elements, restriction is right multiplication, and the
    fiber over each idempotent carries the Schützenberger graph on its
    L-class with unit edges.  ``gens`` must be quasi-generating.
    """
    sym = symmetric_quasi_generators(monoid, gens)
    idem = monoid.idempotents
    local = {e: i for i, e in enumerate(idem)}
    k = len(idem)
    meet = np.empty((k, k), dtype=np.int32)
    for i, e in enumerate(idem):
        for j, f in enumerate(idem):
            meet[i, j] = local[monoid.mul(e, f)]
    base = Semilattice(meet=meet, labels=idem)
    n = monoid.order
    proj = np.array([local[monoid.dom(s)] for s in range(n)], dtype=np.int32)
    restrict = monoid.product[:, np.array(idem, dtype=np.intp)].astype(np.int32)
    succ = word_successors(monoid, sym, within_class=True)
    edges = [
        (int(s), int(succ[s, j]), sym[j])
        for j, s in zip(*np.nonzero(succ.T != np.arange(n)))
    ]
    return MetricPresheaf.build(base, proj, restrict, edges)
