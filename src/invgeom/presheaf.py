"""Presheaves of connected unit-edge graphs over a meet-semilattice.

A presheaf carries points fibered over the base by a projection, with a
restriction map satisfying (x.e).f = x.(ef), x.p(x) = x and p(x.e) = p(x)e.
Each fiber is a connected graph with unit edges; distances across fibers
are infinite.  Restriction must never increase fiber distances.
"""

from dataclasses import dataclass

import numpy as np

from .cayley import schutzenberger_graphs
from .errors import ValidationError
from .extmetric import ExtendedMetric, all_pairs_bfs, first_increases, successor_array
from .monoid import index_dtype
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
        laws = (
            ("commutative", m, m.T),  # ef against fe
            ("idempotent", np.diag(m), np.arange(k)),  # ee against e
            ("associative", m[m], m[:, m]),  # (ef)g against e(fg)
        )
        for law, lhs, rhs in laws:
            bad = np.argwhere(lhs != rhs)
            if bad.size:
                raise ValidationError(f"meet not {law}", witness=tuple(bad[0].tolist()))
        return self

    def leq(self, e, f):
        """e <= f in the semilattice order, i.e. ef = e."""
        return int(self.meet[e, f]) == int(e)

    def top(self):
        """The greatest element, or None if there is none."""
        # e is greatest iff fe = f for every f
        top = np.flatnonzero(np.all(self.meet == np.arange(self.size)[:, None], axis=0))
        return int(top[0]) if top.size else None


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

        ``edges`` are (u, v) or (u, v, label) tuples, or (u, v, label) rows
        of an integer array.  Edges must join points of a common fiber, and
        every nonempty fiber must be connected; violations raise
        ValidationError, for the first bad edge given.  Loops and repeats
        are dropped.  The full axiom sweep lives in validate_presheaf.
        """
        base.validate()
        proj = np.asarray(proj, dtype=np.int32)
        restrict = np.asarray(restrict)
        m = proj.shape[0]
        k = base.size
        if restrict.shape != (m, k):
            raise ValidationError(
                f"restrict table has shape {restrict.shape}, expected {(m, k)}"
            )
        if m and (proj.min() < 0 or proj.max() >= k):
            raise ValidationError("projection value out of range")
        if m and restrict.dtype.kind not in "iu":
            raise ValidationError(
                f"restrict table has dtype {restrict.dtype}, not an integer one"
            )
        if m and (restrict.min() < 0 or restrict.max() >= m):
            raise ValidationError("restriction value out of range")
        # checked in the caller's dtype, so narrowing changes no entry
        restrict = restrict.astype(index_dtype(m), copy=False)
        if isinstance(edges, np.ndarray):
            u, v, labels = np.asarray(edges, dtype=np.intp).reshape(-1, 3).T
        else:
            rows = np.array([(*edge, None)[:3] for edge in edges], dtype=object)
            u, v, labels = rows.reshape(-1, 3).T
            u, v = u.astype(np.intp), v.astype(np.intp)
        inside = (0 <= u) & (u < m) & (0 <= v) & (v < m)
        cross = u != v
        cross[inside] &= proj[u[inside]] != proj[v[inside]]
        bad = np.flatnonzero(~inside | cross)
        if bad.size:
            i = bad[0]
            if not inside[i]:
                raise ValidationError(f"edge ({u[i]},{v[i]}) out of range")
            raise ValidationError(
                "edge joins different fibers", witness=(int(u[i]), int(v[i]))
            )
        kept = u != v
        u, v, labels = u[kept], v[kept], labels[kept]
        # both orientations as sorted, distinct keys u * m + v
        key = np.sort(np.concatenate([u * m + v, v * m + u]))
        key = key[np.diff(key, prepend=-1) != 0]
        successors = successor_array(m, *np.divmod(key, m))
        metric = all_pairs_bfs(successors)
        # a fiber is connected iff all its points share one component
        seen = np.zeros(k, dtype=np.intp)
        seen[proj] = metric.label
        split = proj[metric.label != seen[proj]]
        if split.size:
            e = int(split.min())
            raise ValidationError(f"fiber {e} is disconnected", witness=(e,))
        proj.setflags(write=False)
        restrict.setflags(write=False)
        return cls(
            base=base,
            proj=proj,
            restrict=restrict,
            # the first of each (u, v, label), in input order
            edges=tuple(dict.fromkeys(zip(u.tolist(), v.tolist(), labels.tolist()))),
            metric=metric,
            successors=successors,
        )


def column_firsts(bad):
    """(x, j) for each column j of a boolean table with a True entry, x its
    least such row; by j."""
    columns = np.flatnonzero(bad.any(axis=0))
    return zip(bad.argmax(axis=0)[columns].tolist(), columns.tolist())


def fiber_increases(p, maps):
    """(x, y, j) for each fiber and each column j of ``maps`` that increases
    a distance within it: the fiber's least such pair, by fiber, then j.
    Every nonempty fiber is one component of the metric (``build``)."""
    fiber = np.empty(len(p.metric.points), dtype=np.intp)
    fiber[p.metric.label] = p.proj
    found = sorted(first_increases(p.metric, maps), key=lambda f: (fiber[f[0]], f[1]))
    return [(x, y, j) for _, j, x, y in found]


def validate_presheaf(p):
    """Exhaustive sweep of the presheaf axioms; returns a list of findings.

    An empty list means every axiom holds: the two restriction laws, the
    projection law, surjectivity of the projection, and monotonicity of
    distances under restriction.  Fiber connectivity is not swept here:
    ``MetricPresheaf.build``, the only constructor, rejects a
    disconnected fiber.
    """
    out = []
    proj, restrict, meet = p.proj, p.restrict, p.base.meet
    points = np.arange(p.num_points)
    for e in range(p.base.size):
        # at (x, f): (x.e).f against x.(ef)
        bad = restrict[restrict[:, e]] != restrict[:, meet[e]]
        out.extend(
            Violation("axiom-1", (x, e, f), "(x.e).f != x.(ef)")
            for x, f in column_firsts(bad)
        )
    bad2 = np.flatnonzero(restrict[points, proj] != points)
    out.extend(
        Violation("axiom-2", (int(x),), "x.p(x) != x") for x in bad2
    )
    out.extend(
        Violation("axiom-3", (x, e), "p(x.e) != p(x)e")
        for x, e in column_firsts(proj[restrict] != meet[proj])
    )
    out.extend(
        Violation("surjective", (int(e),), "empty fiber")
        for e in np.flatnonzero(np.bincount(proj, minlength=p.base.size) == 0)
    )
    out.extend(
        Violation("monotone", (x, y, f), "restriction increased a distance")
        for x, y, f in fiber_increases(p, restrict)
    )
    return out


def cayley_presheaf(monoid, gens):
    """The monoid fibered over its idempotents by dom, with L-class fibers.

    Points are the elements, restriction is right multiplication, and the
    fiber over each idempotent carries the Schützenberger graph on its
    L-class with unit edges.  ``gens`` must be quasi-generating.
    """
    sym, succ = schutzenberger_graphs(monoid, gens)
    idem = np.array(monoid.idempotents, dtype=np.intp)
    local = np.full(monoid.order, -1, dtype=np.int32)
    local[idem] = np.arange(idem.size)
    base = Semilattice(
        meet=local[monoid.product[np.ix_(idem, idem)]], labels=monoid.idempotents
    )
    restrict = monoid.product[:, idem]
    j, s = np.nonzero(succ.T != np.arange(monoid.order))
    edges = np.stack([s, succ[s, j], np.array(sym, dtype=np.intp)[j]], axis=1)
    return MetricPresheaf.build(base, local[monoid.dom_table], restrict, edges)
