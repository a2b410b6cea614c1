"""Orbit-map quasi-isometries, Rips graphs, and metric predicates.

Given a validated proper and cobounded action, a finite quasi-generating
set is extracted by chaining orbit representatives along fiber paths, and
the orbit map from the resulting word metric is certified to be an
order-preserving quasi-isometry with explicit constants.  The Rips graph
construction produces a second metric of the same quasi-isometry type.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cayley import word_successors
from .errors import PreconditionError, TheoremViolationError
from .extmetric import (
    INFINITE,
    UNREACHED,
    ExtendedMetric,
    all_pairs_bfs,
    bfs,
    classes,
    first_split,
    successor_array,
    trace_paths,
)
from .monoid import mulclose
from .report import CheckResult, Violation

QI_LADDER = tuple(Fraction(k, 4) for k in range(4, 65))


@dataclass(frozen=True)
class QiReport:
    mult: Fraction                 # multiplicative constant L >= 1
    add: Fraction                  # additive constant C >= 0
    coarse_radius: object          # int, or math.inf if not coarsely onto
    order_preserving: bool | None = None


@dataclass(frozen=True)
class GenerationCertificate:
    """One element's factorization along a fiber path.

    ``path_points`` runs from x1.dom(s) to x1.s through the fiber graph;
    ``representatives`` are the orbit representatives chosen within the
    coboundedness radius of each path point (the last is s itself); and
    ``factors`` are the telescoping products u_i = s_i s_{i-1}^-1 whose
    product recovers the element.
    """

    element: int
    path_points: tuple
    representatives: tuple
    factors: tuple


@dataclass(frozen=True, eq=False)
class GeneratorExtraction:
    generators: tuple       # sorted; every d(x1.s, x1.dom s) <= 2T+1
    certificates: tuple     # one per monoid element
    basepoint: int
    cobound: int            # T
    threshold: int          # 2T+1


@dataclass(frozen=True, eq=False)
class RipsGraph:
    radius: Fraction
    successors: np.ndarray  # (n, width) sorted neighbours, padded with the element
    metric: ExtendedMetric


@dataclass(frozen=True, eq=False)
class MetricPredicateReport:
    components: CheckResult
    uniform_properness: CheckResult

    @property
    def checks(self):
        return (self.components, self.uniform_properness)


@dataclass(frozen=True, eq=False)
class QuasiGenerationCertificate:
    generators: tuple        # F1
    factorizations: dict     # element -> tuple of F1 letters, last applied first


def extract_generators(a, x1, t):
    """Generators within orbit displacement 2T+1, with factorizations.

    Requires a T-cobounded validated action, B(x1, T).S = X, and a
    basepoint in the identity fiber; either failing raises
    PreconditionError.  For every element, a fiber path from x1.dom(s) to
    x1.s is chopped into unit steps, each step point gets the minimal
    orbit representative within distance T, and the telescoping factors
    land in the generating set.  All elements are handled together, one
    path step at a time.  A step that breaks raises TheoremViolationError,
    for the least element that breaks one.

    Once every step holds, the result generates the monoid, so its closure
    is not computed: each element s is the product f_k (... (f_1 f_0)) of
    its on-path factors (``acc`` equals s), and each factor has
    displacement at most 2T+1, so lies in the result (``stray`` is
    empty).  The validated monoid is associative, so s is a product of
    generators in any bracketing.
    """
    mon, p, act = a.monoid, a.presheaf, a.act
    if int(p.proj[x1]) != a.identity_base:
        raise PreconditionError(
            f"basepoint {x1} is not in the identity fiber", witness=(x1,)
        )
    metric = p.metric
    near, dist = metric.row(x1)
    covered = np.zeros(p.num_points, dtype=bool)
    covered[act[near[dist <= t]]] = True
    if not covered.all():
        raise PreconditionError(
            f"action is not {t}-cobounded from basepoint {x1}",
            witness=(int(np.argmin(covered)),),
        )
    threshold = 2 * t + 1
    orbit = act[x1, :]
    dom = mon.dom_table
    displacement = metric.distances(orbit, orbit[dom], fill=INFINITE)
    gens = np.flatnonzero(displacement <= threshold)
    starts = np.flatnonzero(np.bincount(orbit[dom]))
    rows = np.searchsorted(starts, orbit[dom])
    level, parent, column = bfs(p.successors, starts, parents=True)
    path, _, steps = trace_paths(level, parent, column, rows, orbit)
    elems = np.arange(mon.order)
    on_path = np.arange(path.shape[1]) <= steps[:, None]
    # each point's least orbit representative within T, or 0 where none
    # is; s itself ends its path
    nearest = np.zeros(p.num_points, dtype=mon.product.dtype)
    owners = classes(metric.label[orbit], len(metric.points))
    for c, (pts, owner) in enumerate(zip(metric.points, owners)):
        close = metric.block(c)[:, metric.position[orbit[owner]]] <= t
        found = close.any(axis=1)
        nearest[pts[found]] = owner[close[found].argmax(axis=1)]
    reps = nearest[path]
    reps[elems, steps] = elems
    gap = metric.distances(path, orbit[reps])
    unrepresented = on_path & ((gap == UNREACHED) | (gap > t))
    factors = reps.copy()
    factors[:, 1:] = mon.product[reps[:, 1:], mon.inverse[reps[:, :-1]]]
    acc = factors[:, 0]
    for k in range(1, path.shape[1]):
        acc = np.where(k <= steps, mon.product[factors[:, k], acc], acc)
    stray = on_path & (displacement[factors] > threshold)
    failures = (
        level[rows, orbit] == UNREACHED,
        steps + 1 > displacement + 2,
        unrepresented.any(axis=1),
        acc != elems,
        stray.any(axis=1),
    )
    broken = np.flatnonzero(np.logical_or.reduce(failures))
    if broken.size:
        s = int(broken[0])
        row = factors[s, : steps[s] + 1].tolist()
        pt, u = path[s, np.argmax(unrepresented[s])], row[np.argmax(stray[s])]
        reasons = (
            (f"orbit points of {s} and dom({s}) lie in different fibers", None),
            (f"fiber path for {s} longer than distance + 2", None),
            (f"no orbit representative within {t} of point {pt}", None),
            (f"factor product for {s} gives {acc[s]}", (s, tuple(row))),
            (f"factor {u} of {s} fell outside the generating set", (s, u)),
        )
        message, witness = next(r for r, f in zip(reasons, failures) if f[s])
        raise TheoremViolationError(message, witness=witness)
    certs = tuple(
        GenerationCertificate(
            element=s,
            path_points=tuple(path[s, : k + 1].tolist()),
            representatives=tuple(reps[s, : k + 1].tolist()),
            factors=tuple(factors[s, : k + 1].tolist()),
        )
        for s, k in enumerate(steps.tolist())
    )
    return GeneratorExtraction(
        generators=tuple(gens.tolist()),
        certificates=certs,
        basepoint=int(x1),
        cobound=int(t),
        threshold=threshold,
    )


def qi_constants(mapped, da, db):
    """Best (L, C) on a quarter-step ladder for a map between metrics.

    ``mapped`` sends carrier indices of ``da`` into ``db``.  Finiteness
    must correspond exactly in both directions.  For each ladder L the
    exact residual C(L) is the worst affine violation over finite pairs;
    the report carries the smallest L attaining the minimal residual,
    plus the exact coarse-surjectivity radius into ``db``.
    """
    mapped = np.asarray(mapped, dtype=np.intp)
    split = first_split(da.label, db.label[mapped])
    if split is not None:
        raise PreconditionError(
            "map does not preserve finiteness of distances", witness=split
        )
    # the residuals depend only on which distance pairs (x, y) occur; each
    # component of da maps into one of db, as finiteness is preserved
    width = db.max_finite() + 1
    seen = np.zeros((da.max_finite() + 1) * width, dtype=bool)
    for c, pts in enumerate(da.points):
        seen[da.block(c).astype(np.int64) * width + db.among(mapped[pts])] = True
    x, y = np.divmod(np.flatnonzero(seen), width)
    p = np.array([[lad.numerator] for lad in QI_LADDER])
    q = np.array([[lad.denominator] for lad in QI_LADDER])
    # C(L) = max(over / q, under / p, 0) over the common denominator p q
    over = (q * y - p * x).max(axis=1, initial=0) * p[:, 0]
    under = (q * x - p * y).max(axis=1, initial=0) * q[:, 0]
    residual = [
        Fraction(int(r), int(d))
        for r, d in zip(np.maximum(over, under), p[:, 0] * q[:, 0])
    ]
    # min keeps the first of equal residuals, so ties go to the least L
    best = min(range(len(QI_LADDER)), key=residual.__getitem__)
    # the farthest any point lies from the image, if that meets every
    # component
    hit = np.bincount(mapped, minlength=db.size) > 0
    radius = 0
    for c, pts in enumerate(db.points):
        reach = db.block(c)[hit[pts]]
        if not reach.size:
            radius = INFINITE
            break
        radius = max(radius, int(reach.min(axis=0).max()))
    return QiReport(
        mult=QI_LADDER[best],
        add=residual[best],
        coarse_radius=radius,
        order_preserving=None,
    )


def orbit_map_qi(a, x1, word):
    """QiReport for s -> x1.s from the word metric into the presheaf.

    ``word`` is the CayleyMetricTable of the action's monoid.

    Finite distances must correspond to shared fibers exactly (a failure
    raises qi_constants' PreconditionError), and the order-preserving flag
    records whether the natural partial order maps into the presheaf order.
    """
    mon, p = a.monoid, a.presheaf
    orbit = np.asarray(a.act[x1, :], dtype=np.intp)
    base = qi_constants(orbit, word.metric, p.metric)
    # p.leq(x1.s, x1.t) for every pair s <= t at once: s = e t for an
    # idempotent e
    s, t = mon.product[np.array(mon.idempotents, dtype=np.intp)], np.arange(mon.order)
    ordered = bool(np.all(p.restrict[orbit[t], p.proj[orbit[s]]] == orbit[s]))
    return QiReport(
        mult=base.mult,
        add=base.add,
        coarse_radius=base.coarse_radius,
        order_preserving=ordered,
    )


def orbit_inequalities(a, x1, word):
    """Two-sided bounds tying word length to orbit displacement.

    For every element: the word distance from dom(s) to s is at most the
    orbit displacement plus 2, and the displacement is at most the word
    length times the largest displacement among that word's own letters.
    ``word`` is the CayleyMetricTable of the action's monoid.  Returns the
    list of violations (empty when both bounds hold).
    """
    mon, p = a.monoid, a.presheaf
    orbit = a.act[x1, :]
    dom = mon.dom_table
    disp = p.metric.distances(orbit, orbit[dom], fill=INFINITE)
    length = word.metric.distances(np.arange(mon.order), dom, fill=INFINITE)
    steps, words = _shortest_words(mon, word.generators, within_class=True)
    reached = steps != UNREACHED
    odd = np.flatnonzero(reached & (steps != length))
    if odd.size:
        raise TheoremViolationError(
            "recovered word length disagrees with the metric",
            witness=(int(odd[0]),),
        )
    worst = np.where(words >= 0, disp[words], 0.0).max(axis=1, initial=0.0)
    too_long = length > disp + 2
    too_far = reached & (disp > steps * worst)
    out = []
    for s in np.flatnonzero(too_long | ~reached | too_far).tolist():
        if too_long[s]:
            out.append(
                Violation(
                    "word-vs-displacement",
                    (s,),
                    f"word distance {length[s]} exceeds displacement {disp[s]} + 2",
                )
            )
        if not reached[s]:
            out.append(
                Violation("word-vs-displacement", (s,), "no word reaches s")
            )
        elif too_far[s]:
            out.append(
                Violation(
                    "displacement-vs-word",
                    (s,),
                    f"displacement {disp[s]} exceeds {steps[s]} * {worst[s]}",
                )
            )
    return out


def rips_graph(a, x1, radius):
    """Vertices are elements; s ~ t iff their orbit points are within radius.

    Self-loops are excluded; the path metric gives every edge length 1.
    Radius comparisons are exact (integer distances against a rational
    threshold).
    """
    p = a.presheaf
    if int(p.proj[x1]) != a.identity_base:
        raise PreconditionError(
            f"basepoint {x1} is not in the identity fiber", witness=(x1,)
        )
    radius = Fraction(radius)
    if radius < 0:
        raise PreconditionError(f"radius must be non-negative, got {radius}")
    cutoff = math.floor(radius)
    orbit = np.asarray(a.act[x1, :], dtype=np.intp)
    fiber, n = a.presheaf.metric, orbit.size
    # only elements whose orbit points share a component can be close
    edges = [np.zeros(0, dtype=np.intp)]
    for group in classes(fiber.label[orbit]):
        close = fiber.among(orbit[group]) <= cutoff
        np.fill_diagonal(close, False)
        i, j = np.nonzero(close)
        edges.append(group[i] * n + group[j])
    u, v = np.divmod(np.sort(np.concatenate(edges)), n)
    successors = successor_array(n, u, v)
    metric = all_pairs_bfs(successors)
    return RipsGraph(radius=radius, successors=successors, metric=metric)


def rips_embedding_bounds(a, x1, rips):
    """Affine bounds between the Rips metric and orbit distances.

    For every finite pair: d_R(s,t) <= d(x1.s, x1.t)/floor(R) + 1 and
    d(x1.s, x1.t) <= R * d_R(s,t), both checked exactly on integers.
    Orbit distances are integers, so a Rips edge spans at most floor(R);
    the radius must be at least 1.  Returns the list of violations.
    """
    r = rips.radius
    if r < 1:
        raise PreconditionError("bounds need a radius of at least 1")
    step = math.floor(r)
    orbit = np.asarray(a.act[x1, :], dtype=np.intp)
    fiber = a.presheaf.metric
    out = []
    # the finite pairs are those within a group of elements whose orbit
    # points share a component; each group is swept as one block
    for group in classes(fiber.label[orbit]):
        d = fiber.among(orbit[group]).astype(np.int64)
        dr = rips.metric.distances(group[:, None], group, fill=INFINITE)
        lost = np.isinf(dr)
        dr = np.where(lost, 0, dr).astype(np.int64)
        # For each value k of d_R, with R = p/q: f k > d + f iff d < f (k - 1),
        # and q d > p k iff d > floor(p k / q), as d is an integer.  Bounds
        # past int64 make object arrays, which compare exactly too.
        levels = range(int(dr.max(initial=0)) + 1)
        below = np.array([step * (k - 1) for k in levels])
        above = np.array([r.numerator * k // r.denominator for k in levels])
        upper = ~lost & (d < below[dr])
        lipschitz = ~lost & (d > above[dr])
        for i, j in np.argwhere(lost | upper | lipschitz).tolist():
            pair = (int(group[i]), int(group[j]))
            if lost[i, j]:
                out.append(
                    Violation(
                        "rips-finite",
                        pair,
                        "orbit distance finite but Rips distance infinite",
                    )
                )
            if upper[i, j]:
                out.append(
                    Violation(
                        "rips-upper", pair, f"d_R={dr[i, j]} > {d[i, j]}/{step} + 1"
                    )
                )
            if lipschitz[i, j]:
                out.append(
                    Violation(
                        "rips-lipschitz", pair, f"d={d[i, j]} > ({r}) * {dr[i, j]}"
                    )
                )
    # pairs in row-major order, each pair's findings in the order above
    return sorted(out, key=lambda v: v.witness)


def validate_metric_predicates(monoid, metric, f1):
    """Report on the two predicates of a Rips metric on S that can fail.

    Components must be the L-classes, and the finite set ``f1`` must
    witness uniform properness: d_F1(x, y) <= d(x, y) on every finite
    pair.  Write dom(s) = s^-1 s, so that s L t iff dom(s) = dom(t), and
    x1 for the basepoint.  Once the action passes ``validate_action``,
    the Rips metric has three more predicates, with no sweep needed:

    - Every Rips edge joins L-related elements: fiber preservation gives
      p(x1.s) = s^-1 p(x1) s = dom(s), so x1.s and x1.t share a fiber iff
      s L t.  A component can split an L-class, but never joins two.
    - Uniform discreteness: it is a path metric, so distinct points are
      at least 1 apart.
    - Properness: a finite pair (s, t) is L-related, and
      (t s^-1) s = t dom(s) = t dom(t) = t, so its left factor exists.
    - Right-subinvariance: for an edge s ~ t and any g, the action law
      gives x1.(s g) = (x1.s).g, and 1-Lipschitz
      d(x1.s g, x1.t g) <= d(x1.s, x1.t) <= floor(R).  So s g ~ t g, or
      s g = t g, and a path maps to a walk no longer.

    Uniform properness stays a check: a factor t s^-1 of an edge moves
    x1 at most R, but the cover holds it only as f e, and f s may differ
    from t.
    """
    split = first_split(metric.label, monoid.dom_table)
    components = CheckResult(
        "components-are-L-classes", split is None, witness=split
    )
    f1 = tuple(sorted(set(int(f) for f in f1)))
    return MetricPredicateReport(
        components=components,
        uniform_properness=_check_uniform_properness(monoid, metric, f1),
    )


def _check_uniform_properness(monoid, metric, f1):
    """d_F1(x, y) <= d(x, y) for every finite pair, with F1 as the letters.

    Left multiplication never raises dom (``cayley_metric``), so a word
    between two points of one L-class never leaves it.  So from a point
    whose component lies in its L-class, the search runs in that class's
    Schützenberger graph over F1, all such searches in one ``bfs`` over
    the classes; only from the other points does it run over the whole
    Cayley graph.  The witness is the least failing pair.
    """
    n, limit = monoid.order, metric.max_finite()
    lclass = np.searchsorted(monoid.idempotents, monoid.dom_table)
    order = np.argsort(lclass, kind="stable")  # elements L-class by L-class
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    counts = np.bincount(lclass)
    lo = (np.cumsum(counts) - counts)[lclass]  # where each element's class starts
    inside = [bool(np.all(lclass[pts] == lclass[pts[0]])) for pts in metric.points]
    src = np.concatenate([np.zeros(0, dtype=np.intp)] + [
        pts for pts, kept in zip(metric.points, inside) if kept
    ])
    span = counts[lclass[src]]
    within = word_successors(monoid, f1, within_class=True)
    level = bfs(rank[within[order]], rank[src], limit, spans=(lo[src], lo[src] + span))
    found, at = [], 0
    for c, pts in enumerate(metric.points):
        if inside[c]:
            # the rows of pts, each over the L-class in increasing order
            width = counts[lclass[pts[0]]]
            rows = level[at : at + pts.size * width].reshape(pts.size, width)
            at += pts.size * width
            depth = rows[:, rank[pts] - lo[pts]]
        else:
            depth = bfs(word_successors(monoid, f1), pts, limit)[:, pts]
        bad = (depth == UNREACHED) | (depth > metric.block(c))
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), pts.size)
            found.append((int(pts[i]), int(pts[j])))
    witness = min(found) if found else None
    return CheckResult(
        "uniformly-proper", witness is None, witness=witness, data={"f1": f1}
    )


def quasi_generators_from_metric(monoid, metric, report):
    """Recover a quasi-generating set from a uniformly proper metric.

    ``report`` is the metric's MetricPredicateReport, and F1 is its
    uniform-properness witness.  Every non-idempotent s is factored as a
    word of at most ceil(d(s, dom s)) letters of F1 applied to dom(s); the
    closure of F1 with the idempotents must be the whole monoid.  Failures
    raise TheoremViolationError.
    """
    if not report.uniform_properness.passed:
        raise PreconditionError(
            "metric is not uniformly proper with the given witness",
            witness=report.uniform_properness.witness,
        )
    letters = report.uniform_properness.data["f1"]
    steps, words = _shortest_words(monoid, letters, limit=metric.max_finite())
    d = metric.distances(
        np.arange(monoid.order), monoid.dom_table, fill=INFINITE
    )
    moving = ~monoid.idempotent_mask
    far = moving & np.isinf(d)
    unfactored = moving & ((steps == UNREACHED) | (steps > np.ceil(d)))
    bad = np.flatnonzero(far | unfactored)
    if bad.size:
        s = int(bad[0])
        if far[s]:
            raise PreconditionError(
                f"element {s} is infinitely far from its dom", witness=(s,)
            )
        raise TheoremViolationError(
            f"no factorization of {s} within {math.ceil(d[s])} letters",
            witness=(s,),
        )
    factorizations = {
        s: tuple(word[:k])
        for s, (word, k) in enumerate(zip(words.tolist(), steps.tolist()))
        if moving[s]
    }
    closure = mulclose(
        monoid.product, set(letters) | set(monoid.idempotents)
    )
    if closure != frozenset(range(monoid.order)):
        missing = sorted(set(range(monoid.order)) - closure)[0]
        raise TheoremViolationError(
            "witness set does not quasi-generate", witness=(missing,)
        )
    return QuasiGenerationCertificate(
        generators=tuple(letters), factorizations=factorizations
    )


def _shortest_words(monoid, letters, within_class=False, limit=None):
    """A shortest word over letters from dom(s) to s, for every element s.

    Returns ``(steps, words)``: steps[s] is the number of letters of s's
    word, UNREACHED where no word reaches s within ``limit`` letters, and
    row s of ``words`` lists them first-applied first, padded with -1.
    One search runs from all idempotents at once, and every word is read
    off its parents together.  ``within_class`` keeps every prefix in the
    L-class, so the words trace paths of the Schützenberger graphs.
    """
    idem = monoid.idempotents
    level, parent, column = bfs(
        word_successors(monoid, letters, within_class), idem, limit, parents=True
    )
    rows = np.searchsorted(idem, monoid.dom_table)
    elems = np.arange(monoid.order)
    _, columns, _ = trace_paths(level, parent, column, rows, elems)
    letters = np.asarray(letters, dtype=np.intp)
    return level[rows, elems], np.where(columns >= 0, letters[columns], -1)
