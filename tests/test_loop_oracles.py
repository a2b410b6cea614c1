"""The array passes of the geometry layer against the loops they replaced.

Each ``*_loop`` function below is the earlier implementation, kept as the
reference: it walks one element, pair or path step at a time.  The array
version must give the same result on the bundled examples, on seeded
relabellings of them, and on seeded one-entry tampers, where the first
finding and its witness must match too.
"""

import dataclasses
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from invgeom import (
    MetricPresheaf,
    build_example,
    cayley_metric,
    cayley_self_action,
    check_theta_isometry,
    coboundedness_constant,
    extract_generators,
    from_table,
    natural_leq_matrix,
    orbit_inequalities,
    orbit_map_qi,
    qi_constants,
    rips_graph,
    symmetrize,
)
from invgeom.cayley import word_successors
from invgeom.errors import (
    InvgeomError,
    PreconditionError,
    TheoremViolationError,
    ValidationError,
)
from invgeom.extmetric import UNREACHED, bfs, trace_paths
from invgeom.geometry import QI_LADDER, GenerationCertificate, _shortest_words
from invgeom.families import chain_semilattice, cyclic_group_table, semilattice_times_group
from invgeom.monoid import (
    _check_associativity,
    _inverse_table,
    generating_set,
    row_blocks,
)
from invgeom.report import CheckResult, Violation
from invgeom.verify import check_edge_pairing

from conftest import block_metric, dense, mulclose, properness_loop

EXAMPLES = ("trivial", "i1", "i2", "i3", "i4", "chain2_z2", "chain3_z3")
CASES = [(name, None) for name in EXAMPLES] + [
    (name, seed) for name in ("i3", "chain3_z3", "i4") for seed in (1, 2)
]


@lru_cache(maxsize=None)
def example(name, seed):
    """A bundled example, relabelled by a seeded permutation unless seed is None."""
    built = build_example(name)
    monoid, gens = built.monoid, built.quasi_generators
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(monoid.order)
        product = np.empty_like(monoid.product)
        product[perm[:, None], perm[None, :]] = perm[monoid.product]
        monoid = from_table(product, int(perm[monoid.identity]))
        gens = tuple(sorted(int(perm[g]) for g in gens))
    return monoid, gens, cayley_self_action(monoid, gens)


def product_tampers(monoid, count, seed):
    """Unvalidated copies of the monoid with one product entry changed."""
    n = monoid.order
    rng = np.random.default_rng(seed)
    for _ in range(count if n > 1 else 0):
        a, b = (int(x) for x in rng.integers(n, size=2))
        v = int(rng.integers(n - 1))
        product = np.array(monoid.product)
        product[a, b] = v + (v >= product[a, b])
        yield dataclasses.replace(monoid, product=product)


def factor_tampers(monoid, certificates, count, seed):
    """Unvalidated copies of the monoid with the product that makes one
    telescoping factor, r_i r_(i-1)^-1, changed."""
    steps = [(c, i) for c in certificates for i in range(1, len(c.factors))]
    rng = np.random.default_rng(seed)
    for k in rng.permutation(len(steps))[:count]:
        cert, i = steps[k]
        a, b = cert.representatives[i], monoid.inv(cert.representatives[i - 1])
        v = int(rng.integers(monoid.order - 1))
        product = np.array(monoid.product)
        product[a, b] = v + (v >= product[a, b])
        yield dataclasses.replace(monoid, product=product)


def act_tampers(action, count, seed):
    """Copies of the action with one act entry changed."""
    m = action.presheaf.num_points
    rng = np.random.default_rng(seed)
    for _ in range(count if m > 1 else 0):
        x, s = int(rng.integers(m)), int(rng.integers(action.monoid.order))
        act = np.array(action.act)
        act[x, s] = (act[x, s] + rng.integers(1, m)) % m
        yield dataclasses.replace(action, act=act)


def orbit_tampers(action, count, seed):
    """Copies of the action with one point of the identity's orbit moved
    within its fiber, so that displacements, and the generators, change."""
    proj, x1 = action.presheaf.proj, action.monoid.identity
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s = int(rng.integers(action.monoid.order))
        others = np.flatnonzero(proj == proj[action.act[x1, s]])
        others = others[others != action.act[x1, s]]
        if others.size:
            act = np.array(action.act)
            act[x1, s] = rng.choice(others)
            yield dataclasses.replace(action, act=act)


def edge_tampers(action, count, seed):
    """Copies of the action over a presheaf with one fiber edge added."""
    p = action.presheaf
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u = int(rng.integers(p.num_points))
        fiber = np.flatnonzero(p.proj == p.proj[u])
        v = int(rng.choice(fiber))
        if v != u:
            bent = MetricPresheaf.build(p.base, p.proj, p.restrict, [*p.edges, (u, v)])
            yield dataclasses.replace(action, presheaf=bent)


def outcome(f, *args, **kwargs):
    """The value of a call, or the type, message and witness of its error."""
    try:
        return f(*args, **kwargs)
    except InvgeomError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def trace_back_loop(parent, column, row, target):
    vertices, columns = [int(target)], []
    while parent[row, vertices[-1]] >= 0:
        columns.append(int(column[row, vertices[-1]]))
        vertices.append(int(parent[row, vertices[-1]]))
    return vertices[::-1], columns[::-1]


def extract_generators_loop(a, x1, t):
    mon, p, act = a.monoid, a.presheaf, a.act
    cb = coboundedness_constant(a, x1)
    if cb is None or cb > t:
        raise PreconditionError(
            f"action is not {t}-cobounded from basepoint {x1} (constant: {cb})"
        )
    threshold = 2 * t + 1
    table = dense(p.metric)
    orbit = act[x1, :]
    dom = mon.dom_table
    displacement = table[orbit, orbit[dom]]
    gens = tuple(int(s) for s in np.flatnonzero(displacement <= threshold))
    gen_set = frozenset(gens)
    starts = np.flatnonzero(np.bincount(orbit[dom]))
    level, parent, column = bfs(p.successors, starts, parents=True)
    certs = []
    for s in range(mon.order):
        row = int(np.searchsorted(starts, orbit[dom[s]]))
        end = int(orbit[s])
        if level[row, end] == UNREACHED:
            raise TheoremViolationError(
                f"orbit points of {s} and dom({s}) lie in different fibers"
            )
        path = trace_back_loop(parent, column, row, end)[0]
        if len(path) > displacement[s] + 2:
            raise TheoremViolationError(f"fiber path for {s} longer than distance + 2")
        reps = []
        for i, pt in enumerate(path):
            if i == len(path) - 1:
                reps.append(int(s))
                continue
            close = np.flatnonzero(table[pt, orbit] <= t)
            if close.size == 0:
                raise TheoremViolationError(
                    f"no orbit representative within {t} of point {pt}"
                )
            reps.append(int(close[0]))
        factors = [reps[0]]
        for i in range(1, len(reps)):
            factors.append(mon.mul(reps[i], mon.inv(reps[i - 1])))
        acc = factors[0]
        for u in factors[1:]:
            acc = mon.mul(u, acc)
        if acc != s:
            raise TheoremViolationError(
                f"factor product for {s} gives {acc}", witness=(s, tuple(factors))
            )
        stray = [u for u in factors if u not in gen_set]
        if stray:
            raise TheoremViolationError(
                f"factor {stray[0]} of {s} fell outside the generating set",
                witness=(s, stray[0]),
            )
        certs.append(GenerationCertificate(s, tuple(path), tuple(reps), tuple(factors)))
    if mulclose(mon.product, gen_set) != frozenset(range(mon.order)):
        raise TheoremViolationError("extracted set does not generate")
    return gens, tuple(certs), int(cb), threshold


def shortest_words_loop(monoid, letters, within_class=False, limit=None):
    idem = monoid.idempotents
    level, parent, column = bfs(
        word_successors(monoid, letters, within_class), idem, limit, parents=True
    )
    rows = np.searchsorted(idem, monoid.dom_table)
    return [
        None
        if level[row, s] == UNREACHED
        else [int(letters[j]) for j in trace_back_loop(parent, column, row, s)[1]]
        for s, row in enumerate(rows.tolist())
    ]


def edge_pairing_loop(monoid):
    """The reversal test, one label at a time.  It has no moved-loop test
    for idempotent labels: on an associative table that test repeats the
    reversal test (see check_edge_pairing), and the one-entry product
    tampers are not associative, so there it could fail on its own."""
    dom = monoid.dom_table
    elems = np.arange(monoid.order)
    checked = 0
    for x in range(monoid.order):
        s_vec = monoid.product[x, :]
        same = dom[s_vec] == dom
        checked += int(same.sum())
        back = monoid.product[monoid.inv(x), s_vec]
        bad = np.flatnonzero(same & (back != elems))
        if bad.size:
            t = int(bad[0])
            return CheckResult("edge-pairing", False, witness=(x, t, int(s_vec[t])))
    return CheckResult("edge-pairing", True, data={"edges_checked": checked})


def moved_loops(monoid):
    """(label, t) of in-class edges of idempotent labels that are not loops."""
    idem = np.array(monoid.idempotents)
    s = monoid.product[idem]
    dom = monoid.dom_table
    rows, t = np.nonzero((dom[s] == dom) & (s != np.arange(monoid.order)))
    return list(zip(idem[rows].tolist(), t.tolist()))


def natural_leq_loop(monoid):
    n = monoid.order
    idem = np.array(monoid.idempotents, dtype=np.intp)
    leq = np.zeros((n, n), dtype=bool)
    for t in range(n):
        leq[monoid.product[idem, t], t] = True
    return leq


def inverse_table_loop(product):
    n = product.shape[0]
    elems = np.arange(n)
    inverse = np.empty(n, dtype=product.dtype)
    for s in range(n):
        sts = product[product[s, :], s]
        tst = product[product[:, s], elems]
        sols = np.flatnonzero((sts == s) & (tst == elems))
        if sols.size != 1:
            raise ValidationError(
                f"element {s} has {sols.size} inverse candidates",
                witness=(s, tuple(int(t) for t in sols)),
            )
        inverse[s] = sols[0]
    return inverse


def associativity_dense(product):
    """Light's test on whole tables: three N x N tables per generator."""
    gens = generating_set(product)
    for g in gens:
        left = product[product[:, g], :]   # (a g) c
        right = product[:, product[g, :]]  # a (g c)
        if not np.array_equal(left, right):
            a, c = np.argwhere(left != right)[0]
            raise ValidationError(
                f"not associative at ({a},{g},{c})", witness=(int(a), g, int(c))
            )
    return gens


def qi_ladder_loop(mapped, da, db):
    """The (L, C) of qi_constants, one ladder step at a time."""
    a = dense(da)
    b = dense(db)[np.ix_(mapped, mapped)]
    fin = np.isfinite(a)
    av, bv = a[fin], b[fin]
    best = None
    for lad in QI_LADDER:
        p, q = lad.numerator, lad.denominator
        over = np.max(q * bv - p * av) if av.size else 0.0
        under = np.max(q * av - p * bv) if av.size else 0.0
        residual = max(Fraction(int(over), q), Fraction(int(under), p), Fraction(0))
        if best is None or residual < best[1]:
            best = (lad, residual)
    return best


def order_preserved_loop(a, x1):
    orbit = np.asarray(a.act[x1, :], dtype=np.intp)
    for s, t in np.argwhere(natural_leq_loop(a.monoid)):
        if not a.presheaf.leq(int(orbit[s]), int(orbit[t])):
            return False
    return True


def orbit_inequalities_loop(a, x1, word):
    mon, p = a.monoid, a.presheaf
    orbit = a.act[x1, :]
    dom = mon.dom_table
    disp = dense(p.metric)[orbit, orbit[dom]]
    length = dense(word.metric)[np.arange(mon.order), dom]
    words = shortest_words_loop(mon, word.generators, within_class=True)
    out = []
    for s in range(mon.order):
        if length[s] > disp[s] + 2:
            out.append(
                Violation(
                    "word-vs-displacement",
                    (s,),
                    f"word distance {length[s]} exceeds displacement {disp[s]} + 2",
                )
            )
        letters = words[s]
        if letters is None:
            out.append(Violation("word-vs-displacement", (s,), "no word reaches s"))
            continue
        if len(letters) != length[s]:
            raise TheoremViolationError(
                "recovered word length disagrees with the metric", witness=(s,)
            )
        worst = max((float(disp[m]) for m in letters), default=0.0)
        if disp[s] > len(letters) * worst:
            out.append(
                Violation(
                    "displacement-vs-word",
                    (s,),
                    f"displacement {disp[s]} exceeds {len(letters)} * {worst}",
                )
            )
    return out


def extraction_outcome(f, a, x1, t):
    try:
        got = f(a, x1, t)
    except PreconditionError:
        return PreconditionError  # the loop's message also names the constant
    except TheoremViolationError as exc:
        return type(exc), str(exc), exc.witness
    if isinstance(got, tuple):
        return got  # the loop's (gens, certs, cobound, threshold)
    return got.generators, got.certificates, got.cobound, got.threshold


@pytest.mark.parametrize("name,seed", CASES)
def test_extraction_matches_the_loop(name, seed):
    monoid, _, action = example(name, seed)
    x1 = monoid.identity
    t = coboundedness_constant(action, x1)
    certificates = extraction_outcome(extract_generators, action, x1, t)[1]
    assert extraction_outcome(extract_generators_loop, action, x1, t)[1] == certificates
    tampered = [
        *(dataclasses.replace(action, monoid=m)
          for m in factor_tampers(monoid, certificates, 8, seed=5)),
        *act_tampers(action, 8, seed=3),
        *orbit_tampers(action, 8, seed=3),
        *edge_tampers(action, 8, seed=3),
        *(dataclasses.replace(action, monoid=m) for m in product_tampers(monoid, 8, seed=4)),
    ]
    for bad in tampered:
        t = coboundedness_constant(bad, x1)
        t = 0 if t is None else t
        assert extraction_outcome(extract_generators, bad, x1, t) == (
            extraction_outcome(extract_generators_loop, bad, x1, t)
        )


def _words(steps, words):
    return [None if k == UNREACHED else row[:k] for row, k in zip(words.tolist(), steps)]


@pytest.mark.parametrize("name,seed", CASES)
def test_shortest_words_match_the_loop(name, seed):
    monoid, gens, _ = example(name, seed)
    letters = symmetrize(monoid, gens)
    monoids = [monoid, *product_tampers(monoid, 6, seed=5)]
    for m in monoids:
        for within_class in (False, True):
            for limit in (None, 1, 2):
                got = _words(*_shortest_words(m, letters, within_class, limit))
                assert got == shortest_words_loop(m, letters, within_class, limit)


def _metrics(name, seed):
    monoid, gens, action = example(name, seed)
    yield cayley_metric(monoid, gens).metric
    for radius in (1, 2):
        yield rips_graph(action, monoid.identity, radius).metric


@pytest.mark.parametrize("name,seed", CASES)
def test_factor_counts_match_the_loop(name, seed):
    # where every component lies in one L-class, the factor y x^-1 of each
    # finite pair solves f x = y (the properness proof in
    # validate_metric_predicates), so the loop counts exactly those factors
    monoid = example(name, seed)[0]
    n, dom = monoid.order, monoid.dom_table
    rng = np.random.default_rng(6)
    within = 0
    for metric in _metrics(name, seed):
        metrics = [metric]
        for _ in range(6 if n > 1 else 0):
            table = dense(metric)
            x, y = (int(v) for v in rng.integers(n, size=2))
            value = rng.choice([1, 2, 3, -1])
            if value < 0:
                # x alone in its component
                table[x, :] = table[:, x] = np.inf
                table[x, x] = 0
            elif metric.label[x] == metric.label[y]:
                table[x, y] = table[y, x] = value
            else:
                # x and y at that distance, their components joined at it
                a, b = (metric.points[metric.label[v]] for v in (x, y))
                table[np.ix_(a, b)] = table[np.ix_(b, a)] = value
            metrics.append(block_metric(table))
        assert all(np.all(dom[pts] == dom[pts[0]]) for pts in metric.points)
        for m in metrics:
            if not all(np.all(dom[pts] == dom[pts[0]]) for pts in m.points):
                continue
            within += 1
            proper, f1 = properness_loop(monoid, m)
            table = dense(m)
            xs, ys = np.nonzero(np.isfinite(table) & ~np.eye(n, dtype=bool))
            factors, dist = monoid.product[ys, monoid.inverse[xs]], table[xs, ys]
            assert np.array_equal(monoid.product[factors, xs], ys)
            counts = {
                r: len(set(factors[dist <= r].tolist()))
                for r in range(m.max_finite() + 1)
            }
            assert proper == CheckResult("proper", True, data={"factor_counts": counts})
            assert f1 == tuple(sorted(set(factors[dist <= 1].tolist())))
    assert within >= 3  # the word metric and both Rips metrics


@pytest.mark.parametrize("name,seed", CASES)
def test_edge_pairing_matches_the_loop(name, seed):
    monoid = example(name, seed)[0]
    assert check_edge_pairing(monoid) == edge_pairing_loop(monoid)
    assert check_edge_pairing(monoid).passed
    assert moved_loops(monoid) == []  # what the reversal test implies
    for m in product_tampers(monoid, 12, seed=8):
        assert check_edge_pairing(m) == edge_pairing_loop(m)


@pytest.mark.parametrize("name,seed", CASES)
def test_natural_leq_and_inverses_match_the_loops(name, seed):
    monoid = example(name, seed)[0]
    assert np.array_equal(natural_leq_matrix(monoid), natural_leq_loop(monoid))
    for m in product_tampers(monoid, 6, seed=9):
        assert np.array_equal(natural_leq_matrix(m), natural_leq_loop(m))
        got, want = outcome(_inverse_table, m.product), outcome(inverse_table_loop, m.product)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name,seed", CASES)
def test_associativity_matches_the_dense_test(name, seed):
    monoid = example(name, seed)[0]
    tables = [monoid.product] + [m.product for m in product_tampers(monoid, 6, seed=9)]
    for product in tables:
        assert outcome(_check_associativity, product) == outcome(
            associativity_dense, product
        )


@pytest.mark.parametrize("entry, block", [((3, 3), 0), ((100, 200), 1), ((239, 239), 3)])
def test_associativity_witness_in_a_later_row_block(entry, block):
    # 4-chain x Z/60: 68 rows a block, so one changed entry puts the least
    # failing a in the first block or in a later one
    product = np.array(
        semilattice_times_group(chain_semilattice(4), cyclic_group_table(60)).product
    )
    product[entry] = (product[entry] + 1) % 240
    got = outcome(_check_associativity, product)
    assert got == outcome(associativity_dense, product)
    assert got[0] is ValidationError and got[2][0] in row_blocks(240)[block]


@pytest.mark.parametrize("name,seed", CASES)
def test_orbit_checks_match_the_loops(name, seed):
    monoid, gens, action = example(name, seed)
    x1 = monoid.identity
    word = cayley_metric(monoid, gens)
    for a in [action, *act_tampers(action, 8, seed=10), *orbit_tampers(action, 8, seed=10)]:
        got = outcome(orbit_inequalities, a, x1, word)
        assert got == outcome(orbit_inequalities_loop, a, x1, word)
        qi = outcome(orbit_map_qi, a, x1, word)
        if not isinstance(qi, tuple):
            assert qi.order_preserving == order_preserved_loop(a, x1)
            orbit = np.asarray(a.act[x1], dtype=np.intp)
            assert (qi.mult, qi.add) == qi_ladder_loop(orbit, word.metric, a.presheaf.metric)
    for radius in (1, 2):
        rips = rips_graph(action, x1, radius).metric
        qi = qi_constants(np.arange(monoid.order), rips, word.metric)
        expected = qi_ladder_loop(np.arange(monoid.order), rips, word.metric)
        assert (qi.mult, qi.add) == expected


def coboundedness_loop(a, x1):
    """coboundedness_constant as a loop over the basepoint's component,
    one ``np.minimum.at`` over the whole act row per point."""
    best = np.full(a.presheaf.num_points, np.inf)
    for b, d in zip(*a.presheaf.metric.row(x1)):
        np.minimum.at(best, a.act[b, :], d)
    return None if np.isinf(best).any() else int(best.max())


@pytest.mark.parametrize("name,seed", CASES)
def test_coboundedness_matches_the_loop(name, seed):
    action = example(name, seed)[2]
    x1 = action.monoid.identity
    tampers = [*act_tampers(action, 8, seed=11), *orbit_tampers(action, 8, seed=11)]
    for a in [action, *tampers]:
        assert coboundedness_constant(a, x1) == coboundedness_loop(a, x1)


def theta_loop(a, s, table):
    """check_theta_isometry over ``table``, the presheaf's dense N x N table."""
    p = a.presheaf
    domain = np.flatnonzero(np.bincount(p.restrict[:, a.base_of[a.monoid.ran(s)]]))
    images = a.act[domain, s]
    bad = np.argwhere(table[np.ix_(domain, domain)] != table[np.ix_(images, images)])
    if not bad.size:
        return True, None
    return False, (int(domain[bad[0][0]]), int(domain[bad[0][1]]), s)


@pytest.mark.parametrize("name,seed", CASES)
def test_theta_matches_the_dense_sweep(name, seed):
    # one and two act entries changed, so mismatches of finite distances
    # and of finiteness both occur, in several components
    action = example(name, seed)[2]
    once = list(act_tampers(action, 6, seed=12))
    twice = [next(act_tampers(a, 1, seed=13), a) for a in once]
    table = dense(action.presheaf.metric)
    for a in [action, *once, *twice]:
        for s in range(a.monoid.order):
            assert check_theta_isometry(a, s) == theta_loop(a, s, table), s
    # by the identity: point 0's image moved within its component, a
    # distance mismatch, and the last point's image into a component
    # whose least point is above 0, a finiteness mismatch after it
    metric, e = action.presheaf.metric, action.monoid.identity
    comps = metric.points
    home, last = comps[metric.label[0]], action.presheaf.num_points - 1
    away = [c for c in comps if c[0] > 0 and metric.label[last] != metric.label[c[0]]]
    if home.size > 1 and away:
        act = np.array(action.act)
        act[0, e], act[last, e] = home[1], away[0][0]
        bent = dataclasses.replace(action, act=act)
        assert check_theta_isometry(bent, e) == theta_loop(bent, e, table)
        assert not check_theta_isometry(bent, e)[0]


def levels_loop(succ, source, limit):
    """Plain breadth-first search from one source."""
    level = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if limit is not None and level[u] == limit:
            continue
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


@pytest.mark.parametrize("seed", range(6))
def test_bfs_parents_follow_the_tie_rule_on_random_digraphs(seed):
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(5, 40)), int(rng.integers(1, 6))
    # few distinct targets per row, so many vertices have several parents
    succ = rng.integers(0, max(2, n // 3), size=(n, width)) * 3 % n
    sinks = rng.random(n) < 0.2  # only self-loops: nothing beyond them
    succ[sinks] = np.flatnonzero(sinks)[:, None]
    sources = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    for limit in (None, 1, 3):
        level, parent, column = bfs(succ, sources, limit, parents=True)
        assert np.array_equal(level, bfs(succ, sources, limit))
        for row, source in enumerate(sources.tolist()):
            expected = levels_loop(succ.tolist(), source, limit)
            reached = {v for v in range(n) if level[row, v] != UNREACHED}
            assert reached == set(expected)
            for v in reached:
                assert level[row, v] == expected[v]
                if v == source:
                    assert parent[row, v] == column[row, v] == -1
                    continue
                closer = [u for u in reached if level[row, u] == level[row, v] - 1]
                j = min(j for j in range(width) for u in closer if succ[u, j] == v)
                assert column[row, v] == j
                assert parent[row, v] == min(u for u in closer if succ[u, j] == v)
        rows, targets = np.nonzero(level != UNREACHED)
        vertices, columns, steps = trace_paths(level, parent, column, rows, targets)
        for i, (row, v) in enumerate(zip(rows.tolist(), targets.tolist())):
            path, cols = trace_back_loop(parent, column, row, v)
            assert vertices[i, : steps[i] + 1].tolist() == path
            assert columns[i, : steps[i]].tolist() == cols


@pytest.mark.parametrize("seed", range(4))
def test_qi_ladder_matches_the_loop_on_random_tables(seed):
    # residuals from both sides of the affine bound, and ties between steps
    rng = np.random.default_rng(seed)
    n = 12
    # the same few components in both metrics, with random distances
    label = rng.integers(0, 4, size=n)
    same = label[:, None] == label[None, :]
    a, b = (np.where(same, rng.integers(0, 9, size=(n, n)), -1) for _ in range(2))
    da, db = block_metric(a), block_metric(b)
    qi = qi_constants(np.arange(n), da, db)
    assert (qi.mult, qi.add) == qi_ladder_loop(np.arange(n), da, db)
