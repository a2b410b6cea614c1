"""Cayley graphs, Schützenberger components, and word metrics.

A Cayley graph is the successor array of left multiplication,
``word_successors``: column j holds the oriented edges (s, g s) of the
j-th letter g.  Within an L-class, edges come in inverse pairs, so
breadth-first search over a symmetric generating set computes the path
metric of each Schützenberger graph; across L-classes the metric is
infinite.  Its components are the L-classes exactly when the set
quasi-generates, which is how quasi-generation is decided.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .extmetric import ExtendedMetric, all_pairs_bfs, bfs, component_labels


@dataclass(frozen=True, eq=False)
class CayleyMetricTable:
    metric: ExtendedMetric
    generators: tuple    # symmetrized quasi-generating set


def symmetrize(monoid, gens):
    """Close a generating set under inversion; sorted for determinism."""
    out = set(int(g) for g in gens)
    out |= {monoid.inv(g) for g in list(out)}
    return tuple(sorted(out))


def word_successors(monoid, letters, within_class=False):
    """Successor array of left multiplication: succ[s, j] = letters[j] * s.

    With ``within_class``, a product that leaves the L-class of s is
    replaced by s itself, so only Schützenberger-graph edges remain.
    """
    succ = monoid.product[np.asarray(letters, dtype=np.intp)].T
    if within_class:
        dom = monoid.dom_table
        stay = dom[succ] == dom[:, None]
        succ = np.where(stay, succ, np.arange(monoid.order)[:, None])
    return succ


def _require_quasi_generating(monoid, label):
    """PreconditionError unless a symmetric set A quasi-generates: with the
    idempotents E(S), generates the monoid.

    ``label`` numbers the components of the Schützenberger graphs over A,
    whose edges pair up, so s shares a component with dom(s) = s^-1 s iff
    a word over A leads from dom(s) to s.  Those s are exactly the
    closure of A and E(S), so the witness, the least s cut off from
    dom(s), is the least element the closure misses.  If a word w leads
    there, s = w dom(s) is in the closure.  Conversely, if s = x_k ... x_1
    over A and E(S), then s = x_k ... x_1 dom(s).  Left multiplication
    never raises dom, and the last prefix is s, so every prefix
    x_i ... x_1 dom(s) lies in L_s.  There an idempotent letter fixes its
    argument (``cayley_metric``), so the letters from A trace a path from
    dom(s) to s.
    """
    cut = np.flatnonzero(label != label[monoid.dom_table])
    if cut.size:
        s = int(cut[0])
        raise PreconditionError(
            f"not quasi-generating: element {s} unreachable", witness=(s,)
        )


def schutzenberger_graphs(monoid, gens):
    """(sym, succ): the symmetrized set and the successor array of the
    Schützenberger graphs over it, once it is found to quasi-generate."""
    sym = symmetrize(monoid, gens)
    succ = word_successors(monoid, sym, within_class=True)
    _require_quasi_generating(monoid, component_labels(succ))
    return sym, succ


def cayley_metric(monoid, gens):
    """Path metric of the Schützenberger graphs over a quasi-generating set.

    The generating set is symmetrized first.  Distances across L-classes
    are infinite, and a set whose components split an L-class raises
    PreconditionError (``_require_quasi_generating``).

    On L-pairs this is also the word metric of unrestricted left
    multiplication, with or without the idempotent letters, which is
    what ``verify.check_word_metric_agreement`` compares.  Left
    multiplication never raises dom: dom(g u) = u^-1 (g^-1 g) u <= dom(u).
    So a word from t to an element of L_t never leaves L_t.  And an
    idempotent letter e with e t L t fixes t: e t <= t with the same
    dom, so e t = t dom(e t) = t.

    The metric has the five properties of a uniformly proper metric on S,
    with F1 the symmetrized generators, the result's ``generators``, so
    ``verify`` passes word-metric-predicates once it builds.  Write dom(s)
    for s^-1 s, so that s L t iff dom(s) = dom(t).

    - Components: an edge never leaves an L-class, so a component can only
      split one, and then some s is cut off from dom(s), which raises.
    - Uniform discreteness: distances count edges, so distinct points are
      at least 1 apart.
    - Properness: for s L t, (t s^-1) s = t dom(s) = t dom(t) = t.
    - Uniform properness: F1 is the letter set of the search, so each
      edge s -> g s inside L_s is an edge over F1, and d_F1 <= d.
    - Right-subinvariance: for t in L_s, dom(t x) = x^-1 dom(t) x =
      x^-1 dom(s) x, so right multiplication by x maps L_s into L_{s x},
      and an edge t -> g t of L_s to the edge t x -> g (t x) of L_{s x},
      or to a loop.  A path from s to u becomes a walk from s x to u x no
      longer, and d(s x, u x) <= d(s, u).
    """
    sym = symmetrize(monoid, gens)
    metric = all_pairs_bfs(word_successors(monoid, sym, within_class=True))
    _require_quasi_generating(monoid, metric.label)
    return CayleyMetricTable(metric=metric, generators=sym)


def word_distances(monoid, letters):
    """Minimum word lengths between all elements under left multiplication.

    Row t, column s is the least k with s = g_k ... g_1 * t over the
    letters, or UNREACHED.  Unlike ``cayley_metric``, the search has no
    L-class restriction.
    """
    everything = np.arange(monoid.order)
    return bfs(word_successors(monoid, sorted(set(letters))), everything)
