"""Cayley graphs, Schützenberger components, and word metrics.

Edges are oriented (s, g s, g).  Within an L-class, edges come in inverse
pairs, so breadth-first search over a symmetric generating set computes
the path metric of each Schützenberger graph; across L-classes the metric
is infinite, and its finite components are checked to be the L-classes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .extmetric import ExtendedMetric, all_pairs_bfs, bfs
from .monoid import mulclose


@dataclass(frozen=True, eq=False)
class LabeledDigraph:
    num_vertices: int
    edges: tuple  # (source, target, label) triples, no duplicates

    def __post_init__(self):
        seen = set()
        for s, t, g in self.edges:
            if not (0 <= s < self.num_vertices and 0 <= t < self.num_vertices):
                raise ValidationError(f"edge ({s},{t},{g}) out of range")
            if (s, t, g) in seen:
                raise ValidationError(f"duplicate edge ({s},{t},{g})")
            seen.add((s, t, g))


@dataclass(frozen=True, eq=False)
class CayleyMetricTable:
    metric: ExtendedMetric
    generators: tuple    # symmetrized quasi-generating set
    components: tuple    # L-class partition realised by the metric


def symmetrize(monoid, gens):
    """Close a generating set under inversion; sorted for determinism."""
    out = set(int(g) for g in gens)
    out |= {monoid.inv(g) for g in list(out)}
    return tuple(sorted(out))


def quasi_generation_witness(monoid, gens):
    """An element unreachable from gens and E(S), or None if none exists."""
    seeds = set(gens) | set(monoid.idempotents)
    reached = mulclose(monoid.product, seeds)
    missing = sorted(set(range(monoid.order)) - reached)
    return missing[0] if missing else None


def symmetric_quasi_generators(monoid, gens):
    """The symmetrized set; PreconditionError unless it quasi-generates."""
    sym = symmetrize(monoid, gens)
    witness = quasi_generation_witness(monoid, sym)
    if witness is not None:
        raise PreconditionError(
            f"not quasi-generating: element {witness} unreachable",
            witness=(witness,),
        )
    return sym


def cayley_graph(monoid, gens):
    """Oriented edge (s, t, g) for every g in gens and s with g s = t."""
    edges = []
    for g in sorted(set(int(x) for x in gens)):
        row = monoid.product[g, :]
        edges.extend((s, int(row[s]), g) for s in range(monoid.order))
    return LabeledDigraph(monoid.order, tuple(edges))


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


def cayley_metric(monoid, gens):
    """Path metric of the Schützenberger graphs over a quasi-generating set.

    The generating set is symmetrized first.  Distances across L-classes
    are infinite; the finite components are checked against the L-class
    partition.
    """
    sym = symmetric_quasi_generators(monoid, gens)
    metric = all_pairs_bfs(word_successors(monoid, sym, within_class=True))
    found = set(frozenset(c) for c in metric.components())
    expected = set(frozenset(c) for c in monoid.lclasses)
    if found != expected:
        raise ValidationError("metric components disagree with L-classes")
    return CayleyMetricTable(
        metric=metric,
        generators=sym,
        components=tuple(tuple(sorted(c)) for c in sorted(found, key=min)),
    )


def word_distances(monoid, letters):
    """Minimum word lengths between all elements under left multiplication.

    Row t, column s is the least k with s = g_k ... g_1 * t over the
    letters, or UNREACHED.  Unlike ``cayley_metric``, the search has no
    L-class restriction.
    """
    everything = np.arange(monoid.order)
    return bfs(word_successors(monoid, sorted(set(letters))), everything)
