"""Bundled monoid families and named regression fixtures."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PreconditionError, TheoremViolationError, ValidationError
from .monoid import (
    InverseMonoid, build_from_tables, generate_monoid, generator_indices, trivial_monoid
)
from .partial_bijection import PartialBijection
from .presheaf import Semilattice

MAX_SYMMETRIC_N = 6


def partial_bijection_count(n):
    """Number of partial bijections on n points: sum of C(n,k)^2 k!."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def symmetric_inverse_generators(n):
    """All transpositions plus the rank-(n-1) partial identity."""
    gens = [
        PartialBijection.transposition(n, i, j)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    gens.append(PartialBijection.partial_identity(n, range(n - 1)))
    return gens


def symmetric_inverse_monoid(n):
    """The monoid of all partial bijections on n points, 1 <= n <= 6."""
    if not 1 <= n <= MAX_SYMMETRIC_N:
        raise CapacityError(
            f"n={n} outside supported range 1..{MAX_SYMMETRIC_N}"
        )
    monoid = generate_monoid(symmetric_inverse_generators(n))
    expected = partial_bijection_count(n)
    if monoid.order != expected:
        raise TheoremViolationError(
            f"closure produced {monoid.order} elements, expected {expected}"
        )
    return monoid


def chain_semilattice(k):
    """Meet table of the k-chain 0 < 1 < ... < k-1 (top is k-1)."""
    return np.minimum.outer(np.arange(k), np.arange(k)).astype(np.int32)


def cyclic_group_table(m):
    return ((np.arange(m)[:, None] + np.arange(m)[None, :]) % m).astype(np.int32)


def _group_identity(table):
    """The least e whose row and column are the identity map, or None."""
    n = table.shape[0]
    if table.shape != (n, n):
        return None
    elems = np.arange(n)
    both = (table == elems).all(axis=1) & (table == elems[:, None]).all(axis=0)
    return int(np.argmax(both)) if both.any() else None


def semilattice_times_group(e_table, g_table):
    """Inverse monoid on pairs (e, g) with product (ef, gh).

    The semilattice must have a top element (it provides the identity
    together with the group identity); the second table must be a group.
    Idempotents are exactly the pairs (e, 1).
    """
    e_table = np.asarray(e_table, dtype=np.int32)
    g_table = np.asarray(g_table, dtype=np.int32)
    lattice = Semilattice(meet=e_table)
    lattice.validate()
    top = lattice.top()
    if top is None:
        raise PreconditionError("semilattice has no top element")
    gid = _group_identity(g_table)
    if gid is None:
        raise ValidationError("group table has no identity")
    m = g_table.shape[0]
    # a row holds m distinct values iff its sorted values never repeat
    ordered = np.sort(g_table, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        raise ValidationError(f"group row {np.argmax(repeats)} is not a bijection")
    k = e_table.shape[0]
    product = (
        e_table[:, None, :, None].astype(np.int64) * m
        + g_table[None, :, None, :]
    ).reshape(k * m, k * m)
    labels = tuple(f"(e{e},g{x})" for e in range(k) for x in range(m))
    monoid = build_from_tables(
        product,
        identity=int(top) * m + int(gid),
        labels=labels,
    )
    expected_idem = {e * m + gid for e in range(k)}
    if set(monoid.idempotents) != expected_idem:
        raise TheoremViolationError("idempotents are not the pairs (e, 1)")
    return monoid


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    family: str
    params: dict
    description: str


@dataclass(frozen=True, eq=False)
class BuiltExample:
    spec: ExampleSpec
    monoid: InverseMonoid
    quasi_generators: tuple


_REGISTRY = {}


def _register(spec):
    _REGISTRY[spec.name] = spec
    return spec


for _n in range(1, 6):
    _register(
        ExampleSpec(
            name=f"i{_n}",
            family="symmetric-inverse",
            params={"n": _n},
            description=f"all partial bijections on {_n} "
            f"point{'s' if _n > 1 else ''} "
            f"(order {partial_bijection_count(_n)}), "
            "quasi-generated by the transpositions",
        )
    )
_register(
    ExampleSpec(
        name="trivial",
        family="trivial",
        params={},
        description="the one-element monoid",
    )
)
_register(
    ExampleSpec(
        name="chain2_z2",
        family="semilattice-times-group",
        params={"chain": 2, "cyclic": 2},
        description="2-chain semilattice times Z/2 (order 4, 2 idempotents)",
    )
)
_register(
    ExampleSpec(
        name="chain3_z3",
        family="semilattice-times-group",
        params={"chain": 3, "cyclic": 3},
        description="3-chain semilattice times Z/3 (order 9, 3 idempotents)",
    )
)


def list_examples():
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def build_example(name):
    """Build a registered example with its standard quasi-generating set."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown example {name!r}; choose from {sorted(_REGISTRY)}"
        )
    spec = _REGISTRY[name]
    if spec.family == "trivial":
        return BuiltExample(spec, trivial_monoid(), ())
    if spec.family == "symmetric-inverse":
        n = spec.params["n"]
        monoid = symmetric_inverse_monoid(n)
        transpositions = [
            PartialBijection.transposition(n, i, j)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return BuiltExample(spec, monoid, generator_indices(monoid, transpositions))
    k, m = spec.params["chain"], spec.params["cyclic"]
    monoid = semilattice_times_group(chain_semilattice(k), cyclic_group_table(m))
    top = k - 1
    gens = {top * m + 1, top * m + (m - 1)} if m > 1 else set()
    return BuiltExample(spec, monoid, tuple(sorted(gens)))
