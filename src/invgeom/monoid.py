"""Finite inverse monoids as fully enumerated multiplication tables.

Elements are integer indices into an N x N product table.  Monoids built
from partial bijections keep the bijections themselves; indices are
assigned by sorting canonical image arrays, so they are deterministic
regardless of generator order.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SweepConfig
from .errors import CapacityError, ValidationError
from .partial_bijection import UNDEFINED, PartialBijection, compose, invert


@dataclass(frozen=True, eq=False)
class InverseMonoid:
    product: np.ndarray          # (N, N) element indices
    inverse: np.ndarray          # (N,)
    identity: int
    idempotent_mask: np.ndarray  # (N,) bool
    elements: tuple | None = None  # PartialBijections, when available
    labels: tuple | None = None    # printable names, when available

    @property
    def order(self):
        return int(self.product.shape[0])

    def mul(self, a, b):
        return int(self.product[a, b])

    def inv(self, s):
        return int(self.inverse[s])

    def dom(self, s):
        """The idempotent s^-1 s."""
        return int(self.dom_table[s])

    def ran(self, s):
        """The idempotent s s^-1."""
        return int(self.ran_table[s])

    @cached_property
    def dom_table(self):
        n = self.order
        return self.product[self.inverse, np.arange(n)]

    @cached_property
    def ran_table(self):
        n = self.order
        return self.product[np.arange(n), self.inverse]

    @cached_property
    def idempotents(self):
        return tuple(int(e) for e in np.flatnonzero(self.idempotent_mask))

    def is_idempotent(self, s):
        return bool(self.idempotent_mask[s])

    def natural_leq(self, s, t):
        """s <= t iff s = e t for some idempotent e (scan over all of E)."""
        col = self.product[np.asarray(self.idempotents), t]
        return bool(np.any(col == s))

    def green_L(self, s, t):
        return self.dom(s) == self.dom(t)

    def green_R(self, s, t):
        return self.ran(s) == self.ran(t)

    @cached_property
    def lclasses(self):
        """L-classes as tuples of element indices, keyed by shared dom."""
        by_dom = {}
        for s, d in enumerate(self.dom_table):
            by_dom.setdefault(int(d), []).append(s)
        return tuple(tuple(by_dom[d]) for d in sorted(by_dom))

    def element_label(self, s):
        if self.labels is not None:
            return self.labels[s]
        if self.elements is not None:
            return self.elements[s].short()
        return str(s)

    def __repr__(self):
        return f"InverseMonoid(order={self.order}, idempotents={len(self.idempotents)})"


def natural_leq_matrix(monoid):
    """Boolean matrix of the natural partial order: leq[s, t] iff s = e t."""
    n = monoid.order
    idem = np.array(monoid.idempotents, dtype=np.intp)
    leq = np.zeros((n, n), dtype=bool)
    for t in range(n):
        leq[monoid.product[idem, t], t] = True
    return leq


def mulclose(product, seeds):
    """Closure of a set of element indices under the product table."""
    n = product.shape[0]
    member = np.zeros(n, dtype=bool)
    seeds = list(seeds)
    if not seeds:
        return frozenset()
    member[seeds] = True
    frontier = np.flatnonzero(member)
    while frontier.size:
        current = np.flatnonzero(member)
        prods = np.concatenate(
            [
                product[np.ix_(current, frontier)].ravel(),
                product[np.ix_(frontier, current)].ravel(),
            ]
        )
        fresh = np.unique(prods)
        fresh = fresh[~member[fresh]]
        member[fresh] = True
        frontier = fresh
    return frozenset(int(i) for i in np.flatnonzero(member))


def _check_associativity(product, config):
    n = product.shape[0]
    if n <= config.assoc_exhaustive_cap:
        for i in range(n):
            left = product[product[i, :], :]   # (i j) k
            right = product[i, product]        # i (j k)
            if not np.array_equal(left, right):
                j, k = np.argwhere(left != right)[0]
                raise ValidationError(
                    f"not associative at ({i},{j},{k})", witness=(i, int(j), int(k))
                )
    else:
        rng = np.random.default_rng(config.seed)
        i, j, k = rng.integers(0, n, size=(3, config.assoc_samples))
        left = product[product[i, j], k]
        right = product[i, product[j, k]]
        bad = np.flatnonzero(left != right)
        if bad.size:
            b = bad[0]
            raise ValidationError(
                f"not associative at sampled triple ({i[b]},{j[b]},{k[b]})",
                witness=(int(i[b]), int(j[b]), int(k[b])),
            )


def _check_identity(product, identity):
    n = product.shape[0]
    elems = np.arange(n)
    if not np.array_equal(product[identity, :], elems):
        s = int(np.argwhere(product[identity, :] != elems)[0][0])
        raise ValidationError(f"1*{s} != {s}", witness=(identity, s))
    if not np.array_equal(product[:, identity], elems):
        s = int(np.argwhere(product[:, identity] != elems)[0][0])
        raise ValidationError(f"{s}*1 != {s}", witness=(s, identity))


def _inverse_table(product):
    """Unique inverse of each element; ValidationError if not exactly one."""
    n = product.shape[0]
    elems = np.arange(n)
    inverse = np.empty(n, dtype=product.dtype)
    for s in range(n):
        st = product[s, :]                 # s t
        sts = product[st, s]               # (s t) s
        ts = product[:, s]                 # t s
        tst = product[ts, elems]           # (t s) t
        sols = np.flatnonzero((sts == s) & (tst == elems))
        if sols.size != 1:
            raise ValidationError(
                f"element {s} has {sols.size} inverse candidates",
                witness=(s, tuple(int(t) for t in sols)),
            )
        inverse[s] = sols[0]
    return inverse


def _check_idempotents_commute(product, idem):
    sub = product[np.ix_(idem, idem)]
    if not np.array_equal(sub, sub.T):
        i, j = np.argwhere(sub != sub.T)[0]
        raise ValidationError(
            "idempotents do not commute",
            witness=(int(idem[i]), int(idem[j])),
        )


def build_from_tables(product, identity, elements=None, labels=None, config=None):
    """Validate a product table and assemble the monoid.

    Checks associativity (exhaustive up to the config cap, seeded sampling
    above), the identity law, uniqueness of inverses, and that idempotents
    commute.  Raises ValidationError with a witness on the first failure.
    """
    config = config or SweepConfig()
    product = np.asarray(product)
    n = product.shape[0]
    if product.ndim != 2 or product.shape[1] != n:
        raise ValidationError(f"product table is not square: {product.shape}")
    if n == 0:
        raise ValidationError("empty product table")
    if product.min() < 0 or product.max() >= n:
        bad = np.argwhere((product < 0) | (product >= n))[0]
        raise ValidationError(
            f"table entry out of range at {tuple(bad)}",
            witness=tuple(int(x) for x in bad),
        )
    if not 0 <= identity < n:
        raise ValidationError(f"identity index {identity} out of range")
    _check_identity(product, identity)
    _check_associativity(product, config)
    inverse = _inverse_table(product)
    idem_mask = product[np.arange(n), np.arange(n)] == np.arange(n)
    _check_idempotents_commute(product, np.flatnonzero(idem_mask))
    product.setflags(write=False)
    inverse.setflags(write=False)
    idem_mask.setflags(write=False)
    return InverseMonoid(
        product=product,
        inverse=inverse,
        identity=int(identity),
        idempotent_mask=idem_mask,
        elements=elements,
        labels=labels,
    )


def from_table(product, identity, config=None):
    """Monoid from an explicit product table with opaque element indices."""
    return build_from_tables(
        np.array(product, dtype=np.int32), identity, config=config
    )


def _closure_of_bijections(gens, element_cap):
    n = gens[0].ground_size if gens else None
    seeds = [PartialBijection.identity(n)] if n else []
    for g in gens:
        seeds.append(g)
        seeds.append(invert(g))
    found = {f.image: f for f in seeds}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for g in seeds:
            for x in frontier:
                y = compose(g, x)
                if y.image not in found:
                    found[y.image] = y
                    fresh.append(y)
                    if len(found) > element_cap:
                        raise CapacityError(
                            f"closure exceeded element cap {element_cap}"
                        )
        frontier = fresh
    return sorted(found.values(), key=PartialBijection.sort_key)


def _image_matrix(elements, n):
    mat = np.empty((len(elements), n), dtype=np.int64)
    for i, f in enumerate(elements):
        mat[i] = [-1 if y is UNDEFINED else y for y in f.image]
    return mat


def _product_table(elements, n):
    """Vectorized composition table; rows deduplicated via base-(n+1) codes."""
    count = len(elements)
    mat = _image_matrix(elements, n)
    powers = (n + 1) ** np.arange(n, dtype=np.int64)
    codes = ((mat + 1) * powers).sum(axis=1)
    use_array = (n + 1) ** n <= 1 << 22
    if use_array:
        lookup = np.full((n + 1) ** n, -1, dtype=np.int64)
        lookup[codes] = np.arange(count)
    else:
        lookup = {int(c): i for i, c in enumerate(codes)}
    dtype = np.int16 if count < 2**15 else np.int32
    table = np.empty((count, count), dtype=dtype)
    defined = mat >= 0
    safe = np.where(defined, mat, 0)
    for a in range(count):
        comp = np.where(defined, mat[a][safe], -1)
        comp_codes = ((comp + 1) * powers).sum(axis=1)
        if use_array:
            table[a] = lookup[comp_codes]
        else:
            table[a] = [lookup[int(c)] for c in comp_codes]
    return table


def generate_monoid(gens, element_cap=None, config=None, ground_size=None):
    """Smallest inverse monoid of partial bijections containing ``gens``.

    The result contains the generators, their inverses, and the total
    identity, and is closed under composition.  A closure larger than the
    element cap raises CapacityError.
    """
    config = config or SweepConfig()
    cap = element_cap if element_cap is not None else config.element_cap
    gens = list(gens)
    if not gens:
        if ground_size is None:
            return trivial_monoid(config=config)
        gens = [PartialBijection.identity(ground_size)]
    n = gens[0].ground_size
    for g in gens:
        if g.ground_size != n:
            raise ValidationError(
                f"generators live on different ground sets: {g.ground_size} != {n}"
            )
    elements = _closure_of_bijections(gens, cap)
    table = _product_table(elements, n)
    index = {f.image: i for i, f in enumerate(elements)}
    identity = index[PartialBijection.identity(n).image]
    return build_from_tables(
        table, identity, elements=tuple(elements), config=config
    )


def trivial_monoid(config=None):
    return build_from_tables(np.zeros((1, 1), dtype=np.int16), 0, config=config)
