"""Finite inverse monoids as fully enumerated multiplication tables.

Elements are integer indices into an N x N product table.  Monoids built
from partial bijections keep the bijections themselves; indices are
assigned by sorting canonical image arrays, so they are deterministic
regardless of generator order.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError
from .partial_bijection import UNDEFINED, PartialBijection, invert


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
    def generating_set(self):
        """The greedy generating set of the product table."""
        return generating_set(self.product)

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
    """Closure of a set of element indices under the product table.

    It grows by right multiplication by the seeds alone, so it holds every
    product ((s1 s2) s3) ... of seeds: in an associative table, every
    product of seeds.
    """
    member = np.zeros(product.shape[0], dtype=bool)
    member[list(seeds)] = True
    seeds = frontier = np.flatnonzero(member)
    while frontier.size:
        reached = np.zeros_like(member)
        reached[product[np.ix_(frontier, seeds)]] = True
        frontier = np.flatnonzero(reached & ~member)
        member[frontier] = True
    return frozenset(np.flatnonzero(member).tolist())


def generating_set(product):
    """A generating set of the table, chosen greedily in index order.

    Element s is kept when it is not in the closure of the elements kept
    before it, so every element lies in the closure of the result.
    """
    kept, reached = [], frozenset()
    for s in range(product.shape[0]):
        if s not in reached:
            kept.append(s)
            reached = mulclose(product, kept)
    return tuple(kept)


def _check_associativity(product):
    """Light's test: (a g) c = a (g c) for every a, c and g in a generating set.

    Exact for the whole table (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1.2): if g and h pass, so does g h, since
    (a (g h)) c = ((a g) h) c = (a g) (h c) = a (g (h c)) = a ((g h) c),
    and every element is a product ((g1 g2) g3) ... of the generating set.
    """
    for g in generating_set(product):
        left = product[product[:, g], :]   # (a g) c
        right = product[:, product[g, :]]  # a (g c)
        if not np.array_equal(left, right):
            a, c = np.argwhere(left != right)[0]
            raise ValidationError(
                f"not associative at ({a},{g},{c})", witness=(int(a), g, int(c))
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


def _check_inverse(product, inverse):
    """The candidate inverse table, checked in O(N): s t s = s, t s t = t."""
    s, t = np.arange(len(inverse)), np.array(inverse, dtype=product.dtype)
    bad = (product[product[s, t], s] != s) | (product[product[t, s], t] != t)
    if bad.any():
        b = int(np.argmax(bad))
        raise ValidationError(f"{t[b]} is no inverse of {b}", witness=(b, int(t[b])))
    return t


def _check_idempotents_commute(product, idem):
    sub = product[np.ix_(idem, idem)]
    if not np.array_equal(sub, sub.T):
        i, j = np.argwhere(sub != sub.T)[0]
        raise ValidationError(
            "idempotents do not commute",
            witness=(int(idem[i]), int(idem[j])),
        )


def build_from_tables(product, identity, elements=None, labels=None, inverse=None):
    """Validate a product table and assemble the monoid.

    Checks the identity law, associativity by Light's test, uniqueness of
    inverses, and that idempotents commute.  Raises ValidationError with a
    witness on the first failure.

    With ``elements`` given, ``product`` must be their composition table,
    which is associative because composition of maps is; associativity is
    then not checked.

    A candidate ``inverse`` replaces the search for inverses: with commuting
    idempotents it proves them unique (Howie, Fundamentals of Semigroup
    Theory, Thm 5.1.1: a regular monoid with commuting idempotents is inverse).
    """
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
    if elements is None:
        _check_associativity(product)
    if inverse is None:
        inverse = _inverse_table(product)
    else:
        inverse = _check_inverse(product, inverse)
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


def from_table(product, identity):
    """Monoid from an explicit product table with opaque element indices."""
    return build_from_tables(np.array(product, dtype=np.int32), identity)


def generate_monoid(gens, element_cap=100_000, ground_size=None):
    """Smallest inverse monoid of partial bijections containing ``gens``.

    The result contains the generators, their inverses, and the total
    identity, and is closed under composition.  A closure larger than the
    element cap raises CapacityError.  Every row of the product table is a
    composite of maps, so the table is associative by construction and is
    not swept for it.
    """
    gens = list(gens)
    if not gens and ground_size is None:
        return trivial_monoid()
    n = gens[0].ground_size if gens else ground_size
    for g in gens:
        if g.ground_size != n:
            raise ValidationError(
                f"generators live on different ground sets: {g.ground_size} != {n}"
            )
    # Images store undefined as n and end in n -> n, so letters[j][x] is
    # letter j times x.  Codes read images in base n + 1, most significant
    # digit first, so code order is PartialBijection.sort_key order.
    seeds = [PartialBijection.identity(n), *gens, *map(invert, gens)]
    letters = np.unique(
        [[n if y is None else y for y in f.image] + [n] for f in seeds], axis=0
    ).astype(np.min_scalar_type(n))
    digits = [(n + 1) ** k for k in range(n)[::-1]]
    powers = np.array(digits, dtype=np.int64 if digits[0] * (n + 1) < 2**63 else object)
    # Breadth-first closure of the identity, the least row letters[0], under
    # left multiplication; a new element is letter * parent, first pair found.
    images, parent, letter, start = letters[:1, :n], [-1], [-1], 0
    while start < len(images):
        frontier = images[start:]
        cand = letters[:, frontier].reshape(-1, n)
        codes, first = np.unique(cand @ powers, return_index=True)
        first = first[~np.isin(codes, images @ powers)]
        if len(images) + len(first) > element_cap:
            raise CapacityError(f"closure exceeded element cap {element_cap}")
        parent = np.append(parent, start + first % len(frontier))
        letter = np.append(letter, first // len(frontier))
        start, images = len(images), np.concatenate([images, cand[first]])
    sorted_codes = np.sort(images @ powers)

    def index(imgs):
        return np.searchsorted(sorted_codes, imgs @ powers)

    count, rank, letter_rows = len(images), index(images), index(letters[:, :n])
    canon = images[np.argsort(rank)]
    reverse = np.full((count, n + 1), n)  # inverse images; column n is a sink
    reverse[np.arange(count)[:, None], canon] = np.arange(n)
    # Row g*a is row g gathered at row a (clip mode skips a buffered copy);
    # a letter's row is its left products, and any parent row comes first.
    product = np.empty((count, count), np.int16 if count < 2**15 else np.int32)
    for g, image in zip(letter_rows, letters):
        product[g] = index(image[canon])
    gather, deep = np.empty(count, dtype=np.intp), parent > 0
    for y, a, g in zip(rank[deep], rank[parent[deep]], letter_rows[letter[deep]]):
        gather[:] = product[a]
        np.take(product[g], gather, out=product[y], mode="clip")
    elements = tuple(
        PartialBijection(n, tuple(UNDEFINED if y == n else y for y in row))
        for row in canon.tolist()
    )
    return build_from_tables(
        product, rank[0], elements, inverse=index(reverse[:, :n])
    )


def trivial_monoid():
    return build_from_tables(np.zeros((1, 1), dtype=np.int16), 0)
