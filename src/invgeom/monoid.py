"""Finite inverse monoids as fully enumerated multiplication tables.

Elements are integer indices into an N x N product table.  Monoids built
from partial bijections keep their canonical image arrays and build each
bijection when it is read; indices are assigned by sorting those arrays,
so they are deterministic regardless of generator order.
"""

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError
from .partial_bijection import UNDEFINED, PartialBijection, invert


class Elements(Sequence):
    """The partial bijections of a generated monoid, in index order.

    Backed by the read-only ``count x n`` image matrix, undefined stored
    as n, whose rows are in ``PartialBijection.sort_key`` order.  Element
    i is built, and checked by ``PartialBijection``, when it is read.
    """

    def __init__(self, images):
        images.setflags(write=False)
        self.images = images

    def __len__(self):
        return len(self.images)

    def __getitem__(self, i):
        return self._bijection(self.images[i].tolist())

    def __iter__(self):
        return map(self._bijection, self.images.tolist())

    def __eq__(self, other):
        if isinstance(other, Elements):
            return np.array_equal(self.images, other.images)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def _bijection(self, row):
        n = self.images.shape[1]
        return PartialBijection(n, tuple(UNDEFINED if y == n else y for y in row))


@dataclass(frozen=True, eq=False)
class InverseMonoid:
    product: np.ndarray          # (N, N) element indices
    inverse: np.ndarray          # (N,)
    identity: int
    idempotent_mask: np.ndarray  # (N,) bool
    elements: Elements | None = None  # PartialBijections, when available
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
    leq[monoid.product[idem], np.arange(n)] = True
    return leq


def row_blocks(n):
    """Index arrays of consecutive rows of an n-column table, about 2**14
    entries a block, so that a row-wise sweep holds no N x N temporary."""
    step = max(1, (1 << 14) // n)
    return [np.arange(lo, min(lo + step, n)) for lo in range(0, n, step)]


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
    before it, so every element lies in the closure of the result.  Hence
    a property closed under the product holds on S iff it holds on G, and
    the least element failing it is in G: an element not kept lies in the
    closure of smaller kept ones.
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
    Returns that set.
    """
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
    """Unique inverse of each element; ValidationError if not exactly one.

    Candidates t of s satisfy s t s = s and t s t = t; a block of rows s
    is solved at a time, and the least s without exactly one fails.
    """
    n = product.shape[0]
    elems = np.arange(n)
    inverse = np.empty(n, dtype=product.dtype)
    for s in row_blocks(n):
        st = product[s]          # s t
        ts = product[:, s].T     # t s
        sols = (product[st, s[:, None]] == s[:, None]) & (product[ts, elems] == elems)
        count = np.count_nonzero(sols, axis=1)
        bad = np.flatnonzero(count != 1)
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"element {s[i]} has {count[i]} inverse candidates",
                witness=(int(s[i]), tuple(np.flatnonzero(sols[i]).tolist())),
            )
        inverse[s] = np.argmax(sols, axis=1)
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

    With ``elements`` given, ``product`` must be their composition table
    as ``generate_monoid`` builds it, and neither associativity nor the
    range of its entries is checked.  It is associative because
    composition of maps is.  Its entries are in range by induction over
    the breadth-first levels in which the rows are filled: a letter's row
    is the exact lookup of its products' codes among the elements' codes,
    and every other row a h gathers row a at the entries of the letter
    row h.  So the gather indices are entries of letter rows, all in
    range, and the clip mode never clips; and row a h holds only entries
    of row a, whose level comes before it.

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
    if elements is None and (product.min() < 0 or product.max() >= n):
        bad = np.argwhere((product < 0) | (product >= n))[0]
        raise ValidationError(
            f"table entry out of range at {tuple(bad)}",
            witness=tuple(int(x) for x in bad),
        )
    if not 0 <= identity < n:
        raise ValidationError(f"identity index {identity} out of range")
    _check_identity(product, identity)
    gens = None if elements is not None else _check_associativity(product)
    if inverse is None:
        inverse = _inverse_table(product)
    else:
        inverse = _check_inverse(product, inverse)
    idem_mask = product[np.arange(n), np.arange(n)] == np.arange(n)
    _check_idempotents_commute(product, np.flatnonzero(idem_mask))
    product.setflags(write=False)
    inverse.setflags(write=False)
    idem_mask.setflags(write=False)
    monoid = InverseMonoid(
        product=product,
        inverse=inverse,
        identity=int(identity),
        idempotent_mask=idem_mask,
        elements=elements,
        labels=labels,
    )
    if gens is not None:
        # the set Light's test swept becomes the cached generating_set
        monoid.__dict__["generating_set"] = gens
    return monoid


def from_table(product, identity):
    """Monoid from an explicit product table with opaque element indices."""
    return build_from_tables(np.array(product, dtype=np.int32), identity)


def image_rows(maps, n):
    """Image arrays of partial bijections on n points, undefined stored as n."""
    for f in maps:
        if f.ground_size != n:
            raise ValidationError(
                f"generators live on different ground sets: {f.ground_size} != {n}"
            )
    rows = [[n if y is UNDEFINED else y for y in f.image] for f in maps]
    return np.array(rows, dtype=np.int64).reshape(-1, n)


def image_codes(images):
    """Codes of image arrays on n points, read in base n + 1, most
    significant digit first, so code order is PartialBijection.sort_key
    order (object integers once they pass the int64 range)."""
    n = images.shape[-1]
    digits = [(n + 1) ** k for k in range(n)[::-1]]
    powers = np.array(digits, dtype=np.int64 if digits[0] * (n + 1) < 2**63 else object)
    return images @ powers


def _search(sorted_codes, codes):
    """(positions of ``codes`` in ``sorted_codes``, mask of those not there)."""
    rows = np.searchsorted(sorted_codes, codes)
    # a code past the last one finds the last one, which differs from it
    return rows, sorted_codes[np.minimum(rows, len(sorted_codes) - 1)] != codes


def lookup(sorted_codes, codes):
    """Positions of ``codes`` in ``sorted_codes``, each checked exactly.

    A position must lie inside ``sorted_codes`` and hold the code; the
    first code that is not there raises ValidationError.
    """
    rows, missing = _search(sorted_codes, codes)
    if missing.any():
        i = int(np.argmax(missing))
        raise ValidationError(f"image code {codes[i]} is not an element", witness=(i,))
    return rows


def _first_of_each(codes):
    """(distinct codes in order, the position of each one's first occurrence)."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first], order[first]


def generate_monoid(gens, element_cap=100_000, ground_size=None):
    """Smallest inverse monoid of partial bijections containing ``gens``.

    The result contains the generators, their inverses, and the total
    identity, and is closed under composition.  A closure larger than the
    element cap raises CapacityError.  Every row of the product table is a
    composite of maps, so the table is associative by construction and is
    not swept for it.

    The closure of the identity is enumerated breadth-first by right
    multiplication by the letters (identity, generators and inverses), so
    each element past the letters is a h for a parent a of the level
    before it and a letter h.  A letter's row is the exact lookup of its
    left products; row a h is row a gathered at letter row h, since
    (a h) x = a (h x).  The levels are filled one after another, and the
    rows of a level of at least ``_THREADED_CELLS`` cells are split
    across the CPUs this process may run on.
    """
    gens = list(gens)
    if not gens and ground_size is None:
        return trivial_monoid()
    n = gens[0].ground_size if gens else ground_size
    # Images store undefined as n and end in n -> n, so letters[j][x] is
    # letter j times x.
    seeds = image_rows([PartialBijection.identity(n), *gens, *map(invert, gens)], n)
    _, first = _first_of_each(image_codes(seeds))
    letters = np.pad(seeds[first], ((0, 0), (0, 1)), constant_values=n)
    letters = letters.astype(np.min_scalar_type(n))
    # Breadth-first closure of the identity, the least row letters[0], under
    # right multiplication; a new element is parent * letter, first pair
    # found, and bounds holds where each level starts.  sorted_codes holds
    # the codes of images so far, in order.
    images, parent, letter, bounds = letters[:1, :n], [-1], [-1], [0]
    sorted_codes = image_codes(images)
    while bounds[-1] < len(images):
        frontier = np.pad(images[bounds[-1]:], ((0, 0), (0, 1)), constant_values=n)
        cand = frontier[:, letters[:, :n]].reshape(-1, n)
        codes, first = _first_of_each(image_codes(cand))
        _, new = _search(sorted_codes, codes)
        codes, first = codes[new], first[new]
        if len(images) + len(first) > element_cap:
            raise CapacityError(f"closure exceeded element cap {element_cap}")
        parent = np.append(parent, bounds[-1] + first // len(letters))
        letter = np.append(letter, first % len(letters))
        bounds.append(len(images))
        images = np.concatenate([images, cand[first]])
        sorted_codes = np.sort(np.concatenate([sorted_codes, codes]))

    def index(imgs):
        return lookup(sorted_codes, image_codes(imgs))

    count, rank, letter_rows = len(images), index(images), index(letters[:, :n])
    canon = images[np.argsort(rank)]
    reverse = np.full((count, n + 1), n)  # inverse images; column n is a sink
    reverse[np.arange(count)[:, None], canon] = np.arange(n)
    # Level 0 is the identity and level 1 the other letters, whose rows
    # are at; each later level is its columns of steps: its rows, their
    # parent rows (by rank) and their letters.
    at = [index(image[canon]) for image in letters]
    product = np.empty((count, count), np.int16 if count < 2**15 else np.int32)
    for g, row in zip(letter_rows, at):
        product[g] = row
    steps = np.stack([rank, rank[parent], letter])
    cpus = _usable_cpus()
    for lo, hi in zip(bounds[2:], bounds[3:]):
        workers = min(cpus, hi - lo) if (hi - lo) * count >= _THREADED_CELLS else 1
        _fill_level(product, at, steps[:, lo:hi], workers)
    return build_from_tables(
        product, rank[0], Elements(canon), inverse=index(reverse[:, :n])
    )


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


# A level of fewer table cells than this is filled on the calling thread.
# A row gather takes ~2 ns a cell, so a level this size takes ~2 ms on
# one thread, and a second thread saves ~1 ms of it for the ~0.15 ms it
# takes to start and join (2-core Xeon VM).  Every level of I4 and I5
# stays on one thread, and all but the last two of I6's ten are split.
_THREADED_CELLS = 2**20


def _fill_level(product, at, level, workers):
    """Fill ``product[y]`` with ``product[a]`` gathered at ``at[h]`` for
    each column (y, a, h) of the 3 x m array ``level``, the columns dealt
    round robin to ``workers`` threads, the caller's among them.

    ``ndarray.take`` releases the interpreter lock, and its clip mode
    skips the buffered copy that raise mode makes.  The rows read, of
    earlier levels, are filled before this is called.  All threads are
    joined before this returns, and the first exception raised in any of
    them is raised here.
    """
    errors = []

    def work(k):
        try:
            # memoryviews yield Python ints one at a time: quicker to
            # index with than numpy scalars, and no list is held
            for y, a, h in zip(*map(memoryview, level[:, k::workers])):
                product[a].take(at[h], out=product[y], mode="clip")
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=work, args=(k,))
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def generator_indices(monoid, gens):
    """Sorted indices, without repeats, of partial bijections in ``monoid``."""
    images = monoid.elements.images
    wanted = image_rows(gens, images.shape[1])
    rows = lookup(image_codes(images), image_codes(wanted))
    return tuple(sorted(set(rows.tolist())))


def trivial_monoid():
    return build_from_tables(np.zeros((1, 1), dtype=np.int16), 0)
