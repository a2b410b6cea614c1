"""Finite inverse monoids as fully enumerated multiplication tables.

Elements are integer indices, and ``product[a, b]`` is the index of a b.
A monoid given by its table holds the N x N table.  A monoid generated
from partial bijections holds only its letter rows and its breadth-first
tree (``Products``), and fills the table when it is read whole.  It
keeps its canonical image arrays and builds each bijection when it is
read; indices are assigned by sorting those arrays, so they are
deterministic regardless of generator order.
"""

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


class Products:
    """The product table of a generated monoid, read through its letter rows.

    Backed by the read-only letter rows ``at``, row h holding h x for every
    x, and the breadth-first tree by element index, the rows of ``tree``:
    each element a is ``parent[a]`` times the letter ``letter[a]``, and
    lies ``depth[a]`` letters from the identity, which is its own parent
    by letter 0, the identity.  So a b = parent[a] (letter[a] b), and an
    entry is read by at most depth gathers from the letter rows.  Keys are
    ints, index arrays and slices, in one or two positions, with numpy's
    result shapes.  The table is filled when it is read whole
    (``np.asarray``), once, in one breadth-first pass on the calling
    thread, and every later read indexes it.
    """

    def __init__(self, at, tree):
        at.setflags(write=False)
        tree.setflags(write=False)
        self.at, self.tree = at, tree
        self.parent, self.letter, self.depth = tree
        # where each element's letter row starts in the flat letter rows
        self._start = self.letter * len(self.depth)
        self._table = None

    @property
    def shape(self):
        return (len(self.depth),) * 2

    @property
    def dtype(self):
        return self.at.dtype

    @property
    def nbytes(self):
        """The bytes held: the letter rows, the tree, the row starts, and a
        filled table."""
        held = (self.at, self.tree, self._start, self._table)
        return sum(a.nbytes for a in held if a is not None)

    def __getitem__(self, key):
        if self._table is not None:
            return self._table[key]
        rows, cols = (*(key if isinstance(key, tuple) else (key,)), slice(None))[:2]
        # slices become aranges, shaped to broadcast as numpy lays them out
        n = len(self.depth)
        if isinstance(cols, slice):
            cols = np.arange(*cols.indices(n))
            if not isinstance(rows, slice):
                rows = np.expand_dims(rows, -1)
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(n)).reshape((-1,) + (1,) * np.ndim(cols))
        # rows are checked as they index the tree; columns here, and a
        # negative one counts from the end, as numpy's do.  A boolean
        # mask is refused, not read as columns 0 and 1
        x = np.asarray(cols)
        if x.dtype == bool or x.size and not -n <= x.min() <= x.max() < n:
            raise IndexError(f"column key is not an index in [-{n}, {n})")
        x = np.remainder(x, n, dtype=np.intp)
        # a b = parent[a] (letter[a] b): walk a up the tree, gathering b
        a = np.asarray(rows)
        shape, flat = np.broadcast_shapes(a.shape, x.shape), self.at.ravel()
        for _ in range(self.depth[a].max(initial=0)):
            x = flat[self._start[a] + x]
            a = self.parent[a]
        return np.broadcast_to(x, shape).astype(self.dtype)[()]

    def __array__(self, dtype=None, copy=None):
        if self._table is None:
            self._table = self._filled()
        return np.array(self._table, dtype=dtype, copy=copy)

    def _filled(self):
        """The whole table, read-only, filled in one breadth-first pass on
        the calling thread.  The identity's row is letter row 0, and every
        other row y is the row of parent[y] gathered at letter row
        letter[y], since (p h) x = p (h x); a parent lies a level before
        its child, so its row is filled first.  ``ndarray.take``'s clip
        mode skips the buffered copy that raise mode makes."""
        n = len(self.depth)
        table = np.empty((n, n), self.dtype)
        order = np.argsort(self.depth, kind="stable")
        table[order[0]] = self.at[0]
        at = self.at.astype(np.intp)  # take() converts narrower indices each call
        steps = np.stack([order, self.parent[order], self.letter[order]])[:, 1:]
        # memoryviews yield Python ints one at a time: quicker to index
        # with than numpy scalars, and no list is held
        for y, a, h in zip(*map(memoryview, steps)):
            table[a].take(at[h], out=table[y], mode="clip")
        table.setflags(write=False)
        return table


@dataclass(frozen=True, eq=False)
class InverseMonoid:
    product: np.ndarray | Products  # (N, N) indices; Products if generated
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


def index_dtype(bound):
    """The dtype of every table of indices below ``bound``, in memory as on
    disk: int16 up to a bound of 2**15, int32 above."""
    return np.int16 if bound <= 2**15 else np.int32


def row_blocks(n, width=None):
    """Index arrays of consecutive rows of an n-row table of ``width``
    columns (n by default), about 2**14 entries a block, so that a row-wise
    sweep holds no N x N temporary."""
    step = max(1, (1 << 14) // (n if width is None else max(width, 1)))
    return [np.arange(lo, min(lo + step, n)) for lo in range(0, n, step)]


def generating_set(product):
    """A generating set of the table, chosen greedily in index order.

    Element s is kept when it is not in the closure of the elements kept
    before it, so every element lies in the closure of the result.  Hence
    a property closed under the product holds on S iff it holds on G, and
    the least element failing it is in G: an element not kept lies in the
    closure of smaller kept ones.

    The closure grows by right multiplication by the kept elements, so it
    holds every product ((g1 g2) g3) ... of them, in one pass: when s is
    kept, the old members need only the product by s, and each new member
    the product by every kept element.
    """
    member = np.zeros(product.shape[0], dtype=bool)
    kept = []
    while not member.all():
        s = int(np.argmin(member))  # the least element outside the closure
        kept.append(s)
        seeds = np.array(kept)
        reached = np.zeros_like(member)
        reached[product[np.flatnonzero(member), s]] = True
        reached[s] = True
        while True:
            fresh = np.flatnonzero(reached & ~member)
            if not fresh.size:
                break
            member[fresh] = True
            reached = np.zeros_like(member)
            reached[product[np.ix_(fresh, seeds)]] = True
    return tuple(kept)


def _check_associativity(product):
    """Light's test: (a g) c = a (g c) for every a, c and g in a generating set.

    Exact for the whole table (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1.2): if g and h pass, so does g h, since
    (a (g h)) c = ((a g) h) c = (a g) (h c) = a (g (h c)) = a ((g h) c),
    and every element is a product ((g1 g2) g3) ... of the generating set.
    Returns that set.  A block of rows a is compared at a time, so the
    first failure found is the least a, then the least c, for the first
    failing g.
    """
    gens = generating_set(product)
    for g in gens:
        ag, gc = product[:, g], product[g, :]
        for a in row_blocks(product.shape[0]):
            # (a g) c against a (g c); the rows a are consecutive, so a
            # slice reads them without a copy
            bad = product[ag[a]] != product[a[0] : a[-1] + 1].take(gc, axis=1)
            if bad.any():
                i, c = np.argwhere(bad)[0]
                raise ValidationError(
                    f"not associative at ({a[i]},{g},{c})",
                    witness=(int(a[i]), g, int(c)),
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

    The table must have an integer dtype, and the monoid holds it at
    ``index_dtype`` width (the caller's array when already at it).  Checks
    the identity law, associativity by Light's test, uniqueness of
    inverses, and that idempotents commute.  Raises ValidationError with a
    witness on the first failure.

    A ``Products`` table, the composition table of ``elements`` as
    ``generate_monoid`` builds it, is held as it is, and neither its
    associativity nor the range of its entries is checked; the identity,
    inverse and idempotent checks read its entries.  It is associative
    because composition of maps is.  Its entries are in range by
    induction over the breadth-first levels: a letter row is the exact
    lookup of its products' codes among the elements' codes, so it is in
    range, and the entry a b is read as at[letter[a], x] for x = b or x
    an entry of a letter row, so every read stays in range.  The fill
    gathers row parent[a] at the entries of the letter row letter[a] for
    row a, so the clip mode never clips, and row a holds only entries of
    a row whose level comes before it.

    A candidate ``inverse`` replaces the search for inverses: with commuting
    idempotents it proves them unique (Howie, Fundamentals of Semigroup
    Theory, Thm 5.1.1: a regular monoid with commuting idempotents is inverse).

    Every accepted table pairs the edges of its L-classes, which is what
    ``verify.check_edge_pairing`` sweeps.  Say x t L t, and let e = x^-1 x.
    Then t^-1 e t = (x t)^-1 x t = t^-1 t (Howie, Prop 5.1.2), so
    t = t t^-1 e t = e t t^-1 t = e t, idempotents commuting; and so
    x^-1 (x t) = e t = t.
    """
    generated = isinstance(product, Products)
    if not generated:
        product = np.asarray(product)
        if product.ndim != 2 or product.shape[0] != product.shape[1]:
            raise ValidationError(f"product table is not square: {product.shape}")
        if product.shape[0] == 0:
            raise ValidationError("empty product table")
        if product.dtype.kind not in "iu":
            raise ValidationError(
                f"product table has dtype {product.dtype}, not an integer one"
            )
        n = product.shape[0]
        if product.min() < 0 or product.max() >= n:
            bad = np.argwhere((product < 0) | (product >= n))[0]
            raise ValidationError(
                f"table entry out of range at {tuple(bad)}",
                witness=tuple(int(x) for x in bad),
            )
        # checked in the caller's dtype, so narrowing changes no entry
        product = product.astype(index_dtype(n), copy=False)
    n = product.shape[0]
    if not 0 <= identity < n:
        raise ValidationError(f"identity index {identity} out of range")
    _check_identity(product, identity)
    gens = None if generated else _check_associativity(product)
    if inverse is None:
        inverse = _inverse_table(product)
    else:
        inverse = _check_inverse(product, inverse)
    idem_mask = product[np.arange(n), np.arange(n)] == np.arange(n)
    _check_idempotents_commute(product, np.flatnonzero(idem_mask))
    if not generated:
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
    """Monoid from an explicit product table with opaque element indices;
    a generated monoid's table is read whole and checked as any other."""
    return build_from_tables(np.asarray(product), identity)


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
    order (object integers once they pass the int64 range).  Horner's
    rule over the n columns holds one array of codes, and never the
    images widened to the codes' dtype."""
    n = images.shape[-1]
    wide = (n + 1) ** n >= 2**63
    codes = np.zeros(images.shape[:-1], object if wide else np.int64)
    for k in range(n):
        codes *= n + 1
        codes += images[..., k].astype(object) if wide else images[..., k]
    return codes


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
    each element past the identity is a h for a parent a of the level
    before it and a letter h.  The product table holds no N x N array: it
    is a ``Products`` of the letter rows, each the exact lookup of the
    letter's left products, and of that tree, and it fills the table
    only when it is read whole.

    Memory: beyond the arrays the monoid keeps and O(N) arrays of codes,
    images and tree, the closure holds one ``row_blocks`` block of
    candidates at a time, about 2**14 images with their codes, and no
    level, nor any image array, is widened whole to the codes' dtype.
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
    tree, canon, sorted_codes, identity = _closure(letters, element_cap)
    count = len(canon)
    reverse = np.full((count, n + 1), n, canon.dtype)  # column n is a sink
    reverse[np.arange(count)[:, None], canon] = np.arange(n)
    inverse = lookup(sorted_codes, image_codes(reverse[:, :n]))
    # each letter row is written in place, at the width it is stored at
    at = np.empty((len(letters), count), index_dtype(count))
    for row, image in zip(at, letters):
        row[:] = lookup(sorted_codes, image_codes(image[canon]))
    del reverse, sorted_codes  # not held through the checks
    return build_from_tables(Products(at, tree), identity, Elements(canon), inverse=inverse)


def _closure(letters, element_cap):
    """The breadth-first closure of the identity, the least row
    ``letters[0]``, under right multiplication by the letters: the tree by
    element index, the images in element order, their codes sorted, and
    the identity's index.  Elements are indexed in code order.

    A new element is parent * letter for the first (parent, letter) pair
    of the level before it, in row-major order, and the identity is its
    own parent by letter 0, itself.  A level's candidates are made one
    ``row_blocks`` block of parents at a time.  Each block's codes are
    deduplicated by a stable sort, its distinct codes searched among those
    found before the level, and only the new ones kept, with their first
    positions and images; the first of each code kept over the whole
    level is then its first pair.  A level's images keep the letters'
    sink column, as ``letters[j][n]`` is n.
    """
    n, width = letters.shape[1] - 1, len(letters)
    level = letters[:1]
    levels = [(image_codes(level[:, :n]), level, np.zeros(1, np.intp), np.zeros(1, np.intp))]
    sorted_codes, count = levels[0][0], 1
    while True:
        kept = []
        for rows in row_blocks(len(level), width):
            cand = level[rows[0] : rows[-1] + 1, letters].reshape(-1, n + 1)
            codes, first = _first_of_each(image_codes(cand[:, :n]))
            _, new = _search(sorted_codes, codes)
            first = first[new]
            kept.append((codes[new], rows[0] * width + first, cand[first]))
        codes, pos, images = map(np.concatenate, zip(*kept))
        codes, first = _first_of_each(codes)
        if not len(codes):
            break
        if count + len(codes) > element_cap:
            raise CapacityError(f"closure exceeded element cap {element_cap}")
        pos, level = pos[first], images[first]
        start = count - len(levels[-1][1])  # where the level before starts
        levels.append((codes, level, start + pos // width, pos % width))
        count += len(codes)
        sorted_codes = np.sort(np.concatenate([sorted_codes, codes]))
    codes, images, parent, letter = map(np.concatenate, zip(*levels))
    depth = np.repeat(np.arange(len(levels)), [len(found) for found, *_ in levels])
    order = np.argsort(codes)  # breadth-first position by element index
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # parent, letter and depth, by element index; intp, as numpy indexes
    # with intp arrays without converting them
    tree = np.empty((3, len(order)), np.intp)
    tree[:, rank] = rank[parent], letter, depth
    return tree, images[order, :n], sorted_codes, int(rank[0])


def generator_indices(monoid, gens):
    """Sorted indices, without repeats, of partial bijections in ``monoid``."""
    images = monoid.elements.images
    wanted = image_rows(gens, images.shape[1])
    rows = lookup(image_codes(images), image_codes(wanted))
    return tuple(sorted(set(rows.tolist())))


def trivial_monoid():
    return build_from_tables(np.zeros((1, 1), dtype=np.int16), 0)
