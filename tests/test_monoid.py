import hashlib
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgeom import (
    CapacityError,
    PartialBijection,
    ValidationError,
    build_from_tables,
    from_table,
    generate_monoid,
    natural_leq_matrix,
    trivial_monoid,
)
from invgeom import monoid as monoid_module
from invgeom.families import (
    build_example,
    chain_semilattice,
    cyclic_group_table,
    partial_bijection_count,
    semilattice_times_group,
    symmetric_inverse_generators,
)
from invgeom.monoid import (
    Elements,
    _check_associativity,
    generating_set,
    generator_indices,
    image_codes,
    lookup,
)
from invgeom.partial_bijection import UNDEFINED, compose, invert

from conftest import enumerate_partial_bijections, mulclose

swap = PartialBijection.transposition(2, 0, 1)
e0 = PartialBijection.partial_identity(2, [0])


def natural_leq(m, s, t):
    """s <= t iff s = e t for some idempotent e."""
    return any(m.mul(e, t) == s for e in m.idempotents)


def green_L(m, s, t):
    """s L t iff S s = S t."""
    return set(m.product[:, s].tolist()) == set(m.product[:, t].tolist())


def green_R(m, s, t):
    """s R t iff s S = t S."""
    return set(m.product[s].tolist()) == set(m.product[t].tolist())


def elt(monoid, *image):
    """Index of the element with the given image array."""
    target = tuple(image)
    for i, f in enumerate(monoid.elements):
        if f.image == target:
            return i
    raise AssertionError(f"no element with image {target}")


def test_generate_empty_gives_trivial():
    m = generate_monoid([])
    assert m.order == 1
    assert m.identity == 0
    assert m.idempotents == (0,)


def test_generate_i2_matches_enumeration(i2):
    expected = {f.image for f in enumerate_partial_bijections(2)}
    assert {f.image for f in i2.elements} == expected
    assert i2.order == 7


def test_generate_from_swap_and_partial_identity():
    m = generate_monoid([swap, e0])
    assert m.order == 7


def test_generate_i3_matches_enumeration(i3):
    expected = {f.image for f in enumerate_partial_bijections(3)}
    assert {f.image for f in i3.elements} == expected
    assert i3.order == 34


def test_closure_is_closed(i2):
    n = i2.order
    for a in range(n):
        for b in range(n):
            assert 0 <= i2.mul(a, b) < n
        assert i2.mul(a, i2.inv(a)) == i2.ran(a)


def test_element_cap():
    gens = [
        PartialBijection.transposition(3, i, j)
        for i in range(3)
        for j in range(i + 1, 3)
    ] + [PartialBijection.partial_identity(3, [0, 1])]
    with pytest.raises(CapacityError, match="10"):
        generate_monoid(gens, element_cap=10)


def test_from_table_trivial():
    m = from_table([[0]], 0)
    assert m.order == 1 and m.identity == 0


def test_from_table_two_element_semilattice():
    m = from_table([[0, 1], [1, 1]], 0)
    assert m.idempotents == (0, 1)
    assert m.inv(1) == 1


def test_from_table_round_trip(i2):
    m = from_table([[int(v) for v in row] for row in i2.product], i2.identity)
    assert np.array_equal(m.product, i2.product)
    assert np.array_equal(m.inverse, i2.inverse)
    assert np.array_equal(m.idempotent_mask, i2.idempotent_mask)
    assert m.identity == i2.identity


def test_from_table_keeps_a_table_at_its_index_width(i2):
    # the width of every index table: int16 for an order up to 2**15
    table = np.array(i2.product, dtype=np.int16)
    m = from_table(table, i2.identity)
    assert m.product is table and not table.flags.writeable
    for dtype in (np.uint8, np.int32, np.int64):
        wide = np.array(i2.product, dtype=dtype)
        assert from_table(wide, i2.identity).product.dtype == np.int16
        assert wide.flags.writeable
    m = semilattice_times_group(chain_semilattice(2), cyclic_group_table(3))
    assert m.product.dtype == np.int16


@pytest.mark.parametrize(
    "table, witness",
    [
        (np.array([[2**32]]), (0, 0)),
        ([[0, 1], [1, 2**32 + 1]], (1, 1)),
        (np.array([[0, 1], [1, 2**16]], dtype=np.int32), (1, 1)),
    ],
)
def test_from_table_range_checks_before_narrowing(table, witness):
    # each entry would wrap into range at a narrower width
    with pytest.raises(ValidationError, match="out of range") as err:
        from_table(table, 0)
    assert err.value.witness == witness


@pytest.mark.parametrize("table", [[[0.7]], [[0.0]], [[True]], [[2**70]]])
def test_from_table_rejects_a_non_integer_table(table):
    with pytest.raises(ValidationError, match="not an integer one"):
        from_table(table, 0)


def test_from_table_rejects_non_associative():
    table = [
        [0, 1, 2],
        [1, 2, 1],
        [2, 1, 1],
    ]
    with pytest.raises(ValidationError) as err:
        from_table(table, 0)
    assert err.value.witness is not None
    i, j, k = err.value.witness
    t = np.array(table)
    assert t[t[i, j], k] != t[i, t[j, k]]


def test_from_table_rejects_non_unique_inverse():
    # identity adjoined to the left-zero semigroup on {1, 2}
    table = [
        [0, 1, 2],
        [1, 1, 1],
        [2, 2, 2],
    ]
    with pytest.raises(ValidationError, match="inverse"):
        from_table(table, 0)


def test_from_table_rejects_bad_identity():
    with pytest.raises(ValidationError):
        from_table([[0, 0], [0, 0]], 1)


@pytest.mark.parametrize("value", ["order", -1])
def test_from_table_rejects_one_entry_out_of_range(i2, value):
    table = np.array(i2.product, dtype=np.int64)
    table[3, 4] = i2.order if value == "order" else value
    with pytest.raises(ValidationError, match="out of range") as err:
        from_table(table, i2.identity)
    assert err.value.witness == (3, 4)


def test_dom_ran_examples(i2):
    a = elt(i2, 1, None)  # 0 |-> 1
    assert i2.dom(a) == elt(i2, 0, None)
    assert i2.ran(a) == elt(i2, None, 1)
    for e in i2.idempotents:
        assert i2.dom(e) == e and i2.ran(e) == e
    assert i2.dom(elt(i2, 1, 0)) == i2.identity


def test_natural_leq_examples(i2):
    a = elt(i2, 1, None)
    sw = elt(i2, 1, 0)
    for s in range(i2.order):
        assert natural_leq(i2, s, s)
    assert natural_leq(i2, a, sw)
    assert not natural_leq(i2, sw, i2.identity)


@pytest.mark.parametrize("fixture", ["i2", "i3"])
def test_natural_leq_closed_form(fixture, request):
    m = request.getfixturevalue(fixture)
    for s in range(m.order):
        for t in range(m.order):
            closed = m.mul(m.ran(s), t) == s
            assert natural_leq(m, s, t) == closed


def test_natural_leq_matrix_agrees(i2):
    leq = natural_leq_matrix(i2)
    for s in range(i2.order):
        for t in range(i2.order):
            assert leq[s, t] == natural_leq(i2, s, t)


def test_green_relations(i2):
    a = elt(i2, 1, None)
    e0i = elt(i2, 0, None)
    assert green_L(i2, a, a)
    assert green_L(i2, e0i, a)
    assert not green_L(i2, i2.identity, e0i)
    assert green_R(i2, a, elt(i2, None, 1))
    assert not green_R(i2, a, e0i)
    # in an inverse monoid, s L t iff dom s = dom t and s R t iff ran s = ran t
    for s in range(i2.order):
        for t in range(i2.order):
            assert green_L(i2, s, t) == (i2.dom(s) == i2.dom(t))
            assert green_R(i2, s, t) == (i2.ran(s) == i2.ran(t))


@pytest.mark.parametrize("fixture", ["i2", "i3"])
def test_left_factor_lemma(fixture, request):
    # within an L-class, s = x t forces t = x^-1 s; idempotent x forces t = s
    m = request.getfixturevalue(fixture)
    for x in range(m.order):
        for t in range(m.order):
            s = m.mul(x, t)
            if m.dom(s) != m.dom(t):
                continue
            assert m.mul(m.inv(x), s) == t
            if m.mul(x, x) == x:
                assert s == t


@pytest.mark.parametrize("fixture", ["i2", "i3"])
def test_dom_of_product_descends(fixture, request):
    m = request.getfixturevalue(fixture)
    for s in range(m.order):
        for t in range(m.order):
            assert natural_leq(m, m.dom(m.mul(s, t)), m.dom(t))


def test_idempotents_form_commuting_subsemigroup(i3):
    for e in i3.idempotents:
        for f in i3.idempotents:
            ef = i3.mul(e, f)
            assert i3.mul(ef, ef) == ef
            assert ef == i3.mul(f, e)


def test_unique_inverse_invariant(i3):
    for s in range(i3.order):
        candidates = [
            t
            for t in range(i3.order)
            if i3.mul(i3.mul(s, t), s) == s and i3.mul(i3.mul(t, s), t) == t
        ]
        assert candidates == [i3.inv(s)]


def test_lclasses_partition(i3):
    seen = sorted(s for cls in i3.lclasses for s in cls)
    assert seen == list(range(i3.order))
    for cls in i3.lclasses:
        doms = {i3.dom(s) for s in cls}
        assert len(doms) == 1


def test_mulclose(i3):
    m = trivial_monoid()
    assert mulclose(m.product, {0}) == frozenset({0})
    assert mulclose(m.product, set()) == frozenset()
    # against a brute-force fixpoint of all pairwise products
    rng = np.random.default_rng(5)
    for size in (1, 1, 2, 2, 3):
        seeds = set(rng.choice(i3.order, size, replace=False).tolist())
        closure = set(seeds)
        while True:
            grown = closure | {i3.mul(a, b) for a in closure for b in closure}
            if grown == closure:
                break
            closure = grown
        assert mulclose(i3.product, seeds) == closure


def _from_pairs(n, pairs):
    """The partial bijection on n points with these (source, target) pairs."""
    img = [UNDEFINED] * n
    for x, y in pairs:
        img[x] = y
    return PartialBijection(n, tuple(img))


@st.composite
def generator_lists(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=2))
    gens = []
    for _ in range(count):
        k = draw(st.integers(min_value=0, max_value=n))
        dom = draw(st.permutations(range(n)))[:k]
        ran = draw(st.permutations(range(n)))[:k]
        gens.append(
            _from_pairs(n, list(zip(dom, ran)))
        )
    return gens


@given(generator_lists())
@settings(max_examples=40, deadline=None)
def test_generated_monoids_satisfy_the_axioms(gens):
    # the builder validates; these re-check a sample of laws independently
    m = generate_monoid(gens)
    assert m.order <= 34
    for s in range(m.order):
        assert m.mul(m.mul(s, m.inv(s)), s) == s
        for t in range(m.order):
            assert natural_leq(m, m.dom(m.mul(s, t)), m.dom(t))


def _random_generators(seed, n):
    """Two seeded partial bijections of random rank on n points."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        rank = int(rng.integers(1, n + 1))
        dom, ran = rng.permutation(n)[:rank], rng.permutation(n)[:rank]
        gens.append(_from_pairs(n, zip(dom.tolist(), ran.tolist())))
    return gens


def _cycle_and_partial_map(n):
    """A generating set on n points: an n-cycle and the map 0 -> 1."""
    cycle = PartialBijection(n, tuple((x + 1) % n for x in range(n)))
    return [cycle, _from_pairs(n, [(0, 1)])]


GENERATING_SETS = {
    "i3": lambda: symmetric_inverse_generators(3),
    "i4": lambda: symmetric_inverse_generators(4),
    **{
        f"random-{n}-{seed}": (lambda n=n, seed=seed: _random_generators(seed, n))
        for n in (4, 5)
        for seed in range(6)
    },
    # base-18 codes of 17 points pass the int64 range
    "cycle-17": lambda: _cycle_and_partial_map(17),
}


@pytest.mark.parametrize("name", sorted(GENERATING_SETS))
def test_product_table_matches_compose_oracle(name):
    gens = GENERATING_SETS[name]()
    m = generate_monoid(gens)
    elems = m.elements
    assert list(elems) == sorted(elems, key=PartialBijection.sort_key)
    index = {f.image: i for i, f in enumerate(elems)}
    assert len(index) == m.order
    assert all(g.image in index for g in gens)
    expected = np.array(
        [[index[compose(a, b).image] for b in elems] for a in elems]
    )
    assert np.array_equal(m.product, expected)
    assert [elems[t] for t in m.inverse] == [invert(f) for f in elems]
    assert elems[m.identity] == PartialBijection.identity(gens[0].ground_size)


def _source_keys(m, expected, seed):
    """Every form of key the package reads a product table with, on
    seeded index arrays."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(m.order, size=5), rng.integers(m.order, size=7)
    elems, a, b = np.arange(m.order), int(rows[0]), int(cols[0])
    return [
        (a, b),
        a,
        rows,
        (rows, slice(None)),
        (slice(None), cols),
        (a, slice(None)),
        (slice(None), b),
        (a, cols),
        np.ix_(rows, cols),
        (m.inverse, elems),  # dom_table
        (elems, m.inverse),  # ran_table
        (expected[elems, m.inverse], elems),  # _check_inverse
        (m.inverse[rows][:, None], expected[rows]),  # check_edge_pairing
        (m.inverse[rows][:, None], cols),  # validate_action
        (expected[np.ix_(rows, cols)], expected[np.ix_(cols, rows)].T),
        np.ix_(np.array([], dtype=np.intp), cols),  # mulclose, once closed
        # negative columns, which the package does not read, count from
        # the end, as numpy's do
        (a, -1),
        (elems[:, None], np.array([-1, -2, -m.order])),
        (rows[:, None], cols - m.order),
    ]


def _assert_entry_reads(m, expected, seed=0):
    """Every key form and ``mul`` read ``expected``, and none fills the table."""
    held = m.product.nbytes
    for key in _source_keys(m, expected, seed):
        got = m.product[key]
        assert got.dtype == m.product.dtype
        assert np.array_equal(got, expected[key]), key
    rng = np.random.default_rng(seed)
    for a, b in rng.integers(m.order, size=(50, 2)).tolist():
        assert m.mul(a, b) == expected[a, b]
    assert m.product.nbytes == held


@pytest.mark.parametrize("name", ["i4", *(f"random-5-{seed}" for seed in range(6))])
def test_a_whole_read_fills_the_table_once(name):
    gens = GENERATING_SETS[name]()
    m = generate_monoid(gens)
    elems = m.elements
    index = {f.image: i for i, f in enumerate(elems)}
    expected = np.array([[index[compose(a, b).image] for b in elems] for a in elems])
    # entries read before any whole read
    _assert_entry_reads(m, expected)
    held = m.product.nbytes
    table = np.asarray(m.product)
    assert np.array_equal(table, expected)
    # the filled table is held read-only, and every later read indexes it
    assert np.asarray(m.product) is table and not table.flags.writeable
    assert m.product.nbytes == held + table.nbytes
    _assert_entry_reads(m, expected)


@pytest.mark.parametrize("filled", [False, True])
def test_a_column_out_of_range_raises_as_numpy_does(filled):
    m = generate_monoid(symmetric_inverse_generators(4))
    n = m.order
    if filled:
        np.asarray(m.product)
    keys = [(3, n), (3, -n - 1), (np.arange(3), np.array([0, n, 1])), (slice(None), -n - 1)]
    for key in keys:
        with pytest.raises(IndexError):
            m.product[key]
    with pytest.raises(IndexError):
        m.mul(3, n)


def test_an_unfilled_table_refuses_a_boolean_column_key():
    # numpy reads a mask; the letter-row walk would read columns 0 and 1
    m = generate_monoid(symmetric_inverse_generators(4))
    with pytest.raises(IndexError):
        m.product[2, np.ones(m.order, bool)]


def _traced_build_and_reads(gens, **kwargs):
    """generate_monoid and 200 seeded product and inverse reads under
    tracemalloc; checks the reads against compose and invert, and returns
    the monoid and the traced peak in bytes."""
    tracemalloc.start()
    try:
        m = generate_monoid(gens, **kwargs)
        pairs = np.random.default_rng(301).integers(m.order, size=(200, 2))
        products = [int(m.product[a, b]) for a, b in pairs.tolist()]
        inverses = [int(m.inverse[a]) for a in pairs[:, 0].tolist()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elems = m.elements
    for (a, b), ab, a_inv in zip(pairs.tolist(), products, inverses):
        assert elems[ab] == compose(elems[a], elems[b])
        assert elems[a_inv] == invert(elems[a])
    return m, peak


def test_a_generated_i6_holds_no_table_until_read_whole():
    # the I6 product table alone is 355 MB.  A closure that widened its
    # largest level (61,710 candidates) to int64 codes peaked at 4.1 MB;
    # one block of candidates at a time, the build and these reads peak
    # near 1.9 MB
    _, peak = _traced_build_and_reads(symmetric_inverse_generators(6))
    assert peak < 2.5 * 2**20


def test_i7_builds_without_a_table_in_bounded_memory():
    # order 130,922, past the default element cap; the letter rows alone
    # are 12 MB, and the build and these reads peak near 23 MB (59 MB
    # when each level was widened whole)
    m, peak = _traced_build_and_reads(symmetric_inverse_generators(7), element_cap=200_000)
    assert m.order == partial_bijection_count(7)
    assert peak < 32 * 2**20


def test_a_scalar_read_holds_no_row_of_the_table():
    m = generate_monoid(symmetric_inverse_generators(6))
    m.mul(5, 7)  # first-call allocations are not the read's
    tracemalloc.start()
    try:
        value = m.mul(1234, 4321)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elems = m.elements
    assert elems[value] == compose(elems[1234], elems[4321])
    # an arange over the 13,327 elements alone would be 107 KB
    assert peak < 16 * 2**10


def _digest(array):
    """sha256 of an array's dtype, shape and bytes, read in place."""
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


# the arrays a generated I5 and I6 hold, pinned: the letter rows, the
# breadth-first tree, the canonical images and the inverse; and the table
# a whole read fills (355 MB on I6)
BUILD_DIGESTS = {
    5: {
        "at": "ede658cd1e100b9b51e1a9c9058ab2b17fc653022e64273a03f9d19a7b498deb",
        "tree": "3db6c7eee284fa417e31d0d5c41f55fe876637b055d766f4f91a7059210db374",
        "images": "f0fbf58a718a4e54da819367b8893654bd4927e49b2bf4993c3cbe30878f9c11",
        "inverse": "0ade615e552ab71d6fa0ac33be288935fe62d1a0e9c744b0d2d71badb9bd5513",
        "table": "c1ccfbf92140383586d0f1fb8251a62c1c7a828ff6c26d4668d036b590789e14",
    },
    6: {
        "at": "a740b725ed82a4644db28e5595c2e104355c82d722ccad586cc01ef4d31884c6",
        "tree": "362c3bb7a618450377253841c8961b8846ae66d156010096a3c5216b0bbfb9b9",
        "images": "39c8f6e184e072691caed99a74500b35797b4f7921c6c80469278fa5da6992ed",
        "inverse": "02fad03eec76597fd1996864ad8431cbf08b54f84e07f10c8cbb8ab281f46479",
        "table": "ad060379908bf920c78f1159de125e3a6e6dec35544ffc9b1ceb704ffff7b868",
    },
}


@pytest.mark.skipif(np.dtype(np.intp) != np.int64, reason="the tree is pinned as int64")
@pytest.mark.parametrize("n", sorted(BUILD_DIGESTS))
def test_generated_arrays_are_pinned(n):
    m = generate_monoid(symmetric_inverse_generators(n))
    held = {
        "at": m.product.at,
        "tree": m.product.tree,
        "images": m.elements.images,
        "inverse": m.inverse,
        "table": np.asarray(m.product),
    }
    assert {name: _digest(a) for name, a in held.items()} == BUILD_DIGESTS[n]


def test_codes_past_int64_keep_sort_key_order():
    # base-17 codes of 16 points pass the int64 range, and are Python ints
    n = 16
    cycle = PartialBijection(n, tuple((x + 1) % n for x in range(n)))
    swap = PartialBijection(n, (1, 0) + (UNDEFINED,) * (n - 2))
    m = generate_monoid([cycle, swap])
    assert m.order == 785
    codes = image_codes(m.elements.images)
    assert codes.dtype == object and type(codes[0]) is int
    assert codes.tolist() == sorted(codes.tolist())
    elems = list(m.elements)
    assert elems == sorted(elems, key=PartialBijection.sort_key)
    rng = np.random.default_rng(16)
    for a, b in rng.integers(m.order, size=(300, 2)).tolist():
        assert elems[m.mul(a, b)] == compose(elems[a], elems[b])
    for a in rng.integers(m.order, size=50).tolist():
        assert elems[m.inv(a)] == invert(elems[a])


@pytest.mark.parametrize("name", ["i4", "random-5-0", "random-5-4"])
def test_indices_do_not_depend_on_generator_order(name):
    gens = GENERATING_SETS[name]()
    m = generate_monoid(gens)
    rng = np.random.default_rng(7)
    for _ in range(3):
        shuffled = [gens[i] for i in rng.permutation(len(gens))]
        again = generate_monoid(shuffled[::-1] + shuffled)
        assert again.elements == m.elements
        assert np.array_equal(again.product, m.product)
        assert np.array_equal(again.inverse, m.inverse)


@pytest.mark.parametrize("name", ["i4", *(f"random-5-{seed}" for seed in range(6))])
def test_generator_indices_match_a_dict_over_the_elements(name):
    gens = GENERATING_SETS[name]()
    m = generate_monoid(gens)
    index = {f.image: i for i, f in enumerate(m.elements)}
    inverses = [invert(g) for g in gens]
    for chosen in ([], gens, gens + gens[::-1], inverses + gens[:1], inverses * 2):
        expected = tuple(sorted({index[g.image] for g in chosen}))
        assert generator_indices(m, chosen) == expected
    n = gens[0].ground_size
    absent = [f for f in enumerate_partial_bijections(n) if f.image not in index]
    if absent:
        with pytest.raises(ValidationError, match="not an element"):
            generator_indices(m, [gens[0], min(absent, key=PartialBijection.sort_key)])


def test_letter_lookup_rejects_a_missing_composite(i3):
    images = i3.elements.images
    sorted_codes = image_codes(images)
    n = images.shape[1]
    for g in symmetric_inverse_generators(3):
        letter = np.append([n if y is None else y for y in g.image], n)
        composites = image_codes(letter[images])  # g a for every element a
        assert np.array_equal(lookup(sorted_codes, composites), i3.product[i3.elements.index(g)])
        found = np.unique(composites)
        for code in (found[0], found[len(found) // 2], found[-1]):
            with pytest.raises(ValidationError, match="not an element") as err:
                lookup(sorted_codes[sorted_codes != code], composites)
            assert composites[err.value.witness[0]] == code


def test_elements_are_built_when_read(i4):
    elems = i4.elements
    assert len(elems) == i4.order == 209
    listed = list(elems)
    assert listed == sorted(listed, key=PartialBijection.sort_key)
    assert len(set(listed)) == len(listed)
    for i in (0, 7, 208, -1):
        for key in (i, np.int16(i), np.intp(i)):
            assert elems[key] == listed[i]
    with pytest.raises(IndexError):
        elems[209]
    assert i4.element_label(7) == listed[7].short() == "[0,2,1,3]"
    with pytest.raises(ValueError):
        elems.images[0, 0] = 1


def test_elements_compare_like_tuples(i4):
    gens = symmetric_inverse_generators(4)
    shuffled = [gens[i] for i in np.random.default_rng(3).permutation(len(gens))]
    again = generate_monoid(shuffled)
    assert again.elements == i4.elements
    assert not again.elements != i4.elements
    assert again.elements == tuple(i4.elements)
    assert again.elements != list(i4.elements)
    assert generate_monoid(gens[:-1]).elements != i4.elements  # the group part


def test_an_element_read_is_still_checked():
    elems = Elements(np.array([[0, 1], [1, 1]], dtype=np.uint8))
    assert elems[0] == PartialBijection.identity(2)
    with pytest.raises(ValueError, match="not injective"):
        elems[1]


def test_element_cap_is_exact(i3):
    gens = symmetric_inverse_generators(3)
    assert generate_monoid(gens, element_cap=i3.order).order == i3.order
    with pytest.raises(CapacityError, match=str(i3.order - 1)):
        generate_monoid(gens, element_cap=i3.order - 1)


@pytest.mark.parametrize("tamper", ["next-index", "identity-at-idempotent"])
def test_candidate_inverse_with_one_entry_changed_is_rejected(i3, tamper):
    # e 1 e = e holds for an idempotent e, so only t s t = t catches 1 there
    bad = np.array(i3.inverse)
    if tamper == "next-index":
        s = 5
        bad[s] = (bad[s] + 1) % i3.order
    else:
        s = next(e for e in i3.idempotents if e != i3.identity)
        bad[s] = i3.identity
    with pytest.raises(ValidationError, match="inverse") as err:
        build_from_tables(np.array(i3.product), i3.identity, inverse=bad)
    assert err.value.witness == (s, int(bad[s]))
    m = build_from_tables(np.array(i3.product), i3.identity, inverse=i3.inverse)
    assert np.array_equal(m.inverse, i3.inverse)


def test_candidate_inverse_needs_commuting_idempotents():
    # identity adjoined to the left-zero semigroup on {1, 2}: every element
    # is its own inverse candidate, but 1*2 = 1 while 2*1 = 2
    table = np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    with pytest.raises(ValidationError, match="commute"):
        build_from_tables(table, 0, inverse=np.arange(3))


def test_generating_set_generates(i3, i4):
    for m in (i3, i4):
        gens = m.generating_set
        assert gens == generating_set(m.product)
        assert mulclose(m.product, gens) == frozenset(range(m.order))
        # each kept element is outside the closure of those kept before it
        for k, g in enumerate(gens):
            assert g not in mulclose(m.product, gens[:k])
    assert trivial_monoid().generating_set == (0,)


def generating_set_loop(product):
    """The greedy scan, closing the kept elements again from scratch each time."""
    kept, reached = [], frozenset()
    for s in range(product.shape[0]):
        if s not in reached:
            kept.append(s)
            reached = mulclose(product, kept)
    return tuple(kept)


@pytest.mark.parametrize("name", ["i3", "i4", "chain", "i5"])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_generating_set_matches_the_greedy_loop(name, seed):
    if name == "chain":
        m = semilattice_times_group(chain_semilattice(4), cyclic_group_table(60))
    else:
        m = build_example(name).monoid
    product = m.product
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(m.order)
        product = np.empty_like(m.product)
        product[perm[:, None], perm[None, :]] = perm[m.product]
    assert generating_set(product) == generating_set_loop(product)


def test_generating_set_matches_the_greedy_loop_on_random_tables():
    # no associativity: the closure holds left-bracketed products only
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        table = rng.integers(0, n, size=(n, n))
        assert generating_set(table) == generating_set_loop(table)


def _bad_triple(product):
    """The first (i, j, k) with (i j) k != i (j k): the full N^3 sweep."""
    for i in range(product.shape[0]):
        bad = np.argwhere(product[product[i, :], :] != product[i, product])
        if bad.size:
            return (i, int(bad[0][0]), int(bad[0][1]))
    return None


def _one_entry_tampers(product, count, seed):
    """Copies of a table with one seeded entry set to another index."""
    n = product.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a, b = (int(x) for x in rng.integers(n, size=2))
        v = int(rng.integers(n - 1))
        table = np.array(product)
        table[a, b] = v + (v >= product[a, b])
        yield table


@pytest.mark.parametrize("name", ["i3", "i4"])
def test_light_test_agrees_with_the_full_sweep(name, request):
    m = request.getfixturevalue(name)
    assert _bad_triple(m.product) is None
    _check_associativity(m.product)
    for table in _one_entry_tampers(m.product, 12, seed=1):
        oracle = _bad_triple(table)
        try:
            _check_associativity(table)
        except ValidationError as err:
            a, g, c = err.witness
            assert table[table[a, g], c] != table[a, table[g, c]]
            assert g in generating_set(table)
            assert oracle is not None
        else:
            assert oracle is None


def test_from_table_rejects_one_entry_i5_tampers():
    # each breaks associativity at few enough triples that a sample of
    # 100,000 random ones finds none
    i5 = build_example("i5").monoid
    for table in _one_entry_tampers(i5.product, 3, seed=0):
        with pytest.raises(ValidationError, match="not associative") as err:
            from_table(table, i5.identity)
        a, g, c = err.value.witness
        assert table[table[a, g], c] != table[a, table[g, c]]


def test_a_loaded_table_scans_for_generators_once(i3):
    with patch.object(
        monoid_module, "generating_set", wraps=monoid_module.generating_set
    ) as scan:
        m = from_table(i3.product, i3.identity)
        assert m.generating_set == i3.generating_set
        assert scan.call_count == 1


def test_generated_tables_are_not_swept(i3):
    with patch.object(
        monoid_module, "generating_set", wraps=monoid_module.generating_set
    ) as scan:
        m = generate_monoid(symmetric_inverse_generators(3))
        assert scan.call_count == 0
        from_table(m.product, m.identity)
        assert scan.call_count == 1
    assert np.array_equal(m.product, i3.product)
