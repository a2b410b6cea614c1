"""Shared fixtures and independent oracles."""

import json
import math
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from invgeom import PartialBijection, cayley_self_action, symmetric_inverse_monoid


def enumerate_partial_bijections(n):
    """Every partial bijection on n points, by brute force.

    Independent of the closure construction: picks a domain subset, a
    range subset of equal size, and a bijection between them.
    """
    out = set()
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for ran in combinations(range(n), k):
                for perm in permutations(ran):
                    img = [None] * n
                    for x, y in zip(dom, perm):
                        img[x] = y
                    out.add(tuple(img))
    return {PartialBijection(n, img) for img in out}


def read_metric_file(path):
    """The distance table of a metric file, each null read as infinity."""
    data = json.loads(Path(path).read_text())
    size = data["size"]
    rows = [[math.inf if v is None else v for v in row] for row in data["rows"]]
    return np.array(rows, dtype=np.float64).reshape(size, size)


def transposition_indices(monoid, n):
    index = {f.image: i for i, f in enumerate(monoid.elements)}
    return tuple(
        index[PartialBijection.transposition(n, i, j).image]
        for i in range(n)
        for j in range(i + 1, n)
    )


@pytest.fixture(scope="session")
def i2():
    return symmetric_inverse_monoid(2)


@pytest.fixture(scope="session")
def i3():
    return symmetric_inverse_monoid(3)


@pytest.fixture(scope="session")
def i4():
    return symmetric_inverse_monoid(4)


@pytest.fixture(scope="session")
def i2_swap(i2):
    """Index of the transposition in I2."""
    return transposition_indices(i2, 2)[0]


@pytest.fixture(scope="session")
def i3_transpositions(i3):
    return transposition_indices(i3, 3)


@pytest.fixture(scope="session")
def i4_transpositions(i4):
    return transposition_indices(i4, 4)


@pytest.fixture(scope="session")
def i2_action(i2, i2_swap):
    return cayley_self_action(i2, (i2_swap,))


@pytest.fixture(scope="session")
def i3_action(i3, i3_transpositions):
    return cayley_self_action(i3, i3_transpositions)
