"""Partial bijections on a finite ground set {0..n-1}.

A partial bijection is stored as its image array: entry x is either the
image point or ``None`` where the map is undefined.  The image tuple is
the canonical form; ordering puts ``None`` after every defined value so
element indices derived from sorting are deterministic.
"""

from dataclasses import dataclass

from .errors import SizeMismatchError

UNDEFINED = None


@dataclass(frozen=True)
class PartialBijection:
    ground_size: int
    image: tuple

    def __post_init__(self):
        if self.ground_size <= 0:
            raise ValueError(f"ground_size must be positive, got {self.ground_size}")
        if len(self.image) != self.ground_size:
            raise ValueError(
                f"image has length {len(self.image)}, expected {self.ground_size}"
            )
        seen = set()
        for x, y in enumerate(self.image):
            if y is UNDEFINED:
                continue
            if not (0 <= y < self.ground_size):
                raise ValueError(f"image[{x}] = {y} outside ground set")
            if y in seen:
                raise ValueError(f"not injective: value {y} repeated")
            seen.add(y)

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(range(n)))

    @classmethod
    def empty(cls, n):
        return cls(n, (UNDEFINED,) * n)

    @classmethod
    def partial_identity(cls, n, subset):
        """Identity on ``subset``, undefined elsewhere."""
        keep = set(subset)
        return cls(n, tuple(x if x in keep else UNDEFINED for x in range(n)))

    @classmethod
    def transposition(cls, n, a, b):
        img = list(range(n))
        img[a], img[b] = b, a
        return cls(n, tuple(img))

    def __call__(self, x):
        return self.image[x]

    def domain(self):
        return tuple(x for x, y in enumerate(self.image) if y is not UNDEFINED)

    def range(self):
        return tuple(sorted(y for y in self.image if y is not UNDEFINED))

    def rank(self):
        return sum(1 for y in self.image if y is not UNDEFINED)

    def sort_key(self):
        # None sorts after every defined value.
        n = self.ground_size
        return tuple(n if y is UNDEFINED else y for y in self.image)

    def short(self):
        cells = ",".join("-" if y is UNDEFINED else str(y) for y in self.image)
        return f"[{cells}]"

    def __repr__(self):
        return f"PartialBijection({self.ground_size}, {self.short()})"


def compose(g, f):
    """The product gf: apply f first, then g, where both are defined."""
    if g.ground_size != f.ground_size:
        raise SizeMismatchError(
            f"ground sizes differ: {g.ground_size} != {f.ground_size}"
        )
    img = tuple(
        UNDEFINED if y is UNDEFINED else g.image[y] for y in f.image
    )
    return PartialBijection(g.ground_size, img)


def invert(f):
    """Reverse each defined pair of f."""
    img = [UNDEFINED] * f.ground_size
    for x, y in enumerate(f.image):
        if y is not UNDEFINED:
            img[y] = x
    return PartialBijection(f.ground_size, tuple(img))
