"""Finitely generated abelian groups, written multiplicatively.

A group is Z^k x Z/m_1 x ... x Z/m_s, described by a :class:`GroupSignature`.
Elements are plain tuples of integer exponents, one coordinate per free
generator followed by one per torsion modulus.  Torsion coordinates are kept
reduced into [0, m), so equal elements always have identical tuples and can
be used directly as dictionary keys.

>>> sig = GroupSignature(free_rank=1, torsion=(3,))
>>> sig.compose((2, 2), (1, 2))
(3, 1)
>>> sig.invert((2, 2))
(-2, 1)
>>> sig.identity()
(0, 0)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MalformedInputError, PreconditionError

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupSignature:
    """Shape of a finitely generated abelian group.

    ``free_rank`` counts the Z factors; ``torsion`` lists the moduli of the
    finite cyclic factors, each at least 2 and sorted ascending (canonical
    form).
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.free_rank, int) or self.free_rank < 0:
            raise MalformedInputError("free_rank must be a nonnegative integer")
        torsion = tuple(self.torsion)
        object.__setattr__(self, "torsion", torsion)
        for m in torsion:
            if not isinstance(m, int) or m < 2:
                raise MalformedInputError(f"torsion modulus {m!r} must be an integer >= 2")
        if list(torsion) != sorted(torsion):
            raise MalformedInputError("torsion moduli must be sorted ascending")

    @property
    def length(self) -> int:
        return self.free_rank + len(self.torsion)

    def element(self, exponents) -> Element:
        """Canonicalize an exponent vector: check the length, reduce torsion
        coordinates modulo their moduli."""
        exps = tuple(exponents)
        if len(exps) != self.length:
            raise MalformedInputError(
                f"element has {len(exps)} coordinates, signature needs {self.length}"
            )
        for e in exps:
            if not isinstance(e, int):
                raise MalformedInputError(f"exponent {e!r} is not an integer")
        free = exps[: self.free_rank]
        tors = tuple(e % m for e, m in zip(exps[self.free_rank :], self.torsion))
        return free + tors

    def conforms(self, a) -> bool:
        try:
            return self.element(a) == tuple(a)
        except MalformedInputError:
            return False

    def identity(self) -> Element:
        return (0,) * self.length

    def compose(self, a: Element, b: Element) -> Element:
        """Coordinatewise product (sum of exponents); commutative."""
        a = self.element(a)
        b = self.element(b)
        r = self.free_rank
        free = tuple(x + y for x, y in zip(a[:r], b[:r]))
        return free + tuple((x + y) % m for x, y, m in zip(a[r:], b[r:], self.torsion))

    def invert(self, a: Element) -> Element:
        a = self.element(a)
        r = self.free_rank
        return tuple(-x for x in a[:r]) + tuple(-x % m for x, m in zip(a[r:], self.torsion))

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None for infinite groups."""
        if not self.is_finite():
            return None
        n = 1
        for m in self.torsion:
            n *= m
        return n

    def elements(self):
        """All elements of a finite group, in ascending lexicographic order."""
        if not self.is_finite():
            raise PreconditionError("cannot enumerate an infinite group")
        return [tuple(e) for e in itertools.product(*(range(m) for m in self.torsion))]
