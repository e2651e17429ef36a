"""Finitely generated abelian groups, written multiplicatively.

A group is Z^k x Z/m_1 x ... x Z/m_s, described by a :class:`GroupSignature`.
Elements are plain tuples of integer exponents, one coordinate per free
generator followed by one per torsion modulus.  Torsion coordinates are kept
reduced into [0, m), so equal elements always have identical tuples and can
be used directly as dictionary keys.

:meth:`~GroupSignature.element` checks and canonicalizes, and ``compose``
and ``invert`` run it on their arguments.  A ring keeps its degrees as given;
``validate`` reports the ones that are not canonical, its degree table checks
each attained degree once, and past that table the library assumes canonical
degrees and uses the unchecked ``invert_canonical``.

The analyses compose degrees as packed ints, never as tuples: the degree
table of :mod:`gradedrings.ring` packs each attained degree once with a
:class:`Packing`, whose free fields are wide enough for the sum of two
table degrees, and the grading check, the support-step table of
:mod:`gradedrings.connections` and the support-multiplicative check add
packed forms.  Tuples are composed only by ``compose``, for checking
certificates, and by ``compose_canonical`` for generated rings and
violation details.

>>> sig = GroupSignature(free_rank=1, torsion=(3,))
>>> sig.compose((2, 2), (1, 2))
(3, 1)
>>> sig.invert((2, 2))
(-2, 1)
>>> sig.identity()
(0, 0)

Packing is linear, so a packed sum is the packed product; on torsion
coordinates the sum is then reduced:

>>> free = GroupSignature(free_rank=2)
>>> pack = free.packing(bound=3).pack
>>> a, b = (2, -3), (-1, 1)
>>> pack(a) + pack(b) == pack(free.compose(a, b))
True
>>> packing = sig.packing(bound=2)
>>> packing.reduce([packing.pack((2, 2)) + packing.pack((1, 2))]) == [packing.pack((3, 1))]
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, lshift, neg

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
        tors = tuple([e % m for e, m in zip(exps[self.free_rank :], self.torsion)])
        return free + tors

    def identity(self) -> Element:
        return (0,) * self.length

    def compose_canonical(self, a: Element, b: Element) -> Element:
        """The group law (sum of exponents), unchecked: ``zip`` would silently
        truncate an element of the wrong length, so a and b must be canonical."""
        r = self.free_rank
        # from a list, so that the tuple is allocated at its final size:
        # tuple(map(...)) guesses a size and resizes, and each resized tuple
        # that dies lands on CPython's free list for its size, which then
        # holds up to 2000 of them until a full garbage collection
        free = tuple([*map(add, a[:r], b[:r])])
        return free + tuple([(x + y) % m for x, y, m in zip(a[r:], b[r:], self.torsion)])

    def invert_canonical(self, a: Element) -> Element:
        """Inverse of a canonical element, unchecked."""
        r = self.free_rank
        # from a list, as in compose_canonical
        return tuple([*map(neg, a[:r])]) + tuple([-x % m for x, m in zip(a[r:], self.torsion)])

    def compose(self, a, b) -> Element:
        """Product of two exponent vectors, checked; commutative."""
        return self.compose_canonical(self.element(a), self.element(b))

    def invert(self, a) -> Element:
        return self.invert_canonical(self.element(a))

    def packing(self, bound: int) -> Packing:
        """The packing of the canonical elements whose free coordinates are
        at most ``bound`` in absolute value."""
        k = (max(self.torsion, default=1) - 1).bit_length()
        offsets = [(k + 1) * j for j in range(len(self.torsion))]
        width = (2 * bound).bit_length() + 1  # of a free field
        above = (k + 1) * len(offsets)
        return Packing(
            torsion_width=k + 1,
            offsets=tuple([above + width * i for i in range(self.free_rank)] + offsets),
            bias=sum([((1 << k) - m) << o for m, o in zip(self.torsion, offsets)]),
            carries=sum([1 << (k + o) for o in offsets]),
            moduli=sum([m << o for m, o in zip(self.torsion, offsets)]),
        )

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def elements(self):
        """All elements of a finite group, in ascending lexicographic order."""
        if not self.is_finite():
            raise PreconditionError("cannot enumerate an infinite group")
        return list(itertools.product(*[range(m) for m in self.torsion]))


@dataclass(frozen=True)
class Packing:
    """Canonical elements of a signature whose free coordinates are at most
    a bound in absolute value, as Python ints whose sum is the group law.

    Each coordinate has a field of bits, from its offset: the torsion
    coordinates the low fields, ``torsion_width`` bits each, and the free
    coordinates the fields above, as signed digits.  pack(a) is the sum of
    a's coordinates each times 2**(its offset), so pack(a) + pack(b) has
    the digits a_i + b_i.  A free field holds every integer of absolute
    value below 2**(width - 1), which exceeds twice the bound, and an int
    has one expansion in such digits; so the free part of pack(a) + pack(b)
    is pack(c)'s exactly when c's free coordinates are a's plus b's.  A
    torsion digit sum stays below 2m, in its field, and :meth:`reduce`
    subtracts m from each field where it reached m: there, and only there,
    adding 2**k - m carries into bit k of the field, where 2**k >= m and
    the field is k + 1 bits wide."""

    torsion_width: int
    offsets: tuple[int, ...]  # of each coordinate's field, in element order
    bias: int  # 2**k - m in each torsion field
    carries: int  # bit k of each torsion field
    moduli: int  # m in each torsion field

    def pack(self, a: Element) -> int:
        """The packed form of a canonical element within the bound."""
        return sum(map(lshift, a, self.offsets))

    def reduce(self, sums: list[int]) -> list[int]:
        """The packed products, given the sums of pairs of packed elements;
        ``sums`` itself when there is no torsion to reduce."""
        if not self.carries:
            return sums
        bias, carries, moduli = self.bias, self.carries, self.moduli
        k = self.torsion_width - 1
        mask = (1 << carries.bit_length()) - 1  # the torsion fields
        # one bit at the bottom of each field that carried, times a field
        # of ones, selects those fields of ``moduli``
        ones = (1 << self.torsion_width) - 1
        return [s - ((((s & mask) + bias & carries) >> k) * ones & moduli) for s in sums]
