"""Exact linear algebra over the rationals and Gaussian rationals.

Everything in this package computes with exact scalars.  A :class:`Scalar`
is a pair of ``Fraction`` values (real and imaginary part), so the field is
Q or Q(i) and field axioms hold on the nose.  There is no floating point and
no tolerance anywhere.  Most scalars are real and most of those integers, so
arithmetic on two real scalars computes only the real part, and on two
integers uses plain ``int`` arithmetic; the results are the same canonical
``Fraction``s either way.

A vector is sparse: a dict ``{index: nonzero Scalar}`` that never stores a
zero, so ``if v`` tests for the zero vector and every loop visits only
nonzero coordinates.  This is the one vector form of the library: every
function that takes a vector takes a dict, and every vector returned is
one.  A vector is not changed once it has been handed to another function;
echelon rows are replaced rather than updated in place, so they can be
shared.  A :class:`Subspace` stores a reduced row-echelon basis, which is a
canonical form: its sparse rows are equal exactly when two subspaces are.
So a subspace of a graded ring is graded (the sum of its intersections
with the homogeneous components) exactly when each canonical row is
homogeneous: the canonical bases of those intersections, taken together,
are already in reduced row-echelon form, and that form is unique.
Dense rows exist only as text, where a report or spec file is written
(:func:`dense_strings`).

A Gram matrix is held as a read-only :class:`Gram`: one sparse row
``{j: nonzero Scalar}`` per row, plus a flag recording whether the input
was square.  The functions that take a Gram (:func:`pairing`,
:func:`pairing_vanishes`, :func:`is_hermitian`, :func:`psd_counterexample`
and :func:`joint_orthogonal_complement`) take a :class:`Gram` and visit
only its nonzero entries.

Pairings against a Gram matrix G use the convention

    <x, y> = sum_ij  x_i * G[i][j] * conj(y_j),

linear in the first argument and conjugate-linear in the second, which for
Hermitian G gives <y, x> = conj(<x, y>).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedInputError, PreconditionError

_F0 = Fraction(0)


class Scalar:
    """An element of Q or Q(i) in reduced canonical form.

    ``Scalar(re, im)`` takes ``int`` or ``Fraction`` parts and raises
    ``MalformedInputError`` for any other type; strings are parsed by
    :meth:`from_string`.  Immutable by convention; arithmetic returns new
    objects.  ``Fraction`` keeps numerator/denominator reduced with a
    positive denominator, so equal scalars always compare and hash equal.

    A real scalar's imaginary part is the shared zero ``_F0``: the
    constructor and every operation put it there, so telling a real scalar
    from a complex one is an identity test.  When both operands are real,
    arithmetic computes only the real part; when both are integers as well
    (denominator 1), it computes with plain ``int``s and wraps the result
    in ``Fraction(int)``, which skips ``Fraction``'s gcd and operator
    dispatch.  Either way the parts are the canonical ``Fraction``s that
    the general formulas give.  A scalar whose zero imaginary part is some
    other ``Fraction`` is still right; it only takes the general path.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_F0, im=_F0):
        self.re = re if type(re) is Fraction else _fraction(re)
        if type(im) is not Fraction:
            im = _fraction(im)
        self.im = im if im else _F0

    def __reduce__(self):
        # pickled and copied scalars come back through __init__, so a real
        # one gets the shared zero again
        return Scalar, (self.re, self.im)

    # -- parsing and formatting ------------------------------------------

    _REAL_IMAG = re.compile(
        r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*\*\s*i)?\s*$"
    )
    _PURE_IMAG = re.compile(r"^\s*(?P<im>[+-]?\d+(?:/\d+)?)\s*\*\s*i\s*$")

    @classmethod
    def from_string(cls, text: str) -> "Scalar":
        """Parse "p", "p/q", "p/q+r/s*i", "p/q-r/s*i" or "r/s*i"."""
        if not isinstance(text, str):
            raise MalformedInputError(f"scalar must be a string, got {type(text).__name__}")
        m = cls._REAL_IMAG.match(text)
        try:
            if m:
                re_part = Fraction(m.group("re"))
                if m.group("im") is None:
                    return cls(re_part)
                im_part = Fraction(m.group("im"))
                return cls(re_part, -im_part if m.group("sign") == "-" else im_part)
            m = cls._PURE_IMAG.match(text)
            if m:
                return cls(_F0, Fraction(m.group("im")))
        except ZeroDivisionError:
            raise MalformedInputError(f"scalar string {text!r} has a zero denominator") from None
        except ValueError as exc:  # an integer past Python's digit limit
            raise MalformedInputError(f"cannot parse scalar string: {exc}") from None
        raise MalformedInputError(f"cannot parse scalar string {text!r}")

    @staticmethod
    def _frac_str(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def __str__(self):
        if not self.im:
            return self._frac_str(self.re)
        sign = "-" if self.im < 0 else "+"
        return f"{self._frac_str(self.re)}{sign}{self._frac_str(abs(self.im))}*i"

    def __repr__(self):
        return f"Scalar({self})"

    # -- field arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(value):
        if type(value) is Scalar or isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    def __add__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.re, other.re
        if self.im is _F0 and other.im is _F0:
            if a.denominator == 1 and b.denominator == 1:
                return _scalar(Fraction(a.numerator + b.numerator))
            return _scalar(a + b)
        return _scalar(a + b, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.re, other.re
        if self.im is _F0 and other.im is _F0:
            if a.denominator == 1 and b.denominator == 1:
                return _scalar(Fraction(a.numerator - b.numerator))
            return _scalar(a - b)
        return _scalar(a - b, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        a = self.re
        if self.im is _F0:
            return _scalar(Fraction(-a.numerator) if a.denominator == 1 else -a)
        return _scalar(-a, -self.im)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.re, other.re
        if self.im is _F0 and other.im is _F0:
            if a.denominator == 1 and b.denominator == 1:
                return _scalar(Fraction(a.numerator * b.numerator))
            return _scalar(a * b)
        c, d = self.im, other.im
        return _scalar(a * b - c * d, a * d + c * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other:
            raise ZeroDivisionError("division of scalars by zero")
        a, b = self.re, other.re
        if self.im is _F0 and other.im is _F0:
            if a.denominator == 1 and b.denominator == 1:
                return _scalar(Fraction(a.numerator, b.numerator))
            return _scalar(a / b)
        c, d = self.im, other.im
        norm = b * b + d * d
        return _scalar((a * b + c * d) / norm, (c * b - a * d) / norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "Scalar":
        if self.im is _F0:
            return self
        return _scalar(self.re, -self.im)

    def __bool__(self):
        return self.re.numerator != 0 or (self.im is not _F0 and self.im.numerator != 0)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.re, other.re
        c, d = self.im, other.im
        return (
            a.numerator == b.numerator
            and a.denominator == b.denominator
            and (c is d or c.numerator == d.numerator and c.denominator == d.denominator)
        )

    def __hash__(self):
        # a real scalar equals its real part, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.im or other.im:
            raise MalformedInputError("complex scalars are not ordered")
        return self.re < other.re


def _fraction(part) -> Fraction:
    """A scalar part, ``int`` or ``Fraction``, as a plain ``Fraction``."""
    if isinstance(part, (int, Fraction)):
        return Fraction(part)
    raise MalformedInputError(f"scalar parts must be int or Fraction, got {type(part).__name__}")


_new_object = object.__new__


def _scalar(re: Fraction, im: Fraction = _F0) -> Scalar:
    """A scalar from canonical ``Fraction`` parts, without the constructor's
    type checks; a zero imaginary part is replaced by the shared ``_F0``."""
    s = _new_object(Scalar)
    s.re = re
    s.im = im if im is _F0 or im else _F0
    return s


ZERO = Scalar(0)
ONE = Scalar(1)


def as_scalar(value) -> Scalar:
    s = Scalar._coerce(value)
    if s is None:
        if isinstance(value, str):
            return Scalar.from_string(value)
        raise MalformedInputError(f"cannot interpret {value!r} as a scalar")
    return s


# -- vectors --------------------------------------------------------------

def dense_strings(vec: dict[int, Scalar], n: int) -> list[str]:
    """A sparse vector as ``n`` scalar strings: the list starts as ``"0"``s
    and only the nonzero entries are formatted, since a zero prints as
    ``"0"``.  Reports and spec files write dense rows through this."""
    strings = ["0"] * n
    for j, x in vec.items():
        strings[j] = str(x)
    return strings


def check_indices(vec: dict[int, Scalar], n: int) -> None:
    """MalformedInputError unless every index of ``vec`` is in range(n).
    Checked where a caller's vector enters the library, not in the loops
    that only pass the library's own vectors along."""
    if vec and not (0 <= min(vec) and max(vec) < n):
        bad = next(j for j in vec if not 0 <= j < n)
        raise MalformedInputError(f"vector index {bad} is out of range for dimension {n}")


def add_scaled(v: dict[int, Scalar], c: Scalar, entries) -> None:
    """v += c * w in place, for w given by its nonzero (index, value) pairs;
    entries that cancel are deleted, so v stays free of zeros.  When c is
    one, the entries of w are stored as they are: scalars are immutable,
    so they can be shared."""
    one = c is ONE or c == ONE
    for j, x in entries:
        t = x if one else c * x
        old = v.get(j)
        if old is None:
            v[j] = t
        else:
            t = old + t
            if t:
                v[j] = t
            else:
                del v[j]


# -- Gram matrices --------------------------------------------------------

class Gram:
    """A Gram matrix held by the nonzero entries of its rows; read-only.

    Built from sparse rows ``{j: scalar}``; ``sparse`` keeps one
    ``{j: nonzero Scalar}`` dict per row.  An entry that is already a
    :class:`Scalar` is taken as it is.  ``square`` records whether every
    input index j of the n rows lies in range(n), so they make an n x n
    matrix.
    """

    __slots__ = ("sparse", "square")

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        sparse = []
        for row in rows:
            out = {}
            for j, x in row.items():
                if type(x) is not Scalar:
                    x = as_scalar(x)
                if x:
                    out[j] = x
            sparse.append(out)
        self.sparse: tuple[dict[int, Scalar], ...] = tuple(sparse)
        self.square = all(0 <= j < n for row in rows for j in row)

    def __len__(self):
        return len(self.sparse)

    def __eq__(self, other):
        if not isinstance(other, Gram):
            return NotImplemented
        return self.square == other.square and self.sparse == other.sparse

    def __repr__(self):
        n = len(self.sparse)
        return f"<Gram {n}x{n}, {sum(map(len, self.sparse))} nonzero>"


def pairing(u: dict[int, Scalar], v: dict[int, Scalar], gram: Gram) -> Scalar:
    """<u, v> against one Gram matrix (conjugate-linear in v)."""
    rows = gram.sparse
    conj_v = [(j, x.conjugate()) for j, x in v.items()]
    acc = ZERO
    for i, ui in u.items():
        row = rows[i]
        part = ZERO
        for j, cj in conj_v:
            g = row.get(j)
            if g is not None:
                part = part + g * cj
        if part:
            acc = acc + ui * part
    return acc


def pairing_vanishes(a: Subspace, b: Subspace, gram: Gram) -> bool:
    """True iff <u, v> = 0 for every u in ``a`` and v in ``b``.

    <u, v> is a sum of terms u_i G[i][j] conj(v_j), so it can be nonzero
    only when a Gram row i in the support of ``a`` has an entry j in the
    support of ``b``; when none does, no pairing is evaluated.
    """
    supp_b = b.support()
    if all(supp_b.isdisjoint(gram.sparse[i]) for i in a.support()):
        return True
    return not any(pairing(u, v, gram) for u in a.sparse.values() for v in b.sparse.values())


def is_hermitian(gram: Gram) -> bool:
    """Square, with the conjugate of every nonzero (i, j) entry at (j, i)."""
    if not gram.square:
        return False
    rows = gram.sparse
    for i, row in enumerate(rows):
        for j, x in row.items():
            y = rows[j].get(i)
            if y is None or x != y.conjugate():
                return False
    return True


# -- subspaces ------------------------------------------------------------

def _reduce(rows: dict[int, dict[int, Scalar]], v: dict[int, Scalar]) -> dict[int, Scalar]:
    """Residual of a sparse vector against reduced row-echelon rows keyed by
    pivot.  Each row vanishes at every other pivot, so eliminating the
    pivots in the support of ``v`` once each, in any order, clears them all."""
    hits = [p for p in v if p in rows]
    if not hits:
        return v
    v = dict(v)
    for p in hits:
        add_scaled(v, -v[p], rows[p].items())
    return v


class EchelonBasis:
    """Mutable accumulator that keeps its rows in reduced row-echelon form.

    ``rows`` maps each pivot column to its sparse row, which has leading
    coefficient 1 at the pivot and is zero at every other pivot, so the rows
    sorted by pivot are the canonical representative of the span.  A row is
    replaced, never changed in place, so rows can be shared with the
    subspaces built from them.
    """

    def __init__(self, ambient: int, rows=None):
        self.ambient = ambient
        self.rows: dict[int, dict[int, Scalar]] = dict(rows or {})

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vec) -> dict[int, Scalar]:
        """Sparse residual of ``vec`` against the rows; empty iff contained."""
        return _reduce(self.rows, vec)

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the span grew."""
        v = self.residual(vec)
        if not v:
            return False
        lead = min(v)
        c = v[lead]
        if c != ONE:
            v = {j: x / c for j, x in v.items()}
        rows = self.rows
        for p, row in rows.items():
            f = row.get(lead)
            if f is not None:
                row = dict(row)
                add_scaled(row, -f, v.items())
                rows[p] = row
        rows[lead] = v
        return True

    def extend(self, vectors) -> None:
        for v in vectors:
            self.add(v)

    def to_subspace(self) -> "Subspace":
        return Subspace(self.ambient, self.rows)


class Subspace:
    """A linear subspace held by its canonical reduced-echelon basis.

    ``sparse`` maps each pivot, in ascending order, to its sparse row, and
    ``pivots`` lists the pivot columns.  Equal subspaces have equal pivots,
    so the pivots alone serve as the hash.
    """

    __slots__ = ("ambient", "sparse", "pivots")

    def __init__(self, ambient: int, sparse: dict[int, dict[int, Scalar]]):
        self.ambient = ambient
        self.sparse = {p: sparse[p] for p in sorted(sparse)}
        self.pivots = tuple(self.sparse)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def basis(self) -> EchelonBasis:
        return EchelonBasis(self.ambient, self.sparse)

    def support(self) -> set[int]:
        """The coordinates at which some vector of the subspace is nonzero."""
        return {j for row in self.sparse.values() for j in row}

    def contains(self, vec) -> bool:
        check_indices(vec, self.ambient)
        return not _reduce(self.sparse, vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise MalformedInputError("ambient dimensions differ")
        return all(self.contains(r) for r in other.sparse.values())

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise MalformedInputError("ambient dimensions differ")
        eb = self.basis()
        eb.extend(other.sparse.values())
        return eb.to_subspace()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.sparse == other.sparse

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of {self.ambient}>"


def span(vectors, ambient: int) -> Subspace:
    """Canonical reduced-echelon basis of the linear span."""
    eb = EchelonBasis(ambient)
    for v in vectors:
        check_indices(v, ambient)
        eb.add(v)
    return eb.to_subspace()


def coordinate_subspace(ambient: int, indices) -> Subspace:
    """Span of the unit vectors with the given indices."""
    return Subspace(ambient, {i: {i: ONE} for i in indices})


def full_space(ambient: int) -> Subspace:
    return coordinate_subspace(ambient, range(ambient))


def nullspace(matrix, ncols: int) -> Subspace:
    """Exact right kernel {v : M v = 0} of a matrix given by its sparse rows."""
    eb = EchelonBasis(ncols)
    for row in matrix:
        if eb.dim == ncols:
            break
        eb.add(row)
    kernel = []
    for free in range(ncols):
        if free in eb.rows:
            continue
        v = {free: ONE}
        for p, row in eb.rows.items():
            x = row.get(free)
            if x is not None:
                v[p] = -x
        kernel.append(v)
    return span(kernel, ncols)


def joint_orthogonal_complement(inner: Subspace, outer: Subspace, grams: list[Gram]) -> Subspace:
    """Vectors of ``outer`` orthogonal to all of ``inner`` under every Gram.

    Returns {x in outer : <x, s>_a = 0 for all s in inner and all a}.
    Requires inner <= outer and Hermitian Grams.
    """
    n = outer.ambient
    if inner.ambient != n:
        raise MalformedInputError("ambient dimensions differ")
    if not outer.contains_subspace(inner):
        raise PreconditionError("inner subspace is not contained in the outer one")
    for a, gram in enumerate(grams):
        if len(gram) != n or not is_hermitian(gram):
            raise MalformedInputError(f"Gram {a} is not a Hermitian {n}x{n} matrix")
    if inner.is_zero() or outer.is_zero():
        return outer
    # <x, s> = sum_j x_j * (G conj(s))_j is linear in x, and for Hermitian G
    # (G conj(s))_j = conj(sum_k s_k G[k][j]); collect one constraint row per
    # (Gram, inner basis vector), then solve inside the coordinates of ``outer``.
    constraints = []
    for gram in grams:
        for s in inner.sparse.values():
            row = {}
            for k, sk in s.items():
                add_scaled(row, sk, gram.sparse[k].items())
            if row:
                constraints.append({j: x.conjugate() for j, x in row.items()})
    if not constraints:
        return outer
    # Rewrite each constraint in the coordinates y of x = sum_t y_t w_t.
    basis = list(outer.sparse.values())
    reduced = []
    for c in constraints:
        row = {}
        for t, w in enumerate(basis):
            acc = sum((x * c[j] for j, x in w.items() if j in c), ZERO)
            if acc:
                row[t] = acc
        reduced.append(row)
    ker = nullspace(reduced, len(basis))
    eb = EchelonBasis(n)
    for y in ker.sparse.values():
        x = {}
        for t, yt in y.items():
            add_scaled(x, yt, basis[t].items())
        eb.add(x)
    return eb.to_subspace()


def psd_counterexample(gram: Gram) -> dict[int, Scalar] | None:
    """A sparse vector x with <x, x> < 0 if the Hermitian form is not
    positive semidefinite, else None.

    Decided exactly by symmetric elimination with diagonal pivoting.  A
    congruence transform is tracked so the returned witness is expressed in
    the original coordinates.  When no nonzero diagonal pivot remains, any
    surviving off-diagonal entry c yields the explicit witness
    -conj(c) * w_j + w_k of value -2|c|^2.
    """
    if not is_hermitian(gram):
        raise MalformedInputError("Gram matrix is not Hermitian")
    n = len(gram)
    # entries in eliminated columns go stale and are never read again; the
    # live block stays Hermitian, so the rows to update are the live columns
    # of the pivot row
    g = [dict(row) for row in gram.sparse]
    track = [{i: ONE} for i in range(n)]
    alive = list(range(n))
    live = set(alive)
    while alive:
        pivot = next((i for i in alive if i in g[i]), None)
        if pivot is None:
            for j in alive:
                ks = [k for k in g[j] if k != j and k in live]
                if ks:
                    k = min(ks)
                    w = dict(track[k])
                    add_scaled(w, -g[j][k].conjugate(), track[j].items())
                    return w
            return None
        d = g[pivot][pivot]
        if d.re < 0:
            return track[pivot]
        alive.remove(pivot)
        live.remove(pivot)
        gp = [(k, x) for k, x in g[pivot].items() if k in live]
        wp = list(track[pivot].items())
        for j, _ in gp:
            m = -(g[j][pivot] / d)
            add_scaled(track[j], m, wp)
            add_scaled(g[j], m, gp)
    return None
