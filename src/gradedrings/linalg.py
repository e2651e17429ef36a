"""Exact linear algebra over the rationals and Gaussian rationals.

Everything in this package computes with exact scalars.  A :class:`Scalar`
is a pair of ``Fraction`` values (real and imaginary part), so the field is
Q or Q(i) and field axioms hold on the nose.  There is no floating point and
no tolerance anywhere.

Inside the kernel a vector is sparse: a dict ``{index: nonzero Scalar}``
that never stores a zero, so ``if v`` tests for the zero vector and every
loop visits only nonzero coordinates.  A sparse vector is not changed once
it has been handed to another function; echelon rows are replaced rather
than updated in place, so they can be shared.  The public API takes and
returns dense sequences of scalars: every function that takes a vector
accepts either form, and the ring products answer in the form they were
given (:func:`in_form_of`).  :class:`EchelonBasis` keeps its rows and
residuals sparse.  A :class:`Subspace` stores a reduced row-echelon basis,
which is a canonical form: its dense ``rows`` are identical exactly when
two subspaces are equal, and its sparse rows are what the kernel computes
with.

A Gram matrix is held as a read-only :class:`Gram`: one sparse row
``{j: nonzero Scalar}`` per row, plus a flag recording whether the input
was square.  ``gram[i][j]`` and ``len(gram)`` read it as a dense matrix,
built on first use, but every check, pairing and complement visits only the
nonzero entries.  The functions that take a Gram (:func:`pairing`,
:func:`is_hermitian`, :func:`psd_counterexample`, :func:`psd_check` and
:func:`joint_orthogonal_complement`) accept a :class:`Gram`, a dense matrix
(a sequence of rows of scalars) or sparse dict rows, converted once by
:func:`as_gram`.

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
_F1 = Fraction(1)


class Scalar:
    """An element of Q or Q(i) in reduced canonical form.

    Immutable by convention; arithmetic returns new objects.  ``Fraction``
    keeps numerator/denominator reduced with a positive denominator, so
    equal scalars always compare and hash equal.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

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
        if m:
            re_part = Fraction(m.group("re"))
            if m.group("im") is None:
                return cls(re_part)
            im_part = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
            return cls(re_part, im_part)
        m = cls._PURE_IMAG.match(text)
        if m:
            return cls(_F0, Fraction(m.group("im")))
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
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of scalars by zero")
        if not self.im and not other.im:
            return Scalar(self.re / other.re)
        norm = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "Scalar":
        if not self.im:
            return self
        return Scalar(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.im or other.im:
            raise MalformedInputError("complex scalars are not ordered")
        return self.re < other.re


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

def zero_vector(n: int) -> list[Scalar]:
    return [ZERO] * n


def unit_vector(n: int, i: int) -> list[Scalar]:
    v = [ZERO] * n
    v[i] = ONE
    return v


def vector(values) -> list[Scalar]:
    return [as_scalar(v) for v in values]


def as_sparse(vec, ambient: int | None = None) -> dict[int, Scalar]:
    """The sparse form of a vector.  A dict is taken to be sparse already
    and returned as it is; a dense vector is checked against ``ambient``
    when that is given."""
    if isinstance(vec, dict):
        return vec
    if ambient is not None and len(vec) != ambient:
        raise MalformedInputError(
            f"vector has length {len(vec)}, ambient dimension is {ambient}"
        )
    out = {}
    for j, x in enumerate(vec):
        x = as_scalar(x)
        if x:
            out[j] = x
    return out


def as_dense(vec: dict[int, Scalar], ambient: int) -> list[Scalar]:
    out = [ZERO] * ambient
    for j, x in vec.items():
        out[j] = x
    return out


def in_form_of(like, vec: dict[int, Scalar], ambient: int):
    """``vec`` in the form (sparse or dense) of the argument ``like``."""
    return vec if isinstance(like, dict) else as_dense(vec, ambient)


def add_scaled(v: dict[int, Scalar], c: Scalar, entries) -> None:
    """v += c * w in place, for w given by its nonzero (index, value) pairs;
    entries that cancel are deleted, so v stays free of zeros."""
    for j, x in entries:
        t = c * x
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

    ``sparse`` has one ``{j: nonzero Scalar}`` dict per row.  ``square``
    records whether the input was square: every dense row as long as there
    are rows, every sparse index in range.  ``gram[i][j]`` reads the dense
    n x n matrix (``ZERO`` off the support), built on first use; of a
    non-square input it holds the entries inside the n x n square.
    """

    __slots__ = ("sparse", "square", "_rows")

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        square = True
        sparse = []
        for row in rows:
            if isinstance(row, dict):
                square = square and all(0 <= j < n for j in row)
                entries = row.items()
            else:
                square = square and len(row) == n
                entries = enumerate(row)
            out = {}
            for j, x in entries:
                x = as_scalar(x)
                if x:
                    out[j] = x
            sparse.append(out)
        self.sparse: tuple[dict[int, Scalar], ...] = tuple(sparse)
        self.square = square
        self._rows = None

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        if self._rows is None:
            n = len(self.sparse)
            self._rows = tuple(tuple(row.get(j, ZERO) for j in range(n)) for row in self.sparse)
        return self._rows

    def __len__(self):
        return len(self.sparse)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, Gram):
            return NotImplemented
        return self.square == other.square and self.sparse == other.sparse

    def __repr__(self):
        n = len(self.sparse)
        return f"<Gram {n}x{n}, {sum(map(len, self.sparse))} nonzero>"


def as_gram(gram) -> Gram:
    """A :class:`Gram` as it is; dense or sparse dict rows converted."""
    return gram if isinstance(gram, Gram) else Gram(gram)


def pairing(u, v, gram) -> Scalar:
    """<u, v> against one Gram matrix (conjugate-linear in v)."""
    rows = as_gram(gram).sparse
    conj_v = [(j, x.conjugate()) for j, x in as_sparse(v).items()]
    acc = ZERO
    for i, ui in as_sparse(u).items():
        row = rows[i]
        part = ZERO
        for j, cj in conj_v:
            g = row.get(j)
            if g is not None:
                part = part + g * cj
        if part:
            acc = acc + ui * part
    return acc


def is_hermitian(gram) -> bool:
    """Square, with the conjugate of every nonzero (i, j) entry at (j, i)."""
    gram = as_gram(gram)
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

    @property
    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def residual(self, vec) -> dict[int, Scalar]:
        """Sparse residual of ``vec`` against the rows; empty iff contained."""
        return _reduce(self.rows, as_sparse(vec, self.ambient))

    def contains(self, vec) -> bool:
        return not self.residual(vec)

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

    ``sparse`` maps each pivot, in ascending order, to its sparse row; the
    kernel computes with these.  ``pivots`` lists the pivot columns and
    ``rows`` the same rows as dense tuples, built on first use: the
    canonical form that hashing and reports use.
    """

    __slots__ = ("ambient", "sparse", "pivots", "_rows")

    def __init__(self, ambient: int, sparse: dict[int, dict[int, Scalar]]):
        self.ambient = ambient
        self.sparse = {p: sparse[p] for p in sorted(sparse)}
        self.pivots = tuple(self.sparse)
        self._rows = None

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        if self._rows is None:
            self._rows = tuple(tuple(as_dense(r, self.ambient)) for r in self.sparse.values())
        return self._rows

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, {})

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def basis(self) -> EchelonBasis:
        return EchelonBasis(self.ambient, self.sparse)

    def contains(self, vec) -> bool:
        return not _reduce(self.sparse, as_sparse(vec, self.ambient))

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

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: row-reduce rows (a | a) and (b | 0); rows whose left
        half vanished have right halves spanning the intersection."""
        if other.ambient != self.ambient:
            raise MalformedInputError("ambient dimensions differ")
        n = self.ambient
        eb = EchelonBasis(2 * n)
        for a in self.sparse.values():
            eb.add({**a, **{j + n: x for j, x in a.items()}})
        eb.extend(other.sparse.values())
        out = EchelonBasis(n)
        for p, row in eb.rows.items():
            if p >= n:
                out.add({j - n: x for j, x in row.items()})
        return out.to_subspace()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        # equal sparse rows are equal dense rows
        return self.ambient == other.ambient and self.sparse == other.sparse

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of {self.ambient}>"


def span(vectors, ambient: int) -> Subspace:
    """Canonical reduced-echelon basis of the linear span."""
    eb = EchelonBasis(ambient)
    eb.extend(vectors)
    return eb.to_subspace()


def coordinate_subspace(ambient: int, indices) -> Subspace:
    """Span of the unit vectors with the given indices."""
    return Subspace(ambient, {i: {i: ONE} for i in indices})


def full_space(ambient: int) -> Subspace:
    return coordinate_subspace(ambient, range(ambient))


def nullspace(matrix, ncols: int) -> Subspace:
    """Exact right kernel {v : M v = 0} of a matrix given as a list of rows."""
    eb = EchelonBasis(ncols)
    for row in matrix:
        if not isinstance(row, dict) and len(row) != ncols:
            raise MalformedInputError("matrix rows have inconsistent length")
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


def joint_orthogonal_complement(inner: Subspace, outer: Subspace, grams) -> Subspace:
    """Vectors of ``outer`` orthogonal to all of ``inner`` under every Gram.

    Returns {x in outer : <x, s>_a = 0 for all s in inner and all a}.
    Requires inner <= outer and Hermitian Grams.
    """
    n = outer.ambient
    if inner.ambient != n:
        raise MalformedInputError("ambient dimensions differ")
    if not outer.contains_subspace(inner):
        raise PreconditionError("inner subspace is not contained in the outer one")
    grams = [as_gram(gram) for gram in grams]
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


def psd_counterexample(gram):
    """A vector x with <x, x> < 0 if the Hermitian form is not positive
    semidefinite, else None.

    Decided exactly by symmetric elimination with diagonal pivoting.  A
    congruence transform is tracked so the returned witness is expressed in
    the original coordinates.  When no nonzero diagonal pivot remains, any
    surviving off-diagonal entry c yields the explicit witness
    -conj(c) * w_j + w_k of value -2|c|^2.
    """
    gram = as_gram(gram)
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
                    return as_dense(w, n)
            return None
        d = g[pivot][pivot]
        if d.re < 0:
            return as_dense(track[pivot], n)
        alive.remove(pivot)
        live.remove(pivot)
        gp = [(k, x) for k, x in g[pivot].items() if k in live]
        wp = list(track[pivot].items())
        for j, _ in gp:
            m = -(g[j][pivot] / d)
            add_scaled(track[j], m, wp)
            add_scaled(g[j], m, gp)
    return None


def psd_check(gram) -> bool:
    """True iff the Hermitian form is positive semidefinite (exact)."""
    return psd_counterexample(gram) is None
