"""The central data model: a finite-dimensional graded ring with forms.

A :class:`GradedRing` is described by a homogeneous basis (every basis
element carries a single degree in an abelian group), sparse structure
constants for the bilinear product, and a nonempty family of Hermitian Gram
matrices.  :meth:`GradedRing.validate` checks the five axioms the model is
supposed to satisfy and reports every failure with a concrete witness:

* grading        product of degrees matches the degree of every product term
* associativity  (e_i e_j) e_k == e_i (e_j e_k) for all basis triples
* orthogonality  distinct homogeneous components pair to zero in every Gram
* psd            every Gram form is positive semidefinite
* hausdorff      the joint kernel of the Gram family is trivial
* malformed      structural defects (bad lengths, indices out of range, ...)

The constructor is deliberately permissive so that defective rings can be
constructed and then *reported* on; it never decides mathematics itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import MalformedInputError
from .groups import Element, GroupSignature
from .linalg import (
    ONE,
    EchelonBasis,
    Scalar,
    Subspace,
    add_scaled,
    as_gram,
    as_scalar,
    as_sparse,
    coordinate_subspace,
    in_form_of,
    is_hermitian,
    nullspace,
    psd_counterexample,
)


@dataclass(frozen=True)
class Violation:
    kind: str  # grading | associativity | orthogonality | psd | hausdorff | malformed
    where: tuple
    detail: str


@dataclass
class ViolationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> list[str]:
        return sorted({v.kind for v in self.violations})

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)

    def add(self, kind, where, detail):
        self.violations.append(Violation(kind, tuple(where), detail))


def derived(fn):
    """Compute ``fn(ring)`` once per ring and keep it; the value must be immutable."""

    @functools.wraps(fn)
    def cached(ring):
        if fn not in ring._derived:
            ring._derived[fn] = fn(ring)
        return ring._derived[fn]

    return cached


class GradedRing:
    """Immutable graded ring value.

    ``structure`` is read-only.  Quantities derived from the ring alone are
    computed once, on first use, and kept on the ring (see :func:`derived`).

    Parameters
    ----------
    signature : GroupSignature
        The grading group.
    degrees : sequence of exponent tuples, one per basis element.
    structure : mapping (i, j) -> iterable of (k, scalar) pairs
        Sparse structure constants: e_i e_j = sum_k c_k e_k.  Zero products
        may simply be omitted.
    grams : sequence of Gram matrices (at least one).
        Each is a :class:`~gradedrings.linalg.Gram`, dense rows of scalars
        or sparse ``{j: scalar}`` rows, and is kept as a ``Gram`` built once
        here: ``ring.grams[a][i][j]`` reads entries and every check visits
        only the nonzero ones.
    labels : optional sequence of basis labels.
    """

    def __init__(self, signature: GroupSignature, degrees, structure, grams, labels=None):
        if not isinstance(signature, GroupSignature):
            raise MalformedInputError("signature must be a GroupSignature")
        self.signature = signature
        self.degrees: tuple[Element, ...] = tuple(tuple(d) for d in degrees)
        n = len(self.degrees)
        if labels is None:
            labels = tuple(f"e{i}" for i in range(n))
        self.labels = tuple(str(s) for s in labels)
        cleaned = {}
        for (i, j), entries in structure.items():
            row = tuple(
                (k, as_scalar(c)) for k, c in sorted(entries, key=lambda e: e[0]) if as_scalar(c)
            )
            if row:
                cleaned[(int(i), int(j))] = row
        self.structure = MappingProxyType(cleaned)
        self.grams = tuple(as_gram(gram) for gram in grams)
        # index maps used all over the analyses
        self._by_degree: dict[Element, tuple[int, ...]] = {}
        for i, d in enumerate(self.degrees):
            self._by_degree[d] = self._by_degree.get(d, ()) + (i,)
        self._left_keys: dict[int, tuple[int, ...]] = {}
        for (i, j) in self.structure:
            self._left_keys[i] = self._left_keys.get(i, ()) + (j,)
        self._derived: dict = {}

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def identity_degree(self) -> Element:
        return self.signature.identity()

    def basis_product(self, i: int, j: int):
        return self.structure.get((i, j), ())

    def attained_degrees(self) -> list[Element]:
        return sorted(self._by_degree)

    def indices_of_degree(self, g: Element) -> tuple[int, ...]:
        return self._by_degree.get(tuple(g), ())

    def support(self) -> frozenset[Element]:
        """Non-identity degrees attained by basis elements."""
        one = self.identity_degree()
        return frozenset(d for d in self._by_degree if d != one)

    def sorted_support(self) -> list[Element]:
        return sorted(self.support())

    def component(self, g: Element) -> Subspace:
        """Homogeneous component of degree g (zero subspace if unattained)."""
        return coordinate_subspace(self.dim, self.indices_of_degree(g))

    def identity_component(self) -> Subspace:
        return self.component(self.identity_degree())

    def homogeneous_parts(self, v) -> list[tuple[Element, dict[int, Scalar]]]:
        """The nonzero homogeneous pieces of v as (degree, sparse vector)
        pairs in ascending degree order."""
        parts: dict[Element, dict[int, Scalar]] = {}
        for i, x in as_sparse(v, self.dim).items():
            parts.setdefault(self.degrees[i], {})[i] = x
        return sorted(parts.items())

    # -- products ----------------------------------------------------------
    #
    # Vectors are dense sequences or sparse dicts; each product answers in
    # the form of its vector argument (of ``u`` for ``multiply``).

    def multiply(self, u, v):
        """Bilinear extension of the structure constants."""
        n = self.dim
        su, sv = as_sparse(u, n), as_sparse(v, n)
        out: dict[int, Scalar] = {}
        for i, ui in su.items():
            for j in self._left_keys.get(i, ()):
                vj = sv.get(j)
                if vj is not None:
                    add_scaled(out, ui * vj, self.structure[(i, j)])
        return in_form_of(u, out, n)

    def multiply_basis_right(self, u, j: int):
        """u * e_j without materializing e_j."""
        out: dict[int, Scalar] = {}
        for i, ui in as_sparse(u, self.dim).items():
            entries = self.structure.get((i, j))
            if entries:
                add_scaled(out, ui, entries)
        return in_form_of(u, out, self.dim)

    def multiply_basis_left(self, i: int, u):
        """e_i * u without materializing e_i."""
        out: dict[int, Scalar] = {}
        for j, uj in as_sparse(u, self.dim).items():
            entries = self.structure.get((i, j))
            if entries:
                add_scaled(out, uj, entries)
        return in_form_of(u, out, self.dim)

    def product_span(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of all products of one subspace with another."""
        eb = EchelonBasis(self.dim)
        for u in a.sparse.values():
            for v in b.sparse.values():
                w = self.multiply(u, v)
                if w:
                    eb.add(w)
        return eb.to_subspace()

    # -- validation ---------------------------------------------------------

    def _check_malformed(self, report: ViolationReport) -> None:
        n = self.dim
        sig = self.signature
        if len(self.labels) != n:
            report.add("malformed", (), f"{len(self.labels)} labels for {n} basis elements")
        for i, d in enumerate(self.degrees):
            if not sig.conforms(d):
                report.add("malformed", (i,), f"degree {d} does not conform to the signature")
        for (i, j), entries in self.structure.items():
            if not (0 <= i < n and 0 <= j < n):
                report.add("malformed", (i, j), "structure key out of range")
                continue
            for k, _ in entries:
                if not 0 <= k < n:
                    report.add("malformed", (i, j, k), "structure target out of range")
        if not self.grams:
            report.add("malformed", (), "at least one Gram matrix is required")
        for a, gram in enumerate(self.grams):
            if len(gram) != n or not gram.square:
                report.add("malformed", (a,), f"Gram {a} is not {n}x{n}")
            elif not is_hermitian(gram):
                report.add("malformed", (a,), f"Gram {a} is not Hermitian")

    def _check_grading(self, report: ViolationReport) -> None:
        sig = self.signature
        for (i, j), entries in sorted(self.structure.items()):
            expected = sig.compose(self.degrees[i], self.degrees[j])
            for k, c in entries:
                if self.degrees[k] != expected:
                    report.add(
                        "grading",
                        (i, j, k),
                        f"product of degrees {self.degrees[i]} and {self.degrees[j]} is "
                        f"{expected}, but term {k} has degree {self.degrees[k]} "
                        f"(coefficient {c})",
                    )

    def _check_associativity(self, report: ViolationReport) -> None:
        n = self.dim

        def right_mul(entries, k):
            acc: dict[int, Scalar] = {}
            for m, c in entries:
                add_scaled(acc, c, self.structure.get((m, k), ()))
            return acc

        def left_mul(i, entries):
            acc: dict[int, Scalar] = {}
            for m, c in entries:
                add_scaled(acc, c, self.structure.get((i, m), ()))
            return acc

        # e_i (e_j e_k) can be nonzero only when e_i e_m != 0 for a term m
        # of e_j e_k: for each (i, j) with e_i e_j = 0, the k where that
        # happens, in the order of _left_keys[j]
        left_of: dict[int, list[int]] = {}
        for (i, m) in self.structure:
            left_of.setdefault(m, []).append(i)
        zero_ks: dict[tuple[int, int], list[int]] = {}
        for j, ks in self._left_keys.items():
            for k in ks:
                seen = set()
                for m, _ in self.structure[(j, k)]:
                    for i in left_of.get(m, ()):
                        if i not in seen and (i, j) not in self.structure:
                            seen.add(i)
                            zero_ks.setdefault((i, j), []).append(k)

        for i in range(n):
            for j in range(n):
                left = self.structure.get((i, j))
                if left:
                    # both sides vanish unless e_j e_k or some e_m e_k with
                    # e_m in e_i e_j is nonzero; sorted keeps the order of k
                    ks = set(self._left_keys.get(j, ()))
                    for m, _ in left:
                        ks.update(self._left_keys.get(m, ()))
                    for k in sorted(ks):
                        lhs = right_mul(left, k)
                        rhs = left_mul(i, self.structure.get((j, k), ()))
                        if lhs != rhs:
                            report.add(
                                "associativity",
                                (i, j, k),
                                f"(e{i} e{j}) e{k} = {sorted(lhs.items())} but "
                                f"e{i} (e{j} e{k}) = {sorted(rhs.items())}",
                            )
                else:
                    for k in zero_ks.get((i, j), ()):
                        rhs = left_mul(i, self.structure[(j, k)])
                        if rhs:
                            report.add(
                                "associativity",
                                (i, j, k),
                                f"(e{i} e{j}) e{k} = 0 but e{i} (e{j} e{k}) = {sorted(rhs.items())}",
                            )

    def _check_orthogonality(self, report: ViolationReport) -> None:
        for a, gram in enumerate(self.grams):
            for i, row in enumerate(gram.sparse):
                di = self.degrees[i]
                for j in sorted(k for k in row if k > i):
                    if self.degrees[j] != di:
                        report.add(
                            "orthogonality",
                            (a, i, j),
                            f"Gram {a} pairs basis {i} (degree {di}) with basis {j} "
                            f"(degree {self.degrees[j]}) as {row[j]}",
                        )

    def _check_psd(self, report: ViolationReport) -> None:
        for a, gram in enumerate(self.grams):
            witness = psd_counterexample(gram)
            if witness is not None:
                report.add(
                    "psd",
                    (a,),
                    f"Gram {a} is not positive semidefinite; witness "
                    f"[{', '.join(str(x) for x in witness)}] has negative square",
                )

    def _check_hausdorff(self, report: ViolationReport) -> None:
        n = self.dim
        total: list[dict[int, Scalar]] = [{} for _ in range(n)]
        for gram in self.grams:
            for i, row in enumerate(gram.sparse):
                add_scaled(total[i], ONE, row.items())
        kernel = nullspace(total, n)
        if not kernel.is_zero():
            witness = kernel.rows[0]
            report.add(
                "hausdorff",
                (),
                "the Gram family does not separate points; "
                f"[{', '.join(str(x) for x in witness)}] is in the joint kernel",
            )

    def validate(self) -> ViolationReport:
        """Exhaustive axiom check.  Structural defects short-circuit the
        semantic checks (which could not run meaningfully)."""
        report = ViolationReport()
        self._check_malformed(report)
        if not report.ok:
            return report
        self._check_grading(report)
        self._check_associativity(report)
        self._check_orthogonality(report)
        self._check_psd(report)
        self._check_hausdorff(report)
        return report

    # -- equality and copying --------------------------------------------------

    def __reduce__(self):
        # rebuilt through the constructor, so the derived-value memo starts empty
        return (
            type(self),
            (self.signature, self.degrees, dict(self.structure), self.grams, self.labels),
        )

    def __eq__(self, other):
        if not isinstance(other, GradedRing):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.degrees == other.degrees
            and self.labels == other.labels
            and self.structure == other.structure
            and self.grams == other.grams
        )

    def __repr__(self):
        return (
            f"<GradedRing dim {self.dim}, group rank {self.signature.free_rank} "
            f"torsion {list(self.signature.torsion)}, {len(self.grams)} Gram(s)>"
        )
