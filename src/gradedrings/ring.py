"""The central data model: a finite-dimensional graded ring with forms.

A :class:`GradedRing` is described by a homogeneous basis (every basis
element carries a single degree in an abelian group), sparse structure
constants for the bilinear product, and a nonempty family of Hermitian Gram
matrices.  :meth:`GradedRing.validate` checks the five axioms the model is
supposed to satisfy and reports every failure with a concrete witness:

* grading        product of degrees matches the degree of every product term
* associativity  (e_i e_j) e_k == e_i (e_j e_k) for all basis triples, decided
                 on the triples whose middle factor is one of a generating
                 set of basis vectors (Light's test); all triples are
                 checked only to list the violations, in (i, j, k) order
                 whatever the order the structure entries were given in
* orthogonality  distinct homogeneous components pair to zero in every Gram
* psd            every Gram form is positive semidefinite
* hausdorff      the joint kernel of the Gram family is trivial
* malformed      structural defects (bad lengths, indices out of range, ...)

The constructor is deliberately permissive so that defective rings can be
constructed and then *reported* on; it never decides mathematics itself.

Vectors are sparse dicts ``{index: nonzero Scalar}``: the products take
and return them, and violation details write a witness densely only as
text (:func:`~gradedrings.linalg.dense_strings`).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

from .errors import MalformedInputError
from .groups import Element, GroupSignature, Packing
from .linalg import (
    EchelonBasis,
    Gram,
    Scalar,
    Subspace,
    add_scaled,
    as_scalar,
    check_indices,
    coordinate_subspace,
    dense_strings,
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


@dataclass(frozen=True)
class DegreeTable:
    """The degrees the analyses meet, each checked once against the signature
    and numbered: the identity, the attained canonical degrees and their
    inverses have the ids 0, 1, ... in ascending order of their tuples, so a
    loop in id order is a loop in degree order.

    Per id, ``degrees`` holds the degree, ``packed`` its form under
    ``packing``, ``inverse`` the id of its inverse, ``in_support`` whether
    a basis element attains it and it is not the identity, and ``indices``
    the basis indices of that degree.  ``support_ids`` lists the support
    ascending and ``one`` is the identity's id.  Per basis index,
    ``basis_ids`` holds the id of its degree, or None where ``malformed``
    lists the index as one whose degree is not canonical.  ``ids`` and
    ``support`` read ids and the support by degree, for the public API.
    The packing's bound is the largest absolute free coordinate of the
    table, so the analyses compose degrees by adding packed forms."""

    degrees: tuple[Element, ...]
    packed: tuple[int, ...]
    inverse: tuple[int, ...]
    in_support: tuple[bool, ...]
    indices: tuple[tuple[int, ...], ...]
    support_ids: tuple[int, ...]
    one: int
    basis_ids: tuple[int | None, ...]
    malformed: tuple[int, ...]
    ids: Mapping[Element, int]
    support: frozenset[Element]
    packing: Packing


def _terms(v: dict[int, Scalar]) -> str:
    """A sparse vector as text: ``0``, or its terms ``c ek``, k ascending."""
    return " + ".join([f"{c} e{k}" for k, c in sorted(v.items())]) or "0"


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
    Degrees are kept as given; the :class:`DegreeTable` checks each attained
    degree once, ``validate`` reports the ones it rejects and the analyses
    raise on them, and past the table the analyses assume canonical degrees.

    Parameters
    ----------
    signature : GroupSignature
        The grading group.
    degrees : sequence of exponent tuples, one per basis element.
    structure : mapping (i, j) -> iterable of (k, scalar) pairs
        Sparse structure constants: e_i e_j = sum_k c_k e_k.  Zero products
        may simply be omitted; repeated (i, j, k) terms are summed.
    grams : sequence of Gram matrices (at least one).
        Each is a :class:`~gradedrings.linalg.Gram` or a list of sparse
        ``{j: scalar}`` rows, kept as a ``Gram``: ``ring.grams[a].sparse[i]``
        holds row i, and every check visits only its nonzero entries.
    labels : optional sequence of basis labels.
    """

    def __init__(self, signature: GroupSignature, degrees, structure, grams, labels=None):
        if not isinstance(signature, GroupSignature):
            raise MalformedInputError("signature must be a GroupSignature")
        self.signature = signature
        # tuples are built from lists here, as in GroupSignature.compose_canonical
        self.degrees: tuple[Element, ...] = tuple([tuple(d) for d in degrees])
        n = len(self.degrees)
        if labels is None:
            labels = tuple([f"e{i}" for i in range(n)])
        self.labels = tuple([str(s) for s in labels])
        # repeated (i, j, k) terms are summed and terms that cancel dropped,
        # so a key is kept exactly when its product is nonzero
        terms: dict[tuple[int, int], dict] = {}
        for (i, j), entries in structure.items():
            row = terms.setdefault((int(i), int(j)), {})
            for k, c in entries:
                if type(c) is not Scalar:
                    c = as_scalar(c)
                if k in row:
                    c += row.pop(k)
                if c:
                    row[k] = c
        # held in (i, j) order, so every walk over the keys is in that order
        self.structure = MappingProxyType(
            {key: tuple(sorted(row.items())) for key, row in sorted(terms.items()) if row}
        )
        self.grams = tuple([g if isinstance(g, Gram) else Gram(g) for g in grams])
        # j with (i, j) a structure key, per i; i with (i, j) one, per j;
        # both ascending
        self._left_keys: dict[int, list[int]] = {}
        self._right_keys: dict[int, list[int]] = {}
        for (i, j) in self.structure:
            self._left_keys.setdefault(i, []).append(j)
            self._right_keys.setdefault(j, []).append(i)
        self._derived: dict = {}

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def identity_degree(self) -> Element:
        return self.signature.identity()

    def attained_degrees(self) -> list[Element]:
        table = self.degree_table()
        return [d for d, ix in zip(table.degrees, table.indices) if ix]

    def indices_of_degree(self, g: Element) -> tuple[int, ...]:
        table = self.degree_table()
        k = table.ids.get(tuple(g))
        return () if k is None else table.indices[k]

    @derived
    def _degree_table(self) -> DegreeTable:
        sig = self.signature
        one = sig.identity()
        found = [one]  # the identity, then the support, then inverses outside it
        # per basis index, its degree's place in found, or None if it is not
        # canonical; each distinct degree is checked once, keyed with its
        # coordinate types as well: 1.0 == 1, but only 1 is canonical
        places: dict[tuple, int | None] = {}
        place = []
        for d in self.degrees:
            key = (d, tuple([*map(type, d)]))
            x = places.get(key, -1)
            if x == -1:
                try:
                    canonical = sig.element(d) == d
                except MalformedInputError:
                    canonical = False
                if not canonical:
                    x = None
                elif d == one:
                    x = 0
                else:
                    x = len(found)
                    found.append(d)
                places[key] = x
            place.append(x)
        attained = len(found)
        r = sig.free_rank
        packing = sig.packing(max(map(abs, chain.from_iterable([d[:r] for d in found])), default=0))
        packed = [*map(packing.pack, found)]
        # an inverse's packed form negates the free digits and takes each
        # torsion digit t to m - t, reduced; only an inverse that no basis
        # element attains is inverted as a tuple, to name it
        position = dict(zip(packed, range(attained)))
        inverse = [0] * attained
        for x, p in enumerate(packing.reduce([packing.moduli - p for p in packed])):
            if p not in position:
                position[p] = len(found)
                found.append(sig.invert_canonical(found[x]))
                packed.append(p)
                inverse.append(x)
            inverse[x] = position[p]
        order = sorted(range(len(found)), key=found.__getitem__)
        rank = sorted(range(len(order)), key=order.__getitem__)  # place in found -> id
        basis_ids = tuple([None if x is None else rank[x] for x in place])
        indices: list[list[int]] = [[] for _ in order]
        for i, k in enumerate(basis_ids):
            if k is not None:
                indices[k].append(i)
        degrees = tuple([found[x] for x in order])
        in_support = tuple([0 < x < attained for x in order])
        return DegreeTable(
            degrees=degrees,
            packed=tuple([packed[x] for x in order]),
            inverse=tuple([rank[inverse[x]] for x in order]),
            in_support=in_support,
            indices=tuple([*map(tuple, indices)]),
            support_ids=tuple([k for k, s in enumerate(in_support) if s]),
            one=rank[0],
            basis_ids=basis_ids,
            malformed=tuple([i for i, x in enumerate(place) if x is None]),
            ids=MappingProxyType({d: k for k, d in enumerate(degrees)}),
            support=frozenset(found[1:attained]),
            packing=packing,
        )

    def degree_table(self) -> DegreeTable:
        """The degree table, or MalformedInputError on a degree not canonical."""
        table = self._degree_table()
        if table.malformed:
            i = table.malformed[0]
            raise MalformedInputError(f"degree {self.degrees[i]} of basis {i} is not canonical")
        return table

    def support(self) -> frozenset[Element]:
        """Non-identity degrees attained by basis elements."""
        return self.degree_table().support

    def sorted_support(self) -> list[Element]:
        table = self.degree_table()
        return [table.degrees[k] for k in table.support_ids]

    def component(self, g: Element) -> Subspace:
        """Homogeneous component of degree g (zero subspace if unattained)."""
        return coordinate_subspace(self.dim, self.indices_of_degree(g))

    def identity_component(self) -> Subspace:
        return self.component(self.identity_degree())

    def homogeneous_parts(self, v: dict[int, Scalar]) -> list[tuple[Element, dict[int, Scalar]]]:
        """The nonzero homogeneous pieces of v as (degree, vector) pairs in
        ascending degree order."""
        check_indices(v, self.dim)
        table = self.degree_table()
        parts: dict[int, dict[int, Scalar]] = {}  # degree id -> piece
        for i, x in v.items():
            parts.setdefault(table.basis_ids[i], {})[i] = x
        return [(table.degrees[k], parts[k]) for k in sorted(parts)]

    # -- products ----------------------------------------------------------

    def multiply(self, u: dict[int, Scalar], v: dict[int, Scalar]) -> dict[int, Scalar]:
        """Bilinear extension of the structure constants."""
        out: dict[int, Scalar] = {}
        for i, ui in u.items():
            for j in self._left_keys.get(i, ()):
                vj = v.get(j)
                if vj is not None:
                    add_scaled(out, ui * vj, self.structure[(i, j)])
        return out

    def multiply_basis_right(self, u: dict[int, Scalar], j: int) -> dict[int, Scalar]:
        """u * e_j without materializing e_j."""
        out: dict[int, Scalar] = {}
        for i, ui in u.items():
            entries = self.structure.get((i, j))
            if entries:
                add_scaled(out, ui, entries)
        return out

    def multiply_basis_left(self, i: int, u: dict[int, Scalar]) -> dict[int, Scalar]:
        """e_i * u without materializing e_i."""
        out: dict[int, Scalar] = {}
        for j, uj in u.items():
            entries = self.structure.get((i, j))
            if entries:
                add_scaled(out, uj, entries)
        return out

    def right_reach(self, indices) -> set[int]:
        """The j with (i, j) a structure key for some i in ``indices``: the
        only e_j with u e_j possibly nonzero for u supported in ``indices``."""
        return {j for i in indices for j in self._left_keys.get(i, ())}

    def basis_multiples(self, u: dict[int, Scalar]):
        """The nonzero u e_j and e_j u, j ascending, u e_j first.  u e_j is
        the sum of u_i e_i e_j over i in supp u, so only the e_j of the
        right reach are tried, and e_j u only when some (j, m) with m in
        supp u is a structure key."""
        right = self.right_reach(u)
        left = {i for m in u for i in self._right_keys.get(m, ())}
        for j in sorted(right | left):
            if j in right and (w := self.multiply_basis_right(u, j)):
                yield w
            if j in left and (w := self.multiply_basis_left(j, u)):
                yield w

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
        if len(self.labels) != n:
            report.add("malformed", (), f"{len(self.labels)} labels for {n} basis elements")
        for i in self._degree_table().malformed:
            d = self.degrees[i]
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
            elif not gram.hermitian:
                report.add("malformed", (a,), f"Gram {a} is not Hermitian")

    def _check_grading(self, report: ViolationReport) -> None:
        """Compare packed degrees: ``validate`` runs this check only when
        every degree is canonical, so each has a packed form."""
        table = self._degree_table()
        packed = [table.packed[k] for k in table.basis_ids]
        products = table.packing.reduce([packed[i] + packed[j] for i, j in self.structure])
        for ((i, j), entries), expected in zip(self.structure.items(), products):
            for k, c in entries:
                if packed[k] != expected:
                    di, dj = self.degrees[i], self.degrees[j]
                    report.add(
                        "grading",
                        (i, j, k),
                        f"product of degrees {di} and {dj} is "
                        f"{self.signature.compose_canonical(di, dj)}, but term {k} has "
                        f"degree {self.degrees[k]} (coefficient {c})",
                    )

    def _associativity_middles(self) -> list[int]:
        """Basis indices whose vectors generate the ring, found greedily.

        Indices are walked in order; one not yet reached becomes a
        generator.  e_k is reached when e_i e_j = c e_k is a single term
        with e_i and e_j reached, so every reached e_k = c^-1 e_i e_j lies
        in the subalgebra the generators span.  Products with several
        terms are never used: a coordinate only they would reach becomes a
        generator itself.  The walk costs O(structure keys) and no scalar
        arithmetic."""
        n = self.dim
        reached = [False] * n
        middles = []
        for a in range(n):
            if reached[a]:
                continue
            middles.append(a)
            reached[a] = True
            stack = [a]
            while stack:
                u = stack.pop()
                keys = [(u, j) for j in self._left_keys.get(u, ()) if reached[j]]
                keys += [(i, u) for i in self._right_keys.get(u, ()) if reached[i]]
                for key in keys:
                    entries = self.structure[key]
                    if len(entries) == 1 and not reached[k := entries[0][0]]:
                        reached[k] = True
                        stack.append(k)
        return middles

    def _check_associativity(self, report: ViolationReport) -> None:
        """Light's associativity test (Clifford and Preston, *The Algebraic
        Theory of Semigroups* I, 1961, section 1.2), for a bilinear product.

        T = {a : (x a) y = x (a y) for all x, y} is a subspace, and it is
        closed under products: for a, b in T,
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        So when the e_a, a in A, generate the ring, the product is
        associative exactly when each e_a is in T, which is the triples
        (i, a, k) with middle index a in A.  Only when one of them fails are
        all triples checked, so the violations reported are every failing
        triple, in (i, j, k) order whatever the order of the structure
        entries given to the constructor."""
        probe = ViolationReport()
        self._associativity_triples(probe, self._associativity_middles())
        if not probe.ok:
            self._associativity_triples(report, range(self.dim))

    def _associativity_triples(self, report: ViolationReport, middles) -> None:
        """Report each triple with (e_i e_j) e_k != e_i (e_j e_k) and j in
        ``middles``, in (i, j, k) order.  For a middle j the rows are the i
        with a structure key (i, j), where the left side can be nonzero, or
        (i, m) for a term m of some e_j e_k, where the right side can; each
        row sums both sides per k from the keys alone and compares them on
        the k that either holds."""
        structure = self.structure
        left_keys, right_keys = self._left_keys, self._right_keys
        zero: dict[int, Scalar] = {}  # the side a row lacks; never written
        found = []
        for j in middles:
            right = [(k, structure[(j, k)]) for k in left_keys.get(j, ())]
            rows = set(right_keys.get(j, ()))
            for _, entries in right:
                for m, _ in entries:
                    rows.update(right_keys.get(m, ()))
            for i in rows:
                lhs: dict[int, dict[int, Scalar]] = {}
                for m, c in structure.get((i, j), ()):
                    for k in left_keys.get(m, ()):
                        add_scaled(lhs.setdefault(k, {}), c, structure[(m, k)])
                rhs: dict[int, dict[int, Scalar]] = {}
                for k, entries in right:
                    for m, c in entries:
                        if (terms := structure.get((i, m))) is not None:
                            add_scaled(rhs.setdefault(k, {}), c, terms)
                for k in lhs.keys() | rhs.keys():
                    lk, rk = lhs.get(k, zero), rhs.get(k, zero)
                    if lk != rk:
                        found.append((i, j, k, _terms(lk), _terms(rk)))
        for i, j, k, lhs, rhs in sorted(found):
            detail = f"(e{i} e{j}) e{k} = {lhs} but e{i} (e{j} e{k}) = {rhs}"
            report.add("associativity", (i, j, k), detail)

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
                    f"[{', '.join(dense_strings(witness, self.dim))}] has negative square",
                )

    def _check_hausdorff(self, report: ViolationReport) -> None:
        """The joint kernel is that of the Grams' rows stacked.  The kernel of
        their sum holds it, and equals it when every Gram is PSD."""
        n = self.dim
        kernel = nullspace([row for gram in self.grams for row in gram.sparse], n)
        if not kernel.is_zero():
            witness = next(iter(kernel.sparse.values()))
            report.add(
                "hausdorff",
                (),
                "the Gram family does not separate points; "
                f"[{', '.join(dense_strings(witness, n))}] is in the joint kernel",
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
