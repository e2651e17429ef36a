"""Graded ideals attached to connection classes, and the covering theorem.

For a connection class C of the support, three subspaces are built:

* the identity span: the sum of the spans P_h = E_h E_{h^-1} of all products
  between components of degree h and h^-1, h in C (it lives inside the
  identity component),
* the component sum: the direct sum of the homogeneous components whose
  degree lies in C,
* the class ideal: the sum of the previous two.  It is verified to be a
  graded ideal, and ideals of distinct classes to annihilate each other;
  a failed check raises, so a decomposition records neither outcome.

Together with an orthogonal complement U of the span S* of *all* products
of inverse-degree components inside the identity component E_1, the class
ideals cover the whole ring.  Covering needs no elimination of its own: on
a graded ring every P_h lies in E_1, and the classes partition the
support, which excludes the identity, so the ideals and U sum to S* + U
plus every E_g with g != 1.  That is the whole ring exactly when
S* + U = E_1, which is the exactness flag of :func:`identity_complement`.
Under a coherent identity component the ideals are even pairwise
orthogonal with respect to every Gram.  Coherence is decided here too
(:func:`is_coherent`), from the same inverse-degree products, and read
from there: a decomposition does not copy it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, permutations
from types import MappingProxyType

from .connections import ConnectionClasses, connection_class_ids, connection_classes
from .errors import PreconditionError, TheoremViolationError
from .groups import Element
from .linalg import (
    ONE,
    EchelonBasis,
    Subspace,
    coordinate_subspace,
    joint_orthogonal_complement,
    pairing,
    pairing_vanishes,
)
from .ring import GradedRing, derived


@derived
def inverse_products(ring: GradedRing) -> Mapping[int, Subspace]:
    """g -> P_g = E_g E_{g^-1} for g in the support, ascending, keyed by
    degree id (see :class:`~gradedrings.ring.DegreeTable`).

    P_g is spanned by the products e_i e_j with i of degree g and j of
    degree g^-1, and such a product is zero unless (i, j) is a structure
    key, when it is that key's entry.  So only the keys are read, with j
    taken from the indices of degree g^-1, and no product is computed."""
    structure = ring.structure
    table = ring.degree_table()
    spans = {}
    for g in table.support_ids:
        partners = set(table.indices[table.inverse[g]])
        eb = EchelonBasis(ring.dim)
        for i in table.indices[g]:
            for j in ring.right_reach((i,)) & partners:
                eb.add(dict(structure[(i, j)]))
        spans[g] = eb.to_subspace()
    return MappingProxyType(spans)


def _inverse_products_span(ring: GradedRing, ids) -> Subspace:
    """Sum of the spans P_h for the degree ids h in ``ids``."""
    spans = inverse_products(ring)
    eb = EchelonBasis(ring.dim)
    for h in ids:
        eb.extend(spans[h].sparse.values())
    return eb.to_subspace()


def _class_parts(ring: GradedRing, block) -> tuple[Subspace, Subspace, Subspace]:
    """Identity span, component sum and ideal of a connection class, given
    by degree ids; an ideal failing :func:`is_graded_ideal` is a theorem
    violation."""
    table = ring.degree_table()
    one_span = _inverse_products_span(ring, block)
    comp_sum = coordinate_subspace(ring.dim, (i for h in block for i in table.indices[h]))
    ideal = one_span.sum(comp_sum)
    if not is_graded_ideal(ring, ideal):
        raise TheoremViolationError(
            f"class ideal of {[table.degrees[h] for h in block]} failed the graded-ideal check"
        )
    return one_span, comp_sum, ideal


@derived
def _key_targets(ring: GradedRing) -> tuple[frozenset[int], ...]:
    """Per basis index p, the targets k of the structure keys (p, j) and
    (j, p): every product of e_p with a basis vector lies on them."""
    n = ring.dim
    targets: list[list[int]] = [[] for _ in range(n)]
    for (i, j), entries in ring.structure.items():
        for k, _ in entries:
            if 0 <= i < n:
                targets[i].append(k)
            if 0 <= j < n:
                targets[j].append(k)
    return tuple([*map(frozenset, targets)])


def is_graded_ideal(ring: GradedRing, sub: Subspace) -> bool:
    """True iff the subspace absorbs products on both sides and splits as a
    sum of its intersections with the homogeneous components.

    It splits exactly when each canonical row is homogeneous (see
    :mod:`gradedrings.linalg`).  A canonical row {p: 1} puts e_p in the
    subspace, so a product supported on such unit pivots is in it.  The
    products of any row are supported on the targets of the structure keys
    of its coordinates: when these are all unit pivots the row passes, and
    only otherwise is each product that leaves them eliminated (see
    :meth:`~gradedrings.ring.GradedRing.basis_multiples`).
    """
    if sub.ambient != ring.dim:
        raise PreconditionError("subspace ambient dimension does not match the ring")
    if sub.dim == ring.dim:
        return True  # the whole ring
    ids = ring.degree_table().basis_ids
    targets = _key_targets(ring)
    units = {p for p, row in sub.sparse.items() if len(row) == 1}
    for row in sub.sparse.values():
        if len(row) > 1 and len({ids[i] for i in row}) > 1:
            return False
        if not all(targets[i] <= units for i in row) and not all(
            w.keys() <= units or sub.contains(w) for w in ring.basis_multiples(row)
        ):
            return False
    return True


@derived
def identity_products_span(ring: GradedRing) -> Subspace:
    """Span of all products E_g E_{g^-1} with g running over the support."""
    return _inverse_products_span(ring, ring.degree_table().support_ids)


@derived
def identity_spanned_by_products(ring: GradedRing) -> bool:
    """Whether the products E_g E_{g^-1} span the whole identity component."""
    return identity_products_span(ring) == ring.identity_component()


def identity_complement(ring: GradedRing) -> tuple[Subspace, bool]:
    """Joint orthogonal complement of the products span inside the identity
    component, plus an exactness flag.

    The flag records whether the complement together with the products span
    actually fills the identity component.  With degenerate Gram families it
    can fail, in which case no orthogonal complement exists and the defect
    is surfaced here instead of being hidden behind a non-orthogonal choice.
    """
    sstar = identity_products_span(ring)
    one = ring.identity_component()
    u = joint_orthogonal_complement(sstar, one, ring.grams)
    exact = sstar.sum(u) == one
    return u, exact


@dataclass(frozen=True)
class CoherenceReport:
    """Outcome of the coherence check on the identity component."""

    span_ok: bool
    pairing_failures: tuple[tuple[Element, Element, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.span_ok and not self.pairing_failures


@derived
def is_coherent(ring: GradedRing) -> CoherenceReport:
    """Coherence of the identity component.

    Two conjuncts: (a) the span of all products of inverse-degree
    components equals the identity component; (b) for all support elements
    g, h and every Gram, the pairing between the product spaces
    P_g = E_g E_{g^-1} and P_h vanishes identically exactly when the
    pairing between E_g and P_h E_g does.  The compatibility is checked at
    subspace level (a vanishing biconditional), which is the strength the
    orthogonal-decomposition theorem actually uses.  Failures are listed
    as (g, h, Gram index) in ascending order.

    A (g, h, Gram) can fail only where a side is nonzero, so for each g
    only the spans P_h that its right side reaches, and those paired
    nonzero with P_g on the left, are visited.  Both sides depend on h
    only through P_h, and many h share one span (in a banded ring every
    a(n, m) gives the line of a(n, n)), so each distinct span is handled
    once, with its support computed once.

    * Left side: <u, v> is a sum of terms u_i G[i][j] conj(v_j), so P_x
      pairs nonzero with P_y only when a Gram row i in supp P_x has an
      entry j in supp P_y.  An index from each coordinate to the spans
      whose support holds it gives those y; every other pair is zero.
    * Right side: P_h E_g is spanned by the products u e_j with u a row of
      P_h and j of degree g, and u e_j is zero unless j is in the right
      reach of supp P_h.  An index from each coordinate to the spans whose
      right reach holds it gives, per g, the spans with P_h E_g possibly
      nonzero; for every other span P_h E_g = 0.
    * A pairing is conjugate-linear in its second argument, so it vanishes
      on a subspace exactly when it vanishes on a spanning set: the
      nonzero products are paired with each e_i of degree g as they are,
      and no basis of P_h E_g is built.
    """
    table = ring.degree_table()
    sup, degrees = table.support_ids, table.degrees
    span_ok = identity_spanned_by_products(ring)

    spans: list[Subspace] = []  # the distinct P_g
    span_of: dict[int, int] = {}  # degree id g -> the index of P_g in spans
    known: dict[Subspace, int] = {}  # P_g -> its index in spans
    for g, p in inverse_products(ring).items():
        if p not in known:
            known[p] = len(spans)
            spans.append(p)
        span_of[g] = known[p]
    supports = [p.support() for p in spans]
    holding: dict[int, list[int]] = {}  # coordinate -> spans whose support holds it
    reaching: dict[int, list[int]] = {}  # coordinate -> spans whose right reach holds it
    for y, supp in enumerate(supports):
        for i in supp:
            holding.setdefault(i, []).append(y)
        for j in ring.right_reach(supp):
            reaching.setdefault(j, []).append(y)
    grams = ring.grams

    # left[x][y]: the Grams under which P_x and P_y pair nonzero
    left: list[dict[int, set[int]]] = [{} for _ in spans]
    for x, supp in enumerate(supports):
        rows = spans[x].sparse.values()
        for a, gram in enumerate(grams):
            near = {y for i in supp for j in gram.sparse[i] for y in holding.get(j, ())}
            for y in near:
                if any(pairing(u, v, gram) for u in rows for v in spans[y].sparse.values()):
                    left[x].setdefault(y, set()).add(a)

    failures = []
    for g in sup:
        indices = table.indices[g]
        products: dict[int, list] = {}  # reached span -> its nonzero u e_j, j of degree g
        for j in indices:
            for y in reaching.get(j, ()):
                products.setdefault(y, []).extend(
                    w for u in spans[y].sparse.values() if (w := ring.multiply_basis_right(u, j))
                )
        lhs = left[span_of[g]]
        units = [{i: ONE} for i in indices]
        failing = {}  # per visited span, the Grams where exactly one side is nonzero
        for y in products.keys() | lhs.keys():
            rhs = {
                a
                for a, gram in enumerate(grams)
                if any(pairing(e, w, gram) for w in products.get(y, ()) for e in units)
            }
            if bad := rhs ^ lhs.get(y, set()):
                failing[y] = sorted(bad)
        if failing:
            failures.extend(
                (degrees[g], degrees[h], a) for h in sup for a in failing.get(span_of[h], ())
            )
    return CoherenceReport(span_ok, tuple(failures))


@dataclass
class IdealDecomposition:
    """Everything the covering theorem produces for one ring.

    On a graded ring the complement and the class ideals span the ring
    exactly when the complement is exact, so ``covers`` holds both flags
    and ``complement_exact`` reads it."""

    classes: ConnectionClasses
    ideals: tuple[Subspace, ...]
    identity_spans: tuple[Subspace, ...]
    component_sums: tuple[Subspace, ...]
    complement: Subspace
    covers: bool
    orthogonal_ideals: bool

    @property
    def complement_exact(self) -> bool:
        return self.covers


def decompose(ring: GradedRing) -> IdealDecomposition:
    """Assemble classes, class ideals and the identity complement; verify
    the covering, annihilation and orthogonality statements.

    The ring is expected to be graded, as ``validate`` checks; the CLI
    validates before it decomposes.  Then ``covers`` is the exactness of
    the complement (see the module docstring); on a ring that fails the
    grading check a P_h can leave the identity component, and the two can
    differ.  When the complement is inexact (degenerate Gram family), the
    covering genuinely fails and is reported honestly.  A nonzero product
    of ideals of distinct classes is a theorem violation, and so is a
    non-orthogonal pair whenever the identity component is coherent.

    A pair of ideals is multiplied out only when some structure key (i, j)
    has i in the support of the first and j in the support of the second:
    otherwise every product u v, a sum of terms u_i v_j e_i e_j, is zero.
    Likewise a pair is paired out under a Gram only when some Gram row of
    the first support has an entry in the second (see
    :func:`~gradedrings.linalg.pairing_vanishes`).
    """
    classes = connection_classes(ring)
    parts = [_class_parts(ring, block) for block in connection_class_ids(ring)[0]]
    identity_spans, component_sums, ideals = (tuple([p[k] for p in parts]) for k in range(3))

    complement, covers = identity_complement(ring)

    supports = [ideal.support() for ideal in ideals]
    reach = [ring.right_reach(s) for s in supports]
    if any(
        ring.multiply(u, v)
        for a, b in permutations(range(len(ideals)), 2)
        if not reach[a].isdisjoint(supports[b])
        for u in ideals[a].sparse.values()
        for v in ideals[b].sparse.values()
    ):
        raise TheoremViolationError("ideals of distinct classes do not annihilate")
    orthogonal = all(
        pairing_vanishes(ideals[a], ideals[b], gram)
        for a, b in combinations(range(len(ideals)), 2)
        for gram in ring.grams
    )

    if is_coherent(ring).ok and not orthogonal:
        raise TheoremViolationError(
            "identity component is coherent but the class ideals are not orthogonal"
        )

    return IdealDecomposition(
        classes=classes,
        ideals=ideals,
        identity_spans=identity_spans,
        component_sums=component_sums,
        complement=complement,
        covers=covers,
        orthogonal_ideals=orthogonal,
    )
