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

Together with an orthogonal complement of the span of *all* products of
inverse-degree components inside the identity component, the class ideals
cover the whole ring.  Under a coherent identity component the ideals are
even pairwise orthogonal with respect to every Gram.  Coherence is decided
here too (:func:`is_coherent`), from the same inverse-degree products,
and read from there: a decomposition does not copy it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, permutations
from types import MappingProxyType

from .connections import ConnectionClasses, connection_classes
from .errors import PreconditionError, TheoremViolationError
from .groups import Element
from .linalg import (
    EchelonBasis,
    Subspace,
    check_indices,
    coordinate_subspace,
    joint_orthogonal_complement,
    pairing_vanishes,
)
from .ring import GradedRing, derived


@derived
def inverse_products(ring: GradedRing) -> Mapping[Element, Subspace]:
    """g -> P_g = E_g E_{g^-1} for g in the support, ascending."""
    spans = {}
    for g, inv in ring.degree_table().inverse.items():
        spans[g] = ring.product_span(ring.component(g), ring.component(inv))
    return MappingProxyType(spans)


def _inverse_products_span(ring: GradedRing, degrees) -> Subspace:
    """Sum of the spans P_h for h in ``degrees``."""
    spans = inverse_products(ring)
    eb = EchelonBasis(ring.dim)
    for h in degrees:
        eb.extend(spans[h].sparse.values())
    return eb.to_subspace()


def _class_parts(ring: GradedRing, block) -> tuple[Subspace, Subspace, Subspace]:
    """Identity span, component sum and ideal of a connection class; an ideal
    failing :func:`is_graded_ideal` is a theorem violation."""
    one_span = _inverse_products_span(ring, block)
    comp_sum = coordinate_subspace(ring.dim, (i for h in block for i in ring.indices_of_degree(h)))
    ideal = one_span.sum(comp_sum)
    if not is_graded_ideal(ring, ideal):
        raise TheoremViolationError(
            f"class ideal of {list(block)} failed the graded-ideal check"
        )
    return one_span, comp_sum, ideal


def is_graded_ideal(ring: GradedRing, sub: Subspace) -> bool:
    """True iff the subspace absorbs products on both sides and splits as a
    sum of its intersections with the homogeneous components.

    It splits exactly when each canonical row is homogeneous (see
    :mod:`gradedrings.linalg`).  A row is multiplied only by the e_j that
    can give a nonzero product (see
    :meth:`~gradedrings.ring.GradedRing.basis_multiples`).
    """
    if sub.ambient != ring.dim:
        raise PreconditionError("subspace ambient dimension does not match the ring")
    if sub.dim == ring.dim:
        return True  # the whole ring
    degrees = ring.degrees
    rows = sub.sparse.values()
    for row in rows:
        check_indices(row, ring.dim)
        if len({degrees[i] for i in row}) > 1:
            return False
    return all(sub.contains(w) for row in rows for w in ring.basis_multiples(row))


@derived
def identity_products_span(ring: GradedRing) -> Subspace:
    """Span of all products E_g E_{g^-1} with g running over the support."""
    return _inverse_products_span(ring, ring.sorted_support())


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

    Only the pairings that can be nonzero are evaluated:

    * P_g depends on g only through the subspace it is, and many g share
      one (in a banded ring every a(n, m) gives the line of a(n, n)), so
      each distinct P_g is built once and the left side is decided once
      per pair of distinct spans.  The right side depends on h only
      through P_h, so it is decided once per g and distinct P_h.
    * P_h E_g is spanned by products e_i e_j with i in supp P_h and e_j of
      degree g; when no such (i, j) is a structure key it is zero, pairs to
      zero with everything, and is not built.
    * A pairing of two subspaces is evaluated only where a Gram row of one
      support meets the other (:func:`~gradedrings.linalg.pairing_vanishes`).
    """
    sup = ring.sorted_support()
    span_ok = identity_spanned_by_products(ring)

    spans: list[Subspace] = []  # the distinct P_g
    span_of: dict[Element, int] = {}
    known: dict[Subspace, int] = {}  # P_g -> its index in spans
    for g, p in inverse_products(ring).items():
        if p not in known:
            known[p] = len(spans)
            spans.append(p)
        span_of[g] = known[p]
    reach = [ring.right_reach(p.support()) for p in spans]
    grams = ring.grams
    # per pair of distinct spans, per Gram: whether the left side vanishes
    lhs_zero = [
        [tuple([pairing_vanishes(p, q, gram) for gram in grams]) for q in spans] for p in spans
    ]

    failures = []
    for g in sup:
        component = ring.component(g)
        indices = ring.indices_of_degree(g)
        failing = []  # per distinct P_h, the Grams where the two sides disagree
        for q, lhs, reached in zip(spans, lhs_zero[span_of[g]], reach):
            if reached.isdisjoint(indices):
                rhs = (True,) * len(grams)
            else:
                rhs_space = ring.product_span(q, component)
                rhs = tuple([pairing_vanishes(component, rhs_space, gram) for gram in grams])
            failing.append([a for a, zero in enumerate(lhs) if zero != rhs[a]])
        if any(failing):
            failures.extend((g, h, a) for h in sup for a in failing[span_of[h]])
    return CoherenceReport(span_ok, tuple(failures))


@dataclass
class IdealDecomposition:
    """Everything the covering theorem produces for one ring."""

    classes: ConnectionClasses
    ideals: tuple[Subspace, ...]
    identity_spans: tuple[Subspace, ...]
    component_sums: tuple[Subspace, ...]
    complement: Subspace
    complement_exact: bool
    covers: bool
    orthogonal_ideals: bool


def decompose(ring: GradedRing) -> IdealDecomposition:
    """Assemble classes, class ideals and the identity complement; verify
    the covering, annihilation and orthogonality statements.

    On a validated ring, a nonzero product of ideals of distinct classes is
    always a theorem violation, and so is a false ``covers`` whenever the
    complement is exact.  When the complement is inexact (degenerate Gram
    family), the covering can genuinely fail and is reported honestly.
    Orthogonality of distinct ideals is asserted whenever the identity
    component is coherent.

    A pair of ideals is multiplied out only when some structure key (i, j)
    has i in the support of the first and j in the support of the second:
    otherwise every product u v, a sum of terms u_i v_j e_i e_j, is zero.
    Likewise a pair is paired out under a Gram only when some Gram row of
    the first support has an entry in the second (see
    :func:`~gradedrings.linalg.pairing_vanishes`).
    """
    classes = connection_classes(ring)
    parts = [_class_parts(ring, block) for block in classes.blocks]
    identity_spans, component_sums, ideals = (tuple([p[k] for p in parts]) for k in range(3))

    complement, exact = identity_complement(ring)

    eb = EchelonBasis(ring.dim)
    eb.extend(complement.sparse.values())
    for ideal in ideals:
        eb.extend(ideal.sparse.values())
    covers = eb.dim == ring.dim

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

    if exact and not covers:
        raise TheoremViolationError("complement and class ideals fail to cover the ring")
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
        complement_exact=exact,
        covers=covers,
        orthogonal_ideals=orthogonal,
    )
