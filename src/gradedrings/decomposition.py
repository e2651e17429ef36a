"""Graded ideals attached to connection classes, and the covering theorem.

For a connection class C of the support, three subspaces are built:

* the identity span: the span of all products between components of degree
  h and h^-1 with h in C (it lives inside the identity component),
* the component sum: the direct sum of the homogeneous components whose
  degree lies in C,
* the class ideal: the sum of the previous two.  It is verified to be a
  graded ideal, and ideals of distinct classes annihilate each other.

Together with an orthogonal complement of the span of *all* products of
inverse-degree components inside the identity component, the class ideals
cover the whole ring.  Under a coherent identity component the ideals are
even pairwise orthogonal with respect to every Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connections import ConnectionClasses, connection_classes
from .errors import PreconditionError, TheoremViolationError
from .groups import Element
from .linalg import (
    EchelonBasis,
    Subspace,
    coordinate_subspace,
    joint_orthogonal_complement,
    pairing,
)
from .ring import GradedRing


def _inverse_products_span(ring: GradedRing, degrees) -> Subspace:
    """Span of the basis products e_i e_j with deg e_i = h, deg e_j = h^-1
    for h in ``degrees``."""
    sig = ring.signature
    eb = EchelonBasis(ring.dim)
    for h in degrees:
        for i in ring.indices_of_degree(h):
            for j in ring.indices_of_degree(sig.invert(h)):
                entries = ring.basis_product(i, j)
                if entries:
                    eb.add(dict(entries))
    return eb.to_subspace()


def _normalize_block(ring: GradedRing, block) -> tuple[Element, ...]:
    sig = ring.signature
    return tuple(sorted(sig.element(g) for g in block))


def _require_partition_block(ring: GradedRing, block) -> tuple[Element, ...]:
    block = _normalize_block(ring, block)
    if not block:
        raise PreconditionError("a connection class is never empty")
    sup = ring.support()
    if any(g not in sup for g in block):
        raise PreconditionError("block contains elements outside the support")
    classes = connection_classes(ring)
    if block not in classes.blocks:
        raise PreconditionError(f"{list(block)} is not a connection class of this ring")
    return block


def class_identity_span(ring: GradedRing, block, *, _checked=False) -> Subspace:
    """Span of the products E_h E_{h^-1} over all h in the class.

    Always contained in the identity component, since the degrees multiply
    to the identity.
    """
    if not _checked:
        block = _require_partition_block(ring, block)
    return _inverse_products_span(ring, block)


def class_component_sum(ring: GradedRing, block, *, _checked=False) -> Subspace:
    """Direct sum of the homogeneous components with degree in the class."""
    if not _checked:
        block = _require_partition_block(ring, block)
    return coordinate_subspace(ring.dim, (i for h in block for i in ring.indices_of_degree(h)))


def class_ideal(ring: GradedRing, block, *, _checked=False) -> Subspace:
    """The graded ideal attached to a connection class.

    The result is checked against :func:`is_graded_ideal`; a failure on a
    validated ring is a theorem violation, never an expected outcome.
    """
    if not _checked:
        block = _require_partition_block(ring, block)
    ideal = class_identity_span(ring, block, _checked=True).sum(
        class_component_sum(ring, block, _checked=True)
    )
    if not is_graded_ideal(ring, ideal):
        raise TheoremViolationError(
            f"class ideal of {list(block)} failed the graded-ideal check"
        )
    return ideal


def is_graded_ideal(ring: GradedRing, sub: Subspace) -> bool:
    """True iff the subspace absorbs products on both sides and splits as a
    sum of its intersections with the homogeneous components."""
    if sub.ambient != ring.dim:
        raise PreconditionError("subspace ambient dimension does not match the ring")
    rows = sub.sparse.values()
    for row in rows:
        for j in range(ring.dim):
            w = ring.multiply_basis_right(row, j)
            if w and not sub.contains(w):
                return False
            w = ring.multiply_basis_left(j, row)
            if w and not sub.contains(w):
                return False
    # graded: every homogeneous piece of every basis row stays inside;
    # equivalently the subspace is the sum of its homogeneous parts.
    for row in rows:
        parts = ring.homogeneous_parts(row)
        if len(parts) > 1 and not all(sub.contains(piece) for _, piece in parts):
            return False
    return True


def identity_products_span(ring: GradedRing) -> Subspace:
    """Span of all products E_g E_{g^-1} with g running over the support."""
    return _inverse_products_span(ring, ring.sorted_support())


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
    pairwise_zero: bool
    orthogonal_ideals: bool
    coherent: bool


def decompose(ring: GradedRing) -> IdealDecomposition:
    """Assemble classes, class ideals and the identity complement; verify
    the covering, annihilation and orthogonality statements.

    On a validated ring, a false ``pairwise_zero`` is always a theorem
    violation, and so is a false ``covers`` whenever the complement is
    exact.  When the complement is inexact (degenerate Gram family), the
    covering can genuinely fail and is reported honestly.  Orthogonality of
    distinct ideals is asserted whenever the identity component is coherent.
    """
    classes = connection_classes(ring)
    identity_spans = []
    component_sums = []
    ideals = []
    for block in classes.blocks:
        one_span = class_identity_span(ring, block, _checked=True)
        comp_sum = class_component_sum(ring, block, _checked=True)
        ideal = one_span.sum(comp_sum)
        if not is_graded_ideal(ring, ideal):
            raise TheoremViolationError(
                f"class ideal of {list(block)} failed the graded-ideal check"
            )
        identity_spans.append(one_span)
        component_sums.append(comp_sum)
        ideals.append(ideal)

    complement, exact = identity_complement(ring)

    eb = EchelonBasis(ring.dim)
    eb.extend(complement.sparse.values())
    for ideal in ideals:
        eb.extend(ideal.sparse.values())
    covers = eb.dim == ring.dim

    pairwise_zero = True
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            if a == b:
                continue
            for u in ideals[a].sparse.values():
                for v in ideals[b].sparse.values():
                    if ring.multiply(u, v):
                        pairwise_zero = False

    orthogonal = True
    for a in range(len(ideals)):
        for b in range(a + 1, len(ideals)):
            for gram in ring.grams:
                for u in ideals[a].sparse.values():
                    for v in ideals[b].sparse.values():
                        if pairing(u, v, gram):
                            orthogonal = False

    if not pairwise_zero:
        raise TheoremViolationError("ideals of distinct classes do not annihilate")
    if exact and not covers:
        raise TheoremViolationError("complement and class ideals fail to cover the ring")

    from .properties import is_coherent  # local import, properties depends on this module

    coherence = is_coherent(ring)
    if coherence.ok and not orthogonal:
        raise TheoremViolationError(
            "identity component is coherent but the class ideals are not orthogonal"
        )

    return IdealDecomposition(
        classes=classes,
        ideals=tuple(ideals),
        identity_spans=tuple(identity_spans),
        component_sums=tuple(component_sums),
        complement=complement,
        complement_exact=exact,
        covers=covers,
        pairwise_zero=pairwise_zero,
        orthogonal_ideals=orthogonal,
        coherent=coherence.ok,
    )
