"""Structural properties and the graded-simplicity machinery.

Two independent routes decide graded simplicity:

* the *theorem* route applies the structure-theorem characterization: under
  the hypotheses (support-multiplicative, maximal length, zero annihilator,
  symmetric nonempty support, nonzero product) the ring is graded simple
  exactly when its support is one connection class and the identity
  component equals the span of all products of inverse-degree components;

* the *oracle* route is brute force: the smallest graded ideal containing a
  vector is grown to a fixpoint, and simplicity is refuted by any closure
  that comes out proper and nonzero.  Closures of all basis vectors are
  tested, plus seeded pseudo-random vectors of the identity component.
  Each closure reuses the earlier ones: a graded ideal that holds a nonzero
  multiple of e_j holds the closure of e_j, so once e_j is shown to generate
  the whole ring, a later closure that reaches c e_j (c != 0) is the whole
  ring and stops there.

The oracle is a sound refuter.  As a prover it answers True only when the
tested closures provably cover every candidate ideal: either every attained
degree has a one-dimensional component (so every homogeneous line was
tested), or the ring has maximal length, its identity component is spanned
by the inverse-degree products, and the annihilator vanishes, in which case
a nonzero graded ideal missing every support line would annihilate the
whole ring.  Otherwise it reports None (inconclusive) rather than guess.
"""

from __future__ import annotations

import random
from collections.abc import Collection
from dataclasses import dataclass, field
from fractions import Fraction

from .connections import connection_classes, is_symmetric_support
from .decomposition import identity_products_span, is_graded_ideal
from .errors import PreconditionError
from .groups import Element
from .linalg import (
    ONE,
    EchelonBasis,
    Scalar,
    Subspace,
    add_scaled,
    full_space,
    nullspace,
    pairing,
    unit_vector,
    zero_vector,
)
from .ring import GradedRing, derived


def is_maximal_length(ring: GradedRing) -> bool:
    """Identity component nonzero and every support component a line."""
    if not ring.indices_of_degree(ring.identity_degree()):
        return False
    return all(len(ring.indices_of_degree(g)) == 1 for g in ring.support())


@derived
def is_support_multiplicative(ring: GradedRing):
    """Check that E_g E_h + E_h E_g is nonzero whenever g is in the support,
    h is in the support or the identity, and g h is again in the support.

    Returns (True, None) or (False, (g, h)) with the first failing pair in
    ascending lexicographic degree order.
    """
    sig = ring.signature
    sup = ring.support()
    one = ring.identity_degree()
    for g in sorted(sup):
        for h in sorted(sup | {one}):
            gh = sig.compose(g, h)
            if gh not in sup:
                continue
            if _components_product_nonzero(ring, g, h) or _components_product_nonzero(ring, h, g):
                continue
            return False, (g, h)
    return True, None


def _components_product_nonzero(ring: GradedRing, g: Element, h: Element) -> bool:
    for i in ring.indices_of_degree(g):
        for j in ring.indices_of_degree(h):
            if ring.basis_product(i, j):
                return True
    return False


@derived
def annihilator(ring: GradedRing) -> Subspace:
    """Vectors killed by left and right multiplication with everything.

    Computed as the exact kernel of the stacked multiplication operators by
    all basis elements; only the nonzero constraint rows are materialized.
    """
    rows: dict[tuple[str, int, int], dict[int, Scalar]] = {}
    for (i, j), entries in ring.structure.items():
        for k, c in entries:
            # coordinate k of v * e_j collects v_i * c
            add_scaled(rows.setdefault(("r", j, k), {}), ONE, ((i, c),))
            # coordinate k of e_i * v collects v_j * c
            add_scaled(rows.setdefault(("l", i, k), {}), ONE, ((j, c),))
    return nullspace(rows.values(), ring.dim)


@dataclass
class CoherenceReport:
    """Outcome of the coherence check on the identity component."""

    span_ok: bool
    pairing_failures: list[tuple[Element, Element, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.span_ok and not self.pairing_failures


def is_coherent(ring: GradedRing) -> CoherenceReport:
    """Coherence of the identity component.

    Two conjuncts: (a) the span of all products of inverse-degree
    components equals the identity component; (b) for all support elements
    g, h and every Gram, the pairing between the product spaces
    E_g E_{g^-1} and E_h E_{h^-1} vanishes identically exactly when the
    pairing between E_g and E_h E_{h^-1} E_g does.  The compatibility is
    checked at subspace level (a vanishing biconditional), which is the
    strength the orthogonal-decomposition theorem actually uses.
    """
    sup = ring.sorted_support()
    sig = ring.signature
    one = ring.identity_component()
    span_ok = identity_products_span(ring) == one

    products = {
        g: ring.product_span(ring.component(g), ring.component(sig.invert(g))) for g in sup
    }
    components = {g: ring.component(g) for g in sup}
    failures = []
    for g in sup:
        for h in sup:
            rhs_space = ring.product_span(products[h], components[g])
            for a, gram in enumerate(ring.grams):
                lhs_zero = _pairing_vanishes(products[g], products[h], gram)
                rhs_zero = _pairing_vanishes(components[g], rhs_space, gram)
                if lhs_zero != rhs_zero:
                    failures.append((g, h, a))
    return CoherenceReport(span_ok, failures)


def _pairing_vanishes(a: Subspace, b: Subspace, gram) -> bool:
    for u in a.sparse.values():
        for v in b.sparse.values():
            if pairing(u, v, gram):
                return False
    return True


def ideal_closure(
    ring: GradedRing, v, *, generators: Collection[int] = frozenset()
) -> Subspace:
    """Smallest graded ideal containing the vector.

    Seeded with the homogeneous components of v, then closed under left and
    right multiplication by basis elements until the span stabilizes or
    fills the ring.  Every generator is homogeneous, so the result is graded
    by construction.

    ``generators`` holds basis indices whose closures are already known to
    be the whole ring.  Every seed piece and every product lies in the
    closure of v, and an ideal holding c e_j (c != 0) holds the closure of
    e_j; so a seed piece or product that is a nonzero multiple of e_j, for
    j in ``generators``, proves the closure is the whole ring.
    """
    n = ring.dim
    if not isinstance(v, dict) and len(v) != n:
        raise PreconditionError("vector length does not match the ring dimension")

    def generates(w) -> bool:
        return len(w) == 1 and next(iter(w)) in generators

    basis = EchelonBasis(n)
    queue = []
    for _, piece in ring.homogeneous_parts(v):
        if generates(piece):
            return full_space(n)
        if basis.add(piece):
            queue.append(piece)
    while queue and basis.dim < n:
        u = queue.pop()
        for j in range(n):
            for w in (ring.multiply_basis_right(u, j), ring.multiply_basis_left(j, u)):
                if not w:
                    continue
                if generates(w):
                    return full_space(n)
                if basis.add(w):
                    if basis.dim == n:
                        return basis.to_subspace()
                    queue.append(w)
    return basis.to_subspace()


def theorem_hypotheses(ring: GradedRing) -> dict[str, bool]:
    """The hypotheses the simplicity characterization requires."""
    return {
        "support_multiplicative": is_support_multiplicative(ring)[0],
        "maximal_length": is_maximal_length(ring),
        "zero_annihilator": annihilator(ring).is_zero(),
        "symmetric_support": is_symmetric_support(ring)[0],
        "nonempty_support": bool(ring.support()),
        "nonzero_product": bool(ring.structure),
    }


def graded_simple_theorem(ring: GradedRing):
    """Tri-state simplicity via the structure-theorem characterization.

    Returns True or False when every hypothesis holds, None otherwise
    (hypotheses not met).
    """
    hyps = theorem_hypotheses(ring)
    if not all(hyps.values()):
        return None
    connected_support = connection_classes(ring).count == 1
    span_ok = identity_products_span(ring) == ring.identity_component()
    return connected_support and span_ok


@dataclass
class OracleResult:
    """Outcome of the brute-force simplicity search."""

    verdict: bool | None  # None means inconclusive
    witness: list[Scalar] | None = None
    closures_tested: int = 0
    reason: str = ""


def graded_simple_oracle(ring: GradedRing, sample_count: int = 8, seed: int = 0) -> OracleResult:
    """Brute-force tri-state graded-simplicity decision.

    Tests the ideal closure of every homogeneous basis vector and of
    ``sample_count`` seeded pseudo-random vectors of the identity component;
    any proper nonzero closure refutes simplicity.  True is only returned
    when the tested closures cover all candidate ideals (see the module
    docstring); None means the sampling was exhausted inconclusively.
    """
    n = ring.dim
    if n == 0 or not ring.structure:
        return OracleResult(False, None, 0, "the product is identically zero")
    full = n
    tested = 0
    generators: set[int] = set()
    for i in range(n):
        closure = ideal_closure(ring, {i: ONE}, generators=generators)
        tested += 1
        if closure.dim != full:
            return OracleResult(
                False,
                unit_vector(n, i),
                tested,
                f"closure of basis vector {i} is a proper nonzero graded ideal",
            )
        generators.add(i)
    one_indices = ring.indices_of_degree(ring.identity_degree())
    if one_indices and sample_count > 0:
        rng = random.Random(seed)
        for _ in range(sample_count):
            v = zero_vector(n)
            while not any(v):
                for i in one_indices:
                    v[i] = Scalar(Fraction(rng.randint(-9, 9)))
            closure = ideal_closure(ring, v, generators=generators)
            tested += 1
            if closure.dim != full:
                return OracleResult(
                    False, v, tested, "closure of a sampled identity-component vector is proper"
                )
    if all(len(ring.indices_of_degree(g)) == 1 for g in ring.attained_degrees()):
        return OracleResult(True, None, tested, "every homogeneous line was tested")
    if (
        is_maximal_length(ring)
        and identity_products_span(ring) == ring.identity_component()
        and annihilator(ring).is_zero()
    ):
        return OracleResult(
            True,
            None,
            tested,
            "support lines generate everything and no ideal can hide in the identity component",
        )
    return OracleResult(None, None, tested, "identity component has untestable lines")


def induced_subring(ring: GradedRing, sub: Subspace) -> GradedRing:
    """Restrict the ring structure to a graded subspace closed under
    products, reusing the ambient Grams on the new basis.

    The new basis is the union over attained degrees of the canonical bases
    of the intersections with the homogeneous components, so it is again
    homogeneous.
    """
    if not is_graded_ideal(ring, sub):
        # a graded subring would suffice; the ideal check is what callers need
        raise PreconditionError("subspace is not a graded ideal of the ring")
    pieces: dict[Element, EchelonBasis] = {}
    for row in sub.sparse.values():
        for g, piece in ring.homogeneous_parts(row):
            pieces.setdefault(g, EchelonBasis(ring.dim)).add(piece)
    rows = []
    degs = []
    for g in sorted(pieces):
        eb = pieces[g]
        for p in eb.pivots:
            rows.append(eb.rows[p])
            degs.append(g)
    m = len(rows)
    pivot_of = [min(row) for row in rows]

    def coordinates(vec):
        # rows grouped per degree are in echelon form, so coordinates can be
        # read off at the pivots after eliminating top-down
        v = dict(vec)
        coords = {}
        for t, row in enumerate(rows):
            c = v.get(pivot_of[t])
            if c is not None:
                coords[t] = c
                add_scaled(v, -c, row.items())
        if v:
            raise PreconditionError("product left the subspace; not closed")
        return coords

    structure = {}
    for a in range(m):
        for b in range(m):
            prod = ring.multiply(rows[a], rows[b])
            if prod:
                structure[(a, b)] = list(coordinates(prod).items())
    grams = []
    for gram in ring.grams:
        grams.append(
            [{b: p for b in range(m) if (p := pairing(rows[a], rows[b], gram))} for a in range(m)]
        )
    labels = [f"s{t}" for t in range(m)]
    return GradedRing(ring.signature, degs, structure, grams, labels)


@dataclass
class PropertyReport:
    """Everything the property analysis reports for one ring."""

    maximal_length: bool
    support_multiplicative: bool
    support_multiplicative_failure: tuple[Element, Element] | None
    annihilator: Subspace
    symmetric_support: bool
    symmetry_witness: Element | None
    coherent: bool
    coherence: CoherenceReport
    hypotheses: dict[str, bool]
    simple_by_theorem: bool | None
    simple_by_oracle: bool | None
    oracle: OracleResult


def properties_report(ring: GradedRing, oracle_samples: int = 8, oracle_seed: int = 0) -> PropertyReport:
    multiplicative, failure = is_support_multiplicative(ring)
    symmetric, witness = is_symmetric_support(ring)
    coherence = is_coherent(ring)
    oracle = graded_simple_oracle(ring, oracle_samples, oracle_seed)
    return PropertyReport(
        maximal_length=is_maximal_length(ring),
        support_multiplicative=multiplicative,
        support_multiplicative_failure=failure,
        annihilator=annihilator(ring),
        symmetric_support=symmetric,
        symmetry_witness=witness,
        coherent=coherence.ok,
        coherence=coherence,
        hypotheses=theorem_hypotheses(ring),
        simple_by_theorem=graded_simple_theorem(ring),
        simple_by_oracle=oracle.verdict,
        oracle=oracle,
    )
