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
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .connections import _symmetrized, connection_classes, is_symmetric_support
from .decomposition import identity_spanned_by_products, inverse_products, is_graded_ideal
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
    pairing_vanishes,
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
    ascending lexicographic degree order.  E_g E_h is nonzero exactly when
    some structure key (i, j) has deg e_i = g and deg e_j = h.  The h to
    try are the identity and the h of the support steps (h, g h) of g.
    """
    _, steps = _symmetrized(ring)
    sup = ring.support()
    n, degrees = ring.dim, ring.degrees
    nonzero = {(degrees[i], degrees[j]) for i, j in ring.structure if 0 <= i < n and 0 <= j < n}
    one = ring.identity_degree()
    for g in ring.sorted_support():
        for h in sorted([one] + [h for h, gh in steps[g] if h in sup and gh in sup]):
            if (g, h) not in nonzero and (h, g) not in nonzero:
                return False, (g, h)
    return True, None


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


def ideal_closure(
    ring: GradedRing, v: dict[int, Scalar], *, generators: Collection[int] = frozenset()
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
        for w in ring.basis_multiples(queue.pop()):
            if generates(w):
                return full_space(n)
            if basis.add(w):
                if basis.dim == n:
                    return basis.to_subspace()
                queue.append(w)
    return basis.to_subspace()


@derived
def theorem_hypotheses(ring: GradedRing) -> Mapping[str, bool]:
    """The hypotheses the simplicity characterization requires."""
    return MappingProxyType({
        "support_multiplicative": is_support_multiplicative(ring)[0],
        "maximal_length": is_maximal_length(ring),
        "zero_annihilator": annihilator(ring).is_zero(),
        "symmetric_support": is_symmetric_support(ring)[0],
        "nonempty_support": bool(ring.support()),
        "nonzero_product": bool(ring.structure),
    })


def graded_simple_theorem(ring: GradedRing):
    """Tri-state simplicity via the structure-theorem characterization.

    Returns True or False when every hypothesis holds, None otherwise
    (hypotheses not met).
    """
    hyps = theorem_hypotheses(ring)
    if not all(hyps.values()):
        return None
    return connection_classes(ring).count == 1 and identity_spanned_by_products(ring)


@dataclass
class OracleResult:
    """Outcome of the brute-force simplicity search."""

    verdict: bool | None  # None means inconclusive
    witness: dict[int, Scalar] | None = None
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
    tested = 0
    generators: set[int] = set()
    for i in range(n):
        closure = ideal_closure(ring, {i: ONE}, generators=generators)
        tested += 1
        if closure.dim != n:
            return OracleResult(
                False,
                {i: ONE},
                tested,
                f"closure of basis vector {i} is a proper nonzero graded ideal",
            )
        generators.add(i)
    one_indices = ring.indices_of_degree(ring.identity_degree())
    if one_indices and sample_count > 0:
        rng = random.Random(seed)
        for _ in range(sample_count):
            v = {}
            while not v:
                v = {i: x for i in one_indices if (x := Scalar(rng.randint(-9, 9)))}
            closure = ideal_closure(ring, v, generators=generators)
            tested += 1
            if closure.dim != n:
                return OracleResult(
                    False, v, tested, "closure of a sampled identity-component vector is proper"
                )
    if all(len(ring.indices_of_degree(g)) == 1 for g in ring.attained_degrees()):
        return OracleResult(True, None, tested, "every homogeneous line was tested")
    if (
        is_maximal_length(ring)
        and identity_spanned_by_products(ring)
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
    hypotheses: Mapping[str, bool]
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
