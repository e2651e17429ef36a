"""Structural properties and the graded-simplicity machinery.

Last in the analysis chain, this module imports the checks that live with
their inputs: :func:`is_support_multiplicative` and :func:`is_symmetric_support`
in :mod:`gradedrings.connections`, :func:`is_coherent` in
:mod:`gradedrings.decomposition`.

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

from .connections import connection_classes, is_support_multiplicative, is_symmetric_support
from .decomposition import CoherenceReport, identity_spanned_by_products, is_coherent, is_graded_ideal
from .errors import PreconditionError
from .groups import Element
from .linalg import (
    ONE,
    EchelonBasis,
    Scalar,
    Subspace,
    full_space,
    nullspace,
    pairing,
)
from .ring import GradedRing, derived


def is_maximal_length(ring: GradedRing) -> bool:
    """Identity component nonzero and every support component a line."""
    if not ring.indices_of_degree(ring.identity_degree()):
        return False
    return all(len(ring.indices_of_degree(g)) == 1 for g in ring.support())


@derived
def annihilator(ring: GradedRing) -> Subspace:
    """Vectors killed by left and right multiplication with everything.

    Computed as the exact kernel of the stacked multiplication operators by
    all basis elements; only the nonzero constraint rows are materialized.
    Each structure key (i, j) is stored once and lists each k once, with a
    nonzero constant, so every entry below is set exactly once.
    """
    rows: dict[tuple[str, int, int], dict[int, Scalar]] = {}
    for (i, j), entries in ring.structure.items():
        for k, c in entries:
            # coordinate k of v * e_j collects v_i * c
            rows.setdefault(("r", j, k), {})[i] = c
            # coordinate k of e_i * v collects v_j * c
            rows.setdefault(("l", i, k), {})[j] = c
    return nullspace(rows.values(), ring.dim)


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

    The new basis is the canonical rows of the subspace, which are
    homogeneous (see :mod:`gradedrings.linalg`), ordered by degree and then
    by pivot.  A vector of the subspace is the sum of the rows scaled by its
    entries at their pivots, so those entries are its coordinates.
    """
    if not is_graded_ideal(ring, sub):
        # a graded subring would suffice; the ideal check is what callers need
        raise PreconditionError("subspace is not a graded ideal of the ring")
    pivots = sorted(sub.sparse, key=lambda p: (ring.degrees[p], p))
    rows = [sub.sparse[p] for p in pivots]
    m = len(rows)
    structure = {}
    for a in range(m):
        for b in range(m):
            prod = ring.multiply(rows[a], rows[b])
            if prod:
                if not sub.contains(prod):
                    raise PreconditionError("product left the subspace; not closed")
                structure[(a, b)] = [(t, c) for t, p in enumerate(pivots) if (c := prod.get(p))]
    grams = []
    for gram in ring.grams:
        grams.append(
            [{b: p for b in range(m) if (p := pairing(rows[a], rows[b], gram))} for a in range(m)]
        )
    labels = [f"s{t}" for t in range(m)]
    return GradedRing(ring.signature, [ring.degrees[p] for p in pivots], structure, grams, labels)


@dataclass
class PropertyReport:
    """Everything the property analysis reports for one ring.  The
    hypotheses' verdicts are read from ``hypotheses``, coherence from
    ``coherence.ok`` and the oracle's verdict from ``oracle.verdict``."""

    support_multiplicative_failure: tuple[Element, Element] | None
    annihilator: Subspace
    symmetry_witness: Element | None
    coherence: CoherenceReport
    hypotheses: Mapping[str, bool]
    simple_by_theorem: bool | None
    oracle: OracleResult


def properties_report(ring: GradedRing, oracle_samples: int = 8, oracle_seed: int = 0) -> PropertyReport:
    return PropertyReport(
        support_multiplicative_failure=is_support_multiplicative(ring)[1],
        annihilator=annihilator(ring),
        symmetry_witness=is_symmetric_support(ring)[1],
        coherence=is_coherent(ring),
        hypotheses=theorem_hypotheses(ring),
        simple_by_theorem=graded_simple_theorem(ring),
        oracle=graded_simple_oracle(ring, oracle_samples, oracle_seed),
    )
