import random
from fractions import Fraction

import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    RandomRingParams,
    Scalar,
    annihilator,
    banded_ring,
    connection_classes,
    decompose,
    direct_sum,
    full_space,
    graded_simple_oracle,
    graded_simple_theorem,
    group_algebra,
    ideal_closure,
    induced_subring,
    is_coherent,
    is_graded_ideal,
    is_maximal_length,
    is_support_multiplicative,
    properties_report,
    random_ring,
    span,
    theorem_hypotheses,
    unit_vector,
    zero_vector,
)
from gradedrings.linalg import ONE, ZERO

from conftest import identity_gram, trivially_graded_zero_ring


# -- maximal length -----------------------------------------------------------

def test_banded_rings_have_maximal_length(band3x2):
    assert is_maximal_length(band3x2)


def test_zero_identity_component_fails_maximal_length():
    sig = GroupSignature(1)
    ring = GradedRing(sig, [(1,)], {}, [identity_gram(1)])
    assert ring.validate().ok
    assert not is_maximal_length(ring)


def test_colliding_degrees_fail_maximal_length():
    # two units sharing one off-diagonal degree
    sig = GroupSignature(1)
    ring = GradedRing(sig, [(0,), (1,), (1,)], {}, [identity_gram(3)])
    assert ring.validate().ok
    assert not is_maximal_length(ring)


# -- support multiplicativity ---------------------------------------------------

def test_banded_rings_are_support_multiplicative(band3x2):
    ok, failure = is_support_multiplicative(band3x2)
    assert ok and failure is None


def test_empty_support_is_vacuously_multiplicative():
    ring = banded_ring(BandedRingParams(1, 2))
    assert is_support_multiplicative(ring) == (True, None)


def test_zeroed_product_breaks_multiplicativity():
    base = banded_ring(BandedRingParams(3, 1))
    # the base's value is kept on the base and never reaches the edited ring
    assert is_support_multiplicative(base) == (True, None)
    a12 = base.labels.index("a((1,1),(2,1))")
    a23 = base.labels.index("a((2,1),(3,1))")
    structure = {k: list(v) for k, v in base.structure.items()}
    del structure[(a12, a23)]
    edited = GradedRing(base.signature, base.degrees, structure, base.grams, base.labels)
    ok, failure = is_support_multiplicative(edited)
    assert not ok
    # first failing pair in lexicographic degree order, derived by hand
    assert failure == ((-1, 1, 0), (0, -1, 1))


# -- annihilator ------------------------------------------------------------------

def test_banded_annihilator_is_zero(band3x2):
    assert annihilator(band3x2).dim == 0


def test_zero_product_ring_annihilator_is_everything():
    ring = trivially_graded_zero_ring(3)
    assert annihilator(ring) == full_space(3)


def test_annihilating_line_is_found(band2):
    ring = direct_sum(band2, trivially_graded_zero_ring(1))
    ann = annihilator(ring)
    assert ann.dim == 1
    assert ann.contains(unit_vector(ring.dim, ring.dim - 1))


def test_annihilator_respects_direct_sums(band2):
    other = group_algebra(GroupSignature(0, (2,)))
    a = direct_sum(band2, trivially_graded_zero_ring(2))
    combined = direct_sum(a, other)
    assert annihilator(combined).dim == annihilator(a).dim + annihilator(other).dim


# -- coherence ---------------------------------------------------------------------

def test_banded_rings_are_coherent(band3x2):
    report = is_coherent(band3x2)
    assert report.ok and report.span_ok and not report.pairing_failures


def test_empty_support_with_identity_component_is_not_coherent():
    ring = banded_ring(BandedRingParams(1, 2))
    report = is_coherent(ring)
    assert not report.ok
    assert not report.span_ok


def test_pairing_compatibility_failure_is_reported(band2):
    # pair the two diagonal units in the Gram (legal: same degree), which
    # makes the product spaces of q and q^-1 pair nonzero while the
    # right-hand products vanish; worked out by hand both mismatching
    # pairs are (q, q^-1) and (q^-1, q) against the new Gram
    a11 = band2.labels.index("a((1,1),(1,1))")
    a22 = band2.labels.index("a((2,1),(2,1))")
    gram = [[Scalar(2) if i == j else ZERO for j in range(4)] for i in range(4)]
    gram[a11][a22] = ONE
    gram[a22][a11] = ONE
    ring = GradedRing(
        band2.signature, band2.degrees, band2.structure,
        list(band2.grams) + [gram], band2.labels,
    )
    assert ring.validate().ok
    report = is_coherent(ring)
    assert report.span_ok
    assert not report.ok
    q = (-1, 1)
    q_inv = (1, -1)
    assert sorted(report.pairing_failures) == [(q, q_inv, 1), (q_inv, q, 1)]


def test_unequal_diagonal_gram_keeps_coherence(band2):
    # an extra Gram scaling the diagonal units unequally: both sides of the
    # pairing compatibility vanish or not together under diagonal Grams
    scale = [Fraction(2), Fraction(1), Fraction(1), Fraction(3)]
    extra = [
        [Scalar(scale[i]) if i == j else ZERO for j in range(4)] for i in range(4)
    ]
    ring = GradedRing(
        band2.signature,
        band2.degrees,
        band2.structure,
        list(band2.grams) + [extra],
        band2.labels,
    )
    assert ring.validate().ok
    assert is_coherent(ring).ok


# -- ideal closure -------------------------------------------------------------------

def test_closure_of_zero_is_zero(band3):
    assert ideal_closure(band3, zero_vector(band3.dim)).dim == 0


def test_closure_of_any_unit_fills_a_one_band_ring(band3):
    for i in range(band3.dim):
        closure = ideal_closure(band3, unit_vector(band3.dim, i))
        assert closure == full_space(band3.dim)


def test_closure_stays_inside_one_band(band3x2):
    # units of the first band (indices 0..8) generate exactly that band
    closure = ideal_closure(band3x2, unit_vector(band3x2.dim, 0))
    assert closure.dim == 9
    assert closure.rows == tuple(tuple(unit_vector(18, i)) for i in range(9))


def test_closure_output_is_a_graded_ideal_and_monotone():
    for seed in range(6):
        ring = random_ring(seed)
        v = unit_vector(ring.dim, seed % ring.dim)
        closure = ideal_closure(ring, v)
        assert closure.contains(v)
        assert is_graded_ideal(ring, closure)
        for w in closure.rows:
            assert closure.contains_subspace(ideal_closure(ring, list(w)))


def reference_closure(ring, v):
    """Smallest graded ideal containing v, grown in rounds to a fixpoint:
    each round multiplies every basis row by every basis element on both
    sides, and there is no early exit."""
    n = ring.dim
    pieces = []
    for g in ring.attained_degrees():
        keep = set(ring.indices_of_degree(g))
        pieces.append([x if i in keep else ZERO for i, x in enumerate(v)])
    current = span(pieces, n)
    while True:
        products = []
        for row in current.rows:
            for j in range(n):
                products.append(ring.multiply_basis_right(list(row), j))
                products.append(ring.multiply_basis_left(j, list(row)))
        grown = span(list(current.rows) + products, n)
        if grown == current:
            return current
        current = grown


def _closure_seeds(ring, rng):
    n = ring.dim
    seeds = [unit_vector(n, i) for i in range(n)]
    seeds.append([Scalar(rng.randint(-2, 2)) for _ in range(n)])
    return seeds


@pytest.mark.parametrize("size,bands", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_closure_matches_fixpoint_reference_on_banded_rings(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    for v in _closure_seeds(ring, random.Random(size * 10 + bands)):
        assert ideal_closure(ring, v) == reference_closure(ring, v)


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_fixpoint_reference_on_random_rings(seed):
    ring = random_ring(seed, RandomRingParams(max_dim=12))
    for v in _closure_seeds(ring, random.Random(seed)):
        assert ideal_closure(ring, v) == reference_closure(ring, v)


def test_oracle_on_one_band_of_six_tests_44_closures():
    result = graded_simple_oracle(banded_ring(BandedRingParams(6, 1)))
    assert result.verdict is True
    assert result.closures_tested == 44


# -- simplicity, theorem route ----------------------------------------------------------

def test_one_band_ring_is_simple_by_theorem(band3):
    assert graded_simple_theorem(band3) is True


def test_multi_band_ring_is_not_simple(band3x2):
    assert graded_simple_theorem(band3x2) is False


def test_hypotheses_not_met_reports_none():
    sig = GroupSignature(1)
    ring = GradedRing(sig, [(1,)], {}, [identity_gram(1)])  # E_1 = 0
    assert graded_simple_theorem(ring) is None
    hyps = theorem_hypotheses(ring)
    assert not hyps["maximal_length"]


# -- simplicity, oracle route -------------------------------------------------------------

def test_oracle_confirms_one_band_ring(band3):
    result = graded_simple_oracle(band3, sample_count=4, seed=0)
    assert result.verdict is True


def test_oracle_refutes_two_bands(band3x2):
    result = graded_simple_oracle(band3x2, sample_count=2, seed=0)
    assert result.verdict is False
    assert result.witness is not None
    closure = ideal_closure(band3x2, result.witness)
    assert 0 < closure.dim < band3x2.dim


def test_oracle_refutes_zero_products():
    ring = trivially_graded_zero_ring(2)
    assert graded_simple_oracle(ring).verdict is False


def quadratic_field_ring():
    # basis 1, s with s*s = 2: a field, trivially graded
    sig = GroupSignature(0, ())
    structure = {
        (0, 0): [(0, ONE)],
        (0, 1): [(1, ONE)],
        (1, 0): [(1, ONE)],
        (1, 1): [(0, Scalar(2))],
    }
    return GradedRing(sig, [(), ()], structure, [identity_gram(2)], ["one", "s"])


def test_oracle_is_inconclusive_on_a_plane_identity_component():
    ring = quadratic_field_ring()
    assert ring.validate().ok
    result = graded_simple_oracle(ring, sample_count=6, seed=3)
    assert result.verdict is None


def test_oracle_is_deterministic_in_the_seed(band3x2):
    a = graded_simple_oracle(band3x2, sample_count=5, seed=11)
    b = graded_simple_oracle(band3x2, sample_count=5, seed=11)
    assert (a.verdict, a.witness, a.closures_tested) == (b.verdict, b.witness, b.closures_tested)


def test_theorem_and_oracle_agree_on_group_algebras():
    for moduli in [(2,), (3,), (5,), (2, 2)]:
        ring = group_algebra(GroupSignature(0, moduli))
        thm = graded_simple_theorem(ring)
        oracle = graded_simple_oracle(ring, sample_count=4, seed=0)
        assert thm is not None and oracle.verdict is not None
        assert thm == oracle.verdict


def test_simplicity_forces_connected_support_and_identity_span():
    from gradedrings import class_identity_span

    rings = [banded_ring(BandedRingParams(3, 1))] + [random_ring(seed) for seed in range(8)]
    confirmed = 0
    for ring in rings:
        result = graded_simple_oracle(ring, sample_count=3, seed=1)
        if result.verdict is True:
            confirmed += 1
            classes = connection_classes(ring)
            assert classes.count == 1
            block = classes.blocks[0]
            assert class_identity_span(ring, block) == ring.identity_component()
    assert confirmed >= 1


# -- induced subrings and the final decomposition statement ----------------------------------

def test_induced_subring_of_a_band_is_simple(band3x2):
    dec = decompose(band3x2)
    for ideal in dec.ideals:
        sub = induced_subring(band3x2, ideal)
        assert sub.validate().ok
        assert graded_simple_theorem(sub) is True
        assert annihilator(sub).dim == 0


def test_induced_subring_handles_combination_basis_rows():
    # the closure of w contains e+f, a homogeneous vector that is not a
    # basis line, so the restricted structure constants need coordinates
    # with respect to a combination row
    sig = GroupSignature(1)
    structure = {(2, 3): [(0, ONE), (1, ONE)], (3, 2): [(0, ONE), (1, ONE)]}
    ring = GradedRing(
        sig, [(0,), (0,), (1,), (-1,)], structure, [identity_gram(4)], ["e", "f", "w", "w'"]
    )
    assert ring.validate().ok
    seed = [ZERO, ZERO, ONE, ONE]  # w + w', homogeneous pieces seed both lines
    ideal = ideal_closure(ring, seed)
    assert ideal.dim == 3
    sub = induced_subring(ring, ideal)
    assert sub.dim == 3
    assert sub.validate().ok
    # in the restricted ring the two support lines multiply to the
    # identity-degree combination row
    rows_by_degree = {sub.degrees[t]: t for t in range(sub.dim)}
    w_new = rows_by_degree[(1,)]
    winv_new = rows_by_degree[(-1,)]
    one_new = rows_by_degree[(0,)]
    assert dict(sub.basis_product(w_new, winv_new)) == {one_new: ONE}
    # the combination row pairs with itself as 2 under the inherited Gram
    assert sub.grams[0][one_new][one_new] == Scalar(2)


def test_wedderburn_style_decomposition_on_qualified_rings():
    for seed in range(10):
        ring = random_ring(seed)
        props = properties_report(ring, oracle_samples=0)
        qualified = (
            props.support_multiplicative
            and props.maximal_length
            and props.annihilator.is_zero()
            and props.symmetric_support
            and props.coherent
        )
        if not qualified:
            continue
        dec = decompose(ring)
        assert dec.orthogonal_ideals
        for ideal in dec.ideals:
            sub = induced_subring(ring, ideal)
            assert graded_simple_theorem(sub) is True
            assert annihilator(sub).dim == 0


def test_property_report_is_assembled_consistently(band3):
    props = properties_report(band3, oracle_samples=2, oracle_seed=5)
    assert props.maximal_length and props.support_multiplicative
    assert props.coherent and props.symmetric_support
    assert props.annihilator.dim == 0
    assert props.simple_by_theorem is True
    assert props.simple_by_oracle is True
    assert all(props.hypotheses.values())
