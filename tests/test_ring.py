import random

import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    MalformedInputError,
    annihilator,
    banded_ring,
    connection_classes,
    identity_products_span,
    is_support_multiplicative,
    is_symmetric_support,
    pairing,
    unit_vector,
    vector,
)
from gradedrings.connections import _symmetrized
from gradedrings.linalg import ONE, ZERO
from gradedrings.ring import derived

from conftest import (
    associativity_defect_ring,
    grading_defect_ring,
    hausdorff_defect_ring,
    identity_gram,
    orthogonality_defect_ring,
    psd_defect_ring,
    trivially_graded_zero_ring,
)


def unit_label_index(ring, row, band, col):
    return ring.labels.index(f"a(({row},{band}),({col},{band}))")


# -- products ----------------------------------------------------------------

def test_multiply_matches_structure_on_basis_pairs(band2):
    n = band2.dim
    for i in range(n):
        for j in range(n):
            product = band2.multiply(unit_vector(n, i), unit_vector(n, j))
            expected = [ZERO] * n
            for k, c in band2.basis_product(i, j):
                expected[k] = c
            assert product == expected


def test_multiply_matrix_units_matching_middle_index():
    ring = banded_ring(BandedRingParams(4, 1))
    n = ring.dim
    a12 = unit_label_index(ring, 1, 1, 2)
    a23 = unit_label_index(ring, 2, 1, 3)
    a13 = unit_label_index(ring, 1, 1, 3)
    out = ring.multiply(unit_vector(n, a12), unit_vector(n, a23))
    assert out == unit_vector(n, a13)


def test_multiply_matrix_units_mismatched_middle_index():
    ring = banded_ring(BandedRingParams(4, 1))
    n = ring.dim
    a12 = unit_label_index(ring, 1, 1, 2)
    a34 = unit_label_index(ring, 3, 1, 4)
    assert not any(ring.multiply(unit_vector(n, a12), unit_vector(n, a34)))


def test_multiply_is_bilinear(band3):
    rng = random.Random(3)
    n = band3.dim
    for _ in range(10):
        u = vector([rng.randint(-3, 3) for _ in range(n)])
        v = vector([rng.randint(-3, 3) for _ in range(n)])
        w = vector([rng.randint(-3, 3) for _ in range(n)])
        left = band3.multiply(u, [x + y for x, y in zip(v, w)])
        split = [
            x + y for x, y in zip(band3.multiply(u, v), band3.multiply(u, w))
        ]
        assert left == split


# -- support and components ----------------------------------------------------

def test_support_of_trivially_graded_ring():
    sig = GroupSignature(0, ())
    ring = GradedRing(sig, [()], {(0, 0): [(0, ONE)]}, [identity_gram(1)])
    assert ring.support() == frozenset()


def test_support_of_small_band(band2):
    assert band2.sorted_support() == [(-1, 1), (1, -1)]


@pytest.mark.parametrize("size,bands", [(2, 1), (3, 2), (4, 3)])
def test_support_count_formula(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    assert len(ring.support()) == bands * size * (size - 1)


def test_identity_component_dimension(band2):
    assert band2.identity_component().dim == 2


def test_unattained_component_is_zero(band2):
    g = (5, 5)
    assert band2.component(g).dim == 0


def test_component_dimensions_partition_the_basis(band3x2):
    total = sum(band3x2.component(g).dim for g in band3x2.attained_degrees())
    assert total == band3x2.dim


def test_component_products_respect_the_grading(band3x2):
    ring = band3x2
    sig = ring.signature
    for g in ring.attained_degrees():
        for h in ring.attained_degrees():
            target = ring.component(sig.compose(g, h)).basis()
            for u in ring.component(g).rows:
                for v in ring.component(h).rows:
                    assert target.contains(ring.multiply(u, v))


def test_distinct_components_are_orthogonal(band3x2):
    ring = band3x2
    degrees = ring.attained_degrees()
    for a, g in enumerate(degrees):
        for h in degrees[a + 1 :]:
            for gram in ring.grams:
                for u in ring.component(g).rows:
                    for v in ring.component(h).rows:
                        assert not pairing(u, v, gram)


def test_only_zero_is_orthogonal_to_everything(band3x2):
    ring = band3x2
    from gradedrings import full_space, joint_orthogonal_complement

    w = full_space(ring.dim)
    assert joint_orthogonal_complement(w, w, ring.grams).dim == 0


# -- validation ----------------------------------------------------------------

def test_generated_rings_validate_cleanly():
    for size, bands in [(2, 1), (3, 1), (2, 2), (4, 3)]:
        report = banded_ring(BandedRingParams(size, bands)).validate()
        assert report.ok, report.violations


def test_validate_reports_planted_grading_defect():
    report = grading_defect_ring().validate()
    assert [v.kind for v in report] == ["grading"]
    assert report.violations[0].where == (0, 0, 1)


def test_validate_reports_planted_associativity_defect():
    report = associativity_defect_ring().validate()
    assert [v.kind for v in report] == ["associativity"]
    assert report.violations[0].where == (0, 0, 0)


def test_validate_reports_planted_orthogonality_defect():
    report = orthogonality_defect_ring().validate()
    assert [v.kind for v in report] == ["orthogonality"]
    assert report.violations[0].where == (0, 0, 1)


def test_validate_reports_planted_psd_defect():
    report = psd_defect_ring().validate()
    assert [v.kind for v in report] == ["psd"]
    assert report.violations[0].where == (0,)


def test_validate_reports_planted_hausdorff_defect():
    report = hausdorff_defect_ring().validate()
    assert [v.kind for v in report] == ["hausdorff"]


def test_validate_reports_malformed_records():
    sig = GroupSignature(1)
    wrong_degree = GradedRing(sig, [(0, 0)], {}, [identity_gram(1)])
    assert wrong_degree.validate().kinds() == ["malformed"]

    out_of_range = GradedRing(sig, [(0,)], {(0, 5): [(0, ONE)]}, [identity_gram(1)])
    assert out_of_range.validate().kinds() == ["malformed"]

    no_grams = GradedRing(sig, [(0,)], {}, [])
    assert no_grams.validate().kinds() == ["malformed"]

    non_hermitian = GradedRing(sig, [(0,), (0,)], {}, [[[ONE, ONE], [ZERO, ONE]]])
    assert non_hermitian.validate().kinds() == ["malformed"]


def test_zero_product_ring_validates():
    assert trivially_graded_zero_ring(3).validate().ok


def test_vector_length_mismatch():
    ring = trivially_graded_zero_ring(2)
    with pytest.raises(MalformedInputError):
        ring.multiply(vector([1]), vector([1, 0]))


# -- read-only ring, derived quantities kept per ring -----------------------------

def test_structure_is_read_only(band2):
    with pytest.raises(TypeError):
        band2.structure[(0, 0)] = ((0, ONE),)
    with pytest.raises(TypeError):
        del band2.structure[next(iter(band2.structure))]


def test_connection_classes_are_read_only(band3x2):
    classes = connection_classes(band3x2)
    member = band3x2.sorted_support()[0]
    with pytest.raises(TypeError):
        classes.certificates[member] = classes.certificates[member]
    with pytest.raises(AttributeError):
        classes.blocks = ()


@pytest.mark.parametrize(
    "fn",
    [
        connection_classes,
        is_symmetric_support,
        _symmetrized,
        annihilator,
        is_support_multiplicative,
        identity_products_span,
    ],
)
def test_derived_quantity_is_kept_on_the_ring(fn):
    ring = banded_ring(BandedRingParams(3, 2))
    first = fn(ring)
    assert fn(ring) is first
    # an equal ring built separately computes its own value
    other = banded_ring(BandedRingParams(3, 2))
    assert other == ring
    assert fn(other) == first


def test_derived_runs_once_per_ring():
    calls = []

    @derived
    def dim_plus_one(ring):
        calls.append(ring)
        return ring.dim + 1

    a = banded_ring(BandedRingParams(2, 1))
    b = banded_ring(BandedRingParams(2, 1))
    assert dim_plus_one(a) == dim_plus_one(a) == dim_plus_one(b) == 5
    assert len(calls) == 2 and calls[0] is a and calls[1] is b
    assert dim_plus_one.__name__ == "dim_plus_one"
