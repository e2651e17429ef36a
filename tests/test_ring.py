import copy
import pickle
import random

import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    MalformedInputError,
    Scalar,
    annihilator,
    banded_ring,
    connection_classes,
    group_algebra,
    identity_products_span,
    is_support_multiplicative,
    is_symmetric_support,
    pairing,
    random_ring,
    unit_vector,
    vector,
)
from gradedrings.connections import _symmetrized
from gradedrings.linalg import ONE, ZERO, Gram, add_scaled
from gradedrings.ring import ViolationReport, derived

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


def dense_associativity_violations(ring):
    """The associativity check with k running over every basis index when
    e_i e_j is nonzero: the reference the sparse check must reproduce
    violation for violation, in the same order."""
    n = ring.dim
    report = ViolationReport()

    def right_mul(entries, k):
        acc = {}
        for m, c in entries:
            add_scaled(acc, c, ring.structure.get((m, k), ()))
        return acc

    def left_mul(i, entries):
        acc = {}
        for m, c in entries:
            add_scaled(acc, c, ring.structure.get((i, m), ()))
        return acc

    for i in range(n):
        for j in range(n):
            left = ring.structure.get((i, j))
            if left:
                for k in range(n):
                    lhs = right_mul(left, k)
                    rhs = left_mul(i, ring.structure.get((j, k), ()))
                    if lhs != rhs:
                        report.add(
                            "associativity",
                            (i, j, k),
                            f"(e{i} e{j}) e{k} = {sorted(lhs.items())} but "
                            f"e{i} (e{j} e{k}) = {sorted(rhs.items())}",
                        )
            else:
                for k in ring._left_keys.get(j, ()):
                    rhs = left_mul(i, ring.structure[(j, k)])
                    if rhs:
                        report.add(
                            "associativity",
                            (i, j, k),
                            f"(e{i} e{j}) e{k} = 0 but e{i} (e{j} e{k}) = {sorted(rhs.items())}",
                        )
    return report.violations


def plant_defects(ring, rng):
    """Add, change or drop one to three structure constants."""
    n = ring.dim
    structure = {key: dict(entries) for key, entries in ring.structure.items()}
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("add", "change", "drop"))
        if edit == "add" or not structure:
            key = (rng.randrange(n), rng.randrange(n))
            structure.setdefault(key, {})[rng.randrange(n)] = Scalar(rng.choice((-2, -1, 1, 3)))
            continue
        key = rng.choice(sorted(structure))
        k = rng.choice(sorted(structure[key]))
        if edit == "change":
            structure[key][k] += Scalar(rng.choice((-1, 1, 2)))
        else:
            del structure[key][k]
            if not structure[key]:
                del structure[key]
    planted = {key: list(entries.items()) for key, entries in structure.items()}
    return GradedRing(ring.signature, ring.degrees, planted, ring.grams, ring.labels)


ASSOCIATIVITY_BASES = (
    [(f"banded-{n}-{r}", lambda n=n, r=r: banded_ring(BandedRingParams(n, r)))
     for n, r in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)]]
    + [(f"group-{'x'.join(map(str, t))}", lambda t=t: group_algebra(GroupSignature(0, t)))
       for t in [(2,), (5,), (2, 3), (2, 2)]]
    + [(f"random-{seed}", lambda seed=seed: random_ring(seed)) for seed in range(12)]
)


@pytest.mark.parametrize(
    "make", [m for _, m in ASSOCIATIVITY_BASES], ids=[i for i, _ in ASSOCIATIVITY_BASES]
)
def test_sparse_associativity_check_matches_dense_reference(make):
    base = make()
    rng = random.Random(base.dim)
    found = 0
    for _ in range(8):
        ring = plant_defects(base, rng)
        report = ViolationReport()
        ring._check_associativity(report)
        expected = dense_associativity_violations(ring)
        assert report.violations == expected
        found += len(expected)
    assert found


def plant_zero_products(ring, rng):
    """Drop one or two whole products and add one on a pair whose product
    was zero, so that e_i e_j = 0 while e_i (e_j e_k) need not be."""
    n = ring.dim
    structure = {key: list(entries) for key, entries in ring.structure.items()}
    for key in rng.sample(sorted(structure), min(len(structure), rng.randint(1, 2))):
        del structure[key]
    free = [(i, j) for i in range(n) for j in range(n) if (i, j) not in ring.structure]
    if free and rng.random() < 0.5:
        structure[rng.choice(free)] = [(rng.randrange(n), ONE)]
    return GradedRing(ring.signature, ring.degrees, structure, ring.grams, ring.labels)


@pytest.mark.parametrize(
    "make", [m for _, m in ASSOCIATIVITY_BASES], ids=[i for i, _ in ASSOCIATIVITY_BASES]
)
def test_zero_product_branch_matches_dense_reference(make):
    base = make()
    rng = random.Random(base.dim + 1)
    zero_branch = 0
    for _ in range(6):
        ring = plant_zero_products(base, rng)
        report = ViolationReport()
        ring._check_associativity(report)
        expected = dense_associativity_violations(ring)
        assert report.violations == expected
        zero_branch += sum(" = 0 but " in v.detail for v in expected)
    assert zero_branch


# -- malformed and defective Gram families ------------------------------------------
#
# The expected lists were recorded from the dense Gram implementation.

def _gram_defect_rings():
    i = Scalar(0, 1)
    sig0, sig1 = GroupSignature(0, ()), GroupSignature(1)

    def ring(grams, sig=sig0, degrees=((), ()), labels=None):
        return GradedRing(sig, degrees, {}, grams, labels)

    not_2x2 = [("malformed", (0,), "Gram 0 is not 2x2")]
    not_hermitian = [("malformed", (0,), "Gram 0 is not Hermitian")]
    z5 = [ZERO] * 5
    return [
        (ring([[[ONE, ZERO], [ONE]]]), not_2x2),
        (ring([[[ONE, ZERO]]]), not_2x2),
        (ring([[[ONE, ZERO, ZERO], [ZERO, ONE]]]), not_2x2),
        (ring([identity_gram(3)]), not_2x2),
        (ring([[{0: ONE}, {2: ONE}]]), not_2x2),
        (ring([[[ONE, ONE], [ZERO, ONE]]]), not_hermitian),
        (ring([[{0: ONE, 1: ONE}, {1: ONE}]]), not_hermitian),
        (ring([[[i, ZERO], [ZERO, ONE]]]), not_hermitian),
        (ring([[[ONE, i], [i, ONE]]]), not_hermitian),
        (
            ring(
                [
                    identity_gram(3),
                    [[ONE, ZERO, ZERO], [ZERO, ONE]],
                    [[ONE, ONE, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
                    identity_gram(2),
                ],
                sig1,
                [(0,), (1,), (1,)],
                ["a", "b"],
            ),
            [
                ("malformed", (), "2 labels for 3 basis elements"),
                ("malformed", (1,), "Gram 1 is not 3x3"),
                ("malformed", (2,), "Gram 2 is not Hermitian"),
                ("malformed", (3,), "Gram 3 is not 3x3"),
            ],
        ),
        (
            ring(
                [
                    [
                        [ONE, ZERO, ZERO, Scalar(1, 2), ONE],
                        [ZERO, ONE, ZERO, Scalar(2), Scalar(3)],
                        z5,
                        [Scalar(1, -2), Scalar(2), ZERO, ONE, ZERO],
                        [ONE, Scalar(3), ZERO, ZERO, ONE],
                    ],
                    [[ZERO, ZERO, i, ZERO, ZERO], z5, [-i, ZERO, ZERO, ZERO, ZERO], z5, z5],
                ],
                sig1,
                [(0,), (1,), (0,), (2,), (1,)],
            ),
            [
                ("orthogonality", (0, 0, 3),
                 "Gram 0 pairs basis 0 (degree (0,)) with basis 3 (degree (2,)) as 1+2*i"),
                ("orthogonality", (0, 0, 4),
                 "Gram 0 pairs basis 0 (degree (0,)) with basis 4 (degree (1,)) as 1"),
                ("orthogonality", (0, 1, 3),
                 "Gram 0 pairs basis 1 (degree (1,)) with basis 3 (degree (2,)) as 2"),
                ("psd", (0,), "Gram 0 is not positive semidefinite; "
                 "witness [-1+2*i, -2, 0, 1, 0] has negative square"),
                ("psd", (1,), "Gram 1 is not positive semidefinite; "
                 "witness [0+1*i, 0, 1, 0, 0] has negative square"),
            ],
        ),
        (
            ring(
                [[[ONE, ZERO, ONE], [ZERO] * 3, [ONE, ZERO, ONE]], [{}, {1: ONE}, {}]],
                sig1,
                [(0,), (1,), (0,)],
            ),
            [("hausdorff", (), "the Gram family does not separate points; "
              "[1, 0, -1] is in the joint kernel")],
        ),
    ]


def test_gram_defects_give_the_recorded_violations():
    for ring, expected in _gram_defect_rings():
        assert [(v.kind, v.where, v.detail) for v in ring.validate()] == expected
        if all(g.square for g in ring.grams):
            # the same Grams as sparse rows with their keys in descending order
            grams = [[dict(sorted(row.items(), reverse=True)) for row in g.sparse] for g in ring.grams]
            again = GradedRing(ring.signature, ring.degrees, {}, grams, ring.labels)
            assert [(v.kind, v.where, v.detail) for v in again.validate()] == expected


def test_ring_pickles_and_deep_copies_without_its_memo():
    rings = [banded_ring(BandedRingParams(3, 2, weights=(1, 2))), random_ring(5)]
    rings += [ring for ring, _ in _gram_defect_rings()]
    for ring in rings:
        ring.validate()
        connection_classes(ring)
        assert ring._derived
        for twin in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert twin == ring and twin is not ring
            assert twin._derived == {}
            assert all(isinstance(g, Gram) for g in twin.grams)
            assert [g.square for g in twin.grams] == [g.square for g in ring.grams]
            assert twin.validate().violations == ring.validate().violations
            assert connection_classes(twin).blocks == connection_classes(ring).blocks


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
