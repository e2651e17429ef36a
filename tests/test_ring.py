import copy
import pickle
import random
from fractions import Fraction

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
    decompose,
    group_algebra,
    is_support_multiplicative,
    is_symmetric_support,
    random_ring,
)
from gradedrings.connections import _symmetrized
from gradedrings.decomposition import identity_products_span, inverse_products
from gradedrings.linalg import ONE, ZERO, Gram, add_scaled, pairing
from gradedrings.ring import ViolationReport, derived

from conftest import (
    associativity_defect_ring,
    densify,
    grading_defect_ring,
    hausdorff_defect_ring,
    identity_gram,
    orthogonality_defect_ring,
    psd_defect_ring,
    sparse,
    trivially_graded_zero_ring,
)


def unit_label_index(ring, row, band, col):
    return ring.labels.index(f"a(({row},{band}),({col},{band}))")


# -- products ----------------------------------------------------------------

def test_multiply_matches_structure_on_basis_pairs(band2):
    n = band2.dim
    for i in range(n):
        for j in range(n):
            product = band2.multiply({i: ONE}, {j: ONE})
            assert product == dict(band2.structure.get((i, j), ()))


def test_multiply_matrix_units_matching_middle_index():
    ring = banded_ring(BandedRingParams(4, 1))
    a12 = unit_label_index(ring, 1, 1, 2)
    a23 = unit_label_index(ring, 2, 1, 3)
    a13 = unit_label_index(ring, 1, 1, 3)
    out = ring.multiply({a12: ONE}, {a23: ONE})
    assert out == {a13: ONE}


def test_multiply_matrix_units_mismatched_middle_index():
    ring = banded_ring(BandedRingParams(4, 1))
    a12 = unit_label_index(ring, 1, 1, 2)
    a34 = unit_label_index(ring, 3, 1, 4)
    assert ring.multiply({a12: ONE}, {a34: ONE}) == {}


def test_multiply_is_bilinear(band3):
    rng = random.Random(3)
    n = band3.dim
    for _ in range(10):
        u, v, w = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(3))
        left = band3.multiply(sparse(u), sparse([x + y for x, y in zip(v, w)]))
        uv = densify(band3.multiply(sparse(u), sparse(v)), n)
        uw = densify(band3.multiply(sparse(u), sparse(w)), n)
        assert densify(left, n) == [x + y for x, y in zip(uv, uw)]


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


@pytest.mark.parametrize("bad", [9, 4, -1])
def test_homogeneous_parts_rejects_an_index_outside_the_dimension(band2, bad):
    message = rf"vector index {bad} is out of range for dimension 4"
    with pytest.raises(MalformedInputError, match=message):
        band2.homogeneous_parts({0: ONE, bad: ONE})


def test_component_dimensions_partition_the_basis(band3x2):
    total = sum(band3x2.component(g).dim for g in band3x2.attained_degrees())
    assert total == band3x2.dim


def test_component_products_respect_the_grading(band3x2):
    ring = band3x2
    sig = ring.signature
    for g in ring.attained_degrees():
        for h in ring.attained_degrees():
            target = ring.component(sig.compose(g, h))
            for u in ring.component(g).sparse.values():
                for v in ring.component(h).sparse.values():
                    assert target.contains(ring.multiply(u, v))


def test_distinct_components_are_orthogonal(band3x2):
    ring = band3x2
    degrees = ring.attained_degrees()
    for a, g in enumerate(degrees):
        for h in degrees[a + 1 :]:
            for gram in ring.grams:
                for u in ring.component(g).sparse.values():
                    for v in ring.component(h).sparse.values():
                        assert not pairing(u, v, gram)


def test_only_zero_is_orthogonal_to_everything(band3x2):
    ring = band3x2
    from gradedrings.linalg import full_space, joint_orthogonal_complement

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


def test_associativity_details_write_both_sides_as_terms():
    """Both sides in one text form, in either branch: 0, or the terms c ek
    with str(Scalar) coefficients, never a Python repr."""
    ring = GradedRing(
        GroupSignature(0, ()),
        [(), (), ()],
        {
            (0, 0): [(1, ONE), (2, Scalar(Fraction(1, 2)))],
            (1, 0): [(2, Scalar(-1))],
            (0, 2): [(1, Scalar(3))],
            (2, 0): [(1, Scalar(0, 1))],
        },
        [identity_gram(3)],
    )
    assert [(v.where, v.detail) for v in ring.validate()] == [
        ((0, 0, 0), "(e0 e0) e0 = 0+1/2*i e1 + -1 e2 but e0 (e0 e0) = 3/2 e1"),
        ((0, 1, 0), "(e0 e1) e0 = 0 but e0 (e1 e0) = -3 e1"),
        ((0, 2, 0), "(e0 e2) e0 = -3 e2 but e0 (e2 e0) = 0"),
        ((1, 0, 0), "(e1 e0) e0 = 0-1*i e1 but e1 (e0 e0) = 0"),
        ((2, 0, 0), "(e2 e0) e0 = 0-1*i e2 but e2 (e0 e0) = 0"),
    ]
    assert associativity_defect_ring().validate().violations[0].detail == (
        "(e0 e0) e0 = 0 but e0 (e0 e0) = 1 e2"
    )


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

    non_hermitian = GradedRing(sig, [(0,), (0,)], {}, [[{0: ONE, 1: ONE}, {1: ONE}]])
    assert non_hermitian.validate().kinds() == ["malformed"]


MALFORMED_DEGREES = [
    [(0, 0)],
    [(0,), (1, 5)],
    [(0,), (1.5,)],
    [(0,), ("1",)],
    [(0,), (1,), (1.0,)],  # equal to a canonical degree, but not an integer
]


@pytest.mark.parametrize("degrees", MALFORMED_DEGREES, ids=repr)
@pytest.mark.parametrize(
    "analysis", [is_support_multiplicative, connection_classes, is_symmetric_support, decompose]
)
def test_malformed_degrees_end_in_malformed_input_error(degrees, analysis):
    ring = GradedRing(GroupSignature(1), degrees, {}, [identity_gram(len(degrees))])
    with pytest.raises(MalformedInputError):
        analysis(ring)
    # validate reports the same degree instead of raising
    bad = len(degrees) - 1
    assert [(v.kind, v.where) for v in ring.validate()] == [("malformed", (bad,))]


def test_degree_outside_its_torsion_range_is_malformed():
    # 4 and 1 are the same element of Z/3, but only 1 is canonical
    sig = GroupSignature(0, (3,))
    ring = GradedRing(sig, [(0,), (4,), (2,), (4,)], {}, [identity_gram(4)])
    report = ring.validate()
    assert [v.where for v in report] == [(1,), (3,)]
    assert report.violations[0].detail == "degree (4,) does not conform to the signature"
    with pytest.raises(MalformedInputError, match=r"degree \(4,\) of basis 1"):
        connection_classes(ring)
    canonical = GradedRing(sig, [(0,), (1,), (2,), (1,)], {}, [identity_gram(4)])
    assert canonical.validate().ok
    assert canonical.degree_table().inverse == {(1,): (2,), (2,): (1,)}


def test_zero_product_ring_validates():
    assert trivially_graded_zero_ring(3).validate().ok


def as_text(v):
    """A violation detail's side: 0, or the terms c ek joined by " + "."""
    if not v:
        return "0"
    return " + ".join(f"{str(c)} e{k}" for k, c in sorted(v.items()))


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
                            f"(e{i} e{j}) e{k} = {as_text(lhs)} but "
                            f"e{i} (e{j} e{k}) = {as_text(rhs)}",
                        )
            else:
                for k in ring._left_keys.get(j, ()):
                    rhs = left_mul(i, ring.structure[(j, k)])
                    if rhs:
                        report.add(
                            "associativity",
                            (i, j, k),
                            f"(e{i} e{j}) e{k} = 0 but e{i} (e{j} e{k}) = {as_text(rhs)}",
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


def identity_basis_change(ring, k, combo):
    """The same ring in the basis where e_k is replaced by the combination
    ``combo`` ({t: scalar}, combo[k] != 0) of basis vectors of e_k's degree.
    The grading and the Grams are unchanged, but a product that had e_k as
    a term now has several terms."""
    ck = combo[k]

    def coordinates(w):
        # e_k = (e'_k - sum over t != k of combo[t] e_t) / combo[k]
        out = dict(w)
        x = out.pop(k, None)
        if x is not None:
            add_scaled(out, x / ck, [(k, ONE)])
            add_scaled(out, -x / ck, [(t, c) for t, c in combo.items() if t != k])
        return out

    n = ring.dim
    basis = [{i: ONE} for i in range(n)]
    basis[k] = dict(combo)
    structure = {}
    for i in range(n):
        for j in range(n):
            w = coordinates(ring.multiply(basis[i], basis[j]))
            if w:
                structure[(i, j)] = sorted(w.items())
    return GradedRing(ring.signature, ring.degrees, structure, ring.grams, ring.labels)


UNIT = Scalar(1, 1)  # 1 + i

# banded (n, 1) with E22 replaced by a combination of identity-degree units:
# E21 E12 = E22 then has two terms, so the greedy generator walk can no
# longer reach e'_22 and takes it as a generator; the Gaussian variants put
# coefficients in Q(i) into the structure constants
NON_MONOMIAL = {
    "banded-2-1-e22": (2, 3, {0: ONE, 3: ONE}),
    "banded-3-1-e22": (3, 4, {4: ONE, 8: ONE}),
    "banded-2-1-e22-gaussian": (2, 3, {0: UNIT, 3: UNIT}),
    "banded-3-1-e22-gaussian": (3, 4, {4: UNIT, 8: ONE}),
}
NON_MONOMIAL_BASES = [
    (name, lambda n=n, k=k, combo=combo: identity_basis_change(
        banded_ring(BandedRingParams(n, 1)), k, combo))
    for name, (n, k, combo) in NON_MONOMIAL.items()
]

ASSOCIATIVITY_BASES = (
    [(f"banded-{n}-{r}", lambda n=n, r=r: banded_ring(BandedRingParams(n, r)))
     for n, r in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)]]
    + [(f"group-{'x'.join(map(str, t))}", lambda t=t: group_algebra(GroupSignature(0, t)))
       for t in [(2,), (5,), (2, 3), (2, 2)]]
    + [(f"random-{seed}", lambda seed=seed: random_ring(seed)) for seed in range(12)]
    + NON_MONOMIAL_BASES
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


@pytest.mark.parametrize("name", sorted(NON_MONOMIAL))
def test_non_monomial_bases_validate_with_more_generators(name):
    n, _, _ = NON_MONOMIAL[name]
    ring = dict(NON_MONOMIAL_BASES)[name]()
    assert ring.validate().ok
    assert any(len(entries) > 1 for entries in ring.structure.values())
    monomial = banded_ring(BandedRingParams(n, 1))
    assert len(ring._associativity_middles()) > len(monomial._associativity_middles())


@pytest.mark.parametrize(
    "make, generators",
    [
        (lambda: banded_ring(BandedRingParams(6, 1)), 11),
        (lambda: banded_ring(BandedRingParams(32, 1)), 63),
        (lambda: banded_ring(BandedRingParams(12, 12)), 276),
        (lambda: group_algebra(GroupSignature(0, (6, 6, 6))), 4),
    ],
    ids=["banded-6-1", "banded-32-1", "banded-12-12", "group-6x6x6"],
)
def test_associativity_generator_counts(make, generators):
    # banded (n, r): per band the first row and the first column; Z/6^3:
    # the identity and one generator per cyclic factor
    assert len(make()._associativity_middles()) == generators


@pytest.mark.parametrize(
    "make, triples",
    [
        # 63 middles, each with 32 left factors and 32 right factors
        (lambda: banded_ring(BandedRingParams(32, 1)), 63 * 32 * 32),
        # 4 middles, every product nonzero
        (lambda: group_algebra(GroupSignature(0, (6, 6, 6))), 4 * 216 * 216),
    ],
    ids=["banded-32-1", "group-6x6x6"],
)
def test_validate_checks_only_the_generator_triples(make, triples, monkeypatch):
    """On these rings every checked triple costs one add_scaled for each
    side, so the calls count the triples; the exhaustive loop checks 32^4
    and 216^3 of them."""
    ring = make()
    calls = []

    def counting(v, c, entries):
        calls.append(None)
        add_scaled(v, c, entries)

    monkeypatch.setattr("gradedrings.ring.add_scaled", counting)
    report = ViolationReport()
    ring._check_associativity(report)
    assert report.ok
    assert len(calls) == 2 * triples


def test_a_product_with_several_terms_reaches_no_coordinate():
    """a a = f = b + c, and f annihilates the ring, so a generates only
    span(a, f) and every triple with middle a holds.  The product is not
    associative: (b b) b = d b = 0 but b (b b) = b d = c.  A walk that took
    b as reached from a a would check middle a alone and miss it."""
    sig = GroupSignature(0, ())
    m = Scalar(-1)
    structure = {
        (0, 0): [(1, ONE), (2, ONE)],  # a a = b + c
        (1, 1): [(3, ONE)],  # b b = d
        (1, 3): [(2, ONE)],  # b d = c
        (1, 2): [(3, m)],
        (2, 1): [(3, m)],
        (2, 2): [(3, ONE)],
        (2, 3): [(2, m)],
    }
    ring = GradedRing(sig, [()] * 4, structure, [identity_gram(4)], ["a", "b", "c", "d"])
    assert ring._associativity_middles() == [0, 1]
    only_a = ViolationReport()
    ring._associativity_triples(only_a, [0])
    assert only_a.ok
    violations = ring.validate().violations
    assert violations == dense_associativity_violations(ring)
    assert ("associativity", (1, 1, 1)) in [(v.kind, v.where) for v in violations]


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
# The expected lists were recorded from the dense Gram implementation; the
# matrices written densely here reach the rings as sparse rows.

def _gram_defect_rings():
    i = Scalar(0, 1)
    sig0, sig1 = GroupSignature(0, ()), GroupSignature(1)

    def ring(grams, sig=sig0, degrees=((), ()), labels=None):
        return GradedRing(sig, degrees, {}, grams, labels)

    not_2x2 = [("malformed", (0,), "Gram 0 is not 2x2")]
    not_hermitian = [("malformed", (0,), "Gram 0 is not Hermitian")]
    z5 = [ZERO] * 5
    return [
        (ring([[{0: ONE}, {0: ONE, 2: ZERO}]]), not_2x2),
        (ring([[{0: ONE}]]), not_2x2),
        (ring([[{0: ONE}, {1: ONE, 2: ONE}]]), not_2x2),
        (ring([identity_gram(3)]), not_2x2),
        (ring([[{0: ONE}, {2: ONE}]]), not_2x2),
        (ring([[{0: ONE, 1: ONE}, {1: ONE}]]), not_hermitian),
        (ring([[{0: i}, {1: ONE}]]), not_hermitian),
        (ring([[{0: ONE, 1: i}, {0: i, 1: ONE}]]), not_hermitian),
        (
            ring(
                [
                    identity_gram(3),
                    [{0: ONE}, {1: ONE}],
                    [{0: ONE, 1: ONE}, {1: ONE}, {2: ONE}],
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
                    [sparse(row) for row in [
                        [ONE, ZERO, ZERO, Scalar(1, 2), ONE],
                        [ZERO, ONE, ZERO, Scalar(2), Scalar(3)],
                        z5,
                        [Scalar(1, -2), Scalar(2), ZERO, ONE, ZERO],
                        [ONE, Scalar(3), ZERO, ZERO, ONE],
                    ]],
                    [{2: i}, {}, {0: -i}, {}, {}],
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
                [[{0: ONE, 2: ONE}, {}, {0: ONE, 2: ONE}], [{}, {1: ONE}, {}]],
                sig1,
                [(0,), (1,), (0,)],
            ),
            [("hausdorff", (), "the Gram family does not separate points; "
              "[1, 0, -1] is in the joint kernel")],
        ),
        (
            # a two-dimensional joint kernel: the first canonical row is named
            ring([[{0: ONE, 1: ONE, 2: ONE}] * 3], degrees=((), (), ())),
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


def test_repeated_structure_terms_are_summed():
    sig = GroupSignature(0, ())
    ring = GradedRing(
        sig,
        [(), ()],
        {(0, 0): [(1, "1/2"), (0, "0"), (1, "1/2")], (0, 1): [(1, "1"), (1, "-1")]},
        [identity_gram(2)],
    )
    # e0 e0 = e1 once; e0 e1 cancels and leaves no key behind
    assert dict(ring.structure) == {(0, 0): ((1, ONE),)}
    assert ring == GradedRing(sig, [(), ()], {(0, 0): [(1, ONE)]}, [identity_gram(2)])


BASIS_MULTIPLE_RINGS = (
    [(f"banded-{n}-{r}", lambda n=n, r=r: banded_ring(BandedRingParams(n, r)))
     for n, r in [(2, 1), (3, 2)]]
    + [("group-2x3", lambda: group_algebra(GroupSignature(0, (2, 3))))]
    + [(f"random-{seed}", lambda seed=seed: random_ring(seed)) for seed in range(6)]
)


@pytest.mark.parametrize(
    "make", [m for _, m in BASIS_MULTIPLE_RINGS], ids=[i for i, _ in BASIS_MULTIPLE_RINGS]
)
def test_basis_multiples_are_the_nonzero_basis_products(make):
    """The reach-filtered products are exactly the nonzero ones of the loop
    over every e_j, in the same order."""
    ring = make()
    n = ring.dim
    rng = random.Random(n)
    vectors = [{i: ONE} for i in range(n)]
    for _ in range(4):
        vectors.append({i: Scalar(rng.randint(1, 5)) for i in rng.sample(range(n), min(n, 3))})
    for u in vectors:
        everything = [
            w
            for j in range(n)
            for w in (ring.multiply_basis_right(u, j), ring.multiply_basis_left(j, u))
            if w
        ]
        assert list(ring.basis_multiples(u)) == everything


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
        GradedRing._degree_table,
        inverse_products,
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
