"""Packed degrees and degree ids against the tuple group law.

The analyses name degrees by the dense ids of the degree table and compose
them as packed ints (``groups.Packing``): the support-step table of
``connections._symmetrized``, the grading check of ``GradedRing.validate``
and ``is_support_multiplicative``.  Each is compared here with a test-local
reference that composes tuples with the checked ``GroupSignature.compose``,
on the banded grid, random rings, torsion group algebras, a mixed free and
torsion grading, degrees far beyond 32 and 64 bits, and planted defects
that a packed law with too narrow fields would miss; the ids and their
inverses are compared with ``invert_canonical``.
"""

import random

import pytest

from gradedrings import (
    BandedRingParams,
    ConnectionPath,
    GradedRing,
    GroupSignature,
    banded_ring,
    connected,
    connection_classes,
    direct_sum,
    group_algebra,
    is_support_multiplicative,
    is_symmetric_support,
    random_ring,
    verify_certificate,
)
from gradedrings.connections import _symmetrized
from gradedrings.decomposition import inverse_products
from gradedrings.groups import Packing
from gradedrings.linalg import ONE
from gradedrings.ring import ViolationReport

from conftest import identity_gram, reference_support_multiplicative, steps_by_degree

# -- the tuple-law references -------------------------------------------------------


def tuple_law_steps(ring):
    """The support with its inverses, and per element g the pairs (x, g x)
    with x and g x in it, x ascending, composed as tuples."""
    sig = ring.signature
    support = {d for d in ring.degrees if d != sig.identity()}
    closure = support | {sig.invert(g) for g in support}
    ordered = sorted(closure)
    steps = {g: [] for g in ordered}
    for g in ordered:
        for x in ordered:
            gx = sig.compose(g, x)
            if gx in closure:
                steps[g].append((x, gx))
    return closure, {g: tuple(s) for g, s in steps.items()}


def tuple_law_grading(ring, report):
    law = ring.signature.compose
    for (i, j), entries in sorted(ring.structure.items()):
        expected = law(ring.degrees[i], ring.degrees[j])
        for k, c in entries:
            if ring.degrees[k] != expected:
                report.add(
                    "grading",
                    (i, j, k),
                    f"product of degrees {ring.degrees[i]} and {ring.degrees[j]} is "
                    f"{expected}, but term {k} has degree {ring.degrees[k]} "
                    f"(coefficient {c})",
                )


def tuple_law_validate(ring):
    """``validate`` with the grading check on tuples."""
    report = ViolationReport()
    ring._check_malformed(report)
    if report.ok:
        tuple_law_grading(ring, report)
        ring._check_associativity(report)
        ring._check_orthogonality(report)
        ring._check_psd(report)
        ring._check_hausdorff(report)
    return report.violations


# -- families -------------------------------------------------------------------------


def regraded(ring, scales):
    """The ring with free coordinate i of every degree times scales[i]: an
    injective homomorphism of the grading group, so validity is kept."""
    degrees = [tuple(e * s for e, s in zip(d, scales)) for d in ring.degrees]
    return GradedRing(ring.signature, degrees, dict(ring.structure), ring.grams, ring.labels)


def degree_ring(sig, degrees):
    """Zero products, one basis element per degree: only the degrees matter."""
    degrees = [sig.element(d) for d in degrees]
    return GradedRing(sig, degrees, {}, [identity_gram(len(degrees))])


def mixed_degree_ring(seed):
    """Random degrees of Z^2 x Z/3 x Z/4 with small free coordinates, so that
    many steps mix free and torsion coordinates and wrap around."""
    rng = random.Random(seed)
    sig = GroupSignature(2, (3, 4))
    elements = {
        (rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(3), rng.randrange(4))
        for _ in range(30)
    }
    return degree_ring(sig, sorted(elements))


def huge_degree_ring(bits):
    """Degrees of Z^3 with coordinates +-2**bits and small ones, whose sums
    a field of ``bits`` bits would carry into the next coordinate."""
    sig = GroupSignature(3)
    big = 2**bits
    degrees = {
        (big, 0, 1), (-big, 0, -1), (0, 1, 0), (0, -1, 0), (big, 1, 0),
        (0, 0, big), (big, -big, 0), (-big, big, 1), (0, 2, 0), (1, 0, 0),
    }
    return degree_ring(sig, sorted(degrees))


FAMILIES = (
    [(f"banded-{n}-{r}", lambda n=n, r=r: banded_ring(BandedRingParams(n, r)))
     for n in range(1, 5) for r in range(1, 4)]
    + [(f"random-{seed}", lambda seed=seed: random_ring(seed)) for seed in range(60)]
    + [(f"group-{'x'.join(map(str, t))}", lambda t=t: group_algebra(GroupSignature(0, t)))
       for t in [(6, 6, 6), (12, 12), (2, 3, 4)]]
    + [("z2-z3-z4-sum", lambda: direct_sum(
        banded_ring(BandedRingParams(2, 1)), group_algebra(GroupSignature(0, (3, 4)))))]
    + [(f"z2-z3-z4-degrees-{seed}", lambda seed=seed: mixed_degree_ring(seed))
       for seed in range(3)]
    + [(f"banded-3-2-times-{s}", lambda s=s: regraded(
        banded_ring(BandedRingParams(3, 2)), [s] * 6))
       for s in (2**40, -(2**40), 2**70, -(2**70))]
    + [("banded-2-3-mixed-scales", lambda: regraded(
        banded_ring(BandedRingParams(2, 3)), [2**70, -(2**40), 1, 2**40, -(2**70), 3]))]
    + [(f"degrees-2**{bits}", lambda bits=bits: huge_degree_ring(bits))
       for bits in (31, 32, 40, 63, 64, 70)]
    + [(f"degrees-below-2**{bits}", lambda bits=bits: degree_ring(
        GroupSignature(2), [(2**bits - 1, 0), (-2, 1), (1 - 2**bits, 3)]))
       for bits in (40, 70)]
    # (-2)(-1) = -3 is a step of the symmetrized support but not in the
    # support, and -1 sorts before the identity
    + [("z-steps-outside-the-support",
        lambda: degree_ring(GroupSignature(1), [(-2,), (-1,), (3,)]))]
)


@pytest.fixture(scope="module", params=FAMILIES, ids=[name for name, _ in FAMILIES])
def family_ring(request):
    return request.param[1]()


def test_step_table_matches_the_tuple_law(family_ring):
    closure, _ = _symmetrized(family_ring)
    expected_closure, expected_steps = tuple_law_steps(family_ring)
    assert closure == expected_closure
    assert steps_by_degree(family_ring) == expected_steps


def test_validate_matches_the_tuple_law(family_ring):
    assert family_ring.validate().violations == tuple_law_validate(family_ring)


def test_support_multiplicative_matches_the_tuple_law(family_ring):
    expected = reference_support_multiplicative(family_ring)
    assert is_support_multiplicative(family_ring) == expected


def test_families_reach_wrap_around_and_wide_fields():
    """The families are not vacuous: some steps wrap a torsion digit, and
    some free coordinates need fields wider than 64 bits."""
    wraps = 0
    for _, make in FAMILIES:
        ring = make()
        sig = ring.signature
        r = sig.free_rank
        for g, pairs in steps_by_degree(ring).items():
            wraps += sum(
                any(a + b >= m for a, b, m in zip(g[r:], x[r:], sig.torsion)) for x, _ in pairs
            )
    assert wraps > 1000
    offsets = huge_degree_ring(70).degree_table().packing.offsets
    assert offsets[1] - offsets[0] > 64


# -- planted defects ---------------------------------------------------------------


def rewired(ring, key, target):
    """The ring with the product ``key`` sent to basis element ``target``."""
    structure = dict(ring.structure)
    structure[key] = [(target, ONE)]
    return GradedRing(ring.signature, ring.degrees, structure, ring.grams, ring.labels)


def element_ring_defect(sig, left, right, target):
    """The group algebra of sig with e_left e_right = e_target."""
    ring = group_algebra(sig)
    index = {g: i for i, g in enumerate(ring.degrees)}
    key = (index[left], index[right])
    return rewired(ring, key, index[target]), key + (index[target],)


def free_alias_defect(coordinate, target):
    """Z^2 with e0 e0 = e1, deg e0 = (coordinate, 0) and deg e1 = target,
    which is not the product degree (2 * coordinate, 0)."""
    sig = GroupSignature(2)
    ring = GradedRing(sig, [(coordinate, 0), target], {(0, 0): [(1, ONE)]}, [identity_gram(2)])
    return ring, (0, 0, 1)


def torsion_spill_defect():
    """Z x Z/4 with e0 e1 = e2 for degrees (0, 1), (0, 3) and (1, 0): the
    product degree is (0, 0), but the digit sum 4 spills into the free
    field when the torsion field has only two bits."""
    sig = GroupSignature(1, (4,))
    ring = GradedRing(
        sig, [(0, 1), (0, 3), (1, 0)], {(0, 1): [(2, ONE)]}, [identity_gram(3)]
    )
    return ring, (0, 1, 2)


PLANTED = [
    # (2,0)(2,0) is (1,0), and (0,1) only when the digit sum 4 carries
    ("z3xz3-carry", lambda: element_ring_defect(GroupSignature(0, (3, 3)), (2, 0), (2, 0), (0, 1))),
    # (1,0)(3,0) is (0,0): the digit m = 4 written where 0 is expected
    ("z4xz4-m-for-0", lambda: element_ring_defect(GroupSignature(0, (4, 4)), (1, 0), (3, 0), (0, 1))),
    ("z2xz3xz4-carry", lambda: element_ring_defect(
        GroupSignature(0, (2, 3, 4)), (1, 2, 0), (1, 1, 0), (0, 1, 1))),
    ("zxz4-spill", torsion_spill_defect),
] + [
    # (2**bits, 0) is (0, 1) in fields of ``bits`` bits
    (f"z2-2**{bits}-alias", lambda bits=bits: free_alias_defect(2 ** (bits - 1), (0, 1)))
    for bits in (32, 40, 64, 70)
] + [
    # 2 * (2**bits - 1) is -2 carrying 1 in fields of bits + 1 bits, which
    # hold the bound but not twice it
    (f"z2-below-2**{bits}-alias", lambda bits=bits: free_alias_defect(2**bits - 1, (-2, 1)))
    for bits in (40, 70)
]


@pytest.mark.parametrize("make", [m for _, m in PLANTED], ids=[name for name, _ in PLANTED])
def test_planted_wrap_around_defect_is_reported(make):
    ring, where = make()
    violations = ring.validate().violations
    assert violations == tuple_law_validate(ring)
    assert ("grading", where) in [(v.kind, v.where) for v in violations]


def test_random_grading_defects_match_the_tuple_law():
    """Terms sent to random basis elements, on small rings with torsion,
    free and mixed gradings."""
    rng = random.Random(15)
    bases = [
        group_algebra(GroupSignature(0, (3, 3))),
        group_algebra(GroupSignature(0, (2, 3, 4))),
        direct_sum(banded_ring(BandedRingParams(2, 1)), group_algebra(GroupSignature(0, (3, 4)))),
        regraded(banded_ring(BandedRingParams(2, 2)), [2**70, -(2**40), 1, 2**40]),
    ]
    graded = 0
    for base in bases:
        for _ in range(8):
            structure = dict(base.structure)
            for key in rng.sample(sorted(structure), 3):
                structure[key] = [(rng.randrange(base.dim), ONE)]
            ring = GradedRing(base.signature, base.degrees, structure, base.grams, base.labels)
            violations = ring.validate().violations
            assert violations == tuple_law_validate(ring)
            graded += any(v.kind == "grading" for v in violations)
    assert graded > 20


# -- the packing itself -----------------------------------------------------------


@pytest.mark.parametrize(
    "free_rank, torsion, bound",
    [(3, (), 5), (0, (2,), 0), (1, (3,), 2**40), (2, (3, 4), 7), (0, (6, 6, 6), 0),
     (2, (2, 2, 2, 2, 2, 2), 2**70), (1, (12, 12), 1)],
)
def test_packed_sum_is_the_packed_product(free_rank, torsion, bound):
    sig = GroupSignature(free_rank, torsion)
    packing = sig.packing(bound)
    rng = random.Random(free_rank * 100 + len(torsion) + bound % 97)

    def element():
        free = [rng.choice((-bound, bound, rng.randint(-bound, bound))) for _ in range(free_rank)]
        return sig.element(free + [rng.randrange(m) for m in torsion])

    for _ in range(300):
        a, b, c = element(), element(), element()
        (total,) = packing.reduce([packing.pack(a) + packing.pack(b)])
        ab = sig.compose(a, b)
        if all(abs(e) <= bound for e in ab[:free_rank]):
            assert total == packing.pack(ab)
        assert (total == packing.pack(c)) == (ab == c)


def test_degree_table_packing_bound_is_its_largest_coordinate():
    ring = huge_degree_ring(70)
    table = ring.degree_table()
    sig = ring.signature
    assert table.packing == sig.packing(2**70)
    assert set(table.degrees) == {sig.identity()} | table.support | {
        sig.invert(g) for g in table.support
    }
    assert table.packed == tuple(map(table.packing.pack, table.degrees))


# -- dense degree ids -----------------------------------------------------------------


def test_degree_ids_are_ascending_with_their_inverses(family_ring):
    """The ids number the identity, the support and its inverses in
    ascending order, and each id's inverse, found from the packed forms, is
    the tuple inverse."""
    ring = family_ring
    sig = ring.signature
    table = ring.degree_table()
    support = {d for d in ring.degrees if d != sig.identity()}
    expected = sorted(support | {sig.invert_canonical(g) for g in support} | {sig.identity()})
    assert list(table.degrees) == expected
    assert table.degrees[table.one] == sig.identity()
    for k, g in enumerate(table.degrees):
        assert table.degrees[table.inverse[k]] == sig.invert_canonical(g)
        assert table.in_support[k] == (g in support)
        assert table.indices[k] == tuple(i for i, d in enumerate(ring.degrees) if d == g)
    assert [table.degrees[k] for k in table.basis_ids] == list(ring.degrees)
    assert table.support_ids == tuple(k for k, s in enumerate(table.in_support) if s)


def test_an_asymmetric_mixed_support_names_inverses_outside_it():
    """Z x Z/3 x Z/4 with a support that lacks some inverses: the table
    names them, and the witness is the least support element whose
    inverse is missing."""
    sig = GroupSignature(1, (3, 4))
    ring = degree_ring(sig, [(0, 0, 0), (1, 1, 1), (2, 0, 3), (-1, 2, 3), (0, 0, 2), (3, 1, 1),
                             (0, 1, 0), (1, 1, 1), (0, 2, 0), (-2, 0, 0)])
    table = ring.degree_table()
    outside = [g for k, g in enumerate(table.degrees) if not table.in_support[k] and k != table.one]
    assert outside == [(-3, 2, 3), (-2, 0, 1), (2, 0, 0)]
    for k, g in enumerate(table.degrees):
        assert table.degrees[table.inverse[k]] == sig.invert_canonical(g)
    assert is_symmetric_support(ring) == (False, (-2, 0, 0))


class CountedDegree(tuple):
    """A degree that counts the times it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedDegree.hashes += 1
        return tuple.__hash__(self)


def test_analyses_past_the_degree_table_hash_no_degree():
    """Counts, not seconds: on banded (5, 3), once the degree table is
    built, the connection classes, the support-multiplicative check and
    the spans P_g read degrees by id only.  Keyed by degree tuples, one
    ``decompose`` hashed about 3,000 of them."""
    ring = banded_ring(BandedRingParams(5, 3))
    ring.degrees = tuple(CountedDegree(d) for d in ring.degrees)
    ring.degree_table()
    assert CountedDegree.hashes > 0  # the counter is live
    CountedDegree.hashes = 0
    assert connection_classes(ring).count == 3
    assert is_support_multiplicative(ring) == (True, None)
    assert len(inverse_products(ring)) == 60
    assert CountedDegree.hashes == 0


# -- the certificate check is independent of the packed search ---------------------


def test_verify_certificate_does_not_read_the_packed_forms(monkeypatch):
    """With packed forms that add the coordinates of the two bands, a packed
    sum is a product in a quotient group where the bands meet, so the search
    walks wrong steps and joins the two classes; but ``verify_certificate``
    still accepts a valid certificate and rejects a bad one: it composes
    tuples with the checked law."""
    good = banded_ring(BandedRingParams(3, 2))
    classes = connection_classes(good)
    assert classes.count == 2
    first, second = (block[0] for block in classes.blocks)

    pack = Packing.pack

    def folded(self, a):
        # coordinate 2 i + b is row i of band b
        return pack(self, (a[0] + a[1], 0, a[2] + a[3], 0, a[4] + a[5], 0))

    monkeypatch.setattr(Packing, "pack", folded)
    garbage = banded_ring(BandedRingParams(3, 2))
    assert steps_by_degree(garbage) != steps_by_degree(good)
    for member, path in classes.certificates.items():
        assert verify_certificate(garbage, path), member
    assert not verify_certificate(garbage, ConnectionPath((first,), first, second))
    # the garbage search connects the two classes; the check rejects its path
    searched = connected(garbage, first, second)
    assert searched is not None and not verify_certificate(garbage, searched)
