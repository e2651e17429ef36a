import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    PreconditionError,
    Subspace,
    banded_ring,
    class_component_sum,
    class_ideal,
    class_identity_span,
    connection_classes,
    decompose,
    direct_sum,
    full_space,
    identity_complement,
    identity_products_span,
    is_graded_ideal,
    random_ring,
    span,
    unit_vector,
)
from gradedrings.linalg import ONE, ZERO

from conftest import identity_gram, trivially_graded_zero_ring


def the_block(ring, which=0):
    return connection_classes(ring).blocks[which]


# -- class subspaces -----------------------------------------------------------

@pytest.mark.parametrize("size", [2, 3, 4])
def test_identity_span_is_the_diagonal(size):
    ring = banded_ring(BandedRingParams(size, 1))
    block = the_block(ring)
    one_span = class_identity_span(ring, block)
    assert one_span.dim == size
    diagonal = span(
        [unit_vector(ring.dim, ring.labels.index(f"a(({n},1),({n},1))")) for n in range(1, size + 1)],
        ring.dim,
    )
    assert one_span == diagonal


def test_identity_span_lands_in_identity_component(band3x2):
    for block in connection_classes(band3x2).blocks:
        one_span = class_identity_span(band3x2, block)
        assert band3x2.identity_component().contains_subspace(one_span)


def test_identity_span_of_zero_products():
    # two inverse degrees whose product vanishes identically
    sig = GroupSignature(1)
    ring = GradedRing(
        sig, [(0,), (1,), (-1,)], {(0, 0): [(0, ONE)]}, [identity_gram(3)]
    )
    assert ring.validate().ok
    block = the_block(ring)
    assert class_identity_span(ring, block).dim == 0


@pytest.mark.parametrize("size", [2, 3, 4])
def test_component_sum_is_the_off_diagonal(size):
    ring = banded_ring(BandedRingParams(size, 1))
    comp = class_component_sum(ring, the_block(ring))
    assert comp.dim == size * (size - 1)


def test_component_sums_partition_the_support_dimensions(band3x2):
    blocks = connection_classes(band3x2).blocks
    total = sum(class_component_sum(band3x2, b).dim for b in blocks)
    expected = sum(band3x2.component(g).dim for g in band3x2.support())
    assert total == expected


@pytest.mark.parametrize("size,bands", [(2, 1), (3, 1), (3, 2)])
def test_class_ideal_dimension(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    for block in connection_classes(ring).blocks:
        assert class_ideal(ring, block).dim == size * size


def test_one_band_ideal_is_everything(band3):
    block = the_block(band3)
    assert class_ideal(band3, block) == full_space(band3.dim)


def test_cross_class_products_vanish(band3x2):
    blocks = connection_classes(band3x2).blocks
    ideals = [class_ideal(band3x2, b) for b in blocks]
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            if a == b:
                continue
            for u in ideals[a].rows:
                for v in ideals[b].rows:
                    assert not any(band3x2.multiply(u, v))


def test_class_functions_reject_non_blocks(band3x2):
    support = band3x2.sorted_support()
    outside = (9, 9, 9, 9, 9, 9)  # not in the support
    not_blocks = [
        (support[0],),  # a strict subset of its class
        (),  # a connection class is never empty
        (outside,),
        the_block(band3x2) + (outside,),
    ]
    for fn in (class_identity_span, class_component_sum, class_ideal):
        for not_a_block in not_blocks:
            with pytest.raises(PreconditionError):
                fn(band3x2, not_a_block)


# -- is_graded_ideal -------------------------------------------------------------

def test_whole_space_and_zero_are_graded_ideals(band2):
    assert is_graded_ideal(band2, full_space(band2.dim))
    assert is_graded_ideal(band2, Subspace.zero(band2.dim))


def test_single_offdiagonal_unit_is_not_an_ideal(band2):
    a12 = band2.labels.index("a((1,1),(2,1))")
    line = span([unit_vector(band2.dim, a12)], band2.dim)
    assert not is_graded_ideal(band2, line)


def test_non_graded_subspace_is_rejected(band2):
    # a11 + a12 mixes two degrees and its projections leave the line
    a11 = band2.labels.index("a((1,1),(1,1))")
    a12 = band2.labels.index("a((1,1),(2,1))")
    v = [ZERO] * band2.dim
    v[a11] = ONE
    v[a12] = ONE
    line = span([v], band2.dim)
    assert not is_graded_ideal(band2, line)


def test_every_class_ideal_is_a_graded_subring():
    for seed in range(8):
        ring = random_ring(seed)
        for block in connection_classes(ring).blocks:
            ideal = class_ideal(ring, block)
            assert is_graded_ideal(ring, ideal)
            eb = ideal.basis()
            for u in ideal.rows:
                for v in ideal.rows:
                    assert eb.contains(ring.multiply(u, v))


# -- identity complement ----------------------------------------------------------

def test_coherent_ring_has_zero_complement(band3):
    u, exact = identity_complement(band3)
    assert u.dim == 0 and exact


def test_empty_support_complement_is_identity_component():
    ring = banded_ring(BandedRingParams(1, 2))  # two diagonal units, no support
    u, exact = identity_complement(ring)
    assert exact
    assert u == ring.identity_component()
    assert u.dim == 2


def test_extra_annihilating_line_becomes_the_complement(band2):
    ring = direct_sum(band2, trivially_graded_zero_ring(1))
    assert ring.validate().ok
    u, exact = identity_complement(ring)
    sstar = identity_products_span(ring)
    assert exact
    assert u.dim == ring.identity_component().dim - sstar.dim == 1
    assert u == span([unit_vector(ring.dim, ring.dim - 1)], ring.dim)


def inexact_complement_ring():
    """Two inverse support lines whose product span is a line of a plane
    identity component, with two rank-one Grams whose joint complement
    inside the identity component is zero.

    Worked out by hand: with Grams [[1,2],[2,4]] and [[4,2],[2,1]] on the
    identity block, a vector (x, y) orthogonal to the product line must
    satisfy x + 2y = 0 and 2x + y = 0, so only zero qualifies and the
    complement cannot fill the identity component.
    """
    sig = GroupSignature(1)
    degrees = [(0,), (0,), (1,), (-1,)]  # u, z, w, w'
    structure = {(2, 3): [(0, ONE)], (3, 2): [(0, ONE)]}
    two, four = ZERO + 2, ZERO + 4
    g1 = [
        [ONE, two, ZERO, ZERO],
        [two, four, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, ONE],
    ]
    g2 = [
        [four, two, ZERO, ZERO],
        [two, ONE, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, ONE],
    ]
    return GradedRing(sig, degrees, structure, [g1, g2], ["u", "z", "w", "w'"])


def test_degenerate_grams_make_the_complement_inexact():
    ring = inexact_complement_ring()
    assert ring.validate().ok
    u, exact = identity_complement(ring)
    assert u.dim == 0
    assert not exact


def test_decompose_reports_honestly_when_complement_inexact():
    ring = inexact_complement_ring()
    dec = decompose(ring)  # must not raise: the covering hypothesis fails
    assert not dec.complement_exact
    assert not dec.covers
    assert dec.pairwise_zero


# -- decompose --------------------------------------------------------------------

def test_decompose_two_bands(band3x2):
    dec = decompose(band3x2)
    assert dec.classes.count == 2
    assert [ideal.dim for ideal in dec.ideals] == [9, 9]
    assert dec.complement.dim == 0 and dec.complement_exact
    assert dec.covers and dec.pairwise_zero and dec.orthogonal_ideals
    assert dec.coherent


def test_decompose_empty_support():
    ring = banded_ring(BandedRingParams(1, 3))
    dec = decompose(ring)
    assert dec.classes.count == 0
    assert dec.ideals == ()
    assert dec.complement == ring.identity_component()
    assert dec.covers


def test_decompose_direct_sum_of_disjoint_bands(band2):
    other = banded_ring(BandedRingParams(2, 1))
    ring = direct_sum(band2, other)
    dec = decompose(ring)
    assert dec.classes.count == 2
    assert [ideal.dim for ideal in dec.ideals] == [4, 4]
    # each ideal is one summand's coordinate block
    first_block = span([unit_vector(8, i) for i in range(4)], 8)
    second_block = span([unit_vector(8, i) for i in range(4, 8)], 8)
    assert set(dec.ideals) == {first_block, second_block}


def test_decompose_covering_on_random_instances():
    for seed in range(8):
        ring = random_ring(seed)
        dec = decompose(ring)
        assert dec.covers and dec.pairwise_zero
        total = dec.complement.basis()
        for ideal in dec.ideals:
            total.extend(ideal.rows)
        assert total.dim == ring.dim
