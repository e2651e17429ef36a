from fractions import Fraction

import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    PreconditionError,
    RandomRingParams,
    annihilator,
    banded_ring,
    connection_classes,
    decompose,
    direct_sum,
    dumps_ring,
    group_algebra,
    is_coherent,
    is_maximal_length,
    is_support_multiplicative,
    is_symmetric_support,
    random_ring,
)
from gradedrings.generators import first_primes

from conftest import trivially_graded_zero_ring


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


# -- banded -----------------------------------------------------------------

def test_banded_small_counts(band2):
    assert band2.dim == 4
    assert len(band2.support()) == 2
    assert band2.identity_component().dim == 2


def test_banded_large_counts():
    ring = banded_ring(BandedRingParams(4, 3))
    assert ring.dim == 48
    assert len(ring.support()) == 36
    assert connection_classes(ring).count == 3


@pytest.mark.parametrize("size,bands", [(1, 1), (2, 2), (3, 1)])
def test_banded_always_validates(size, bands):
    assert banded_ring(BandedRingParams(size, bands)).validate().ok


def test_banded_hypothesis_bundle(band3x2):
    assert is_maximal_length(band3x2)
    assert is_support_multiplicative(band3x2)[0]
    assert is_coherent(band3x2).ok
    assert is_symmetric_support(band3x2)[0]
    assert annihilator(band3x2).dim == 0


def test_banded_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        BandedRingParams(0, 1)
    with pytest.raises(PreconditionError):
        BandedRingParams(2, 1, primes=(2, 2))  # not injective
    with pytest.raises(PreconditionError):
        BandedRingParams(2, 1, primes=(2, 3, 5))  # needs exactly 2
    with pytest.raises(PreconditionError):
        BandedRingParams(2, 1, weights=(Fraction(1, 2),))
    with pytest.raises(PreconditionError):
        BandedRingParams(2, 1, weights=())


def test_banded_weights_become_scaled_grams():
    ring = banded_ring(BandedRingParams(2, 1, weights=(Fraction(1), Fraction(3, 2))))
    assert len(ring.grams) == 2
    assert ring.grams[1].sparse[0][0].re == Fraction(3, 2)
    assert ring.validate().ok


def test_banded_custom_primes_change_the_grading():
    default = banded_ring(BandedRingParams(2, 1))
    custom = banded_ring(BandedRingParams(2, 1, primes=(7, 11)))
    assert default.dim == custom.dim
    assert default.sorted_support() == custom.sorted_support()  # same exponent shape
    assert custom.validate().ok


def test_banded_is_deterministic():
    a = banded_ring(BandedRingParams(3, 2, weights=(Fraction(2),)))
    b = banded_ring(BandedRingParams(3, 2, weights=(Fraction(2),)))
    assert a == b
    assert dumps_ring(a) == dumps_ring(b)


# -- group algebras -------------------------------------------------------------

def test_group_algebra_z2():
    ring = group_algebra(GroupSignature(0, (2,)))
    assert ring.dim == 2
    assert ring.sorted_support() == [(1,)]
    assert connection_classes(ring).count == 1
    assert ring.validate().ok


def test_group_algebra_z3():
    ring = group_algebra(GroupSignature(0, (3,)))
    assert ring.dim == 3
    assert len(ring.support()) == 2
    assert connection_classes(ring).count == 1


def test_group_algebra_trivial_group():
    ring = group_algebra(GroupSignature(0, ()))
    assert ring.dim == 1
    assert ring.support() == frozenset()
    assert ring.validate().ok


def test_group_algebra_rejects_infinite_groups():
    with pytest.raises(PreconditionError):
        group_algebra(GroupSignature(1, ()))


# -- direct sums ------------------------------------------------------------------

def test_direct_sum_validates_and_splits_classes(band2, cyclic3):
    ring = direct_sum(band2, cyclic3)
    assert ring.validate().ok
    assert ring.dim == band2.dim + cyclic3.dim
    assert (
        connection_classes(ring).count
        == connection_classes(band2).count + connection_classes(cyclic3).count
    )


def test_direct_sum_with_zero_ring_is_identity(band2):
    zero = GradedRing(GroupSignature(0, ()), [], {}, [[]])
    assert zero.validate().ok
    assert direct_sum(band2, zero) == band2


def test_direct_sum_annihilators_add(band2):
    padded = direct_sum(band2, trivially_graded_zero_ring(2))
    assert annihilator(padded).dim == annihilator(band2).dim + 2


def test_direct_sum_shared_embedding_rejects_collisions(band2):
    with pytest.raises(PreconditionError):
        direct_sum(band2, band2, embedding="shared")


def test_direct_sum_shared_embedding_with_disjoint_degrees():
    # same signature, nonoverlapping nonidentity degrees
    a = GradedRing(GroupSignature(1), [(1,)], {}, [[{0: "1"}]])
    b = GradedRing(GroupSignature(1), [(2,)], {}, [[{0: "1"}]])
    ring = direct_sum(a, b, embedding="shared")
    assert ring.validate().ok
    assert ring.signature == GroupSignature(1)
    assert ring.sorted_support() == [(1,), (2,)]


def test_direct_sum_unknown_embedding(band2):
    with pytest.raises(PreconditionError):
        direct_sum(band2, band2, embedding="diagonal")


def test_label_collisions_get_renamed(band2):
    ring = direct_sum(band2, band2)
    assert len(set(ring.labels)) == ring.dim


# -- random rings ------------------------------------------------------------------

def test_random_ring_is_reproducible():
    assert dumps_ring(random_ring(42)) == dumps_ring(random_ring(42))
    assert dumps_ring(random_ring(1)) != dumps_ring(random_ring(2))


def test_random_ring_respects_the_budget():
    for seed in range(20):
        ring = random_ring(seed, RandomRingParams(max_dim=12))
        assert 1 <= ring.dim <= 12


@pytest.mark.parametrize("max_dim", [-3, 0, 1])
def test_random_ring_rejects_max_dim_below_two(max_dim):
    with pytest.raises(PreconditionError):
        RandomRingParams(max_dim=max_dim)


def test_random_ring_builds_at_max_dim_two():
    for seed in range(5):
        ring = random_ring(seed, RandomRingParams(max_dim=2))
        assert ring.dim == 2 and ring.validate().ok


def test_random_rings_validate():
    for seed in range(15):
        ring = random_ring(seed)
        assert ring.validate().ok, seed


def test_random_ring_decomposes_cleanly():
    for seed in (3, 7, 19):
        dec = decompose(random_ring(seed))
        assert dec.covers
