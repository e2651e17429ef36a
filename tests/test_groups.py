import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import GroupSignature, MalformedInputError


def test_compose_free_rank_two():
    sig = GroupSignature(2)
    assert sig.compose((1, 0), (0, 1)) == (1, 1)


def test_compose_identity_is_neutral():
    sig = GroupSignature(2)
    assert sig.compose((0, 0), (3, -2)) == (3, -2)


def test_compose_torsion_reduces():
    sig = GroupSignature(0, (3,))
    assert sig.compose((2,), (2,)) == (1,)


def test_invert_negates_free_coordinates():
    sig = GroupSignature(2)
    assert sig.invert((1, -2)) == (-1, 2)


def test_invert_identity():
    sig = GroupSignature(2)
    assert sig.invert(sig.identity()) == sig.identity()


def test_invert_torsion():
    sig = GroupSignature(0, (5,))
    assert sig.invert((2,)) == (3,)


def test_identity_shapes():
    assert GroupSignature(2).identity() == (0, 0)
    assert GroupSignature(0, (3,)).identity() == (0,)


def test_length_mismatch_raises():
    sig = GroupSignature(2)
    with pytest.raises(MalformedInputError):
        sig.compose((1,), (0, 0))
    with pytest.raises(MalformedInputError):
        sig.invert((1, 2, 3))


@pytest.mark.parametrize("free_rank, torsion", [(0, (2,)), (0, (2, 3, 4)), (1, (3,)), (2, (2, 5))])
def test_compose_and_invert_match_the_canonicalizing_formula(free_rank, torsion):
    sig = GroupSignature(free_rank, torsion)
    rng = random.Random(free_rank * 100 + len(torsion))
    for _ in range(200):
        # raw exponents, torsion coordinates not yet reduced
        a = tuple(rng.randint(-20, 20) for _ in range(sig.length))
        b = tuple(rng.randint(-20, 20) for _ in range(sig.length))
        ca, cb = sig.element(a), sig.element(b)
        assert sig.compose(a, b) == sig.element(tuple(x + y for x, y in zip(ca, cb)))
        assert sig.invert(a) == sig.element(tuple(-x for x in ca))
        # the unchecked law on canonical elements is the checked one
        assert sig.compose_canonical(ca, cb) == sig.compose(a, b)
        assert sig.invert_canonical(ca) == sig.invert(a)


@pytest.mark.parametrize(
    "bad", [(1,), (1, 2, 3), (1, "2"), (1, 2.0), (1.5, 0), (True, 0), (1, False), 5, None]
)
def test_compose_and_invert_reject_malformed_elements(bad):
    sig = GroupSignature(1, (3,))
    with pytest.raises(MalformedInputError):
        sig.compose(bad, (0, 0))
    with pytest.raises(MalformedInputError):
        sig.compose((0, 0), bad)
    with pytest.raises(MalformedInputError):
        sig.invert(bad)


def test_bool_exponents_are_not_integers():
    # True == 1, but a canonical coordinate is a plain int, as in spec files
    with pytest.raises(MalformedInputError, match="exponent True is not an integer"):
        GroupSignature(1).element((True,))


def test_torsion_must_be_sorted():
    with pytest.raises(MalformedInputError):
        GroupSignature(0, (3, 2))
    with pytest.raises(MalformedInputError):
        GroupSignature(0, (1,))


def test_enumeration_of_finite_groups():
    sig = GroupSignature(0, (2, 3))
    els = sig.elements()
    assert len(els) == 6
    assert els[0] == sig.identity()
    assert sorted(els) == els
    trivial = GroupSignature(0, ())
    assert trivial.elements() == [()]


sigs = st.builds(
    GroupSignature,
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=2, max_value=6), max_size=2).map(
        lambda ms: tuple(sorted(ms))
    ),
)


@st.composite
def sig_and_elements(draw, count):
    sig = draw(sigs)
    els = []
    for _ in range(count):
        exps = [draw(st.integers(min_value=-8, max_value=8)) for _ in range(sig.length)]
        els.append(sig.element(exps))
    return sig, els


@settings(deadline=None)
@given(sig_and_elements(3))
def test_compose_is_associative_and_commutative(data):
    sig, (a, b, c) = data
    assert sig.compose(sig.compose(a, b), c) == sig.compose(a, sig.compose(b, c))
    assert sig.compose(a, b) == sig.compose(b, a)


@settings(deadline=None)
@given(sig_and_elements(2))
def test_invert_is_a_homomorphism(data):
    sig, (a, b) = data
    assert sig.invert(sig.compose(a, b)) == sig.compose(sig.invert(a), sig.invert(b))
    assert sig.invert(sig.invert(a)) == a
    assert sig.compose(a, sig.invert(a)) == sig.identity()


@settings(deadline=None)
@given(sig_and_elements(1))
def test_canonical_form_is_unique(data):
    sig, (a,) = data
    # re-canonicalizing is a no-op and shifted representatives collapse
    assert sig.element(a) == a
    shifted = tuple(
        e + (sig.torsion[i - sig.free_rank] if i >= sig.free_rank else 0)
        for i, e in enumerate(a)
    )
    assert sig.element(shifted) == a
