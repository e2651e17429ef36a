import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    MalformedInputError,
    Scalar,
    Subspace,
    TheoremViolationError,
    banded_ring,
    connection_classes,
    decompose,
    direct_sum,
    group_algebra,
    is_coherent,
    is_graded_ideal,
    random_ring,
    span,
)
from gradedrings.decomposition import (
    identity_complement,
    identity_products_span,
    inverse_products,
)
from gradedrings.linalg import ONE, ZERO, coordinate_subspace, full_space

from conftest import identity_gram, rebased_units, trivially_graded_zero_ring


# -- class subspaces -----------------------------------------------------------

@pytest.mark.parametrize("size", [2, 3, 4])
def test_identity_span_is_the_diagonal(size):
    ring = banded_ring(BandedRingParams(size, 1))
    (one_span,) = decompose(ring).identity_spans
    assert one_span.dim == size
    diagonal = span(
        [{ring.labels.index(f"a(({n},1),({n},1))"): ONE} for n in range(1, size + 1)],
        ring.dim,
    )
    assert one_span == diagonal


def test_identity_span_lands_in_identity_component(band3x2):
    for one_span in decompose(band3x2).identity_spans:
        assert band3x2.identity_component().contains_subspace(one_span)


def test_identity_span_of_zero_products():
    # two inverse degrees whose product vanishes identically
    sig = GroupSignature(1)
    ring = GradedRing(
        sig, [(0,), (1,), (-1,)], {(0, 0): [(0, ONE)]}, [identity_gram(3)]
    )
    assert ring.validate().ok
    assert [s.dim for s in decompose(ring).identity_spans] == [0]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_component_sum_is_the_off_diagonal(size):
    ring = banded_ring(BandedRingParams(size, 1))
    (comp,) = decompose(ring).component_sums
    assert comp.dim == size * (size - 1)


def test_component_sums_partition_the_support_dimensions(band3x2):
    total = sum(c.dim for c in decompose(band3x2).component_sums)
    expected = sum(band3x2.component(g).dim for g in band3x2.support())
    assert total == expected


@pytest.mark.parametrize("size,bands", [(2, 1), (3, 1), (3, 2)])
def test_class_ideal_dimension(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    assert [ideal.dim for ideal in decompose(ring).ideals] == [size * size] * bands


def test_one_band_ideal_is_everything(band3):
    assert decompose(band3).ideals == (full_space(band3.dim),)


def test_cross_class_products_vanish(band3x2):
    ideals = decompose(band3x2).ideals
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            if a == b:
                continue
            for u in ideals[a].sparse.values():
                for v in ideals[b].sparse.values():
                    assert not band3x2.multiply(u, v)


# -- is_graded_ideal -------------------------------------------------------------

def test_whole_space_and_zero_are_graded_ideals(band2):
    assert is_graded_ideal(band2, full_space(band2.dim))
    assert is_graded_ideal(band2, span([], band2.dim))


@pytest.mark.parametrize("bad", [4, -1])
def test_a_row_outside_the_ring_is_malformed(band2, bad):
    # Subspace checks its rows against its own dimension, which
    # is_graded_ideal checks against the ring's
    with pytest.raises(MalformedInputError, match=rf"vector index {bad} is out of range"):
        is_graded_ideal(band2, Subspace(band2.dim, {bad: {bad: ONE}}))


def test_single_offdiagonal_unit_is_not_an_ideal(band2):
    a12 = band2.labels.index("a((1,1),(2,1))")
    line = span([{a12: ONE}], band2.dim)
    assert not is_graded_ideal(band2, line)


def test_the_pivot_of_a_row_that_is_not_a_unit_vector_is_not_contained():
    # e0 e0 = e0: the line of e0 + e1 is homogeneous, and its only nonzero
    # products, e0, land on its pivot without lying in it
    ring = GradedRing(GroupSignature(0, ()), [(), ()], {(0, 0): [(0, ONE)]}, [identity_gram(2)])
    assert ring.validate().ok
    assert not is_graded_ideal(ring, span([{0: ONE, 1: ONE}], 2))
    assert is_graded_ideal(ring, span([{0: ONE}], 2))


def test_non_graded_subspace_is_rejected(band2):
    # a11 + a12 mixes two degrees and its projections leave the line
    a11 = band2.labels.index("a((1,1),(1,1))")
    a12 = band2.labels.index("a((1,1),(2,1))")
    line = span([{a11: ONE, a12: ONE}], band2.dim)
    assert not is_graded_ideal(band2, line)


def test_an_ideal_that_mixes_degrees_is_not_graded():
    # w and w' multiply with nothing, so the line of w + w' absorbs every
    # product; only its canonical row, of two degrees, shows it is not graded
    ring = GradedRing(
        GroupSignature(1), [(0,), (1,), (-1,)], {(0, 0): [(0, ONE)]}, [identity_gram(3)]
    )
    assert ring.validate().ok
    assert not is_graded_ideal(ring, span([{1: ONE, 2: ONE}], 3))
    assert is_graded_ideal(ring, span([{1: ONE}, {2: ONE}], 3))


def test_every_class_ideal_is_a_graded_subring():
    for seed in range(8):
        ring = random_ring(seed)
        for ideal in decompose(ring).ideals:
            assert is_graded_ideal(ring, ideal)
            for u in ideal.sparse.values():
                for v in ideal.sparse.values():
                    assert ideal.contains(ring.multiply(u, v))


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
    assert u == span([{ring.dim - 1: ONE}], ring.dim)


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
    g1 = [{0: ONE, 1: two}, {0: two, 1: four}, {2: ONE}, {3: ONE}]
    g2 = [{0: four, 1: two}, {0: two, 1: ONE}, {2: ONE}, {3: ONE}]
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
    assert not cross_class_products(ring, dec)


# -- decompose --------------------------------------------------------------------

def cross_class_products(ring, dec):
    """The nonzero products of basis rows of two distinct class ideals,
    every pair multiplied out."""
    return [
        w
        for first, second in permutations(dec.ideals, 2)
        for u in first.sparse.values()
        for v in second.sparse.values()
        if (w := ring.multiply(u, v))
    ]


def test_decompose_two_bands(band3x2):
    dec = decompose(band3x2)
    assert dec.classes.count == 2
    assert [ideal.dim for ideal in dec.ideals] == [9, 9]
    assert dec.complement.dim == 0 and dec.complement_exact
    assert dec.covers and dec.orthogonal_ideals and not cross_class_products(band3x2, dec)
    assert is_coherent(band3x2).ok


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
    first_block = span([{i: ONE} for i in range(4)], 8)
    second_block = span([{i: ONE} for i in range(4, 8)], 8)
    assert set(dec.ideals) == {first_block, second_block}


def test_decompose_covering_on_random_instances():
    for seed in range(8):
        ring = random_ring(seed)
        dec = decompose(ring)
        assert dec.covers and not cross_class_products(ring, dec)
        assert echelon_covers(ring, dec)


# -- the support-reach filters against the dense loops they replaced -------------

def dense_is_graded_ideal(ring, sub):
    """is_graded_ideal as it was before its support filter: every basis row
    times every e_j, over range(dim), on both sides."""
    rows = sub.sparse.values()
    for row in rows:
        for j in range(ring.dim):
            w = ring.multiply_basis_right(row, j)
            if w and not sub.contains(w):
                return False
            w = ring.multiply_basis_left(j, row)
            if w and not sub.contains(w):
                return False
    for row in rows:
        parts = ring.homogeneous_parts(row)
        if len(parts) > 1 and not all(sub.contains(piece) for _, piece in parts):
            return False
    return True


def graded_ideal_candidates(ring, rnd):
    """Class ideals, sums of class ideals, component sums of random degree
    sets, spans of random vectors and planted non-ideals (a class ideal
    missing one basis row, one row plus a stray coordinate)."""
    n = ring.dim
    ideals = decompose(ring).ideals
    out = list(ideals)
    for a in range(len(ideals)):
        for b in range(a + 1, len(ideals)):
            out.append(ideals[a].sum(ideals[b]))
    degrees = ring.attained_degrees()
    for _ in range(4):
        chosen = rnd.sample(degrees, rnd.randint(1, len(degrees)))
        out.append(coordinate_subspace(n, (i for g in chosen for i in ring.indices_of_degree(g))))
    for _ in range(4):
        vectors = [
            {
                i: ONE * rnd.choice((1, -1, 2))
                for i in rnd.sample(range(n), rnd.randint(1, min(3, n)))
            }
            for _ in range(rnd.randint(1, 3))
        ]
        out.append(span(vectors, n))
    for ideal in ideals:
        if ideal.dim > 1:
            rows = list(ideal.sparse.values())
            out.append(span(rows[:-1], n))
            out.append(span(rows[:-1] + [{**rows[-1], rnd.randrange(n): ONE}], n))
    return out


# banded (3, 2) with identity units of the two classes, e_0 and e_9, replaced
# by e_0 + e_9 and e_0 - e_9: each class ideal has a canonical row that is
# not a unit vector, so membership needs an elimination
REBASED_BAND3X2 = rebased_units(banded_ring(BandedRingParams(3, 2)), 0, 9)

GRADED_IDEAL_RINGS = (
    [banded_ring(BandedRingParams(n, r)) for n, r in [(1, 2), (2, 1), (3, 1), (2, 2), (3, 2)]]
    + [banded_ring(BandedRingParams(2, 3))]
    + [group_algebra(GroupSignature(0, t)) for t in [(2,), (3,), (2, 2), (2, 3)]]
    + [random_ring(seed) for seed in range(12)]
    + [REBASED_BAND3X2]
)


@pytest.mark.parametrize("index", range(len(GRADED_IDEAL_RINGS)))
def test_is_graded_ideal_matches_the_dense_loop(index, monkeypatch):
    ring = GRADED_IDEAL_RINGS[index]
    whole = full_space(ring.dim)
    verdicts = []
    for sub in graded_ideal_candidates(ring, random.Random(index)) + [whole]:
        verdict = is_graded_ideal(ring, sub)
        assert verdict == dense_is_graded_ideal(ring, sub)
        verdicts.append(verdict)
    if ring.support():
        assert True in verdicts[:-1] and False in verdicts
    # the whole ring is a graded ideal without a single product
    products = []
    for name in ("multiply_basis_left", "multiply_basis_right"):
        monkeypatch.setattr(GradedRing, name, lambda *args: products.append(args))
    assert is_graded_ideal(ring, whole) and products == []


def test_class_ideals_with_rows_that_are_not_unit_vectors(monkeypatch):
    ring = REBASED_BAND3X2
    assert ring.validate().ok and is_coherent(ring).ok
    dec = decompose(ring)
    assert dec.covers and dec.orthogonal_ideals and len(dec.ideals) == 2
    for ideal in dec.ideals:
        assert [len(row) for row in ideal.sparse.values() if len(row) > 1] == [2]
    # the products that land off the unit rows are eliminated
    calls = []
    contains = Subspace.contains
    monkeypatch.setattr(Subspace, "contains", lambda sub, w: calls.append(w) or contains(sub, w))
    assert all(is_graded_ideal(ring, ideal) for ideal in dec.ideals)
    assert calls and all({0, 9} & w.keys() for w in calls)


# upper triangular 2 x 2 matrices: e_0 = E11, e_1 = E12 of degree 1, e_2 = E22
TRIANGULAR = GradedRing(
    GroupSignature(1),
    [(0,), (1,), (0,)],
    {(0, 0): [(0, ONE)], (0, 1): [(1, ONE)], (1, 2): [(1, ONE)], (2, 2): [(2, ONE)]},
    [identity_gram(3)],
)


@pytest.mark.parametrize(
    "ring", [TRIANGULAR, direct_sum(banded_ring(BandedRingParams(2, 1)), TRIANGULAR)]
)
def test_unit_rows_are_multiplied_on_both_sides(ring):
    """The products of a unit row {p: 1} are read from the keys (p, j) and
    (j, p): e_0 e_1 = e_1 is the only product that leaves span{e_0}, and
    e_1 e_2 = e_1 the only one that leaves span{e_2}, so a check that reads
    one side only accepts one of them."""
    assert ring.validate().ok
    shift = ring.dim - 3
    e0, e1, e2 = shift, shift + 1, shift + 2
    leaving = {}
    for p in (e0, e2):
        leaving[p] = [key for key, terms in ring.structure.items()
                      if p in key and any(k != p for k, _ in terms)]
    assert leaving == {e0: [(e0, e1)], e2: [(e1, e2)]}
    verdicts = []
    for size in range(ring.dim + 1):
        for indices in combinations(range(ring.dim), size):
            sub = coordinate_subspace(ring.dim, indices)
            verdict = is_graded_ideal(ring, sub)
            assert verdict == dense_is_graded_ideal(ring, sub), indices
            verdicts.append((indices, verdict))
    verdicts = dict(verdicts)
    assert not verdicts[(e0,)] and not verdicts[(e2,)] and verdicts[(e1,)]
    assert verdicts[(e0, e1)] and verdicts[(e1, e2)]


# Z-graded: e_1, e_2 of degree 1 square to e_0 + e_3, of degree 2; every
# other product is zero
SQUARES = GradedRing(
    GroupSignature(1),
    [(2,), (1,), (1,), (2,)],
    {(1, 1): [(0, ONE), (3, ONE)], (2, 2): [(0, ONE), (3, ONE)]},
    [identity_gram(4)],
)


def test_a_row_whose_key_targets_are_unit_pivots_needs_no_product(monkeypatch):
    """span{e_0, e_1 + e_2, e_3}: the keys of the row e_1 + e_2 lead only
    to e_0 and e_3, both unit pivots, so the row passes without a product."""
    assert SQUARES.validate().ok
    sub = span([{0: ONE}, {1: ONE, 2: ONE}, {3: ONE}], 4)
    assert sorted(len(row) for row in sub.sparse.values()) == [1, 1, 2]
    assert dense_is_graded_ideal(SQUARES, sub)
    products = []
    for name in ("multiply_basis_left", "multiply_basis_right"):
        monkeypatch.setattr(GradedRing, name, lambda *args: products.append(args))
    assert is_graded_ideal(SQUARES, sub) and products == []


@pytest.mark.parametrize("sign, verdict", [(ONE, True), (-ONE, False)])
def test_a_row_whose_key_targets_leave_the_unit_pivots_is_multiplied(sign, verdict, monkeypatch):
    """span{e_1 + e_2, e_0 + sign e_3} has no unit pivot, so each product of
    e_1 + e_2 is eliminated; they are all e_0 + e_3, which is in the span
    only for sign 1."""
    sub = span([{1: ONE, 2: ONE}, {0: ONE, 3: sign}], 4)
    assert all(len(row) == 2 for row in sub.sparse.values())
    assert dense_is_graded_ideal(SQUARES, sub) == verdict
    calls = []
    contains = Subspace.contains
    monkeypatch.setattr(Subspace, "contains", lambda sub, w: calls.append(w) or contains(sub, w))
    assert is_graded_ideal(SQUARES, sub) == verdict
    assert calls and all(w == {0: ONE, 3: ONE} for w in calls)


def echelon_covers(ring, dec):
    """Whether the complement and the class ideals span the ring, by
    extending one echelon basis with all their rows up to full rank."""
    eb = dec.complement.basis()
    for ideal in dec.ideals:
        eb.extend(ideal.sparse.values())
    return eb.dim == ring.dim


COVERING_RINGS = (
    GRADED_IDEAL_RINGS
    + [random_ring(seed) for seed in range(12, 40)]
    + [inexact_complement_ring()]
)


@pytest.mark.parametrize("index", range(len(COVERING_RINGS)))
def test_covering_is_read_from_the_exact_complement(index):
    """On a graded ring the class ideals hold every component of
    non-identity degree, so they cover together with the complement exactly
    when the complement is exact; decompose reads ``covers`` from that."""
    ring = COVERING_RINGS[index]
    assert ring.validate().ok
    dec = decompose(ring)
    exact = identity_complement(ring)[1]
    assert echelon_covers(ring, dec) == dec.covers == dec.complement_exact == exact
    if ring is COVERING_RINGS[-1]:
        assert not exact
    else:
        assert exact


# -- work the answers do not need -------------------------------------------------

def test_decomposition_does_no_arithmetic_its_answers_do_not_need(monkeypatch):
    """Counts, not seconds: on banded (5, 3) with two Grams, inverse_products
    made a product_span, and so a multiply, for each of the 60 support
    elements; it now reads each P_g from the structure keys.  The three
    class-ideal checks made 750 Subspace.contains eliminations, though
    every product they test lands on coordinates whose unit vectors are
    canonical rows of the ideal."""
    ring = banded_ring(BandedRingParams(5, 3, weights=(Fraction(1), Fraction(2))))
    connection_classes(ring)
    counts = {"multiply": 0, "product_span": 0, "contains": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("multiply", "product_span"):
        monkeypatch.setattr(GradedRing, name, counted(getattr(GradedRing, name), name))
    monkeypatch.setattr(Subspace, "contains", counted(Subspace.contains, "contains"))
    assert len(inverse_products(ring)) == 60
    assert counts["multiply"] == counts["product_span"] == 0
    ideals = decompose(ring).ideals
    counts["contains"] = 0
    assert len(ideals) == 3 and all(is_graded_ideal(ring, ideal) for ideal in ideals)
    assert counts["contains"] == 0


# a grading with components of dimension 1 to 3 in a group with torsion;
# no products are needed to test the canonical rows
SEVEN_BY_DEGREE = GradedRing(
    GroupSignature(1, (2,)),
    [(0, 0), (1, 0), (0, 1), (1, 0), (-1, 1), (0, 0), (1, 0)],
    {},
    [identity_gram(7)],
)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_a_span_of_homogeneous_vectors_has_homogeneous_canonical_rows(data):
    ring = SEVEN_BY_DEGREE
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vectors = []
    for _ in range(data.draw(st.integers(0, 6))):
        g = data.draw(st.sampled_from(ring.attained_degrees()))
        vector = {i: Scalar(data.draw(coefficient)) for i in ring.indices_of_degree(g)}
        vectors.append({i: x for i, x in vector.items() if x})
    sub = span(vectors, ring.dim)
    for row in sub.sparse.values():
        assert len({ring.degrees[i] for i in row}) == 1
    # and the rows of each degree span the homogeneous vectors of that degree
    for g in ring.attained_degrees():
        rows = [row for row in sub.sparse.values() if ring.degrees[min(row)] == g]
        chosen = [v for v in vectors if v and ring.degrees[min(v)] == g]
        assert span(rows, ring.dim) == span(chosen, ring.dim)


def planted_decompose_cases():
    """Unvalidated rings with one defect across connection classes: a
    structure constant e_i e_j = c e_k with i and j in different class
    ideals, or a Gram entry coupling two class ideals (kept Hermitian, so
    the identity complement still runs)."""
    bases = [
        ("band2x2", banded_ring(BandedRingParams(2, 2))),
        ("band3x2", banded_ring(BandedRingParams(3, 2))),
        ("band2x3", banded_ring(BandedRingParams(2, 3))),
    ] + [(f"random{seed}", random_ring(seed)) for seed in (0, 1, 5, 11, 13, 19)]
    coefficients = [ONE, Scalar(Fraction(-1, 2)), Scalar(0, 1)]
    cases = []
    for name, base in bases:
        rnd = random.Random(name)
        blocks = connection_classes(base).blocks
        ones = list(base.indices_of_degree(base.identity_degree()))
        members = [[i for g in block for i in base.indices_of_degree(g)] for block in blocks]
        for t in range(6):
            a, b = rnd.sample(range(len(blocks)), 2)
            i, j = rnd.choice(members[a] + ones), rnd.choice(members[b])
            if (i, j) in base.structure:
                continue
            structure = dict(base.structure)
            structure[(i, j)] = [(rnd.randrange(base.dim), rnd.choice(coefficients))]
            ring = GradedRing(base.signature, base.degrees, structure, base.grams, base.labels)
            cases.append((f"{name}-structure{t}", ring))
        for t in range(4):
            a, b = rnd.sample(range(len(blocks)), 2)
            x, y = rnd.choice(members[a] + ones), rnd.choice(members[b])
            c = rnd.choice(coefficients)
            rows = [dict(row) for row in base.grams[0].sparse]
            rows[x][y], rows[y][x] = c, c.conjugate()
            grams = [rows] + list(base.grams[1:])
            ring = GradedRing(base.signature, base.degrees, base.structure, grams, base.labels)
            cases.append((f"{name}-gram{t}", ring))
    # two classes whose identity spans share the line of u: the planted
    # e_w1 e_w2 = u keeps both class ideals ideals, so only their product
    # is nonzero
    sig = GroupSignature(2)
    degrees = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]  # u, w1, w1', w2, w2'
    structure = {(1, 2): [(0, ONE)], (2, 1): [(0, ONE)], (3, 4): [(0, ONE)], (4, 3): [(0, ONE)]}
    planted = {**structure, (1, 3): [(0, ONE)]}
    cases.append(("overlap-structure", GradedRing(sig, degrees, planted, [identity_gram(5)])))
    return cases


def decompose_outcome(ring):
    try:
        dec = decompose(ring)
    except TheoremViolationError as exc:
        return (type(exc).__name__, str(exc))
    return (dec.covers, dec.orthogonal_ideals, is_coherent(ring).ok, dec.complement_exact)


PLANTED_DECOMPOSE_CASES = planted_decompose_cases()

# decompose on each planted case, recorded with the quadratic ideal-pair,
# pairing and coherence loops that the support-reach filters replaced
RECORDED_DECOMPOSE_OUTCOMES = {
    'band2x2-structure0': ('TheoremViolationError', 'class ideal of [(-1, 0, 1, 0), (1, 0, -1, 0)] failed the graded-ideal check'),
    'band2x2-structure1': ('TheoremViolationError', 'class ideal of [(0, -1, 0, 1), (0, 1, 0, -1)] failed the graded-ideal check'),
    'band2x2-structure3': ('TheoremViolationError', 'class ideal of [(-1, 0, 1, 0), (1, 0, -1, 0)] failed the graded-ideal check'),
    'band2x2-structure4': ('TheoremViolationError', 'class ideal of [(0, -1, 0, 1), (0, 1, 0, -1)] failed the graded-ideal check'),
    'band2x2-structure5': ('TheoremViolationError', 'class ideal of [(-1, 0, 1, 0), (1, 0, -1, 0)] failed the graded-ideal check'),
    'band2x2-gram0': (True, True, True, True),
    'band2x2-gram1': (True, True, True, True),
    'band2x2-gram2': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'band2x2-gram3': (True, True, True, True),
    'band3x2-structure0': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 0, 1, 0), (-1, 0, 1, 0, 0, 0), (0, 0, -1, 0, 1, 0), (0, 0, 1, 0, -1, 0), (1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'band3x2-structure1': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 0, 1, 0), (-1, 0, 1, 0, 0, 0), (0, 0, -1, 0, 1, 0), (0, 0, 1, 0, -1, 0), (1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'band3x2-structure2': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 0, 1, 0), (-1, 0, 1, 0, 0, 0), (0, 0, -1, 0, 1, 0), (0, 0, 1, 0, -1, 0), (1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'band3x2-structure3': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 0, 1, 0), (-1, 0, 1, 0, 0, 0), (0, 0, -1, 0, 1, 0), (0, 0, 1, 0, -1, 0), (1, 0, -1, 0, 0, 0), (1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'band3x2-structure5': ('TheoremViolationError', 'class ideal of [(0, -1, 0, 0, 0, 1), (0, -1, 0, 1, 0, 0), (0, 0, 0, -1, 0, 1), (0, 0, 0, 1, 0, -1), (0, 1, 0, -1, 0, 0), (0, 1, 0, 0, 0, -1)] failed the graded-ideal check'),
    'band3x2-gram0': (True, True, True, True),
    'band3x2-gram1': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'band3x2-gram2': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'band3x2-gram3': (True, True, True, True),
    'band2x3-structure1': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 0, 0, 1), (0, 0, 1, 0, 0, -1)] failed the graded-ideal check'),
    'band2x3-structure2': ('TheoremViolationError', 'class ideal of [(0, -1, 0, 0, 1, 0), (0, 1, 0, 0, -1, 0)] failed the graded-ideal check'),
    'band2x3-structure3': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 1, 0, 0), (1, 0, 0, -1, 0, 0)] failed the graded-ideal check'),
    'band2x3-structure4': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 0, 0, 1), (0, 0, 1, 0, 0, -1)] failed the graded-ideal check'),
    'band2x3-structure5': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 1, 0, 0), (1, 0, 0, -1, 0, 0)] failed the graded-ideal check'),
    'band2x3-gram0': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'band2x3-gram1': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'band2x3-gram2': (True, True, True, True),
    'band2x3-gram3': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random0-structure0': (True, True, False, True),
    'random0-structure1': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 1)] failed the graded-ideal check'),
    'random0-structure2': (True, True, True, True),
    'random0-structure3': (True, True, True, True),
    'random0-structure4': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 1, 0), (-1, 0, 1, 0, 0), (-1, 1, 0, 0, 0), (0, -1, 0, 1, 0), (0, -1, 1, 0, 0), (0, 0, -1, 1, 0), (0, 0, 1, -1, 0), (0, 1, -1, 0, 0), (0, 1, 0, -1, 0), (1, -1, 0, 0, 0), (1, 0, -1, 0, 0), (1, 0, 0, -1, 0)] failed the graded-ideal check'),
    'random0-structure5': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 1)] failed the graded-ideal check'),
    'random0-gram0': (True, True, True, True),
    'random0-gram1': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random0-gram2': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random0-gram3': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random1-structure0': ('TheoremViolationError', 'class ideal of [(0, -1, 0, 1, 0, 0), (0, 1, 0, -1, 0, 0)] failed the graded-ideal check'),
    'random1-structure1': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 0, 1, 0), (1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'random1-structure2': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 0, 0, 1), (0, 0, 1, 0, 0, -1)] failed the graded-ideal check'),
    'random1-structure3': ('TheoremViolationError', 'class ideal of [(0, -1, 0, 1, 0, 0), (0, 1, 0, -1, 0, 0)] failed the graded-ideal check'),
    'random1-structure4': ('TheoremViolationError', 'class ideal of [(-1, 0, 0, 0, 1, 0), (1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'random1-structure5': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 0, 0, 1), (0, 0, 1, 0, 0, -1)] failed the graded-ideal check'),
    'random1-gram0': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random1-gram1': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random1-gram2': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random1-gram3': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random5-structure0': ('TheoremViolationError', 'class ideal of [(-1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0)] failed the graded-ideal check'),
    'random5-structure1': ('TheoremViolationError', 'class ideal of [(-1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0)] failed the graded-ideal check'),
    'random5-structure2': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1), (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, -1)] failed the graded-ideal check'),
    'random5-structure3': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0)] failed the graded-ideal check'),
    'random5-structure4': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -1, 0)] failed the graded-ideal check'),
    'random5-structure5': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0)] failed the graded-ideal check'),
    'random5-gram0': (True, True, False, True),
    'random5-gram1': (True, False, False, True),
    'random5-gram2': (True, True, False, True),
    'random5-gram3': (True, True, False, True),
    'random11-structure1': ('TheoremViolationError', 'class ideal of [(-1, 1, 0), (1, -1, 0)] failed the graded-ideal check'),
    'random11-structure2': ('TheoremViolationError', 'class ideal of [(-1, 1, 0), (1, -1, 0)] failed the graded-ideal check'),
    'random11-structure3': ('TheoremViolationError', 'class ideal of [(-1, 1, 0), (1, -1, 0)] failed the graded-ideal check'),
    'random11-structure4': ('TheoremViolationError', 'class ideal of [(-1, 1, 0), (1, -1, 0)] failed the graded-ideal check'),
    'random11-structure5': ('TheoremViolationError', 'class ideal of [(-1, 1, 0), (1, -1, 0)] failed the graded-ideal check'),
    'random11-gram0': (True, True, True, True),
    'random11-gram1': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random11-gram2': (True, True, True, True),
    'random11-gram3': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random13-structure0': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 1), (0, 0, 1, -1)] failed the graded-ideal check'),
    'random13-structure1': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 1), (0, 0, 1, -1)] failed the graded-ideal check'),
    'random13-structure3': ('TheoremViolationError', 'class ideal of [(0, 0, -1, 1), (0, 0, 1, -1)] failed the graded-ideal check'),
    'random13-structure4': ('TheoremViolationError', 'class ideal of [(-1, 1, 0, 0), (1, -1, 0, 0)] failed the graded-ideal check'),
    'random13-gram0': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random13-gram1': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random13-gram2': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random13-gram3': ('TheoremViolationError', 'identity component is coherent but the class ideals are not orthogonal'),
    'random19-structure0': ('TheoremViolationError', 'class ideal of [(0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0)] failed the graded-ideal check'),
    'random19-structure1': ('TheoremViolationError', 'class ideal of [(0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0)] failed the graded-ideal check'),
    'random19-structure2': (True, True, False, True),
    'random19-structure3': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0)] failed the graded-ideal check'),
    'random19-structure4': ('TheoremViolationError', 'class ideal of [(0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0)] failed the graded-ideal check'),
    'random19-structure5': ('TheoremViolationError', 'class ideal of [(0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0)] failed the graded-ideal check'),
    'random19-gram0': (True, True, False, True),
    'random19-gram1': (True, False, False, True),
    'random19-gram2': (True, True, False, True),
    'random19-gram3': (True, False, False, True),
    'overlap-structure': ('TheoremViolationError', 'ideals of distinct classes do not annihilate'),
}


@pytest.mark.parametrize(
    "name, ring", PLANTED_DECOMPOSE_CASES, ids=[n for n, _ in PLANTED_DECOMPOSE_CASES]
)
def test_planted_cross_class_defects_decompose_as_recorded(name, ring):
    assert decompose_outcome(ring) == RECORDED_DECOMPOSE_OUTCOMES[name]


def test_planted_cases_reach_every_outcome():
    outcomes = RECORDED_DECOMPOSE_OUTCOMES.values()
    messages = {o[1] for o in outcomes if o[0] == "TheoremViolationError"}
    assert "ideals of distinct classes do not annihilate" in messages
    assert "identity component is coherent but the class ideals are not orthogonal" in messages
    assert any(m.endswith("failed the graded-ideal check") for m in messages)
    assert (True, False, False, True) in outcomes  # not orthogonal, not coherent
    assert len(RECORDED_DECOMPOSE_OUTCOMES) == len(PLANTED_DECOMPOSE_CASES)


def test_decompose_checks_each_degree_once(monkeypatch):
    """Counts, not seconds: on banded (5, 3) the connection search composed
    degrees through the checking GroupSignature.compose, 3,600 compose and
    7,560 element calls.  The degree table checks each attained degree once
    and the search uses the unchecked law."""
    ring = banded_ring(BandedRingParams(5, 3, weights=(Fraction(1), Fraction(2))))
    counts = {"element": 0, "compose": 0}
    for name in counts:
        fn = getattr(GroupSignature, name)

        def counted(self, *args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(GroupSignature, name, counted)
    assert decompose(ring).covers
    assert 0 < counts["element"] <= len(ring.attained_degrees()) == 61
    assert counts["compose"] == 0


def test_decompose_work_is_sized_to_its_answer(monkeypatch):
    """Counts, not seconds: on banded (5, 3) with two Grams the quadratic
    loops made 11,430 pairings and 18,660 ring products; the answer needs
    a few hundred.  A loop that visits every pair again fails here."""
    import importlib
    import pkgutil

    import gradedrings
    from gradedrings import linalg, properties

    counts = {"pairing": 0, "products": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [gradedrings] + [
        importlib.import_module(f"gradedrings.{info.name}")
        for info in pkgutil.iter_modules(gradedrings.__path__)
        if info.name != "__main__"
    ]
    original = linalg.pairing
    pairing = counted(original, "pairing")
    for module in modules:
        if vars(module).get("pairing") is original:
            monkeypatch.setattr(module, "pairing", pairing)
    assert linalg.pairing is pairing and properties.pairing is pairing
    for name in ("multiply", "multiply_basis_left", "multiply_basis_right"):
        monkeypatch.setattr(GradedRing, name, counted(getattr(GradedRing, name), "products"))

    ring = banded_ring(BandedRingParams(5, 3, weights=(Fraction(1), Fraction(2))))
    dec = decompose(ring)
    assert dec.covers and dec.orthogonal_ideals and is_coherent(ring).ok
    assert 0 < counts["pairing"] <= 11430 // 10
    assert 0 < counts["products"] <= 18660 // 10
