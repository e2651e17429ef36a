import random
from fractions import Fraction

import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    RandomRingParams,
    MalformedInputError,
    Scalar,
    annihilator,
    banded_ring,
    connection_classes,
    decompose,
    direct_sum,
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
)
from gradedrings import linalg, properties
from gradedrings import ring as ring_module
from gradedrings.decomposition import identity_products_span
from gradedrings.linalg import ONE, ZERO, EchelonBasis, add_scaled, full_space, nullspace, pairing

from conftest import (
    densify,
    identity_gram,
    reference_support_multiplicative,
    sparse,
    trivially_graded_zero_ring,
)


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


def test_cancelling_structure_terms_break_multiplicativity():
    # e0 e1 = e1 - e1 = 0, so E_0 E_(1) and E_(1) E_0 both vanish
    sig = GroupSignature(1)
    ring = GradedRing(
        sig,
        [(0,), (1,), (-1,)],
        {(0, 1): [(1, 1), (1, -1)], (0, 2): [(2, 1)]},
        [identity_gram(3)],
    )
    assert is_support_multiplicative(ring) == (False, ((1,), (0,)))


def test_product_that_cancels_is_identically_zero():
    sig = GroupSignature(0, ())
    ring = GradedRing(sig, [(), ()], {(0, 1): [(1, "2"), (1, "-2")]}, [identity_gram(2)])
    assert not theorem_hypotheses(ring)["nonzero_product"]
    oracle = graded_simple_oracle(ring)
    assert oracle.verdict is False
    assert oracle.reason == "the product is identically zero"


def zeroed_product_ring(index):
    """banded (3, 1), 27 structure keys, with the index-th key deleted."""
    base = banded_ring(BandedRingParams(3, 1))
    key = sorted(base.structure)[index]
    structure = {k: list(v) for k, v in base.structure.items() if k != key}
    return GradedRing(base.signature, base.degrees, structure, base.grams, base.labels)


MULTIPLICATIVITY_CASES = (
    [(f"banded-{n}-{r}", lambda n=n, r=r: banded_ring(BandedRingParams(n, r)))
     for n in range(1, 5) for r in range(1, 4)]
    + [(f"group-{'x'.join(map(str, t))}", lambda t=t: group_algebra(GroupSignature(0, t)))
       for t in [(2,), (3,), (5,), (2, 2), (2, 3), (3, 3)]]
    + [(f"random-{seed}", lambda seed=seed: random_ring(seed, RandomRingParams(max_dim=24)))
       for seed in range(40)]
    + [("lonely-unit", lambda: GradedRing(GroupSignature(2), [(-1, 1)], {}, [identity_gram(1)])),
       ("lonely-unit-with-one", lambda: GradedRing(
           GroupSignature(2), [(0, 0), (-1, 1)], {(0, 1): [(1, 1)]}, [identity_gram(2)]))]
    + [(f"zeroed-{idx}", lambda idx=idx: zeroed_product_ring(idx)) for idx in range(27)]
    # degrees 0, 1, 2 of Z: with no product, (1, 0) fails before (1, 1);
    # with a b = b, a c = c and b b = c, only the support partners of 2 count
    + [("line-no-products", lambda: GradedRing(
        GroupSignature(1), [(0,), (1,), (2,)], {}, [identity_gram(3)])),
       ("line-asymmetric", lambda: GradedRing(
           GroupSignature(1), [(0,), (1,), (2,)],
           {(0, 1): [(1, 1)], (0, 2): [(2, 1)], (1, 1): [(2, 1)]}, [identity_gram(3)]))]
)


@pytest.mark.parametrize(
    "make", [m for _, m in MULTIPLICATIVITY_CASES], ids=[i for i, _ in MULTIPLICATIVITY_CASES]
)
def test_support_multiplicative_matches_reference(make):
    ring = make()
    assert is_support_multiplicative(ring) == reference_support_multiplicative(ring)


def test_zeroed_product_cases_include_failures():
    outcomes = [reference_support_multiplicative(zeroed_product_ring(idx)) for idx in range(27)]
    assert any(ok for ok, _ in outcomes) and not all(ok for ok, _ in outcomes)


def test_properties_work_is_sized_to_its_answer(monkeypatch):
    """Counts, not seconds: on banded (5, 3) with two Grams the connection
    search and the multiplicativity check each composed the 60-element
    symmetrized support with itself (7,260 compositions), and the oracle's
    closures multiplied every queued vector by every basis element on both
    sides (3,750 products).  The support steps are composed once per ring,
    once per unordered pair (1,830 compositions; 3,600 when each ordered
    pair was composed); since the degrees are packed, they compose as ints
    and no tuple is composed.  The closures multiply only by the basis
    elements that can give a nonzero product."""
    ring = banded_ring(BandedRingParams(5, 3, weights=(Fraction(1), Fraction(2))))
    counts = {"compose": 0, "products": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        GroupSignature, "compose_canonical", counted(GroupSignature.compose_canonical, "compose")
    )
    for name in ("multiply_basis_left", "multiply_basis_right"):
        monkeypatch.setattr(GradedRing, name, counted(getattr(GradedRing, name), "products"))
    report = properties_report(ring)
    assert report.simple_by_theorem is False and report.oracle.verdict is False
    assert counts["compose"] == 0
    assert 0 < counts["products"] <= 3750 // 10


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
    assert ann.contains({ring.dim - 1: ONE})


def old_annihilator_rows(ring):
    """The constraint rows as annihilator built them by accumulation."""
    rows = {}
    for (i, j), entries in ring.structure.items():
        for k, c in entries:
            add_scaled(rows.setdefault(("r", j, k), {}), ONE, ((i, c),))
            add_scaled(rows.setdefault(("l", i, k), {}), ONE, ((j, c),))
    return [list(row.items()) for row in rows.values()]


def annihilator_rings():
    """Fresh rings, so each computes its annihilator under the test."""
    return (
        [banded_ring(BandedRingParams(n, r)) for n in range(1, 5) for r in range(1, 4)]
        + [group_algebra(GroupSignature(0, t)) for t in [(2,), (3,), (2, 2), (2, 3), (4,)]]
        + [random_ring(seed) for seed in range(40)]
    )


def test_annihilator_sets_each_row_entry_once(monkeypatch):
    """Each structure key (i, j) lists each k once, so the rows set directly
    equal the rows accumulated with add_scaled, entry for entry and in order."""
    seen = []

    def captured(rows, n):
        rows = list(rows)
        seen.append([list(row.items()) for row in rows])
        return nullspace(rows, n)

    monkeypatch.setattr(properties, "nullspace", captured)
    for ring in annihilator_rings():
        annihilator(ring)
        assert seen.pop() == old_annihilator_rows(ring)


def test_annihilator_add_scaled_count(monkeypatch):
    """Counts, not seconds: on banded (6, 1) annihilator called add_scaled
    468 times and properties_report 829, when every row entry went through
    it; the rows are now set directly and only nullspace calls it."""
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return add_scaled(*args)

    for module in (linalg, ring_module):
        monkeypatch.setattr(module, "add_scaled", counted)
    annihilator(banded_ring(BandedRingParams(6, 1)))
    assert count == 36
    count = 0
    properties_report(banded_ring(BandedRingParams(6, 1)))
    assert count == 397


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
    gram = [{i: Scalar(2)} for i in range(4)]
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
    extra = [{i: Scalar(scale[i])} for i in range(4)]
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
    assert ideal_closure(band3, {}).dim == 0


@pytest.mark.parametrize("bad", [9, -1])
def test_closure_rejects_an_index_outside_the_dimension(band3, bad):
    # a vector with index 0, a generator, would otherwise close to the whole ring
    message = rf"vector index {bad} is out of range for dimension 9"
    with pytest.raises(MalformedInputError, match=message):
        ideal_closure(band3, {0: ONE, bad: ONE}, generators=frozenset({0}))


def test_closure_of_any_unit_fills_a_one_band_ring(band3):
    for i in range(band3.dim):
        closure = ideal_closure(band3, {i: ONE})
        assert closure == full_space(band3.dim)


def test_closure_stays_inside_one_band(band3x2):
    # units of the first band (indices 0..8) generate exactly that band
    closure = ideal_closure(band3x2, {0: ONE})
    assert closure.dim == 9
    assert closure.sparse == {i: {i: ONE} for i in range(9)}


def test_closure_output_is_a_graded_ideal_and_monotone():
    for seed in range(6):
        ring = random_ring(seed)
        v = {seed % ring.dim: ONE}
        closure = ideal_closure(ring, v)
        assert closure.contains(v)
        assert is_graded_ideal(ring, closure)
        for w in closure.sparse.values():
            assert closure.contains_subspace(ideal_closure(ring, w))


def reference_closure(ring, v):
    """Smallest graded ideal containing v, a dense list, grown in rounds to a
    fixpoint: each round multiplies every basis row by every basis element
    on both sides, and there is no early exit."""
    n = ring.dim
    pieces = []
    for g in ring.attained_degrees():
        keep = set(ring.indices_of_degree(g))
        pieces.append(sparse([x if i in keep else ZERO for i, x in enumerate(v)]))
    current = span(pieces, n)
    while True:
        rows = list(current.sparse.values())
        products = []
        for row in rows:
            for j in range(n):
                products.append(ring.multiply_basis_right(row, j))
                products.append(ring.multiply_basis_left(j, row))
        grown = span(rows + products, n)
        if grown == current:
            return current
        current = grown


def unit(n, i):
    return [ONE if j == i else ZERO for j in range(n)]


def _closure_seeds(ring, rng):
    n = ring.dim
    seeds = [unit(n, i) for i in range(n)]
    seeds.append([Scalar(rng.randint(-2, 2)) for _ in range(n)])
    return seeds


def _assert_closures_match_reference(ring, rng):
    n = ring.dim
    # exactly the basis indices whose closure is the whole ring
    full = {i for i in range(n) if reference_closure(ring, unit(n, i)).dim == n}
    for v in _closure_seeds(ring, rng):
        expected = reference_closure(ring, v)
        assert ideal_closure(ring, sparse(v)) == expected
        assert ideal_closure(ring, sparse(v), generators=full) == expected


@pytest.mark.parametrize("size,bands", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_closure_matches_fixpoint_reference_on_banded_rings(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    _assert_closures_match_reference(ring, random.Random(size * 10 + bands))


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_fixpoint_reference_on_random_rings(seed):
    ring = random_ring(seed, RandomRingParams(max_dim=12))
    _assert_closures_match_reference(ring, random.Random(seed))


def test_closure_reuse_needs_a_known_generator(band3x2):
    # no basis vector of a two-band ring generates everything, so a
    # single-entry product must not end the closure early
    v = {0: ONE, 4: ONE}
    closure = ideal_closure(band3x2, v, generators=frozenset())
    assert closure.dim == 9
    assert closure == ideal_closure(band3x2, {0: ONE})


def reference_oracle(ring, sample_count=8, seed=0):
    """The oracle's loop with every closure grown by ``reference_closure``,
    so no closure reuses an earlier one; its witness is a dense list."""
    n = ring.dim
    if n == 0 or not ring.structure:
        return (False, None, 0, "the product is identically zero")
    tested = 0
    for i in range(n):
        tested += 1
        if reference_closure(ring, unit(n, i)).dim != n:
            return (False, unit(n, i), tested,
                    f"closure of basis vector {i} is a proper nonzero graded ideal")
    one_indices = ring.indices_of_degree(ring.identity_degree())
    if one_indices and sample_count > 0:
        rng = random.Random(seed)
        for _ in range(sample_count):
            v = [ZERO] * n
            while not any(v):
                for i in one_indices:
                    v[i] = Scalar(Fraction(rng.randint(-9, 9)))
            tested += 1
            if reference_closure(ring, v).dim != n:
                return (False, v, tested,
                        "closure of a sampled identity-component vector is proper")
    if all(len(ring.indices_of_degree(g)) == 1 for g in ring.attained_degrees()):
        return (True, None, tested, "every homogeneous line was tested")
    if (
        is_maximal_length(ring)
        and identity_products_span(ring) == ring.identity_component()
        and annihilator(ring).is_zero()
    ):
        return (True, None, tested,
                "support lines generate everything and no ideal can hide in the identity "
                "component")
    return (None, None, tested, "identity component has untestable lines")


ORACLE_RINGS = (
    [(f"banded-{n}-{r}", lambda n=n, r=r: banded_ring(BandedRingParams(n, r)))
     for n in range(2, 6) for r in (1, 2)]
    + [("group-2x3", lambda: group_algebra(GroupSignature(0, (2, 3))))]
    + [(f"random-{seed}", lambda seed=seed: random_ring(seed)) for seed in range(40)]
)


@pytest.mark.parametrize("make", [m for _, m in ORACLE_RINGS], ids=[i for i, _ in ORACLE_RINGS])
def test_oracle_with_closure_reuse_matches_oracle_without(make):
    ring = make()
    result = graded_simple_oracle(ring)
    witness = None if result.witness is None else densify(result.witness, ring.dim)
    assert (result.verdict, witness, result.closures_tested, result.reason) == (
        reference_oracle(ring)
    )


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
    rings = [banded_ring(BandedRingParams(3, 1))] + [random_ring(seed) for seed in range(8)]
    confirmed = 0
    for ring in rings:
        result = graded_simple_oracle(ring, sample_count=3, seed=1)
        if result.verdict is True:
            confirmed += 1
            classes = connection_classes(ring)
            assert classes.count == 1
            assert decompose(ring).identity_spans == (ring.identity_component(),)
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
    seed = {2: ONE, 3: ONE}  # w + w', homogeneous pieces seed both lines
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
    assert sub.multiply({w_new: ONE}, {winv_new: ONE}) == {one_new: ONE}
    # the combination row pairs with itself as 2 under the inherited Gram
    assert sub.grams[0].sparse[one_new][one_new] == Scalar(2)


def per_degree_induced_subring(ring, sub):
    """induced_subring as it was before it read the canonical rows: the
    rows split by degree, eliminated again per degree, and coordinates
    found by eliminating top-down."""
    assert is_graded_ideal(ring, sub)
    pieces = {}
    for row in sub.sparse.values():
        for g, piece in ring.homogeneous_parts(row):
            pieces.setdefault(g, EchelonBasis(ring.dim)).add(piece)
    rows = []
    degs = []
    for g in sorted(pieces):
        eb = pieces[g]
        for p in sorted(eb.rows):
            rows.append(eb.rows[p])
            degs.append(g)
    m = len(rows)

    def coordinates(vec):
        v = dict(vec)
        coords = {}
        for t, row in enumerate(rows):
            c = v.get(min(row))
            if c is not None:
                coords[t] = c
                add_scaled(v, -c, row.items())
        assert not v
        return coords

    structure = {}
    for a in range(m):
        for b in range(m):
            prod = ring.multiply(rows[a], rows[b])
            if prod:
                structure[(a, b)] = list(coordinates(prod).items())
    grams = [
        [{b: p for b in range(m) if (p := pairing(rows[a], rows[b], gram))} for a in range(m)]
        for gram in ring.grams
    ]
    return GradedRing(ring.signature, degs, structure, grams, [f"s{t}" for t in range(m)])


INDUCED_SUBRING_RINGS = (
    [(f"random{seed}", random_ring(seed)) for seed in range(60)]
    + [(f"banded{n}x{r}", banded_ring(BandedRingParams(n, r)))
       for n in range(1, 5) for r in range(1, 4)]
    + [(f"Z{t}", group_algebra(GroupSignature(0, t))) for t in [(2,), (3,), (2, 2), (2, 3), (6,)]]
)


@pytest.mark.parametrize(
    "name,ring", INDUCED_SUBRING_RINGS, ids=[name for name, _ in INDUCED_SUBRING_RINGS]
)
def test_induced_subring_matches_the_per_degree_construction(name, ring):
    """On every class ideal and every basis-vector closure, distinct ones once."""
    subs = dict.fromkeys(decompose(ring).ideals)
    subs.update(dict.fromkeys(ideal_closure(ring, {i: ONE}) for i in range(ring.dim)))
    for sub in subs:
        new, old = induced_subring(ring, sub), per_degree_induced_subring(ring, sub)
        assert new.degrees == old.degrees and new.labels == old.labels
        assert dict(new.structure) == dict(old.structure)
        assert new.grams == old.grams


def test_wedderburn_style_decomposition_on_qualified_rings():
    for seed in range(10):
        ring = random_ring(seed)
        props = properties_report(ring, oracle_samples=0)
        hyps = props.hypotheses
        qualified = (
            hyps["support_multiplicative"]
            and hyps["maximal_length"]
            and props.annihilator.is_zero()
            and hyps["symmetric_support"]
            and props.coherence.ok
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
    assert props.hypotheses["maximal_length"] and props.hypotheses["support_multiplicative"]
    assert props.coherence.ok and props.hypotheses["symmetric_support"]
    assert props.annihilator.dim == 0
    assert props.simple_by_theorem is True
    assert props.oracle.verdict is True
    assert all(props.hypotheses.values())


# -- is_coherent against the dense triple loop it replaced ---------------------------

def dense_pairing_vanishes(a, b, gram):
    return all(not pairing(u, v, gram) for u in a.sparse.values() for v in b.sparse.values())


def dense_coherence(ring):
    """is_coherent as it was before its span memo and support filters: one
    product span and two subspace pairings per (g, h, Gram)."""
    sup = ring.sorted_support()
    sig = ring.signature
    span_ok = identity_products_span(ring) == ring.identity_component()
    products = {
        g: ring.product_span(ring.component(g), ring.component(sig.invert(g))) for g in sup
    }
    components = {g: ring.component(g) for g in sup}
    failures = []
    for g in sup:
        for h in sup:
            rhs_space = ring.product_span(products[h], components[g])
            for a, gram in enumerate(ring.grams):
                lhs_zero = dense_pairing_vanishes(products[g], products[h], gram)
                rhs_zero = dense_pairing_vanishes(components[g], rhs_space, gram)
                if lhs_zero != rhs_zero:
                    failures.append((g, h, a))
    return span_ok, tuple(failures)


def coupled_gram(ring, couplings, diagonal=2):
    """``diagonal`` times the identity plus c at (x, y) and conj(c) at (y, x)
    for each (x, y, c); diagonally dominant, so positive definite."""
    rows = [{i: Scalar(diagonal)} for i in range(ring.dim)]
    for x, y, c in couplings:
        rows[x][y], rows[y][x] = c, c.conjugate()
    return rows


def planted_coherence_rings():
    """Gram families that pair identity-degree units of different product
    spans, within a band and across bands, with rational and
    Gaussian-rational couplings, alone or beside other Grams."""
    half_i = Scalar(0, Fraction(1, 2))
    third = Scalar(Fraction(1, 3), Fraction(1, 3))
    out = []
    for size, bands in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        base = banded_ring(BandedRingParams(size, bands))
        ones = base.indices_of_degree(base.identity_degree())
        pairs = [(x, y) for x in ones for y in ones if x < y]
        for t, (x, y) in enumerate(pairs):
            c = (ONE, half_i, third)[t % 3]
            families = [
                [coupled_gram(base, [(x, y, c)])],
                list(base.grams) + [coupled_gram(base, [(x, y, c)])],
                [coupled_gram(base, [(x, y, c)], 3), coupled_gram(base, [(x, y, ONE)], 5)],
            ]
            if len(pairs) > 1:
                x2, y2 = pairs[(t + 1) % len(pairs)]
                families.append(
                    list(base.grams)
                    + [coupled_gram(base, [(x, y, c)]), coupled_gram(base, [(x2, y2, half_i)])]
                )
            for grams in families:
                out.append(
                    GradedRing(base.signature, base.degrees, base.structure, grams, base.labels)
                )
    return out


def rebased_band2x2(weights):
    """banded (2, 2) with its first diagonal units e, f (identity degree)
    replaced by b = e + f and c = e - f, and a Gram of weights[0] at b,
    weights[1] at c and 2 elsewhere.  The two bands' product spans are then
    the lines of b + c and b - c: distinct spans with the same pivot."""
    ring = banded_ring(BandedRingParams(2, 2))
    e = ring.labels.index("a((1,1),(1,1))")
    f = ring.labels.index("a((1,2),(1,2))")
    half = Scalar(Fraction(1, 2))
    basis = [{i: ONE} for i in range(ring.dim)]
    basis[e], basis[f] = {e: ONE, f: ONE}, {e: ONE, f: -ONE}

    def coordinates(v):
        out = dict(v)
        x, y = out.pop(e, ZERO), out.pop(f, ZERO)
        # x e + y f = (x + y)/2 b + (x - y)/2 c
        for k, value in ((e, (x + y) * half), (f, (x - y) * half)):
            if value:
                out[k] = value
        return sorted(out.items())

    structure = {}
    for a in range(ring.dim):
        for b in range(ring.dim):
            w = ring.multiply(basis[a], basis[b])
            if w:
                structure[(a, b)] = coordinates(w)
    gram = [{i: Scalar(2)} for i in range(ring.dim)]
    gram[e], gram[f] = {e: Scalar(weights[0])}, {f: Scalar(weights[1])}
    return GradedRing(ring.signature, ring.degrees, structure, [gram], ring.labels)


COHERENCE_RINGS = (
    [
        banded_ring(BandedRingParams(n, r))
        for n, r in [(1, 1), (1, 2), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]
    ]
    + [banded_ring(BandedRingParams(3, 2, weights=(Fraction(1), Fraction(5, 2))))]
    + [group_algebra(GroupSignature(0, t)) for t in [(2,), (3,), (4,), (2, 2), (2, 3)]]
    + [random_ring(seed) for seed in range(40)]
    + [rebased_band2x2((2, 2)), rebased_band2x2((3, 1))]
)
PLANTED_COHERENCE_RINGS = planted_coherence_rings()


@pytest.mark.parametrize("index", range(len(COHERENCE_RINGS)))
def test_is_coherent_matches_the_dense_loop(index):
    ring = COHERENCE_RINGS[index]
    report = is_coherent(ring)
    assert (report.span_ok, report.pairing_failures) == dense_coherence(ring)


def test_is_coherent_matches_the_dense_loop_on_planted_gram_couplings():
    failing = 0
    for ring in PLANTED_COHERENCE_RINGS:
        assert ring.validate().ok
        report = is_coherent(ring)
        assert (report.span_ok, report.pairing_failures) == dense_coherence(ring)
        failing += bool(report.pairing_failures)
    assert failing > len(PLANTED_COHERENCE_RINGS) // 2


def test_coherence_is_computed_once_per_ring(band3x2):
    coherence = is_coherent(band3x2)
    assert is_coherent(band3x2) is coherence
    decompose(band3x2)
    assert is_coherent(band3x2) is coherence
    with pytest.raises(AttributeError):
        is_coherent(band3x2).span_ok = False


def test_properties_report_decides_each_derived_quantity_once(monkeypatch):
    """Whether the inverse-degree products span the identity component is
    decided once per ring, though coherence, the theorem route and the
    oracle all ask; the hypotheses are gathered once and kept read-only."""
    calls = []
    component = GradedRing.identity_component

    def counted(ring):
        calls.append(ring)
        return component(ring)

    monkeypatch.setattr(GradedRing, "identity_component", counted)
    ring = banded_ring(BandedRingParams(3, 1))
    props = properties_report(ring, oracle_samples=2)
    assert props.coherence.span_ok and props.simple_by_theorem and props.oracle.verdict
    assert props.oracle.reason.startswith("support lines generate everything")
    assert len(calls) == 1
    assert props.hypotheses is theorem_hypotheses(ring)
    with pytest.raises(TypeError):
        props.hypotheses["maximal_length"] = False
