import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import MalformedInputError, PreconditionError, Scalar, Subspace, span
from gradedrings.linalg import (
    ONE,
    ZERO,
    Gram,
    add_scaled,
    as_scalar,
    dense_strings,
    full_space,
    is_hermitian,
    joint_orthogonal_complement,
    nullspace,
    pairing,
    psd_counterexample,
)

from conftest import dense_rows, densify, sparse


# -- scalars ---------------------------------------------------------------

def test_scalar_string_round_trip():
    for text in ["0", "3", "-5", "1/2", "-7/3", "1/2+3/4*i", "1/2-3/4*i", "0+1*i"]:
        s = Scalar.from_string(text)
        assert Scalar.from_string(str(s)) == s


def test_scalar_parse_shorthands():
    assert Scalar.from_string("4/2") == Scalar(2)
    assert Scalar.from_string("3*i") == Scalar(0, 3)
    assert Scalar.from_string("-1/2*i") == Scalar(0, Fraction(-1, 2))


def test_scalar_parse_garbage():
    for text in ["", "x", "1//2", "1+i*", "1.5", "i"]:
        with pytest.raises(MalformedInputError):
            Scalar.from_string(text)


@pytest.mark.parametrize(
    "parts, kind",
    [((0.1,), "float"), (("1.5",), "str"), ((1, 0.5), "float"), (("2",), "str"), ((None,), "NoneType")],
)
def test_scalar_parts_must_be_exact_numbers(parts, kind):
    """Floats are not read approximately and strings go through from_string."""
    with pytest.raises(MalformedInputError, match=f"got {kind}"):
        Scalar(*parts)


def test_scalar_parts_may_be_int_or_fraction():
    class Half(Fraction):
        pass

    s = Scalar(True, Half(1, 2))
    assert (s.re, s.im) == (Fraction(1), Fraction(1, 2))
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert as_scalar("3/2") == Scalar(Fraction(3, 2))
    with pytest.raises(MalformedInputError):
        as_scalar(0.1)


def test_scalar_field_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(-2, 5), Fraction(4))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a * a.conjugate() == Scalar(Fraction(1, 4) + Fraction(1, 9))
    assert bool(Scalar(0, 0)) is False
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_scalar_canonical_strings():
    assert str(Scalar(Fraction(2, 4))) == "1/2"
    assert str(Scalar(3)) == "3"
    assert str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


# -- spans and membership ----------------------------------------------------

def test_span_collinear_vectors():
    s = span([sparse([1, 0]), sparse([2, 0])], 2)
    assert s.dim == 1
    assert s.sparse == {0: {0: ONE}}
    assert dense_rows(s) == ((ONE, ZERO),)


def test_span_empty_is_zero():
    assert span([], 3).dim == 0
    assert span([], 3) == Subspace(3, {})


def test_span_independent_vectors_fill():
    s = span([sparse([1, 1]), sparse([1, -1])], 2)
    assert s == full_space(2)


def test_contains():
    s = span([{0: ONE}], 2)
    assert s.contains({0: Scalar(5)})
    assert not s.contains({1: ONE})
    assert s.contains({})


@pytest.mark.parametrize("bad", [5, 2, -1])
def test_span_rejects_an_index_outside_the_dimension(bad):
    message = rf"vector index {bad} is out of range for dimension 2"
    with pytest.raises(MalformedInputError, match=message):
        span([{0: ONE}, {bad: ONE, 1: ONE}], 2)


@pytest.mark.parametrize("bad", [2, -1])
def test_contains_rejects_an_index_outside_the_dimension(bad):
    s = span([{0: ONE}], 2)
    with pytest.raises(MalformedInputError, match=rf"vector index {bad} is out of range"):
        s.contains({0: ONE, bad: ONE})


def test_sum_of_subspaces():
    e1 = span([{0: ONE}], 2)
    e2 = span([{1: ONE}], 2)
    assert e1.sum(e2) == full_space(2)
    s = span([sparse([1, 2, 3]), sparse([0, 1, 1])], 3)
    assert s.sum(s) == s
    assert s.sum(span([], 3)) == s and s.contains_subspace(s)


def test_canonical_representation_is_unique():
    a = span([sparse([1, 2]), sparse([3, 4])], 2)
    b = span([sparse([5, 6]), sparse([7, 8])], 2)
    assert a == b  # both are the full plane
    assert a.sparse == b.sparse


def _random_subspace(rng, ambient, rows):
    vecs = [sparse([rng.randint(-4, 4) for _ in range(ambient)]) for _ in range(rows)]
    return span(vecs, ambient)


def test_span_is_idempotent_on_random_instances():
    rng = random.Random(8)
    for _ in range(40):
        ambient = rng.randint(1, 5)
        s = _random_subspace(rng, ambient, rng.randint(0, ambient + 1))
        assert span(s.sparse.values(), ambient) == s


# -- kernels -----------------------------------------------------------------

def test_nullspace_identity():
    m = [{i: ONE} for i in range(3)]
    assert nullspace(m, 3).dim == 0


def test_nullspace_zero_matrix():
    m = [{}, {}]
    assert nullspace(m, 2) == full_space(2)


def test_nullspace_rank_one():
    m = [sparse([1, 1]), sparse([2, 2])]
    k = nullspace(m, 2)
    assert k == span([sparse([1, -1])], 2)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(9)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [sparse([rng.randint(-3, 3) for _ in range(cols)]) for _ in range(rows)]
        rank = span(m, cols).dim
        assert rank + nullspace(m, cols).dim == cols


# -- joint orthogonal complements --------------------------------------------

def _diag(entries):
    return Gram([{i: Scalar(x)} for i, x in enumerate(entries)])


def test_complement_of_zero_is_everything():
    w = full_space(2)
    assert joint_orthogonal_complement(span([], 2), w, [_diag([1, 1])]) == w


def test_complement_standard_inner_product():
    w = full_space(2)
    s = span([{0: ONE}], 2)
    assert joint_orthogonal_complement(s, w, [_diag([1, 1])]) == span([{1: ONE}], 2)


def test_complement_with_two_degenerate_grams():
    # grams diag(1,0) and diag(0,1) against span{e1+e2}: the two conditions
    # x1 = 0 and x2 = 0 (worked out by hand) leave only the zero vector
    w = full_space(2)
    s = span([sparse([1, 1])], 2)
    out = joint_orthogonal_complement(s, w, [_diag([1, 0]), _diag([0, 1])])
    assert out.dim == 0


def test_complement_requires_containment():
    w = span([{0: ONE}], 2)
    s = span([{1: ONE}], 2)
    with pytest.raises(PreconditionError):
        joint_orthogonal_complement(s, w, [_diag([1, 1])])


def test_complement_disjoint_under_separating_family():
    rng = random.Random(11)
    for _ in range(25):
        ambient = rng.randint(1, 4)
        w = full_space(ambient)
        s = _random_subspace(rng, ambient, rng.randint(0, ambient))
        u = joint_orthogonal_complement(s, w, [_diag([1] * ambient)])
        assert u.dim + s.dim == u.sum(s).dim  # u and s meet only in zero
        assert u.sum(s) == w


# -- positive semidefiniteness ------------------------------------------------

def _gram(dense):
    return Gram([sparse(row) for row in dense])


def _assert_negative_witness(witness, gram):
    assert isinstance(witness, dict) and all(witness.values())
    value = pairing(witness, witness, gram)
    assert not value.im and value.re < 0


def test_psd_diag_semidefinite():
    assert psd_counterexample(_diag([1, 0])) is None


def test_psd_indefinite_matrix():
    # eigenvalues 3 and -1 by hand
    m = _gram([[1, 2], [2, 1]])
    assert psd_counterexample(m) is not None
    _assert_negative_witness(psd_counterexample(m), m)


def test_psd_positive_definite():
    # leading minors 2 and 3
    m = _gram([[2, 1], [1, 2]])
    assert psd_counterexample(m) is None


def test_psd_zero_diagonal_with_offdiagonal_entry():
    m = _gram([[0, 1], [1, 0]])
    witness = psd_counterexample(m)
    assert witness is not None
    _assert_negative_witness(witness, m)


def test_psd_rejects_non_hermitian():
    with pytest.raises(MalformedInputError):
        psd_counterexample(_gram([[1, 1], [0, 1]]))


def test_psd_hermitian_complex():
    i = Scalar(0, 1)
    m = _gram([[Scalar(2), i], [-i, Scalar(2)]])
    assert is_hermitian(m)
    assert psd_counterexample(m) is None  # eigenvalues 1 and 3
    m = _gram([[Scalar(1), Scalar(0, 2)], [Scalar(0, -2), Scalar(1)]])
    assert psd_counterexample(m) is not None  # eigenvalues -1 and 3
    _assert_negative_witness(psd_counterexample(m), m)


def test_psd_random_gram_matrices_are_psd():
    # B* B is always positive semidefinite; the checker must agree
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = rng.randint(0, 4)
        b = [[Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        gram = _gram([
            [
                sum((b[r][i] * b[r][j].conjugate() for r in range(rows)), ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ])
        assert is_hermitian(gram)
        assert psd_counterexample(gram) is None


scalars = st.builds(
    Scalar,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@settings(deadline=None, max_examples=60)
@given(scalars, scalars, scalars)
def test_scalar_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


# -- Scalar against a reference on pairs of Fractions -----------------------------
#
# The reference holds a value of Q(i) as a pair (re, im) of Fractions and
# applies the textbook formulas; Scalar's real and integer fast paths must
# give the same canonical parts, of type Fraction, on every mix of operands.

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    (a, c), (b, d) = x, y
    return (a * b - c * d, a * d + c * b)


def ref_div(x, y):
    (a, c), (b, d) = x, y
    norm = b * b + d * d
    return ((a * b + c * d) / norm, (c * b - a * d) / norm)


def ref_str(x):
    def frac(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    re, im = x
    if not im:
        return frac(re)
    return f"{frac(re)}{'-' if im < 0 else '+'}{frac(abs(im))}*i"


def assert_matches(s, x):
    assert type(s) is Scalar
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == x
    assert s == Scalar(*x) and not (s != Scalar(*x))
    # a real scalar hashes as its real part, which it equals
    assert hash(s) == (hash(x) if x[1] else hash(x[0]))
    assert bool(s) == (x != (0, 0))
    assert str(s) == ref_str(x)


def with_own_zero(s):
    """The same value with a zero imaginary part that is not the shared
    zero, as a scalar built around the constructor could hold it."""
    t = object.__new__(Scalar)
    t.re = s.re
    t.im = s.im if s.im else Fraction(0)
    return t


parts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.integers(-10**20, 10**20).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
values = st.one_of(st.tuples(parts, st.just(Fraction(0))), st.tuples(parts, parts))


@settings(deadline=None, max_examples=300)
@given(values, values, st.booleans(), st.integers(-7, 7))
def test_scalar_matches_fraction_pair_reference(x, y, own_zero, k):
    a, b = Scalar(*x), Scalar(*y)
    if own_zero:
        a, b = with_own_zero(a), with_own_zero(b)
    assert_matches(a, x)
    assert_matches(a + b, ref_add(x, y))
    assert_matches(a - b, ref_sub(x, y))
    assert_matches(a * b, ref_mul(x, y))
    assert_matches(-a, (-x[0], -x[1]))
    assert_matches(a.conjugate(), (x[0], -x[1]))
    assert (a == b) == (x == y)
    if y != (0, 0):
        assert_matches(a / b, ref_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    kk = (Fraction(k), Fraction(0))
    assert_matches(a + k, ref_add(x, kk))
    assert_matches(k - a, ref_sub(kk, x))
    assert_matches(k * a, ref_mul(kk, x))
    assert (a == k) == (x == kk)
    if x != (0, 0):
        assert_matches(k / a, ref_div(kk, x))


def test_equal_scalars_reached_by_different_paths_are_equal():
    twos = [
        Scalar(2),
        Scalar(Fraction(4, 2)),
        Scalar(2, 0),
        Scalar.from_string("2"),
        Scalar.from_string("4/2"),
        ONE + ONE,
        Scalar(3) - ONE,
        -Scalar(-2),
        Scalar(Fraction(1, 2)) * 4,
        Scalar(5) / Scalar(Fraction(5, 2)),
        Scalar(1, 1) * Scalar(1, -1),
        Scalar(2, 1) - Scalar(0, 1),
        pickle.loads(pickle.dumps(Scalar(2))),
        copy.deepcopy(Scalar(2)),
        with_own_zero(Scalar(2)),
    ]
    for s in twos:
        assert s == twos[0] and s == 2 and s == Fraction(2)
        assert hash(s) == hash(twos[0])
        assert str(s) == "2" and not s.im
        assert type(s.re) is Fraction and type(s.im) is Fraction
    assert len(set(twos)) == 1


def test_a_real_scalar_hashes_as_the_number_it_equals():
    for x in (2, Fraction(-3, 4), 0):
        s = Scalar(x)
        assert s == x and hash(s) == hash(x)
        assert len({s, x}) == 1 and len({with_own_zero(s), x}) == 1
    assert Scalar(2, 1) != 2 and len({Scalar(2, 1), 2}) == 2


def test_add_scaled_by_a_one_that_is_not_the_shared_one():
    one = Scalar.from_string("1")
    assert one == ONE and one is not ONE
    w = [(0, Scalar(3)), (2, Scalar(Fraction(-1, 2), 1)), (3, Scalar(5))]
    base = {0: Scalar(1), 2: Scalar(Fraction(1, 2), -1), 4: Scalar(7)}
    results = []
    for c in (ONE, one):
        v = dict(base)
        add_scaled(v, c, w)
        results.append(v)
        assert v == {0: Scalar(4), 3: Scalar(5), 4: Scalar(7)}  # entry 2 cancelled
        assert v[3] is w[2][1]  # stored as it is, not multiplied
    assert results[0] == results[1]
    v = dict(base)
    add_scaled(v, Scalar(-1), [(4, Scalar(7)), (1, Scalar(2))])
    assert v == {0: Scalar(1), 1: Scalar(-2), 2: Scalar(Fraction(1, 2), -1)}


def test_exact_arithmetic_builds_few_fractions(monkeypatch):
    """Counts, not seconds: ``Fraction`` constructions, counted by wrapping
    ``Fraction.__new__`` (on Python 3.11, where ``Fraction`` arithmetic
    itself builds its results through the constructor).  When every real
    scalar built a fresh ``Fraction(0)`` for its imaginary part, every
    product and sum went through ``Fraction`` arithmetic and ``add_scaled``
    multiplied by one, ``validate`` on banded (5, 3) with weights (1, 2)
    made 8,100 and ``properties_report`` on banded (6, 1) made 2,840."""
    from gradedrings import BandedRingParams, banded_ring, properties_report

    banded = banded_ring(BandedRingParams(5, 3, weights=(Fraction(1), Fraction(2))))
    oracle = banded_ring(BandedRingParams(6, 1))
    count = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert banded.validate().ok
    assert 0 < count <= 8100 // 10
    count = 0
    report = properties_report(oracle)
    assert report.simple_by_theorem is True and report.oracle.verdict is True
    assert 0 < count <= 2840 // 2


# -- differential test against a dense Gauss-Jordan reference ------------------
#
# The kernel keeps sparse rows and reduces only at pivots in a vector's
# support.  The reference below is the textbook dense algorithm: reduce
# against every row in pivot order, normalize the leading entry, clear its
# column from every other row.  The library is given the sparse form of
# each dense input and its answers are compared densified.

class DenseEchelon:
    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = []
        self.pivots = []

    def residual(self, vec):
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                v = [x - c * r for x, r in zip(v, row)]
        return v

    def add(self, vec):
        v = self.residual(vec)
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            return False
        c = v[lead]
        v = [x / c for x in v]
        self.rows = [[r - row[lead] * x for r, x in zip(row, v)] for row in self.rows]
        at = sum(1 for p in self.pivots if p < lead)
        self.pivots.insert(at, lead)
        self.rows.insert(at, v)
        return True


def dense_span(vectors, ambient):
    eb = DenseEchelon(ambient)
    for v in vectors:
        eb.add(v)
    return eb


def dense_nullspace(matrix, ambient):
    eb = dense_span(matrix, ambient)
    kernel = []
    for free in range(ambient):
        if free not in eb.pivots:
            v = [ZERO] * ambient
            v[free] = ONE
            for p, row in zip(eb.pivots, eb.rows):
                v[p] = -row[free]
            kernel.append(v)
    return dense_span(kernel, ambient)


def dense_intersect(a, b, ambient):
    eb = dense_span([list(r) + list(r) for r in a] + [list(r) + [ZERO] * ambient for r in b],
                    2 * ambient)
    return dense_span([r[ambient:] for r in eb.rows if not any(r[:ambient])], ambient)


def canonical(eb):
    return tuple(tuple(r) for r in eb.rows), tuple(eb.pivots)


def dense_canonical(sub):
    return dense_rows(sub), sub.pivots


RATIONAL_ENTRIES = [ZERO] * 6 + [Scalar(x) for x in (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))]
GAUSSIAN_ENTRIES = RATIONAL_ENTRIES + [Scalar(0, 1), Scalar(0, -1), Scalar(1, 1), Scalar(Fraction(1, 2), -2)]


@st.composite
def sparse_systems(draw):
    """An ambient dimension and rows with many zeros, some of them exact
    combinations of earlier rows so that entries cancel during elimination."""
    entries = st.sampled_from(draw(st.sampled_from([RATIONAL_ENTRIES, GAUSSIAN_ENTRIES])))
    ambient = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=6))
    if rows:
        for a, b, c in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), entries),
                                     max_size=3)):
            rows.append([x - c * y for x, y in zip(rows[a % len(rows)], rows[b % len(rows)])])
    probes = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=2))
    return ambient, rows, probes + rows[-2:]


def _is_sparse(sub):
    return all(
        type(row) is dict and min(row) == p and row[p] == ONE
        and all(0 <= j < sub.ambient and type(x) is Scalar and x for j, x in row.items())
        for p, row in sub.sparse.items()
    )


@settings(deadline=None, max_examples=150)
@given(sparse_systems())
def test_sparse_kernel_matches_dense_reference(system):
    ambient, rows, probes = system
    s = span([sparse(r) for r in rows], ambient)
    ref = dense_span(rows, ambient)
    assert dense_canonical(s) == canonical(ref)
    assert _is_sparse(s)
    basis = s.basis()
    for v in probes:
        assert s.contains(sparse(v)) == (not any(ref.residual(v)))
        assert densify(basis.residual(sparse(v)), ambient) == ref.residual(v)
    k = nullspace([sparse(r) for r in rows], ambient)
    assert dense_canonical(k) == canonical(dense_nullspace(rows, ambient))
    assert _is_sparse(k)


def test_public_functions_take_and_give_sparse_dicts(band2):
    rows = [{0: ONE, 2: Scalar(2)}, {2: ONE}]
    s = span(rows, 4)
    assert s.sparse == {0: {0: ONE}, 2: {2: ONE}}
    assert s.pivots == (0, 2)
    assert s.contains({0: Scalar(3), 2: Scalar(5)})
    assert nullspace(rows, 4).sparse == {1: {1: ONE}, 3: {3: ONE}}
    gram = band2.grams[0]
    u = {0: ONE}
    assert pairing(u, u, gram) == gram.sparse[0][0]
    assert band2.multiply(u, u) == {0: ONE}
    assert band2.multiply_basis_right(u, 0) == {0: ONE}
    assert band2.multiply_basis_left(0, u) == {0: ONE}
    assert band2.multiply(u, {3: ONE}) == {}
    witness = psd_counterexample(Gram([{0: ONE, 1: Scalar(2)}, {0: Scalar(2), 1: ONE}]))
    assert isinstance(witness, dict) and set(witness) <= {0, 1}
    assert dense_strings({1: Scalar(1, -2)}, 3) == ["0", "1-2*i", "0"]
    assert dense_strings({}, 2) == ["0", "0"]


# -- sparse Gram forms against dense references ----------------------------------
#
# The references below are the dense loops the Gram functions ran before
# Grams were held sparse: every (i, j) entry of the matrix is visited.

def dense_is_hermitian(gram):
    n = len(gram)
    if any(len(row) != n for row in gram):
        return False
    for i in range(n):
        for j in range(i, n):
            if gram[i][j] != gram[j][i].conjugate():
                return False
    return True


def dense_pairing(u, v, gram):
    conj_v = [(j, x.conjugate()) for j, x in enumerate(v) if x]
    acc = ZERO
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = gram[i]
        part = ZERO
        for j, cj in conj_v:
            g = row[j]
            if g:
                part = part + g * cj
        if part:
            acc = acc + ui * part
    return acc


def dense_psd_counterexample(gram):
    n = len(gram)
    assert dense_is_hermitian(gram)
    g = [{j: x for j, x in enumerate(row) if x} for row in gram]
    track = [{i: ONE} for i in range(n)]
    alive = list(range(n))
    live = set(alive)
    while alive:
        pivot = next((i for i in alive if i in g[i]), None)
        if pivot is None:
            for j in alive:
                ks = [k for k in g[j] if k != j and k in live]
                if ks:
                    k = min(ks)
                    w = dict(track[k])
                    add_scaled(w, -g[j][k].conjugate(), track[j].items())
                    return densify(w, n)
            return None
        d = g[pivot][pivot]
        if d.re < 0:
            return densify(track[pivot], n)
        alive.remove(pivot)
        live.remove(pivot)
        gp = [(k, x) for k, x in g[pivot].items() if k in live]
        wp = list(track[pivot].items())
        for j in alive:
            f = g[j].get(pivot)
            if f is None:
                continue
            m = -(f / d)
            add_scaled(track[j], m, wp)
            add_scaled(g[j], m, gp)
    return None


def dense_complement(inner, outer, grams):
    """{x in outer : <x, s>_a = 0 for all s in inner and all a}, from one
    dense constraint row (G conj(s)) per (Gram, inner basis vector), as the
    dense intersection of ``outer`` with the constraints' kernel."""
    n = outer.ambient
    constraints = []
    for gram in grams:
        for s in dense_rows(inner):
            constraints.append([
                sum((gram[j][k] * s[k].conjugate() for k in range(n)), ZERO) for j in range(n)
            ])
    kernel = dense_nullspace(constraints, n)
    return canonical(dense_intersect(dense_rows(outer), kernel.rows, n))


@st.composite
def hermitian_grams(draw, n):
    """A Hermitian n x n matrix with many zeros, over Q or Q(i)."""
    entries = st.sampled_from(draw(st.sampled_from([RATIONAL_ENTRIES, GAUSSIAN_ENTRIES])))
    gram = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = Scalar(draw(entries).re)
        for j in range(i + 1, n):
            x = draw(entries)
            gram[i][j], gram[j][i] = x, x.conjugate()
    return gram


@st.composite
def gram_systems(draw):
    """One to two Hermitian Grams, an outer subspace spanned by sparse rows,
    an inner subspace spanned by combinations of them, and probe vectors."""
    n = draw(st.integers(1, 6))
    grams = draw(st.lists(hermitian_grams(n), min_size=1, max_size=2))
    entries = st.sampled_from(GAUSSIAN_ENTRIES)
    vectors = st.lists(entries, min_size=n, max_size=n)
    outer_rows = draw(st.lists(vectors, max_size=4))
    inner_rows = [
        [sum((c * r[j] for c, r in zip(coeffs, outer_rows)), ZERO) for j in range(n)]
        for coeffs in draw(st.lists(st.lists(entries, min_size=len(outer_rows),
                                             max_size=len(outer_rows)), max_size=3))
    ]
    probes = draw(st.lists(vectors, min_size=2, max_size=4))
    outer = span([sparse(r) for r in outer_rows], n)
    inner = span([sparse(r) for r in inner_rows], n)
    return n, grams, outer, inner, probes


@settings(deadline=None, max_examples=150)
@given(gram_systems())
def test_sparse_gram_operations_match_dense_reference(system):
    n, grams, outer, inner, probes = system
    sparse_grams = [Gram([sparse(row) for row in gram]) for gram in grams]
    for gram, form in zip(grams, sparse_grams):
        assert is_hermitian(form) and dense_is_hermitian(gram)
        for u in probes:
            for v in probes:
                assert pairing(sparse(u), sparse(v), form) == dense_pairing(u, v, gram)
        witness = psd_counterexample(form)
        reference = dense_psd_counterexample(gram)
        assert (witness is None) == (reference is None)
        if witness is not None:
            assert densify(witness, n) == reference
    complement = joint_orthogonal_complement(inner, outer, sparse_grams)
    assert dense_canonical(complement) == dense_complement(inner, outer, grams)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 5).flatmap(hermitian_grams), st.integers(0, 99), st.integers(0, 99),
       st.sampled_from(["lone", "diagonal", "mirror", "none"]))
def test_hermitian_verdict_matches_dense_reference(gram, a, b, defect):
    n = len(gram)
    i, j = a % n, b % n
    if defect == "lone" and i != j:
        # an off-diagonal entry whose mirror is zero
        gram[i][j], gram[j][i] = Scalar(1, 1), ZERO
    elif defect == "diagonal":
        gram[i][i] = gram[i][i] + Scalar(0, 1)
    elif defect == "mirror" and i != j:
        gram[i][j] = gram[j][i] = Scalar(2, 1)
    expected = dense_is_hermitian(gram)
    assert expected == (defect == "none" or (defect != "diagonal" and i == j))
    assert is_hermitian(Gram([sparse(row) for row in gram])) == expected


def test_gram_keeps_the_nonzero_entries_of_sparse_rows():
    i = Scalar(0, 1)
    gram = Gram([{0: Scalar(2), 2: i}, {1: ZERO}, {0: -i, 2: ONE}])
    assert gram.sparse == ({0: Scalar(2), 2: i}, {}, {0: -i, 2: ONE})
    assert gram.square and len(gram) == 3
    assert gram.sparse[0][2] is i
    assert Gram([{0: 2, 2: i}, {1: 0}, {0: -i, 2: "1"}]) == gram
    assert Gram(iter(gram.sparse)) == gram


def test_gram_coerces_only_entries_that_are_not_scalars(monkeypatch):
    """A Gram entry that is already a Scalar is not coerced again, so the
    rows a spec-file load has parsed reach the Gram as they are."""
    import gradedrings.linalg as linalg
    from gradedrings import dumps_ring, loads_ring, random_ring

    calls = []
    coerce = linalg.as_scalar

    def counted(value):
        calls.append(value)
        return coerce(value)

    monkeypatch.setattr(linalg, "as_scalar", counted)
    Gram([{0: Scalar(2), 1: ONE}, {0: ONE, 1: ZERO}])
    assert calls == []
    assert Gram([{0: 2, 1: "1/2"}]).sparse == ({0: Scalar(2), 1: Scalar(Fraction(1, 2))},)
    assert calls == [2, "1/2"]
    calls.clear()
    text = dumps_ring(random_ring(1))
    assert '"grams": [\n    [' in text  # a dense Gram in the file
    loads_ring(text)
    assert calls == []


def test_gram_records_non_square_input():
    assert not Gram([{0: ONE}, {2: ONE}]).square
    assert not Gram([{0: ONE}, {-1: ONE}]).square
    assert not Gram([{1: ONE}]).square
    assert not Gram([{0: ONE, 1: ZERO}]).square  # a zero entry's index counts too
    assert Gram([]).square and Gram([{}, {1: ONE}]).square
    assert not is_hermitian(Gram([{0: ONE}, {2: ONE}]))
    with pytest.raises(MalformedInputError):
        psd_counterexample(Gram([{0: ONE}, {2: ONE}]))
    with pytest.raises(MalformedInputError):
        Gram([{0: "one"}])
