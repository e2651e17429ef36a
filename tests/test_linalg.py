import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import (
    MalformedInputError,
    PreconditionError,
    Scalar,
    Subspace,
    full_space,
    joint_orthogonal_complement,
    nullspace,
    pairing,
    psd_check,
    psd_counterexample,
    span,
    unit_vector,
    vector,
)
from gradedrings.linalg import (
    ONE,
    ZERO,
    Gram,
    add_scaled,
    as_dense,
    as_sparse,
    is_hermitian,
)


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
    s = span([vector([1, 0]), vector([2, 0])], 2)
    assert s.dim == 1
    assert s.rows == ((ONE, ZERO),)


def test_span_empty_is_zero():
    assert span([], 3).dim == 0
    assert span([], 3) == Subspace.zero(3)


def test_span_independent_vectors_fill():
    s = span([vector([1, 1]), vector([1, -1])], 2)
    assert s == full_space(2)


def test_contains():
    s = span([vector([1, 0])], 2)
    assert s.contains(vector([5, 0]))
    assert not s.contains(vector([0, 1]))
    assert s.contains(vector([0, 0]))


def test_sum_and_intersection_lattice():
    e1 = span([unit_vector(2, 0)], 2)
    e2 = span([unit_vector(2, 1)], 2)
    assert e1.sum(e2) == full_space(2)
    assert e1.intersect(e2).dim == 0
    s = span([vector([1, 2, 3]), vector([0, 1, 1])], 3)
    assert s.intersect(s) == s


def test_canonical_representation_is_unique():
    a = span([vector([1, 2]), vector([3, 4])], 2)
    b = span([vector([5, 6]), vector([7, 8])], 2)
    assert a == b  # both are the full plane
    assert a.rows == b.rows


def _random_subspace(rng, ambient, rows):
    vecs = [
        vector([Fraction(rng.randint(-4, 4)) for _ in range(ambient)]) for _ in range(rows)
    ]
    return span(vecs, ambient)


def test_grassmann_identity_on_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        ambient = rng.randint(1, 5)
        s = _random_subspace(rng, ambient, rng.randint(0, ambient))
        t = _random_subspace(rng, ambient, rng.randint(0, ambient))
        assert s.dim + t.dim == s.sum(t).dim + s.intersect(t).dim


def test_span_is_idempotent_on_random_instances():
    rng = random.Random(8)
    for _ in range(40):
        ambient = rng.randint(1, 5)
        s = _random_subspace(rng, ambient, rng.randint(0, ambient + 1))
        assert span(s.rows, ambient) == s


# -- kernels -----------------------------------------------------------------

def test_nullspace_identity():
    m = [unit_vector(3, i) for i in range(3)]
    assert nullspace(m, 3).dim == 0


def test_nullspace_zero_matrix():
    m = [vector([0, 0]), vector([0, 0])]
    assert nullspace(m, 2) == full_space(2)


def test_nullspace_rank_one():
    m = [vector([1, 1]), vector([2, 2])]
    k = nullspace(m, 2)
    assert k == span([vector([1, -1])], 2)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(9)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [vector([Fraction(rng.randint(-3, 3)) for _ in range(cols)]) for _ in range(rows)]
        rank = span(m, cols).dim
        assert rank + nullspace(m, cols).dim == cols


# -- joint orthogonal complements --------------------------------------------

def _diag(entries):
    n = len(entries)
    return [
        [Scalar(entries[i]) if i == j else ZERO for j in range(n)] for i in range(n)
    ]


def test_complement_of_zero_is_everything():
    w = full_space(2)
    assert joint_orthogonal_complement(Subspace.zero(2), w, [_diag([1, 1])]) == w


def test_complement_standard_inner_product():
    w = full_space(2)
    s = span([unit_vector(2, 0)], 2)
    assert joint_orthogonal_complement(s, w, [_diag([1, 1])]) == span([unit_vector(2, 1)], 2)


def test_complement_with_two_degenerate_grams():
    # grams diag(1,0) and diag(0,1) against span{e1+e2}: the two conditions
    # x1 = 0 and x2 = 0 (worked out by hand) leave only the zero vector
    w = full_space(2)
    s = span([vector([1, 1])], 2)
    out = joint_orthogonal_complement(s, w, [_diag([1, 0]), _diag([0, 1])])
    assert out.dim == 0


def test_complement_requires_containment():
    w = span([unit_vector(2, 0)], 2)
    s = span([unit_vector(2, 1)], 2)
    with pytest.raises(PreconditionError):
        joint_orthogonal_complement(s, w, [_diag([1, 1])])


def test_complement_disjoint_under_separating_family():
    rng = random.Random(11)
    for _ in range(25):
        ambient = rng.randint(1, 4)
        w = full_space(ambient)
        s = _random_subspace(rng, ambient, rng.randint(0, ambient))
        u = joint_orthogonal_complement(s, w, [_diag([1] * ambient)])
        assert u.intersect(s).dim == 0
        assert u.sum(s) == w


# -- positive semidefiniteness ------------------------------------------------

def test_psd_diag_semidefinite():
    assert psd_check(_diag([1, 0]))


def test_psd_indefinite_matrix():
    # eigenvalues 3 and -1 by hand
    m = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(1)]]
    assert not psd_check(m)
    witness = psd_counterexample(m)
    value = pairing(witness, witness, m)
    assert value.is_real() and value.re < 0


def test_psd_positive_definite():
    # leading minors 2 and 3
    m = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(2)]]
    assert psd_check(m)


def test_psd_zero_diagonal_with_offdiagonal_entry():
    m = [[ZERO, ONE], [ONE, ZERO]]
    witness = psd_counterexample(m)
    assert witness is not None
    value = pairing(witness, witness, m)
    assert value.is_real() and value.re < 0


def test_psd_rejects_non_hermitian():
    with pytest.raises(MalformedInputError):
        psd_check([[ONE, ONE], [ZERO, ONE]])


def test_psd_hermitian_complex():
    i = Scalar(0, 1)
    m = [[Scalar(2), i], [-i, Scalar(2)]]
    assert is_hermitian(m)
    assert psd_check(m)  # eigenvalues 1 and 3
    m = [[Scalar(1), Scalar(0, 2)], [Scalar(0, -2), Scalar(1)]]
    assert not psd_check(m)  # eigenvalues -1 and 3
    witness = psd_counterexample(m)
    value = pairing(witness, witness, m)
    assert value.is_real() and value.re < 0


def test_psd_random_gram_matrices_are_psd():
    # B* B is always positive semidefinite; the checker must agree
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = rng.randint(0, 4)
        b = [[Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n)] for _ in range(rows)]
        gram = [
            [
                sum((b[r][i] * b[r][j].conjugate() for r in range(rows)), ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert is_hermitian(gram)
        assert psd_check(gram)


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


# -- differential test against a dense Gauss-Jordan reference ------------------
#
# The kernel keeps sparse rows and reduces only at pivots in a vector's
# support.  The reference below is the textbook dense algorithm: reduce
# against every row in pivot order, normalize the leading entry, clear its
# column from every other row.

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


def _is_dense(sub):
    return all(
        isinstance(r, tuple) and len(r) == sub.ambient and all(isinstance(x, Scalar) for x in r)
        for r in sub.rows
    )


@settings(deadline=None, max_examples=150)
@given(sparse_systems(), sparse_systems())
def test_sparse_kernel_matches_dense_reference(system, other):
    ambient, rows, probes = system
    s = span(rows, ambient)
    ref = dense_span(rows, ambient)
    assert (s.rows, s.pivots) == canonical(ref)
    assert _is_dense(s)
    basis = s.basis()
    for v in probes:
        assert s.contains(v) == (not any(ref.residual(v)))
        assert as_dense(basis.residual(v), ambient) == ref.residual(v)
    k = nullspace(rows, ambient)
    assert (k.rows, k.pivots) == canonical(dense_nullspace(rows, ambient))
    assert _is_dense(k)
    _, other_rows, _ = other
    t = span([(r + [ZERO] * ambient)[:ambient] for r in other_rows], ambient)
    meet = s.intersect(t)
    assert (meet.rows, meet.pivots) == canonical(dense_intersect(s.rows, t.rows, ambient))
    assert _is_dense(meet)


def test_public_functions_take_and_give_dense_lists(band2):
    rows = [vector([1, 0, 2, 0]), vector([0, 0, 1, 0])]
    s = span(rows, 4)
    assert s.rows == ((ONE, ZERO, ZERO, ZERO), (ZERO, ZERO, ONE, ZERO))
    assert s.pivots == (0, 2)
    assert s.contains([Scalar(3), ZERO, Scalar(5), ZERO])
    assert nullspace(rows, 4).rows == ((ZERO, ONE, ZERO, ZERO), (ZERO, ZERO, ZERO, ONE))
    gram = band2.grams[0]
    u = unit_vector(band2.dim, 0)
    assert pairing(u, u, gram) == gram[0][0]
    product = band2.multiply(u, u)
    assert isinstance(product, list) and len(product) == band2.dim
    assert isinstance(band2.multiply_basis_right(u, 0), list)
    assert isinstance(band2.multiply_basis_left(0, u), list)
    witness = psd_counterexample([[Scalar(1), Scalar(2)], [Scalar(2), Scalar(1)]])
    assert isinstance(witness, list) and len(witness) == 2


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
    conj_v = [(j, x.conjugate()) for j, x in as_sparse(v).items()]
    acc = ZERO
    for i, ui in as_sparse(u).items():
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
    g = [as_sparse(row) for row in gram]
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
                    return as_dense(w, n)
            return None
        d = g[pivot][pivot]
        if d.re < 0:
            return as_dense(track[pivot], n)
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
    dense constraint row (G conj(s)) per (Gram, inner basis vector)."""
    n = outer.ambient
    constraints = []
    for gram in grams:
        for s in inner.sparse.values():
            conj_s = [(k, x.conjugate()) for k, x in s.items()]
            row = {}
            for j in range(n):
                acc = ZERO
                for k, ck in conj_s:
                    g = gram[j][k]
                    if g:
                        acc = acc + g * ck
                if acc:
                    row[j] = acc
            if row:
                constraints.append(row)
    return outer.intersect(nullspace(constraints, n))


def _sparse_rows(gram):
    return [{j: x for j, x in enumerate(row) if x} for row in gram]


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
    return n, grams, span(outer_rows, n), span(inner_rows, n), probes


@settings(deadline=None, max_examples=150)
@given(gram_systems())
def test_sparse_gram_operations_match_dense_reference(system):
    n, grams, outer, inner, probes = system
    for gram in grams:
        sparse = Gram(gram)
        for form in (gram, sparse, _sparse_rows(gram)):
            assert is_hermitian(form) and dense_is_hermitian(gram)
            for u in probes:
                for v in probes:
                    assert pairing(u, v, form) == dense_pairing(u, v, gram)
            assert psd_counterexample(form) == dense_psd_counterexample(gram)
    assert joint_orthogonal_complement(inner, outer, grams) == dense_complement(inner, outer, grams)
    sparse_grams = [Gram(gram) for gram in grams]
    assert joint_orthogonal_complement(inner, outer, sparse_grams) == dense_complement(
        inner, outer, grams
    )


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
    assert is_hermitian(gram) == expected
    assert is_hermitian(Gram(gram)) == expected
    assert is_hermitian(_sparse_rows(gram)) == expected


def test_gram_reads_as_a_dense_matrix():
    i = Scalar(0, 1)
    dense = [[Scalar(2), ZERO, i], [ZERO, ZERO, ZERO], [-i, ZERO, ONE]]
    gram = Gram(dense)
    assert gram.sparse == ({0: Scalar(2), 2: i}, {}, {0: -i, 2: ONE})
    assert gram.square and len(gram) == 3
    assert gram[0][2] == i and gram[1][1] == ZERO
    assert [list(row) for row in gram] == dense
    assert Gram([{0: 2, 2: i}, {1: 0}, {0: -i, 2: "1"}]) == gram
    assert Gram(gram.sparse) == gram


def test_gram_records_non_square_input():
    assert not Gram([[ONE, ZERO], [ONE]]).square
    assert not Gram([[ONE, ZERO, ZERO], [ZERO, ONE]]).square
    assert not Gram([[ONE, ZERO]]).square
    assert not Gram([{0: ONE}, {2: ONE}]).square
    assert not Gram([{0: ONE}, {-1: ONE}]).square
    assert Gram([]).square and Gram([{}, {1: ONE}]).square
    assert not is_hermitian([[ONE, ZERO], [ZERO]])
    assert not is_hermitian([{0: ONE}, {2: ONE}])
    with pytest.raises(MalformedInputError):
        psd_check([[ONE], [ZERO, ONE]])
    with pytest.raises(MalformedInputError):
        Gram([["one"]])
