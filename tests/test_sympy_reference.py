"""Differential tests of the exact kernel against sympy's domain matrices.

sympy's ``DomainMatrix`` computes over QQ and QQ_I with its own exact
arithmetic, so it checks rank, the canonical reduced-echelon rows of
``span``, ``nullspace`` and the positive-semidefinite decision
independently of ``Scalar`` and ``Fraction`` arithmetic.  The PSD oracle is
the principal-minor criterion: a Hermitian matrix is positive
semidefinite iff every principal minor is nonnegative.  The matrices are
drawn densely for sympy; the library gets their sparse rows, and its
answers are compared densified.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gradedrings import Scalar, nullspace, psd_counterexample, span
from gradedrings.linalg import ZERO, Gram

from conftest import dense_rows, densify, sparse

sympy = pytest.importorskip("sympy")
from sympy import QQ, QQ_I, I, Rational  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

REAL_PARTS = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
IMAG_PARTS = [0, 0, 1, -1, Fraction(1, 2)]


def random_scalar(rng, complex_entries):
    im = rng.choice(IMAG_PARTS) if complex_entries else 0
    return Scalar(rng.choice(REAL_PARTS), im)


def random_matrix(rng, complex_entries):
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[random_scalar(rng, complex_entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:  # a dependent row, so entries cancel
        c = random_scalar(rng, complex_entries)
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


def to_sympy(s):
    return Rational(s.re.numerator, s.re.denominator) + I * Rational(s.im.numerator, s.im.denominator)


def domain_matrix(rows, ncols, domain):
    return DomainMatrix.from_list_sympy(
        len(rows), ncols, [[to_sympy(x) for x in row] for row in rows]
    ).convert_to(domain)


def _fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def from_domain(x, domain):
    if domain == QQ_I:
        return Scalar(_fraction(x.x), _fraction(x.y))
    return Scalar(_fraction(x))


def rref_rows(m):
    """The nonzero rows of sympy's reduced echelon form, as tuples of scalars."""
    reduced, pivots = m.rref()
    rows = reduced.to_list()
    return tuple(tuple(from_domain(x, m.domain) for x in rows[r]) for r in range(len(pivots)))


@pytest.mark.parametrize("complex_entries, domain", [(False, QQ), (True, QQ_I)], ids=["Q", "Q(i)"])
def test_rank_rref_and_nullspace_match_sympy(complex_entries, domain):
    rng = random.Random(2401)
    for _ in range(60):
        rows, ncols = random_matrix(rng, complex_entries)
        m = domain_matrix(rows, ncols, domain)
        s = span([sparse(r) for r in rows], ncols)
        assert s.dim == m.rank()
        assert dense_rows(s) == rref_rows(m)
        k = nullspace([sparse(r) for r in rows], ncols)
        assert k.dim == ncols - m.rank()
        if k.dim:
            assert dense_rows(k) == rref_rows(m.nullspace())
        for v in dense_rows(k):
            assert not any(sum((x * y for x, y in zip(row, v)), ZERO) for row in rows)


def hermitian_cases():
    """Seeded Hermitian matrices: random ones (mostly indefinite), B*B
    (positive semidefinite, often singular), B*B with one diagonal entry
    lowered, and zero diagonals with off-diagonal entries."""
    rng = random.Random(1289)
    for complex_entries in (False, True):
        for kind in ("random", "gram", "lowered", "zero-diagonal"):
            for _ in range(25):
                n = rng.randint(1, 4)
                if kind in ("gram", "lowered"):
                    b = [[random_scalar(rng, complex_entries) for _ in range(n)]
                         for _ in range(rng.randint(0, 4))]
                    g = [[sum((r[i] * r[j].conjugate() for r in b), ZERO) for j in range(n)]
                         for i in range(n)]
                    if kind == "lowered":
                        i = rng.randrange(n)
                        g[i][i] = g[i][i] - Scalar(rng.choice([Fraction(1, 4), 1, 3]))
                else:
                    g = [[ZERO] * n for _ in range(n)]
                    for i in range(n):
                        if kind == "random":
                            g[i][i] = Scalar(rng.choice(REAL_PARTS))
                        for j in range(i + 1, n):
                            g[i][j] = random_scalar(rng, complex_entries)
                            g[j][i] = g[i][j].conjugate()
                yield g


def psd_by_principal_minors(g):
    n = len(g)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            sub = [[g[i][j] for j in idx] for i in idx]
            det = from_domain(domain_matrix(sub, size, QQ_I).det(), QQ_I)
            assert not det.im  # a Hermitian determinant is real
            if det < ZERO:
                return False
    return True


def sympy_form_value(x, g):
    """<x, x> = sum_ij x_i G[i][j] conj(x_j), evaluated by sympy."""
    n = len(g)
    value = sum(
        to_sympy(x[i]) * to_sympy(g[i][j]) * sympy.conjugate(to_sympy(x[j]))
        for i in range(n)
        for j in range(n)
    )
    return sympy.expand(value)


def test_psd_decision_matches_principal_minors():
    verdicts = []
    for g in hermitian_cases():
        expected = psd_by_principal_minors(g)
        gram = Gram([sparse(row) for row in g])
        witness = psd_counterexample(gram)
        assert (witness is None) is expected
        if witness is not None:
            value = sympy_form_value(densify(witness, len(g)), g)
            assert value.is_real and value < 0
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)
