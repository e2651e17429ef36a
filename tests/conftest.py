import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    banded_ring,
    group_algebra,
)
from gradedrings.connections import _symmetrized
from gradedrings.linalg import ONE, ZERO, as_scalar, pairing


@pytest.fixture(scope="session")
def band2():
    """One band, two rows: dim 4 with a 2-element support."""
    return banded_ring(BandedRingParams(2, 1))


@pytest.fixture(scope="session")
def band3():
    return banded_ring(BandedRingParams(3, 1))


@pytest.fixture(scope="session")
def band3x2():
    """Two bands of three rows: dim 18, two connection classes."""
    return banded_ring(BandedRingParams(3, 2))


@pytest.fixture(scope="session")
def cyclic3():
    return group_algebra(GroupSignature(0, (3,)))


def identity_gram(n):
    return [{i: ONE} for i in range(n)]


def sparse(values):
    """A vector written densely, as its ``{index: nonzero Scalar}`` dict."""
    out = {}
    for j, x in enumerate(values):
        x = as_scalar(x)
        if x:
            out[j] = x
    return out


def densify(vec, n):
    """A sparse vector as a dense list of n scalars, for reference comparisons."""
    return [vec.get(j, ZERO) for j in range(n)]


def dense_rows(sub):
    """A subspace's canonical basis as dense rows, for reference comparisons."""
    return tuple(tuple(densify(row, sub.ambient)) for row in sub.sparse.values())


def trivially_graded_zero_ring(dim):
    """dim basis vectors of identity degree, all products zero."""
    sig = GroupSignature(0, ())
    return GradedRing(sig, [()] * dim, {}, [identity_gram(dim)])


# -- hand-planted single-defect rings, one per validation axiom ------------

def grading_defect_ring():
    # u of identity degree, w of degree (1,): u*u = w breaks the grading and
    # nothing else (all other products vanish, so associativity survives)
    sig = GroupSignature(1)
    return GradedRing(
        sig, [(0,), (1,)], {(0, 0): [(1, ONE)]}, [identity_gram(2)], ["u", "w"]
    )


def associativity_defect_ring():
    # trivially graded: u*u = v, u*v = w; (uu)u = vu = 0 but u(uu) = uv = w
    sig = GroupSignature(0, ())
    return GradedRing(
        sig,
        [(), (), ()],
        {(0, 0): [(1, ONE)], (0, 1): [(2, ONE)]},
        [identity_gram(3)],
        ["u", "v", "w"],
    )


def entries_typed_out_of_order():
    """e1 e2 = e2, e1 e1 = e2 and e0 e2 = e0, typed in that order: a
    non-associative product with violations on zero and nonzero e_i e_j."""
    return {(1, 2): [(2, ONE)], (1, 1): [(2, ONE)], (0, 2): [(0, ONE)]}


def orthogonality_defect_ring():
    # mixed degrees with a Gram pairing them; second Gram restores separation
    sig = GroupSignature(1)
    bad = [{0: ONE, 1: ONE}, {0: ONE, 1: ONE}]
    return GradedRing(sig, [(0,), (1,)], {}, [bad, identity_gram(2)], ["u", "w"])


def psd_defect_ring():
    sig = GroupSignature(0, ())
    bad = [{0: "1", 1: "2"}, {0: "2", 1: "1"}]
    return GradedRing(sig, [(), ()], {}, [bad], ["u", "v"])


def hausdorff_defect_ring():
    sig = GroupSignature(0, ())
    degenerate = [{0: ONE, 1: ONE}, {0: ONE, 1: ONE}]  # psd of rank 1, kernel (1,-1)
    return GradedRing(sig, [(), ()], {}, [degenerate], ["u", "v"])


def malformed_scalar_spec_dict():
    """A spec whose only defect is an unparseable scalar string."""
    from gradedrings.specfile import ring_to_dict

    data = ring_to_dict(trivially_graded_zero_ring(2))
    data["grams"][0][0][0] = "one"
    return data


def reference_support_multiplicative(ring):
    """Every support g against every support-or-identity h, composed with
    the checked group law: the loop the support steps must reproduce."""
    sig = ring.signature
    sup = ring.support()
    n, degrees = ring.dim, ring.degrees
    nonzero = {(degrees[i], degrees[j]) for i, j in ring.structure if 0 <= i < n and 0 <= j < n}
    for g in sorted(sup):
        for h in sorted(sup | {sig.identity()}):
            if sig.compose(g, h) in sup and (g, h) not in nonzero and (h, g) not in nonzero:
                return False, (g, h)
    return True, None


def steps_by_degree(ring):
    """The support-step table of ``connections._symmetrized`` with its degree
    ids decoded: per element g of the support with its inverses, the pairs
    (x, g x) of degrees, x ascending."""
    table = ring.degree_table()
    degrees = table.degrees
    return {
        degrees[g]: tuple([(degrees[x], degrees[gx]) for x, gx in pairs])
        for g, pairs in enumerate(_symmetrized(ring)[1])
        if g != table.one
    }


def rebased_units(ring, x, y):
    """``ring`` in the basis with e_x, e_y (both of one degree) replaced by
    f_x = e_x + e_y and f_y = e_x - e_y: the structure constants are the
    products of the new basis vectors in new coordinates, and each Gram is
    G' = P^T G P, the pairings of the new basis vectors."""
    assert ring.degrees[x] == ring.degrees[y]
    half = as_scalar("1/2")
    basis = [{i: ONE} for i in range(ring.dim)]
    basis[x], basis[y] = {x: ONE, y: ONE}, {x: ONE, y: -ONE}

    def coordinates(v):
        out = dict(v)
        a, b = out.pop(x, ZERO), out.pop(y, ZERO)
        # a e_x + b e_y = (a + b)/2 f_x + (a - b)/2 f_y
        for k, value in ((x, (a + b) * half), (y, (a - b) * half)):
            if value:
                out[k] = value
        return sorted(out.items())

    structure = {}
    for a in range(ring.dim):
        for b in range(ring.dim):
            w = ring.multiply(basis[a], basis[b])
            if w:
                structure[(a, b)] = coordinates(w)
    grams = []
    for gram in ring.grams:
        rows = [{} for _ in range(ring.dim)]
        for a in range(ring.dim):
            for b in range(ring.dim):
                value = pairing(basis[a], basis[b], gram)
                if value:
                    rows[a][b] = value
        grams.append(rows)
    return GradedRing(ring.signature, ring.degrees, structure, grams, ring.labels)
