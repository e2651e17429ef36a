import dataclasses
import random
from collections import deque

import pytest

from gradedrings import (
    BandedRingParams,
    ConnectionClasses,
    ConnectionPath,
    GradedRing,
    GroupSignature,
    PreconditionError,
    banded_ring,
    connected,
    connection_classes,
    group_algebra,
    is_symmetric_support,
    random_ring,
    verify_certificate,
)
from conftest import identity_gram, steps_by_degree


def band_degree(n, m, size):
    """Degree of the unit a((n,1),(m,1)) in a one-band ring of given size."""
    exps = [0] * size
    exps[n - 1] -= 1
    exps[m - 1] += 1
    return tuple(exps)


# -- connected ----------------------------------------------------------------

def test_element_is_connected_to_itself(band3):
    g = band3.sorted_support()[0]
    path = connected(band3, g, g)
    assert path.elements == (g,)
    assert verify_certificate(band3, path)


def test_same_band_elements_are_connected():
    ring = banded_ring(BandedRingParams(4, 1))
    q = band_degree(1, 2, 4)
    p = band_degree(3, 4, 4)
    path = connected(ring, q, p)
    assert path is not None
    assert verify_certificate(ring, path)


def test_cross_band_elements_are_not_connected():
    # primes go row-major over (row, band): band 1 gets 2, 5, 11 (generator
    # indices 0, 2, 4) and band 2 gets 3, 7, 13 (indices 1, 3, 5)
    ring = banded_ring(BandedRingParams(3, 2))
    q = (-1, 0, 1, 0, 0, 0)  # x(1,1)^-1 x(2,1)
    p = (0, -1, 0, 1, 0, 0)  # x(1,2)^-1 x(2,2)
    assert q in ring.support() and p in ring.support()
    assert connected(ring, q, p) is None


def test_connected_requires_support_membership(band2):
    g = band2.sorted_support()[0]
    with pytest.raises(PreconditionError):
        connected(band2, g, (0, 0))


def test_connected_is_symmetric_on_band_pairs():
    ring = banded_ring(BandedRingParams(3, 1))
    support = ring.sorted_support()
    for g in support:
        for h in support:
            forward = connected(ring, g, h)
            backward = connected(ring, h, g)
            assert (forward is None) == (backward is None)


# -- verify_certificate ---------------------------------------------------------

def test_published_length_five_certificate_verifies():
    # one band of six rows: q = x1^-1 x2, p = x3^-1 x4, helpers u=5, v=6;
    # the certificate multiplies out to p through prefixes x5^-1 x2,
    # x5^-1 x6, x3^-1 x6, all inside the symmetrized support
    ring = banded_ring(BandedRingParams(6, 1))
    d = lambda n, m: band_degree(n, m, 6)
    q, p = d(1, 2), d(3, 4)
    elements = (q, d(5, 1), d(2, 6), d(3, 5), d(6, 4))
    path = ConnectionPath(elements, q, p)
    assert verify_certificate(ring, path)


def test_certificate_with_bad_prefix_is_rejected():
    ring = banded_ring(BandedRingParams(6, 1))
    d = lambda n, m: band_degree(n, m, 6)
    q, p = d(1, 2), d(3, 4)
    # second prefix x1^-1 x2 * x3^-1 x4 has four nonzero coordinates, which
    # is not the degree of any unit
    path = ConnectionPath((q, d(3, 4), d(1, 3)), q, p)
    assert not verify_certificate(ring, path)


def test_certificate_malformed_paths_return_false(band2):
    g = band2.sorted_support()[0]
    assert not verify_certificate(band2, ConnectionPath((), g, g))
    assert not verify_certificate(band2, ConnectionPath(((9, 9, 9),), g, g))
    assert not verify_certificate(band2, ConnectionPath((g,), g, (0, 0)))
    wrong_first = ConnectionPath((band2.signature.invert(g),), g, g)
    assert not verify_certificate(band2, wrong_first)


def test_certificate_with_malformed_types_returns_false(band2):
    g = band2.sorted_support()[0]
    assert not verify_certificate(band2, ConnectionPath(None, g, g))
    assert not verify_certificate(band2, ConnectionPath((g,), 5, g))


def test_certificate_check_does_not_hide_library_errors(band2, monkeypatch):
    g = band2.sorted_support()[0]
    path = ConnectionPath((g, band2.signature.invert(g), g), g, g)

    def broken(self, a, b):
        raise RuntimeError("planted")

    monkeypatch.setattr(GroupSignature, "compose", broken)
    with pytest.raises(RuntimeError, match="planted"):
        verify_certificate(band2, path)


def test_certificate_check_does_not_hide_a_type_error(band2, monkeypatch):
    g = band2.sorted_support()[0]
    path = ConnectionPath((g, band2.signature.invert(g), g), g, g)

    def broken(self, a, b):
        raise TypeError("planted")

    monkeypatch.setattr(GroupSignature, "compose", broken)
    with pytest.raises(TypeError, match="planted"):
        verify_certificate(band2, path)


# -- connection_classes -----------------------------------------------------------

@pytest.mark.parametrize("size,bands", [(2, 1), (2, 3), (3, 2), (4, 3)])
def test_banded_rings_have_one_class_per_band(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    classes = connection_classes(ring)
    assert classes.count == bands
    assert sorted(len(b) for b in classes.blocks) == [size * (size - 1)] * bands


def test_classes_cover_the_support_disjointly(band3x2):
    classes = connection_classes(band3x2)
    seen = [g for block in classes.blocks for g in block]
    assert sorted(seen) == band3x2.sorted_support()
    assert len(seen) == len(set(seen))


def test_empty_support_has_no_classes():
    ring = banded_ring(BandedRingParams(1, 2))
    assert ring.support() == frozenset()
    assert connection_classes(ring).count == 0


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_cyclic_group_algebra_is_one_class(n):
    ring = group_algebra(GroupSignature(0, (n,)))
    classes = connection_classes(ring)
    assert classes.count == 1
    # brute-force cross-check: every pair is connected with a verified path
    support = ring.sorted_support()
    for g in support:
        for h in support:
            path = connected(ring, g, h)
            assert path is not None
            assert verify_certificate(ring, path)


def test_every_certificate_verifies(band3x2):
    classes = connection_classes(band3x2)
    for member, path in classes.certificates.items():
        assert path.target == member
        assert verify_certificate(band3x2, path)


def test_classes_are_closed_under_inversion():
    for seed in range(6):
        ring = random_ring(seed)
        sig = ring.signature
        support = ring.support()
        for block in connection_classes(ring).blocks:
            for g in block:
                inv = sig.invert(g)
                if inv in support:
                    assert inv in block


def _permuted_copy(ring, rng):
    n = ring.dim
    perm = list(range(n))
    rng.shuffle(perm)  # perm[new] = old
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    degrees = [ring.degrees[perm[i]] for i in range(n)]
    labels = [ring.labels[perm[i]] for i in range(n)]
    structure = {}
    for (i, j), entries in ring.structure.items():
        structure[(inv[i], inv[j])] = [(inv[k], c) for k, c in entries]
    grams = [
        [{inv[j]: x for j, x in gram.sparse[perm[a]].items()} for a in range(n)]
        for gram in ring.grams
    ]
    return GradedRing(ring.signature, degrees, structure, grams, labels)


def test_partition_is_invariant_under_basis_permutation():
    rng = random.Random(17)
    for seed in range(4):
        ring = random_ring(seed)
        shuffled = _permuted_copy(ring, rng)
        assert shuffled.validate().ok
        a = connection_classes(ring)
        b = connection_classes(shuffled)
        assert sorted(a.blocks) == sorted(b.blocks)


def test_equivalence_relation_on_random_instances():
    rng = random.Random(23)
    for seed in range(10):
        ring = random_ring(seed)
        support = ring.sorted_support()
        if not support:
            continue
        sample = support if len(support) <= 6 else rng.sample(support, 6)
        for g in sample:
            path = connected(ring, g, g)
            assert path is not None and verify_certificate(ring, path)
        for g in sample:
            for h in sample:
                gh = connected(ring, g, h)
                hg = connected(ring, h, g)
                assert (gh is None) == (hg is None)
                if gh is not None:
                    assert verify_certificate(ring, gh)
        for g in sample:
            for h in sample:
                for k in sample:
                    if connected(ring, g, h) and connected(ring, h, k):
                        assert connected(ring, g, k) is not None


def _enumeration_oracle(ring, g, h):
    """Decide connectedness independently of the production search.

    Computes the set of partial products attainable after each number of
    steps, always staying inside the symmetrized support, and tests each
    one-step extension against {h, h^-1}.  Any connection has a witness no
    longer than the number of distinct partial products plus one
    (pigeonhole on repeated products), so iterating that many levels is
    complete.
    """
    sig = ring.signature
    support = ring.support()
    closure = frozenset(support | {sig.invert(x) for x in support})
    targets = {h, sig.invert(h)}
    if g in targets:
        return True
    level = {g}
    for _ in range(len(closure)):
        extended = {sig.compose(p, x) for p in level for x in closure}
        if extended & targets:
            return True
        level = extended & closure
        if not level:
            return False
    return False


def test_search_matches_exhaustive_enumeration_on_tiny_supports():
    small = [
        group_algebra(GroupSignature(0, (4,))),
        group_algebra(GroupSignature(0, (2, 2))),
        banded_ring(BandedRingParams(2, 1)),
        direct_sum_pair(),
    ]
    for ring in small:
        support = ring.sorted_support()
        assert len(support) <= 4
        for g in support:
            for h in support:
                found = connected(ring, g, h) is not None
                assert found == _enumeration_oracle(ring, g, h), (g, h)


def direct_sum_pair():
    from gradedrings import direct_sum

    return direct_sum(banded_ring(BandedRingParams(2, 1)), banded_ring(BandedRingParams(2, 1)))


# -- one search mode --------------------------------------------------------------

def _early_exit_path(steps, start, targets):
    """The element trail of the two-mode search ``connected`` used before it
    shared the exhaustive one, on the steps decoded to degrees: stop at the
    first product, final step included, that lands in ``targets``; None
    when none does."""
    parent = {start: None}

    def trail(state):
        out = []
        while parent[state] is not None:
            state, x = parent[state]
            out.append(x)
        out.append(start)
        return tuple(reversed(out))

    if start in targets:
        return trail(start)
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for x, nxt in steps[state]:
            if nxt in targets:
                return trail(state) + (x,)
            if nxt not in parent:
                parent[nxt] = (state, x)
                queue.append(nxt)
    return None


def _reference_rings():
    """Banded n 1..4 x r 1..3, random_ring(0..59) and five group algebras:
    7,761 ordered pairs of support elements."""
    rings = [banded_ring(BandedRingParams(n, r)) for n in range(1, 5) for r in range(1, 4)]
    rings += [random_ring(seed) for seed in range(60)]
    for moduli in [(2, 2), (7,), (8,), (2, 4), (2, 2, 2)]:
        rings.append(group_algebra(GroupSignature(0, moduli)))
    return rings


REFERENCE_RINGS = _reference_rings()


def test_connected_returns_the_early_exit_search_path():
    pairs = 0
    for ring in REFERENCE_RINGS:
        classes = connection_classes(ring)
        block_of = {g: block for block in classes.blocks for g in block}
        support = ring.sorted_support()
        steps = steps_by_degree(ring)
        for g in support:
            for h in support:
                path = connected(ring, g, h)
                elements = _early_exit_path(steps, g, {h, ring.signature.invert(h)})
                if elements is None:
                    assert path is None, (g, h)
                else:
                    assert path == ConnectionPath(elements, g, h), (g, h)
                assert (path is not None) == (block_of[g] is block_of[h]), (g, h)
                pairs += 1
    assert pairs == 7761


def test_representatives_are_the_first_element_of_each_block():
    assert "representatives" not in {f.name for f in dataclasses.fields(ConnectionClasses)}
    for ring in REFERENCE_RINGS:
        classes = connection_classes(ring)
        assert classes.representatives == tuple(b[0] for b in classes.blocks)
        for block in classes.blocks:
            assert block[0] == min(block)
            assert all(classes.certificates[h].source == block[0] for h in block)


# -- is_symmetric_support ----------------------------------------------------------

def test_banded_support_is_symmetric(band3x2):
    ok, witness = is_symmetric_support(band3x2)
    assert ok and witness is None


def test_empty_support_is_symmetric():
    ring = banded_ring(BandedRingParams(1, 1))
    assert is_symmetric_support(ring) == (True, None)


def test_lonely_matrix_unit_is_asymmetric():
    # a single unit of degree x1^-1 x2 without its transpose partner
    sig = GroupSignature(2)
    ring = GradedRing(sig, [(-1, 1)], {}, [identity_gram(1)], ["a12"])
    assert ring.validate().ok
    ok, witness = is_symmetric_support(ring)
    assert not ok
    assert witness == (-1, 1)
