"""Constructors for ring families with known ground truth.

The flagship family is the banded matrix-unit ring: units a((n,t),(m,t))
indexed by rows n, m inside a band t multiply like matrix units within a
band and annihilate across bands.  Each unit is graded by the exponent
vector of p(n,t)^-1 p(m,t) in the free abelian group on a set of distinct
primes, so a ring with r bands has exactly r connection classes and
decomposes into r minimal ideals.  Gram matrices are scaled identities.

Random instances are compositions of these associativity-safe families
under the direct sum, never raw random tensors (random structure constants
essentially never satisfy associativity and the grading at once).  All
constructors are deterministic functions of their parameters or seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .groups import GroupSignature
from .linalg import ONE, Scalar
from .ring import GradedRing


def first_primes(count: int) -> list[int]:
    out = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out):
            out.append(candidate)
        candidate += 1
    return out


@dataclass(frozen=True)
class BandedRingParams:
    """Parameters of the banded matrix-unit family.

    ``size`` is the number of rows per band (at least 1), ``bands`` the
    number of bands (at least 1).  ``primes`` assigns one distinct label to
    each (row, band) pair, flattened row-major (all bands of row 1, then row
    2, ...); by default the first size*bands primes.  ``weights`` are the
    Gram scale factors, rationals at least 1, one Gram per weight.
    """

    size: int
    bands: int = 1
    primes: tuple[int, ...] | None = None
    weights: tuple[Fraction, ...] = (Fraction(1),)

    def __post_init__(self):
        if self.size < 1 or self.bands < 1:
            raise PreconditionError("size and bands must be at least 1")
        primes = self.primes
        if primes is None:
            primes = tuple(first_primes(self.size * self.bands))
        else:
            primes = tuple([int(p) for p in primes])
        object.__setattr__(self, "primes", primes)
        if len(primes) != self.size * self.bands:
            raise PreconditionError(
                f"need {self.size * self.bands} primes, got {len(primes)}"
            )
        if len(set(primes)) != len(primes):
            raise PreconditionError("prime labels must be pairwise distinct")
        if any(p < 2 for p in primes):
            raise PreconditionError("prime labels must be at least 2")
        weights = tuple([Fraction(w) for w in self.weights])
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise PreconditionError("at least one weight is required")
        if any(w < 1 for w in weights):
            raise PreconditionError("weights must be at least 1")

    def prime(self, row: int, band: int) -> int:
        """Label of (row, band), both 1-based."""
        return self.primes[(row - 1) * self.bands + (band - 1)]


def banded_ring(params: BandedRingParams) -> GradedRing:
    """Build the banded matrix-unit ring for the given parameters.

    Dimension is bands * size^2.  The unit a((n,t),(m,t)) has degree
    -e(p(n,t)) + e(p(m,t)) in the free abelian group on the sorted distinct
    primes; products match middle indices inside a band and vanish across
    bands.  The output always validates cleanly.
    """
    n_rows, n_bands = params.size, params.bands
    generator_index = {p: i for i, p in enumerate(sorted(params.primes))}
    rank = len(params.primes)
    sig = GroupSignature(free_rank=rank)

    def unit_index(band, row, col):
        return (band - 1) * n_rows * n_rows + (row - 1) * n_rows + (col - 1)

    degrees = []
    labels = []
    for band in range(1, n_bands + 1):
        for row in range(1, n_rows + 1):
            for col in range(1, n_rows + 1):
                exps = [0] * rank
                exps[generator_index[params.prime(row, band)]] -= 1
                exps[generator_index[params.prime(col, band)]] += 1
                degrees.append(tuple(exps))
                labels.append(f"a(({row},{band}),({col},{band}))")

    structure = {}
    for band in range(1, n_bands + 1):
        for row in range(1, n_rows + 1):
            for mid in range(1, n_rows + 1):
                for col in range(1, n_rows + 1):
                    structure[(unit_index(band, row, mid), unit_index(band, mid, col))] = [
                        (unit_index(band, row, col), ONE)
                    ]

    dim = n_bands * n_rows * n_rows
    grams = []
    for w in params.weights:
        scale = Scalar(w)
        grams.append([{i: scale} for i in range(dim)])
    return GradedRing(sig, degrees, structure, grams, labels)


def group_algebra(sig: GroupSignature) -> GradedRing:
    """Group algebra of a finite abelian group graded by itself.

    Basis elements are the group elements, products compose them, and the
    single Gram is the identity.
    """
    if not sig.is_finite():
        raise PreconditionError("group algebra generator needs a finite group")
    elements = sig.elements()
    index = {g: i for i, g in enumerate(elements)}
    structure = {}
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            structure[(i, j)] = [(index[sig.compose_canonical(g, h)], ONE)]
    dim = len(elements)
    grams = [[{i: ONE} for i in range(dim)]]
    labels = ["g(" + ",".join(str(e) for e in g) + ")" for g in elements]
    return GradedRing(sig, elements, structure, grams, labels)


def direct_sum(a: GradedRing, b: GradedRing, embedding: str = "disjoint") -> GradedRing:
    """Block-diagonal sum of two rings inside a common grading group.

    ``disjoint`` (default) concatenates the two signatures, so degree images
    can never collide and connection classes are the disjoint union of the
    summands' classes.  ``shared`` keeps a common signature (the two must be
    equal) and refuses to proceed when nonidentity degrees of the two
    summands collide.  Gram families combine as zero-extensions of each
    summand's Grams; 0-dimensional summands contribute none so that summing
    with a zero ring is the identity.
    """
    if embedding == "disjoint":
        sig = GroupSignature(
            a.signature.free_rank + b.signature.free_rank,
            tuple(sorted(a.signature.torsion + b.signature.torsion)),
        )
        map_a = _signature_embedding(a.signature, b.signature, sig, first=True)
        map_b = _signature_embedding(a.signature, b.signature, sig, first=False)
    elif embedding == "shared":
        if a.signature != b.signature:
            raise PreconditionError("shared embedding needs equal signatures")
        sig = a.signature
        map_a = map_b = lambda d: d
        one = sig.identity()
        shared_a = {map_a(d) for d in a.degrees if d != one}
        shared_b = {map_b(d) for d in b.degrees if d != one}
        overlap = shared_a & shared_b
        if overlap:
            raise PreconditionError(
                f"degree images collide at {sorted(overlap)[0]}; use a disjoint embedding"
            )
    else:
        raise PreconditionError(f"unknown embedding {embedding!r}")

    degrees = [map_a(d) for d in a.degrees] + [map_b(d) for d in b.degrees]
    labels = list(a.labels)
    seen = set(labels)
    for label in b.labels:
        while label in seen:
            label = label + "'"
        seen.add(label)
        labels.append(label)
    off = a.dim
    structure = {}
    for (i, j), entries in a.structure.items():
        structure[(i, j)] = list(entries)
    for (i, j), entries in b.structure.items():
        structure[(i + off, j + off)] = [(k + off, c) for k, c in entries]
    grams = []
    if a.dim:
        for gram in a.grams:
            grams.append(list(gram.sparse) + [{}] * b.dim)
    if b.dim:
        for gram in b.grams:
            grams.append([{}] * off + [{j + off: x for j, x in row.items()} for row in gram.sparse])
    if not grams:
        grams = [tuple()]  # both summands were zero-dimensional
    return GradedRing(sig, degrees, structure, grams, labels)


def _signature_embedding(sig_a: GroupSignature, sig_b: GroupSignature, common, first: bool):
    """Coordinate embedding into the concatenated signature.

    The common group sorts torsion moduli, so each summand's torsion
    coordinates are placed at the positions its moduli occupy after the
    merge (stable with respect to the original order for equal moduli).
    """
    fa, fb = sig_a.free_rank, sig_b.free_rank
    merged = sorted(
        [(m, 0, i) for i, m in enumerate(sig_a.torsion)]
        + [(m, 1, i) for i, m in enumerate(sig_b.torsion)]
    )
    slot = {}
    for pos, (_, side, i) in enumerate(merged):
        slot[(side, i)] = pos
    # this summand's free block starts at ``start``; ``own`` tags its moduli in ``merged``
    start, free, own = (0, fa, 0) if first else (fa, fb, 1)

    def embed(d):
        d = tuple(d)
        out = [0] * common.length
        out[start : start + free] = d[:free]
        for i, e in enumerate(d[free:]):
            out[fa + fb + slot[(own, i)]] = e
        return tuple(out)

    return embed


MAX_SUMMANDS = 3  # random_ring composes at most this many summands
PRIME_POOL = 40  # and draws the primes of its banded summands from this many


@dataclass(frozen=True)
class RandomRingParams:
    """Size knob for :func:`random_ring`."""

    max_dim: int = 24

    def __post_init__(self):
        if self.max_dim < 2:
            raise PreconditionError("max_dim must be at least 2")


def random_ring(seed: int, params: RandomRingParams = RandomRingParams()) -> GradedRing:
    """Seeded pseudo-random composition of banded and group-algebra rings.

    Deterministic in the seed, always validates (the building blocks are
    associative by construction and the direct sum keeps them so).
    """
    rng = random.Random(seed)
    pool = first_primes(PRIME_POOL)
    budget = params.max_dim
    summands = []
    for _ in range(rng.randint(1, MAX_SUMMANDS)):
        if budget < 2:
            break
        kind = rng.choice(("banded", "banded", "banded", "group"))
        if kind == "banded":
            options = [
                (size, bands)
                for size in (1, 2, 3, 4)
                for bands in (1, 2, 3)
                if size * size * bands <= budget and (size, bands) != (1, 1)
            ]
            if not options:
                continue
            size, bands = rng.choice(options)
            primes = tuple(rng.sample(pool, size * bands))
            weights = tuple([Fraction(rng.randint(2, 8), 2) for _ in range(rng.randint(1, 2))])
            summands.append(banded_ring(BandedRingParams(size, bands, primes, weights)))
            budget -= size * size * bands
        else:
            modulus = rng.randint(2, min(6, budget))
            summands.append(group_algebra(GroupSignature(0, (modulus,))))
            budget -= modulus
    if not summands:
        summands.append(group_algebra(GroupSignature(0, (2,))))
    out = summands[0]
    for extra in summands[1:]:
        out = direct_sum(out, extra)
    return out
