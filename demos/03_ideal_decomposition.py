"""Decompose a graded ring into class ideals plus an identity complement.

Each connection class contributes a graded ideal: the span of the products
between inverse-degree components of the class, plus the class's own
homogeneous components.  Ideals of distinct classes annihilate each other,
and together with an orthogonal complement inside the identity component
they cover the whole ring.  Here the ring is a direct sum of two bands and
one annihilating line, so the line survives as the complement.

``decompose`` checks the cross-class products itself and raises if one is
nonzero; below they are multiplied out once more, every pair of basis rows.
"""

from itertools import permutations

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    banded_ring,
    decompose,
    direct_sum,
    is_coherent,
)
from gradedrings.linalg import ONE

two_bands = banded_ring(BandedRingParams(size=2, bands=2))
line = GradedRing(GroupSignature(0, ()), [()], {}, [[{0: ONE}]], ["z"])  # Gram rows {j: scalar}
ring = direct_sum(two_bands, line)
print(f"ring: {ring}")
print(f"validates: {ring.validate().ok}")
print()

dec = decompose(ring)
print(f"connection classes: {dec.classes.count}")
for block, ideal, one_span in zip(dec.classes.blocks, dec.ideals, dec.identity_spans):
    print(f"  class of {block[0]}: ideal dimension {ideal.dim} "
          f"(identity part {one_span.dim})")
print()
print(f"identity complement dimension: {dec.complement.dim} "
      f"(the annihilating line, exact: {dec.complement_exact})")
print(f"covers the whole ring: {dec.covers}")
cross = [
    ring.multiply(u, v)
    for first, second in permutations(dec.ideals, 2)
    for u in first.sparse.values()
    for v in second.sparse.values()
]
print(f"cross-class products vanish: {not any(cross)}")
print(f"ideals pairwise orthogonal: {dec.orthogonal_ideals}")
print(f"identity component coherent: {is_coherent(ring).ok}")
print()
print("the complement is nonzero exactly because the extra line never shows")
print("up in any product, so the identity component is bigger than the span")
print("of the inverse-degree products")
