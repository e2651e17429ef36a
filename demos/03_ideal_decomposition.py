"""Decompose a graded ring into class ideals plus an identity complement.

Each connection class contributes a graded ideal: the span of the products
between inverse-degree components of the class, plus the class's own
homogeneous components.  Ideals of distinct classes annihilate each other,
and together with an orthogonal complement inside the identity component
they cover the whole ring.  Here the ring is a direct sum of two bands and
one annihilating line, so the line survives as the complement.
"""

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    banded_ring,
    decompose,
    direct_sum,
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
print(f"cross-class products vanish: {dec.pairwise_zero}")
print(f"ideals pairwise orthogonal: {dec.orthogonal_ideals}")
print(f"identity component coherent: {dec.coherent}")
print()
print("the complement is nonzero exactly because the extra line never shows")
print("up in any product, so the identity component is bigger than the span")
print("of the inverse-degree products")
