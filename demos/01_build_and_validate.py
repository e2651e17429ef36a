"""Build a banded matrix-unit ring and check the axioms.

The ring has r bands of N x N matrix units.  Units multiply like matrix
units inside a band and annihilate across bands, and each unit is graded by
a difference of free-abelian generators attached to distinct primes.
"""

from gradedrings import BandedRingParams, GradedRing, banded_ring
from gradedrings.linalg import ONE

params = BandedRingParams(size=3, bands=1)
ring = banded_ring(params)

print(f"ring: {ring}")
print(f"basis labels: {', '.join(ring.labels)}")
print()

print("a few products (read a((n,t),(m,t)) as the unit E_nm of band t):")
for left, right in [(0, 1), (1, 5), (1, 3)]:
    product = ring.multiply({left: ONE}, {right: ONE})  # vectors are {index: scalar}
    terms = [ring.labels[k] for k in sorted(product)]
    print(f"  {ring.labels[left]} * {ring.labels[right]} = {terms[0] if terms else '0'}")
print()

report = ring.validate()
print(f"validation: {'all axioms hold' if report.ok else 'violations found'}")
print()

print("now rewire one product: the square of a diagonal unit is sent into")
print("the wrong homogeneous component; in a matrix-unit ring this breaks")
print("the grading and drags associativity down with it, and every failure")
print("is reported with a witness triple")
broken_structure = {k: list(v) for k, v in ring.structure.items()}
broken_structure[(0, 0)] = [(1, 1)]  # diagonal * diagonal must stay diagonal
broken = GradedRing(ring.signature, ring.degrees, broken_structure, ring.grams, ring.labels)
report = broken.validate()
print(f"  violation kinds: {report.kinds()}")
for violation in list(report)[:3]:
    print(f"  [{violation.kind}] at {violation.where}: {violation.detail}")
print(f"  ... {len(report)} violations in total")
