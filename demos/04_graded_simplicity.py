"""Decide graded simplicity two ways and watch the routes agree.

The theorem route checks the characterization (connected support plus an
identity component spanned by inverse-degree products) under its standing
hypotheses.  The oracle route grows smallest graded ideals from seed
vectors and refutes simplicity with any proper nonzero closure.  The oracle
answers True only when its tested closures provably cover every candidate
ideal, and says so.
"""

from gradedrings import (
    BandedRingParams,
    GroupSignature,
    banded_ring,
    graded_simple_oracle,
    graded_simple_theorem,
    group_algebra,
    ideal_closure,
    theorem_hypotheses,
)
from gradedrings.linalg import ONE


def show(name, ring):
    hyps = theorem_hypotheses(ring)
    theorem = graded_simple_theorem(ring)
    oracle = graded_simple_oracle(ring, sample_count=4, seed=0)
    print(f"{name} (dim {ring.dim})")
    print(f"  hypotheses: {', '.join(k for k, v in hyps.items() if v) or 'none'}")
    missing = [k for k, v in hyps.items() if not v]
    if missing:
        print(f"  missing: {', '.join(missing)}")
    print(f"  theorem: {'hypotheses not met' if theorem is None else theorem}")
    verdict = "inconclusive" if oracle.verdict is None else oracle.verdict
    print(f"  oracle: {verdict} after {oracle.closures_tested} closures ({oracle.reason})")
    print()


one_band = banded_ring(BandedRingParams(size=3, bands=1))
show("one band of 3x3 units", one_band)

two_bands = banded_ring(BandedRingParams(size=2, bands=2))
show("two bands of 2x2 units", two_bands)
witness = graded_simple_oracle(two_bands, sample_count=0).witness
closure = ideal_closure(two_bands, witness)
print(f"  the refuting closure has dimension {closure.dim} of {two_bands.dim}:")
print(f"  one band is a proper graded ideal")
print()

show("group algebra of Z/5", group_algebra(GroupSignature(0, (5,))))

print("closures in the one-band ring all fill it, for example from a single")
print("off-diagonal unit:")
c = ideal_closure(one_band, {1: ONE})
print(f"  closure of {one_band.labels[1]} has dimension {c.dim} of {one_band.dim}")
