"""gradedrings: exact computational algebra for group-graded rings.

A finite-dimensional ring graded by a finitely generated abelian group and
carrying a family of positive-semidefinite inner products is modeled with
exact rational (or Gaussian rational) arithmetic.  The package validates
the axioms, partitions the support into connection classes with verifiable
path certificates, builds the graded ideal attached to each class, checks
the covering and orthogonality statements, and decides graded simplicity
both through the structure-theorem characterization and through a
brute-force ideal oracle.
"""

from .connections import (
    ConnectionClasses,
    ConnectionPath,
    connected,
    connection_classes,
    is_support_multiplicative,
    is_symmetric_support,
    verify_certificate,
)
from .decomposition import (
    CoherenceReport,
    IdealDecomposition,
    class_ideal,
    decompose,
    identity_complement,
    identity_products_span,
    is_coherent,
    is_graded_ideal,
)
from .errors import (
    GradedRingsError,
    MalformedInputError,
    PreconditionError,
    SpecFileError,
    TheoremViolationError,
)
from .generators import (
    BandedRingParams,
    RandomRingParams,
    banded_ring,
    direct_sum,
    first_primes,
    group_algebra,
    random_ring,
)
from .groups import GroupSignature
from .linalg import (
    EchelonBasis,
    Scalar,
    Subspace,
    full_space,
    joint_orthogonal_complement,
    nullspace,
    pairing,
    psd_counterexample,
    span,
)
from .properties import (
    OracleResult,
    PropertyReport,
    annihilator,
    graded_simple_oracle,
    graded_simple_theorem,
    ideal_closure,
    induced_subring,
    is_maximal_length,
    properties_report,
    theorem_hypotheses,
)
from .ring import GradedRing, Violation, ViolationReport
from .specfile import dumps_ring, load_ring, loads_ring, ring_from_dict, ring_to_dict, save_ring

__version__ = "0.1.0"

# the public names are exactly the classes and functions imported above
__all__ = sorted(
    name
    for name, obj in globals().items()
    if getattr(obj, "__module__", "").startswith(f"{__name__}.")
)
