import types

import gradedrings


def test_all_lists_every_public_name_the_package_imports():
    public = {
        name
        for name, obj in vars(gradedrings).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert gradedrings.__all__ == sorted(public)
    assert {"GradedRing", "GroupSignature", "decompose", "load_ring"} <= public
    namespace = {}
    exec("from gradedrings import *", namespace)
    assert public <= namespace.keys()


PUBLIC_NAMES = [
    "BandedRingParams", "CoherenceReport", "ConnectionClasses", "ConnectionPath",
    "EchelonBasis", "GradedRing", "GradedRingsError", "GroupSignature",
    "IdealDecomposition", "MalformedInputError", "OracleResult", "PreconditionError",
    "PropertyReport", "RandomRingParams", "Scalar", "SpecFileError", "Subspace",
    "TheoremViolationError", "Violation", "ViolationReport",
    "annihilator", "banded_ring", "class_ideal", "connected", "connection_classes",
    "decompose", "direct_sum", "dumps_ring", "first_primes", "full_space",
    "graded_simple_oracle", "graded_simple_theorem", "group_algebra", "ideal_closure",
    "identity_complement", "identity_products_span", "induced_subring", "is_coherent",
    "is_graded_ideal", "is_maximal_length", "is_support_multiplicative",
    "is_symmetric_support", "joint_orthogonal_complement", "load_ring", "loads_ring",
    "nullspace", "pairing", "properties_report", "psd_check", "psd_counterexample",
    "random_ring", "ring_from_dict", "ring_to_dict", "save_ring", "span",
    "theorem_hypotheses", "verify_certificate",
]


def test_the_public_surface_is_exactly_these_names():
    """Adding a public name, or bringing a deleted one back, is a visible diff."""
    assert gradedrings.__all__ == PUBLIC_NAMES
    for name in ("unit_vector", "zero_vector", "vector", "class_component_sum",
                 "class_identity_span"):
        assert not hasattr(gradedrings, name)


def test_the_dense_vector_api_stays_deleted():
    """Vectors are sparse dicts everywhere; no dense form or converter is left."""
    from gradedrings import linalg

    for name in ("as_sparse", "as_dense", "in_form_of", "as_gram", "vector",
                 "zero_vector", "unit_vector"):
        assert not hasattr(linalg, name)
    for cls, attr in [(linalg.Subspace, "rows"), (linalg.Subspace, "intersect"),
                      (linalg.Gram, "rows"), (linalg.Gram, "__getitem__"),
                      (linalg.Scalar, "is_real"), (gradedrings.GradedRing, "basis_product")]:
        assert not hasattr(cls, attr)
