import ast
import dataclasses
import types
from pathlib import Path

import gradedrings
from gradedrings import connections, decomposition, properties


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
    "nullspace", "pairing", "properties_report", "psd_counterexample",
    "random_ring", "ring_from_dict", "ring_to_dict", "save_ring", "span",
    "theorem_hypotheses", "verify_certificate",
]


def test_the_public_surface_is_exactly_these_names():
    """Adding a public name, or bringing a deleted one back, is a visible diff."""
    assert gradedrings.__all__ == PUBLIC_NAMES
    for name in ("unit_vector", "zero_vector", "vector", "class_component_sum",
                 "class_identity_span", "psd_check"):
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


# -- the modules import as one chain -------------------------------------------------

SOURCE = Path(gradedrings.__file__).resolve().parent

# every module imports only modules listed before it
CHAIN = [
    "errors", "groups", "linalg", "ring", "specfile", "generators", "connections",
    "decomposition", "properties", "report", "cli", "__main__", "__init__",
]


def sibling_imports(tree):
    """(module, imported names) of every relative import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [a.name for a in node.names]
            yield node.module, names


def test_every_module_is_on_the_chain():
    assert sorted(p.stem for p in SOURCE.glob("*.py")) == sorted(CHAIN)


def test_modules_import_only_earlier_modules_and_only_public_names():
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module, names in sibling_imports(tree):
            targets = [module] if module else names  # "from . import report"
            for target in targets:
                assert CHAIN.index(target) < CHAIN.index(path.stem), (path.stem, target)
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{path.stem} imports {private} from .{module or ''}"


def test_no_function_imports():
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.stem}.{fn.name} imports at line {inner}"


def test_each_analysis_has_one_home_and_the_properties_module_reexports_it():
    assert properties.is_coherent is decomposition.is_coherent is gradedrings.is_coherent
    assert properties.CoherenceReport is decomposition.CoherenceReport
    assert (properties.is_support_multiplicative is connections.is_support_multiplicative
            is gradedrings.is_support_multiplicative)
    assert not hasattr(properties, "_symmetrized")


def test_result_records_hold_no_field_that_restates_another():
    fields = {f.name for f in dataclasses.fields(gradedrings.PropertyReport)}
    for name in ("maximal_length", "support_multiplicative", "symmetric_support",
                 "coherent", "simple_by_oracle"):
        assert name not in fields
    # decompose raises unless the cross-class products vanish, and coherence
    # is is_coherent(ring).ok
    fields = {f.name for f in dataclasses.fields(gradedrings.IdealDecomposition)}
    assert not fields & {"pairwise_zero", "coherent"}


def test_no_module_reads_the_environment():
    """A report depends only on its command line and its input file."""
    reads = {"environ", "environb", "getenv", "getenvb"}
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "os"
            for alias in node.names
        )
        assert not names & reads, f"{path.stem} reads {sorted(names & reads)}"
