import gc
import json

import pytest

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    banded_ring,
    dumps_ring,
    random_ring,
    connection_classes,
    decompose,
    is_symmetric_support,
    properties_report,
)
from gradedrings.report import (
    classes_section,
    decomposition_section,
    dumps_report,
    properties_section,
    render_text,
    support_section,
    validation_section,
)

from gradedrings.linalg import ONE, Scalar

from conftest import densify, grading_defect_ring


def full_report(ring):
    symmetric, witness = is_symmetric_support(ring)
    return {
        "command": "decompose",
        "input": "ring.json",
        "validation": validation_section(ring.validate()),
        "support": support_section(ring, symmetric, witness),
        "classes": classes_section(connection_classes(ring)),
        "decomposition": decomposition_section(ring, decompose(ring)),
        "properties": properties_section(properties_report(ring, oracle_samples=1)),
    }


def test_report_round_trips_through_json():
    report = full_report(banded_ring(BandedRingParams(2, 2)))
    assert json.loads(dumps_report(report)) == report


def test_dumps_report_matches_json_dumps():
    report = full_report(banded_ring(BandedRingParams(3, 2)))
    report["timing"] = {"seconds": 0.012345}
    assert dumps_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_writers_leave_no_cyclic_garbage():
    """Writing a report or a spec file creates no reference cycles, so it
    leaves the cyclic collector nothing to free."""
    ring = banded_ring(BandedRingParams(2, 2))
    report = full_report(ring)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        dumps_report(report)
        dumps_ring(ring, {"generator": "banded"})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def complex_ring():
    """Dim 3, trivially graded, with Q(i) entries in its Gram."""
    i = Scalar(0, 1)
    gram = [{0: ONE, 1: i}, {0: -i, 1: Scalar(2)}, {}]
    return GradedRing(GroupSignature(0, ()), [(), (), ()], {}, [gram])


@pytest.mark.parametrize(
    "ring",
    [banded_ring(BandedRingParams(3, 2)), random_ring(3), random_ring(11), complex_ring()],
    ids=["band3x2", "random3", "random11", "complex"],
)
def test_basis_rows_are_the_dense_canonical_rows(ring):
    """Bases written from sparse rows equal the dense rows, entry by entry."""

    def dense(sub):
        return [[str(x) for x in densify(row, sub.ambient)] for row in sub.sparse.values()]

    dec = decompose(ring)
    section = decomposition_section(ring, dec)
    assert [ideal["basis"] for ideal in section["ideals"]] == [dense(i) for i in dec.ideals]
    assert section["complement"]["basis"] == dense(dec.complement)
    props = properties_report(ring, oracle_samples=1)
    section = properties_section(props)
    assert section["annihilator"]["basis"] == dense(props.annihilator)
    witness = props.oracle.witness
    assert section["oracle"]["witness"] == (
        None if witness is None else [str(x) for x in densify(witness, ring.dim)]
    )


def test_oracle_witnesses_are_written_densely():
    """A refuting basis vector and a refuting sampled vector, each written
    as all of its coordinates."""
    band = properties_section(properties_report(banded_ring(BandedRingParams(2, 2)), 0))
    assert band["oracle"]["witness"] == ["1", "0", "0", "0", "0", "0", "0", "0"]
    # Q x Q on the basis (1, 1), (1, -1): both basis vectors are units, but
    # a sampled x e0 + y e1 with x = +-y is not
    twins = GradedRing(
        GroupSignature(0, ()), [(), ()],
        {(0, 0): [(0, ONE)], (0, 1): [(1, ONE)], (1, 0): [(1, ONE)], (1, 1): [(0, ONE)]},
        [[{0: ONE}, {1: ONE}]],
    )
    section = properties_section(properties_report(twins, oracle_samples=8, oracle_seed=1))
    assert section["oracle"]["reason"] == "closure of a sampled identity-component vector is proper"
    assert section["oracle"]["witness"] == ["-6", "6"]


def test_dumps_report_is_deterministic():
    report = full_report(banded_ring(BandedRingParams(2, 1)))
    assert dumps_report(report) == dumps_report(report)


def test_render_text_is_a_pure_function_of_the_report():
    report = full_report(banded_ring(BandedRingParams(2, 2)))
    text = render_text(report)
    assert text == render_text(json.loads(dumps_report(report)))
    assert "connection classes: 2" in text
    assert "graded simple (theorem): False" in text


def test_render_text_shows_violations():
    ring = grading_defect_ring()
    report = {
        "command": "validate",
        "input": "bad.json",
        "validation": validation_section(ring.validate()),
    }
    text = render_text(report)
    assert "validation: FAILED" in text
    assert "[grading]" in text


def test_multiplicativity_witness_renders():
    from gradedrings import GradedRing, banded_ring as _banded

    base = _banded(BandedRingParams(3, 1))
    structure = {k: list(v) for k, v in base.structure.items()}
    del structure[(base.labels.index("a((1,1),(2,1))"), base.labels.index("a((2,1),(3,1))"))]
    edited = GradedRing(base.signature, base.degrees, structure, base.grams, base.labels)
    section = properties_section(properties_report(edited, oracle_samples=0))
    assert section["support_multiplicative"] is False
    assert section["support_multiplicative_failure"] == [[-1, 1, 0], [0, -1, 1]]
    text = render_text({"command": "properties", "properties": section})
    assert "witness pair" in text


def test_tri_states_render_as_labels():
    ring = banded_ring(BandedRingParams(1, 2))  # empty support
    section = properties_section(properties_report(ring, oracle_samples=1))
    assert section["simple_by_theorem"] == "hypotheses-not-met"
    assert section["simple_by_oracle"] in (True, False, "inconclusive")


def test_timing_section_renders():
    report = {"command": "validate", "timing": {"seconds": 0.25}}
    assert "elapsed: 0.25 s" in render_text(report)
