"""Acceptance suite: one test per criterion, exact tolerances (zero).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The random fleet is seeded and shared across criteria.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gradedrings import (
    BandedRingParams,
    annihilator,
    banded_ring,
    class_ideal,
    connected,
    connection_classes,
    decompose,
    graded_simple_oracle,
    graded_simple_theorem,
    is_coherent,
    is_graded_ideal,
    is_maximal_length,
    is_support_multiplicative,
    is_symmetric_support,
    random_ring,
    save_ring,
    theorem_hypotheses,
    verify_certificate,
)
from gradedrings.cli import main as cli_main

from conftest import (
    associativity_defect_ring,
    grading_defect_ring,
    hausdorff_defect_ring,
    malformed_scalar_spec_dict,
    orthogonality_defect_ring,
    psd_defect_ring,
)

FLEET_SIZE = 200


@pytest.fixture(scope="module")
def fleet():
    rings = [random_ring(seed) for seed in range(FLEET_SIZE)]
    assert all(ring.dim <= 24 for ring in rings)
    return rings


@pytest.fixture(scope="module")
def fleet_decompositions(fleet):
    return [decompose(ring) for ring in fleet]


def test_criterion_1_published_example_reproduction():
    started = time.perf_counter()
    params = BandedRingParams(4, 3)
    ring = banded_ring(params)
    assert ring.dim == 48
    assert ring.validate().ok

    classes = connection_classes(ring)
    assert classes.count == 3
    # each class must be exactly one band: the generator coordinates of a
    # band are the positions of its primes in the sorted prime list
    all_primes = sorted(params.primes)
    band_coords = []
    for band in range(1, 4):
        coords = {all_primes.index(params.prime(row, band)) for row in range(1, 5)}
        band_coords.append(coords)
    for block in classes.blocks:
        used = {i for g in block for i, e in enumerate(g) if e}
        assert used in band_coords
        assert len(block) == 12

    dec = decompose(ring)
    assert [ideal.dim for ideal in dec.ideals] == [16, 16, 16]
    assert dec.complement.dim == 0
    assert dec.complement_exact
    assert dec.covers and dec.orthogonal_ideals

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (published-example reproduction, {elapsed:.2f}s): PASS")


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("bands", [1, 2, 3])
def test_criterion_2_hypothesis_suite(size, bands):
    ring = banded_ring(BandedRingParams(size, bands))
    assert is_maximal_length(ring)
    assert is_support_multiplicative(ring) == (True, None)
    assert is_coherent(ring).ok
    assert is_symmetric_support(ring) == (True, None)
    assert annihilator(ring).dim == 0
    print(f"\nACCEPTANCE 2 (hypothesis suite, size={size} bands={bands}): PASS")


def test_criterion_3_equivalence_relation(fleet):
    rng = random.Random(314159)
    checked_pairs = 0
    for ring in fleet:
        support = ring.sorted_support()
        if not support:
            continue
        sample = support if len(support) <= 6 else rng.sample(support, 6)
        reach = {}
        for g in sample:
            for h in sample:
                path = connected(ring, g, h)
                reach[(g, h)] = path is not None
                if path is not None:
                    assert verify_certificate(ring, path), (g, h)
                checked_pairs += 1
        for g in sample:
            assert reach[(g, g)], f"reflexivity failed at {g}"
        for g in sample:
            for h in sample:
                assert reach[(g, h)] == reach[(h, g)], f"symmetry failed at {g},{h}"
        for g in sample:
            for h in sample:
                for k in sample:
                    if reach[(g, h)] and reach[(h, k)]:
                        assert reach[(g, k)], f"transitivity failed at {g},{h},{k}"
    assert len(fleet) >= 200
    print(f"\nACCEPTANCE 3 (equivalence relation, {len(fleet)} instances, "
          f"{checked_pairs} certified pairs): PASS")


def test_criterion_4_ideals_subrings_annihilation(fleet):
    ideals_checked = 0
    for ring in fleet:
        blocks = connection_classes(ring).blocks
        ideals = [class_ideal(ring, block) for block in blocks]
        for ideal in ideals:
            assert is_graded_ideal(ring, ideal)
            inside = ideal.basis()
            for u in ideal.sparse.values():
                for v in ideal.sparse.values():
                    assert inside.contains(ring.multiply(u, v))
            ideals_checked += 1
        for a in range(len(ideals)):
            for b in range(len(ideals)):
                if a == b:
                    continue
                for u in ideals[a].sparse.values():
                    for v in ideals[b].sparse.values():
                        assert not ring.multiply(u, v)
    print(f"\nACCEPTANCE 4 (graded ideals and cross annihilation, "
          f"{ideals_checked} ideals): PASS")


def test_criterion_5_covering_and_orthogonality(fleet, fleet_decompositions):
    coherent_count = 0
    for ring, dec in zip(fleet, fleet_decompositions):
        assert dec.covers, "covering failed"
        if is_coherent(ring).ok:
            coherent_count += 1
            assert dec.orthogonal_ideals
    print(f"\nACCEPTANCE 5 (covering always, orthogonality on {coherent_count} "
          f"coherent instances): PASS")


def test_criterion_6_oracle_equivalence(fleet):
    compared = 0
    verdicts = []
    extras = [banded_ring(BandedRingParams(2, 1)), banded_ring(BandedRingParams(3, 1)),
              banded_ring(BandedRingParams(2, 2))]
    for ring in extras + list(fleet):
        if ring.dim > 16:
            continue
        if not all(theorem_hypotheses(ring).values()):
            continue
        theorem = graded_simple_theorem(ring)
        oracle = graded_simple_oracle(ring, sample_count=4, seed=1)
        if oracle.verdict is None:
            continue
        assert theorem == oracle.verdict, f"disagreement on dim {ring.dim}"
        compared += 1
        verdicts.append(oracle.verdict)
    # the explicit one-band rings must come out simple, the two-band not
    assert verdicts[0] is True and verdicts[1] is True and verdicts[2] is False
    assert compared >= 10
    print(f"\nACCEPTANCE 6 (theorem/oracle agreement on {compared} instances): PASS")


DEFECT_CASES = [
    ("grading", grading_defect_ring, (0, 0, 1)),
    ("associativity", associativity_defect_ring, (0, 0, 0)),
    ("orthogonality", orthogonality_defect_ring, (0, 0, 1)),
    ("psd", psd_defect_ring, (0,)),
    ("hausdorff", hausdorff_defect_ring, ()),
]


def test_criterion_7_validation_soundness(tmp_path, capsys):
    for kind, builder, where in DEFECT_CASES:
        path = tmp_path / f"{kind}.json"
        save_ring(path, builder())
        code = cli_main(["--report", "json", "validate", str(path)])
        out = capsys.readouterr().out
        assert code == 1, kind
        violations = json.loads(out)["validation"]["violations"]
        assert {v["kind"] for v in violations} == {kind}
        assert list(where) in [v["where"] for v in violations]
    bad = tmp_path / "malformed_scalar.json"
    bad.write_text(json.dumps(malformed_scalar_spec_dict()))
    code = cli_main(["validate", str(bad)])
    capsys.readouterr()
    assert code == 2
    print("\nACCEPTANCE 7 (validation soundness, 6 planted defects): PASS")


def test_criterion_8_determinism(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    reports = []
    for run_dir in ("one", "two"):
        cwd = tmp_path / run_dir
        cwd.mkdir()
        gen = subprocess.run(
            [sys.executable, "-m", "gradedrings", "gen", "random", "--seed", "42",
             "-o", "ring.json"],
            cwd=cwd, env=env, capture_output=True,
        )
        assert gen.returncode == 0, gen.stderr
        dec = subprocess.run(
            [sys.executable, "-m", "gradedrings", "--report", "json",
             "decompose", "ring.json"],
            cwd=cwd, env=env, capture_output=True,
        )
        assert dec.returncode == 0, dec.stderr
        reports.append(dec.stdout)
    assert reports[0] == reports[1]
    specs = [(tmp_path / d / "ring.json").read_bytes() for d in ("one", "two")]
    assert specs[0] == specs[1]
    print("\nACCEPTANCE 8 (byte-identical reports for seed 42): PASS")
