"""Reports stay byte-identical to the digests the benchmark records.

``benchmarks/expected.json`` holds the sha256 of every report the benchmark
checks.  These tests rebuild the two single-workload reports and the four
commands on every ring of the fleet pool (280 ``random_ring`` seeds), the
same way the benchmark does: all 1,122 recorded digests.  A change that
alters report bytes fails here too.
Reports embed the spec-file path, so the spec files are written at the
benchmark's relative ``.bench_work/rings/...`` paths, inside a temporary
working directory.  ``expected.json`` is only read.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gradedrings import BandedRingParams, RandomRingParams, banded_ring, random_ring, save_ring
from gradedrings.cli import main

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "expected.json").read_text(
        encoding="utf-8"
    )
)
REPORT = ".bench_work/report.json"
FLEET_MAX_DIM = 24
FLEET_COMMANDS = ("validate", "classes", "decompose", "properties")
POOL_SEEDS = sorted(int(seed) for seed in EXPECTED["fleet_pool"])


def report_digest(command, spec):
    argv = ["--report", "json", "--out", REPORT, command, spec]
    if command == "properties":
        argv += ["--oracle-samples", "8", "--seed", "0"]
    assert main(argv) == 0
    return hashlib.sha256(Path(REPORT).read_bytes()).hexdigest()


def write_banded_spec(name, n, r, weights):
    params = BandedRingParams(n, r, None, tuple(Fraction(w) for w in weights))
    spec = f".bench_work/rings/{name}.json"
    meta = {"generator": "banded", "n": n, "r": r, "weights": list(weights),
            "primes": list(params.primes)}
    save_ring(spec, banded_ring(params), meta)
    return spec


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path(".bench_work/rings").mkdir(parents=True)


@pytest.mark.parametrize(
    "workload, command, name, n, r, weights",
    [
        ("banded-decompose", "decompose", "banded-n5-r3-w1,2", 5, 3, ("1", "2")),
        ("oracle-properties", "properties", "banded-n6-r1", 6, 1, ("1",)),
    ],
    ids=["banded-decompose", "oracle-properties"],
)
def test_single_workload_report_is_unchanged(workdir, workload, command, name, n, r, weights):
    spec = write_banded_spec(name, n, r, weights)
    assert report_digest(command, spec) == EXPECTED[workload]


def test_reference_fleet_reports_are_unchanged(workdir):
    assert len(POOL_SEEDS) == 280
    params = RandomRingParams(max_dim=FLEET_MAX_DIM)
    changed = []
    for seed in POOL_SEEDS:
        recorded = EXPECTED["fleet_pool"][str(seed)]
        ring = random_ring(seed, params)
        assert ring.dim == recorded["dim"]
        spec = f".bench_work/rings/fleet-{seed}.json"
        save_ring(spec, ring, {"generator": "random", "seed": seed, "max_dim": FLEET_MAX_DIM})
        for command in FLEET_COMMANDS:
            if report_digest(command, spec) != recorded[command]:
                changed.append(f"{command} random_ring({seed})")
    assert not changed
