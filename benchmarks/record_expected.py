"""Record the report digests that ``run.py`` checks every command against.

Run from the repository root:

    python3 benchmarks/record_expected.py

It writes ``benchmarks/expected.json``: the sha256 of the report of each
fixed workload; the ``small-fleet`` slots, one per reference ring
``random_ring(0..39)``, each listing the seeds below ``SEARCH`` whose rings
have the reference ring's shape; and for every listed seed the ring
dimension and the sha256 of each command's report.  Every recorded report
must exit 0 and pass its workload's gate.  The digests are the reference for
byte-identical output; a change that claims to keep reports byte-identical
must not record them again.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run

SEARCH = 1024


def shape(ring) -> list:
    structure_entries = sum(len(entries) for entries in ring.structure.values())
    sig = ring.signature
    return [ring.dim, sig.free_rank, list(sig.torsion), len(ring.grams), structure_entries]


def record(cli, argv, check) -> str:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    with open(run.REPORT_PATH, "rb") as fh:
        data = fh.read()
    problem = check(json.loads(data))
    if problem:
        raise SystemExit(f"{' '.join(argv)}: {problem}")
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    sys.dont_write_bytecode = True
    os.chdir(run.ROOT)
    modules = run.import_library()
    cli = modules["cli"]
    expected = {"recorded_from": run.git_commit()}
    for workload in ("banded-decompose", "oracle-properties"):
        (command,) = run.build_commands(modules, workload, 0, {workload: ""}, 0)
        expected[workload] = record(cli, command.argv, command.check)
    gen = modules["generators"]
    params = gen.RandomRingParams(max_dim=run.FLEET_MAX_DIM)
    shapes = [shape(gen.random_ring(s, params)) for s in range(SEARCH)]
    slots = [
        [s for s in range(SEARCH) if shapes[s] == shapes[ref]] for ref in range(run.FLEET_SIZE)
    ]
    pool = {}
    for ring_seed in sorted({s for slot in slots for s in slot}):
        dim = run.write_fleet_ring(modules, ring_seed)
        entry = {"dim": dim}
        for command in run.FLEET_COMMANDS:
            argv = run.command_argv(command, run.fleet_spec_path(ring_seed))
            entry[command] = record(cli, argv, run.fleet_check(command, dim))
        pool[str(ring_seed)] = entry
    expected["fleet_slots"] = slots
    expected["fleet_pool"] = pool
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
