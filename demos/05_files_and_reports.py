"""Serialize rings, reload them, and drive the batch analyses.

Ring-spec files are deterministic JSON: equal rings give byte-identical
files, which makes golden testing trivial.  The same front end that the
command line uses is callable in process.
"""

import json
import tempfile
from pathlib import Path

from gradedrings import (
    GroupSignature,
    banded_ring,
    BandedRingParams,
    direct_sum,
    dumps_ring,
    group_algebra,
    load_ring,
    random_ring,
    save_ring,
)
from gradedrings.cli import main

with tempfile.TemporaryDirectory(prefix="gradedrings_demo_") as tmp:
    workdir = Path(tmp)

    ring = direct_sum(banded_ring(BandedRingParams(2, 1)), group_algebra(GroupSignature(0, (3,))))
    path = workdir / "ring.json"
    save_ring(path, ring, {"note": "band plus cyclic group algebra"})
    print(f"wrote {path} ({path.stat().st_size} bytes)")
    print(f"reload equals original: {load_ring(path) == ring}")
    print()

    print("seeded generation is reproducible byte for byte:")
    print(f"  {dumps_ring(random_ring(42)) == dumps_ring(random_ring(42))}")
    print()

    report_path = workdir / "report.json"
    code = main(["--report", "json", "decompose", str(path), "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    print(f"decompose exit code {code}; flags from the JSON report:")
    dec = report["decomposition"]
    for key in ("covers", "pairwise_zero", "orthogonal_ideals", "complement_exact"):
        print(f"  {key}: {dec[key]}")
    print(f"  ideal dimensions: {[i['dimension'] for i in dec['ideals']]}")
    print()

    print("text rendering of the same analysis:")
    main(["--report", "text", "classes", str(path)])
