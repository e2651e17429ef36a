"""Smoke test of the benchmark itself; about a minute.

Run from the repository root:

    python3 benchmarks/smoke.py

It runs a tiny pass of every workload (one set-up, one measured pass, four
fleet rings) untraced and traced, and checks that:

* every metric named in ``BENCHMARK.json`` is reported with its unit and
  printed by name, and ``failed_frac`` is printed and 0;
* the trace counts the benchmark relies on hold exactly;
* a planted wrong report (a digest that does not match) is counted as a
  failed command;
* ``run.py`` ends with a result line holding exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, and
  exits nonzero without a result where ``src/`` is missing.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run

TINY = {"seconds": 0, "setups": 1, "fleet_size": 4, "min_samples": 1}


def check_metrics(result: dict, lines: list[str], declared: list[dict]) -> None:
    text = "\n".join(lines)
    printed = {line.split(" = ")[0]: line for line in lines if " = " in line}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        assert got is not None, f"metric {name} missing"
        assert got["unit"] == unit, f"{name} has unit {got['unit']}, declared {unit}"
        assert isinstance(got["value"], (int, float)), f"{name} is not a number"
        assert f" {unit}" in printed.get(name, ""), f"{name} not printed with its unit"
    assert set(result["metrics"]) == {m["name"] for m in declared}, "undeclared metrics reported"
    assert "failed_frac = 0 frac" in text, "failed_frac missing or nonzero"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def main() -> None:
    sys.dont_write_bytecode = True
    os.chdir(run.ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    expected = run.load_expected()

    for workload in run.WORKLOADS:
        result, lines = run.run_workload(workload, 0, trace=False, expected=expected, **TINY)
        check_metrics(result, lines, declared["end_to_end"])
        result, lines = run.run_workload(workload, 0, trace=True, expected=expected, **TINY)
        check_metrics(result, lines, declared["per_layer"])
        counts = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "banded-decompose":
            assert counts["properties.ideal_closure.calls"] == 0
            assert counts["connections.connection_classes.calls"] == 2
        if workload == "oracle-properties":
            assert counts["properties.ideal_closure.calls"] == 44
        print(f"ok: {workload} untraced and traced")

    planted = copy.deepcopy(expected)
    for entry in planted["fleet_pool"].values():
        entry["classes"] = "0" * 64
    result, lines = run.run_workload("small-fleet", 0, trace=False, expected=planted, **TINY)
    assert not result["correct"] and result["failed"] > 0, "planted wrong report passed"
    assert "failed_frac = 0 frac" not in "\n".join(lines), "planted wrong report not in failed_frac"
    print(f"ok: planted wrong report counted ({result['failed']} of {result['attempted']} failed)")

    bench = [sys.executable, "benchmarks/run.py", "--workload", "small-fleet",
             "--seed", "3", "--seconds", "0", "--trace", "0"]
    child = subprocess.run(bench, stdout=subprocess.PIPE, text=True, check=False)
    assert child.returncode == 0, f"run.py exited {child.returncode}"
    last = json.loads(child.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"], sorted(last)
    print("ok: run.py result line")

    bare = os.path.join(run.WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("benchmarks", os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(bench, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, check=False)
    shutil.rmtree(bare)
    assert child.returncode != 0 and not child.stdout.strip(), "bare checkout did not fail"
    print(f"ok: without src/ run.py exits {child.returncode}: {child.stderr.strip()}")


if __name__ == "__main__":
    main()
