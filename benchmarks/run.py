"""gradedrings benchmark: whole CLI commands, timed in-process, plus a traced run.

Run from the repository root with the standard library only:

    python3 benchmarks/run.py --workload banded-decompose --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

One client drives ``gradedrings.cli.main`` in a closed loop: the next
command starts when the previous one has returned, in one process and one
thread.  Each command reads a generated ring-spec file and writes a JSON
report, which is checked against a correctness gate and against the sha256
recorded from the seed commit in ``expected.json``.  ``--workload all`` runs
every workload in its own child process, so that peak memory belongs to one
workload.

With ``--trace 0`` the run reports end-to-end metrics measured with tracing
off.  Their times are reference seconds: on a shared host one core can run
up to twice as slow, in bursts shorter than a command and in spells longer
than a run, so ``SpeedProbe`` times a fixed pure-Python loop of exact
arithmetic (``reference_work``) from a timer signal while the commands run,
and each command's wall time is rescaled to a host on which that loop takes
``PROBE_SECONDS``.  The wall times, probes included, are printed beside
them.  The traced run is not probed; its times are wall times.

With ``--trace 1`` it measures half the time untraced, then installs
``spantrace.Tracer`` over the library from outside ``src/`` and measures the
other half, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (why each one exists):

* ``banded-decompose`` -- ``decompose`` on the banded ring (n=5, r=3) with
  weights 1,2 (dim 75, three classes, two Grams).  Loads the decomposition,
  ``is_graded_ideal``, ``is_coherent`` and pairing paths; never runs the
  oracle, so an oracle change should leave it unchanged.
* ``oracle-properties`` -- ``properties`` on the one-band ring (n=6, r=1),
  dim 36.  Nearly all of it is the oracle's 44 ``ideal_closure`` calls, so
  it isolates ``EchelonBasis.add`` and the closure loop; no decomposition.
* ``small-fleet`` -- ``validate``, ``classes``, ``decompose`` and
  ``properties`` on 40 ``random_ring`` rings (max_dim 24).  Spec parsing,
  validation, the connection BFS and report serialization dominate; it
  catches a kernel change that adds per-call overhead on small rings.

Which end-to-end metric each per-layer metric should move, and where:

* ``cmd_p50_s`` on ``oracle-properties``: ``linalg.echelon_add.*``,
  ``linalg.echelon_residual.calls``, ``ring.multiply.calls``,
  ``ring.product_span.s`` and ``properties.ideal_closure.*`` /
  ``graded_simple_oracle.s`` (no change predicted on ``banded-decompose``).
* ``cmd_p50_s`` on ``banded-decompose``: ``linalg.pairing.*``,
  ``ring.multiply.calls``, ``ring.product_span.s``,
  ``decomposition.*`` and ``properties.is_coherent.s``.
* ``cmds_per_s`` on ``small-fleet``: ``linalg.nullspace.s``,
  ``linalg.psd_counterexample.s``, ``ring.validate.s``, ``connections.*``,
  ``properties.annihilator.calls``, ``groups.compose.calls``,
  ``specfile.load_ring.s``, ``report.*`` and ``cli.main.s``.

Exit codes: 0 when every command passed its gate, 1 when one failed (the
result line is still printed), 2 when the benchmark cannot start, for
example because ``src/gradedrings`` is missing.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# reports embed the spec-file path, so it is relative and fixed
WORK = ".bench_work"
REPORT_PATH = f"{WORK}/report.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("banded-decompose", "oracle-properties", "small-fleet")
FLEET_SIZE = 40
FLEET_COMMANDS = ("validate", "classes", "decompose", "properties")
FLEET_MAX_DIM = 24
# set-up is repeated at least this often and for at least this long, and
# its median reported; cheap set-ups are too short to time once
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
# the tail percentile needs at least ten samples beyond it
MIN_SAMPLES = 11
# every PROBE_EVERY_S the speed probe times PROBE_ROUNDS rounds of
# reference_work, defined to take PROBE_SECONDS; that is about what they take
# on an x86_64 host with 2 cores under Python 3.11
PROBE_EVERY_S = 0.25
PROBE_ROUNDS = 2000
PROBE_SECONDS = 0.005
# a command or set-up shorter than this is rescaled by the probes taken in a
# window this wide around it
PROBE_WINDOW_S = 1.0
REF_ROW = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(61)]

END_TO_END = (
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("cmds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, kind, source spans (see spantrace.TARGETS)
PER_LAYER = (
    ("linalg.echelon_add.calls", "calls/cmd", "calls", ("linalg.EchelonBasis.add",)),
    ("linalg.echelon_add.useful_ratio", "ratio", "useful_ratio", ("linalg.EchelonBasis.add",)),
    ("linalg.echelon_residual.calls", "calls/cmd", "calls", ("linalg.EchelonBasis.residual",)),
    ("linalg.pairing.calls", "calls/cmd", "calls", ("linalg.pairing",)),
    ("linalg.pairing.s", "s/cmd", "s", ("linalg.pairing",)),
    ("linalg.nullspace.s", "s/cmd", "s", ("linalg.nullspace",)),
    ("linalg.psd_counterexample.s", "s/cmd", "s", ("linalg.psd_counterexample",)),
    ("ring.validate.s", "s/cmd", "s", ("ring.GradedRing.validate",)),
    (
        "ring.multiply.calls",
        "calls/cmd",
        "calls",
        (
            "ring.GradedRing.multiply",
            "ring.GradedRing.multiply_basis_left",
            "ring.GradedRing.multiply_basis_right",
        ),
    ),
    ("ring.product_span.s", "s/cmd", "s", ("ring.GradedRing.product_span",)),
    ("connections.connection_classes.calls", "calls/cmd", "calls", ("connections.connection_classes",)),
    ("connections.connection_classes.s", "s/cmd", "s", ("connections.connection_classes",)),
    ("connections.verify_certificate.s", "s/cmd", "s", ("connections.verify_certificate",)),
    ("decomposition.is_graded_ideal.calls", "calls/cmd", "calls", ("decomposition.is_graded_ideal",)),
    ("decomposition.is_graded_ideal.s", "s/cmd", "s", ("decomposition.is_graded_ideal",)),
    (
        "decomposition.identity_products_span.calls",
        "calls/cmd",
        "calls",
        ("decomposition.identity_products_span",),
    ),
    ("decomposition.decompose.self_s", "s/cmd", "self_s", ("decomposition.decompose",)),
    ("properties.ideal_closure.calls", "calls/cmd", "calls", ("properties.ideal_closure",)),
    ("properties.ideal_closure.s", "s/cmd", "s", ("properties.ideal_closure",)),
    ("properties.graded_simple_oracle.s", "s/cmd", "s", ("properties.graded_simple_oracle",)),
    ("properties.is_coherent.s", "s/cmd", "s", ("properties.is_coherent",)),
    ("properties.annihilator.calls", "calls/cmd", "calls", ("properties.annihilator",)),
    ("groups.compose.calls", "calls/cmd", "calls", ("groups.GroupSignature.compose",)),
    ("specfile.load_ring.s", "s/cmd", "s", ("specfile.load_ring",)),
    ("report.dumps_report.s", "s/cmd", "s", ("report.dumps_report",)),
    ("report.bytes", "B/cmd", "report_bytes", ()),
    ("cli.main.s", "s/cmd", "s", ("cli.main",)),
    ("trace_overhead_frac", "frac", "overhead", ()),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or recorded digests)."""


@dataclass
class Command:
    """One CLI invocation with its correctness gate."""

    argv: list[str]
    digest: str
    check: Callable[[dict], str | None]  # report -> failure message or None
    label: str


@dataclass
class Phase:
    """Samples of one measuring phase."""

    seconds: list[float] = field(default_factory=list)  # reference seconds
    wall: list[float] = field(default_factory=list)
    report_bytes: int = 0
    failed: int = 0


# -- inputs -------------------------------------------------------------------


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read recorded digests {EXPECTED_PATH}: {exc}") from exc


def import_library():
    """Import gradedrings afresh from this checkout's ``src``; returns its modules."""
    if not (SRC / "gradedrings" / "__init__.py").is_file():
        raise BenchmarkError(f"no gradedrings sources under {SRC}")
    for name in [m for m in sys.modules if m == "gradedrings" or m.startswith("gradedrings.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("gradedrings")
    if Path(package.__file__).resolve().parent != (SRC / "gradedrings").resolve():
        raise BenchmarkError(f"gradedrings was imported from {package.__file__}, not {SRC}")
    modules = {"gradedrings": package}
    for short in ("cli", "connections", "decomposition", "generators", "groups", "linalg",
                  "properties", "report", "ring", "specfile"):
        modules[short] = importlib.import_module(f"gradedrings.{short}")
    return modules


def fleet_spec_path(ring_seed: int) -> str:
    return f"{WORK}/rings/fleet-{ring_seed}.json"


def command_argv(command: str, spec: str) -> list[str]:
    argv = ["--report", "json", "--out", REPORT_PATH, command, spec]
    if command == "properties":
        argv += ["--oracle-samples", "8", "--seed", "0"]
    return argv


def write_fleet_ring(modules, ring_seed: int) -> int:
    """Generate ``random_ring(ring_seed)``, write its spec file, return its dim."""
    gen = modules["generators"]
    ring = gen.random_ring(ring_seed, gen.RandomRingParams(max_dim=FLEET_MAX_DIM))
    meta = {"generator": "random", "seed": ring_seed, "max_dim": FLEET_MAX_DIM}
    modules["specfile"].save_ring(fleet_spec_path(ring_seed), ring, meta)
    return ring.dim


def fleet_ring_seeds(seed: int, slots: list[list[int]]) -> list[int]:
    """Pick one ring seed per slot, driven by the benchmark seed.

    Each slot lists the ``random_ring`` seeds whose rings share one shape
    (dimension, grading group, Gram count and structure-constant count).
    Every benchmark seed therefore runs the same mix of shapes with
    different rings, so the work of a pass stays comparable between seeds.
    """
    rng = random.Random(seed)
    chosen: list[int] = []
    for slot in slots:
        chosen.append(rng.choice([s for s in slot if s not in chosen]))
    return chosen


def check_banded(report: dict):
    dec = report["decomposition"]
    dims = [ideal["dimension"] for ideal in dec["ideals"]]
    if dims != [25, 25, 25]:
        return f"ideal dimensions {dims}, expected three of 25"
    if dec["complement"]["dimension"] != 0:
        return f"complement dimension {dec['complement']['dimension']}, expected 0"
    flags = ("covers", "pairwise_zero", "orthogonal_ideals", "coherent")
    false = [flag for flag in flags if dec[flag] is not True]
    return f"flags not true: {false}" if false else None


def check_oracle(report: dict):
    props = report["properties"]
    if props["simple_by_theorem"] is not True or props["simple_by_oracle"] is not True:
        return (
            f"simplicity routes gave {props['simple_by_theorem']!r} and "
            f"{props['simple_by_oracle']!r}, expected true and true"
        )
    tested = props["oracle"]["closures_tested"]
    return None if tested == 44 else f"closures_tested {tested}, expected 44"


def fleet_check(command: str, dim: int):
    def check(report: dict):
        if report["validation"]["ok"] is not True:
            return "validation failed"
        if command == "decompose":
            dec = report["decomposition"]
            if dec["complement_exact"]:
                total = sum(i["dimension"] for i in dec["ideals"]) + dec["complement"]["dimension"]
                if total != dim:
                    return f"ideals and complement sum to {total}, ring dim is {dim}"
        if command == "properties":
            props = report["properties"]
            theorem, oracle = props["simple_by_theorem"], props["simple_by_oracle"]
            if isinstance(theorem, bool) and isinstance(oracle, bool) and theorem != oracle:
                return f"theorem says {theorem}, oracle says {oracle}"
        return None

    return check


def build_commands(modules, workload: str, seed: int, expected: dict, fleet_size: int):
    """Generate the workload's rings, write their spec files, return one pass."""
    gen = modules["generators"]
    save_ring = modules["specfile"].save_ring
    os.makedirs(f"{WORK}/rings", exist_ok=True)
    if workload == "banded-decompose":
        params = gen.BandedRingParams(5, 3, None, (Fraction(1), Fraction(2)))
        spec = f"{WORK}/rings/banded-n5-r3-w1,2.json"
        meta = {"generator": "banded", "n": 5, "r": 3, "weights": ["1", "2"],
                "primes": list(params.primes)}
        save_ring(spec, gen.banded_ring(params), meta)
        return [Command(command_argv("decompose", spec), expected[workload], check_banded,
                        "decompose banded n5 r3")]
    if workload == "oracle-properties":
        params = gen.BandedRingParams(6, 1)
        spec = f"{WORK}/rings/banded-n6-r1.json"
        meta = {"generator": "banded", "n": 6, "r": 1, "weights": ["1"],
                "primes": list(params.primes)}
        save_ring(spec, gen.banded_ring(params), meta)
        return [Command(command_argv("properties", spec), expected[workload], check_oracle,
                        "properties banded n6 r1")]
    pool = expected["fleet_pool"]
    commands = []
    for ring_seed in fleet_ring_seeds(seed, expected["fleet_slots"][:fleet_size]):
        recorded = pool[str(ring_seed)]
        dim = write_fleet_ring(modules, ring_seed)
        if dim != recorded["dim"]:
            raise BenchmarkError(f"random_ring({ring_seed}) has dim {dim}, recorded {recorded['dim']}")
        for command in FLEET_COMMANDS:
            commands.append(Command(command_argv(command, fleet_spec_path(ring_seed)),
                                    recorded[command], fleet_check(command, dim),
                                    f"{command} random_ring({ring_seed})"))
    return commands


# -- measuring ----------------------------------------------------------------


def reference_work(rounds: int) -> int:
    """A fixed loop of small-fraction arithmetic and dict stores."""
    acc, seen = Fraction(0), {}
    for i in range(rounds):
        x = REF_ROW[i % 61] * REF_ROW[(7 * i) % 61] + acc
        acc = x if x.denominator < 1000 else REF_ROW[i % 13]
        seen[i % 97] = x
    return len(seen)


class SpeedProbe:
    """Samples how fast the host runs while the library runs.

    While the probe is on, a timer signal interrupts whatever runs every
    ``PROBE_EVERY_S`` and times ``reference_work`` in the signal handler, so
    the samples fall inside the commands.  A command's wall time, less the
    probes inside it, is rescaled by the mean of the probes taken while it
    ran.  Timings taken between commands track the host worse: its speed
    changes within a command.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()  # objects the library left alive must not slow the loop
        t0 = time.perf_counter()
        reference_work(PROBE_ROUNDS)
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        self.sample()
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def rescale(self, start: float, wall: float) -> float:
        """Reference seconds of ``wall`` wall seconds that began at ``start``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, start + wall)
        net = wall - sum(self.seconds[lo:hi])
        pad = max(0.0, PROBE_WINDOW_S - wall) / 2
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, start + wall + pad)
        if lo == hi:  # no probe near the end of the run: take the nearest ones
            lo, hi = max(0, lo - 1), lo + 1
        return net * PROBE_SECONDS / statistics.mean(self.seconds[lo:hi])


def run_command(cli, command: Command):
    """Run one command; returns (start, wall seconds, report bytes, failure or None)."""
    try:
        os.remove(REPORT_PATH)
    except FileNotFoundError:
        pass
    t0 = time.perf_counter()
    try:
        code = cli.main(command.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a library bug fails this command, not the run
        code = f"uncaught {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if code != 0:
        return t0, elapsed, 0, f"exit {code}"
    try:
        with open(REPORT_PATH, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return t0, elapsed, 0, f"no report: {exc}"
    if hashlib.sha256(data).hexdigest() != command.digest:
        return t0, elapsed, len(data), "report digest differs from the recorded one"
    try:
        problem = command.check(json.loads(data))
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"report unreadable: {exc!r}"
    return t0, elapsed, len(data), problem


def measure(cli, commands, seconds: float, min_samples: int, tracer=None, probe=None) -> Phase:
    """Run whole passes over ``commands`` until ``seconds`` have passed.

    With a ``probe`` each command is rescaled to reference seconds; without
    one its reference seconds are its wall seconds.
    """
    phase = Phase()
    starts = []
    begin = time.perf_counter()
    while True:
        for command in commands:
            if tracer is not None:
                tracer.request = len(phase.wall)
            t0, elapsed, size, problem = run_command(cli, command)
            starts.append(t0)
            phase.wall.append(elapsed)
            phase.report_bytes += size
            if problem:
                phase.failed += 1
                print(f"FAILED {command.label}: {problem}", file=sys.stderr)
        if time.perf_counter() - begin >= seconds and len(phase.wall) >= min_samples:
            break
    if probe is None:
        phase.seconds = list(phase.wall)
    else:
        phase.seconds = [probe.rescale(t0, w) for t0, w in zip(starts, phase.wall)]
    return phase


def setup(workload: str, seed: int, expected: dict, fleet_size: int):
    """Import, generate, write specs and run one warm-up command.

    Returns the start, the wall seconds, the modules, one pass of commands
    and the warm-up's outcome.
    """
    # free the previous set-up's modules and rings first, so that peak
    # memory does not grow with the number of set-ups
    gc.collect()
    t0 = time.perf_counter()
    modules = import_library()
    commands = build_commands(modules, workload, seed, expected, fleet_size)
    warm = run_command(modules["cli"], commands[0])
    return t0, time.perf_counter() - t0, modules, commands, warm


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it: (pct, value).

    With fewer than eleven samples no percentile qualifies; the maximum is
    returned as p100.
    """
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        return 100.0, ordered[-1]
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def layer_metrics(totals: dict, traced: Phase, untraced: Phase):
    """Per-command layer metrics and, for each ratio, a note giving its base."""
    n = len(traced.seconds)
    metrics, notes = {}, {}
    for name, unit, kind, spans in PER_LAYER:
        if kind == "useful_ratio":
            calls = sum(totals[s]["calls"] for s in spans)
            useful = sum(totals[s]["useful"] for s in spans)
            value = useful / calls if calls else 0.0
            notes[name] = f"{useful} grew the span of {calls} adds"
        elif kind == "report_bytes":
            value = traced.report_bytes / n
        elif kind == "overhead":
            with_trace = statistics.median(traced.seconds)
            without = statistics.median(untraced.seconds)
            value = with_trace / without - 1
            notes[name] = (
                f"traced p50 {with_trace:.6g} s over {n} commands vs untraced p50 "
                f"{without:.6g} s over {len(untraced.seconds)}"
            )
        else:
            value = sum(totals[s][kind] for s in spans) / n
        metrics[name] = {"value": value, "unit": unit}
    return metrics, notes


def git_commit() -> str:
    """Commit of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setups: int = SETUP_REPEATS, fleet_size: int = FLEET_SIZE,
                 min_samples: int = MIN_SAMPLES, expected: dict | None = None):
    """Run one workload in this process; returns (result dict, text lines)."""
    expected = expected if expected is not None else load_expected()
    # end-to-end metrics are probed; the traced run is not, so that the
    # probes do not land in its spans
    probe = None if trace else SpeedProbe()
    with probe or contextlib.nullcontext():
        setup_spans, failed, attempted = [], 0, 0
        # set-up is only reported untraced; a traced run sets up once
        while not setup_spans or (
            not trace and (len(setup_spans) < setups
                           or sum(w for _, w in setup_spans) < SETUP_MIN_SECONDS)
        ):
            t0, wall, modules, commands, (_, _, _, problem) = setup(workload, seed, expected,
                                                                     fleet_size)
            setup_spans.append((t0, wall))
            attempted += 1
            if problem:
                failed += 1
                print(f"FAILED warm-up {commands[0].label}: {problem}", file=sys.stderr)
        cli = modules["cli"]
        phase = None if trace else measure(cli, commands, seconds, min_samples, probe=probe)
    lines = [
        f"workload {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
        f"{len(commands)} command(s) per pass",
        f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"commit {git_commit()}",
    ]
    if not trace:
        setup_walls = [w for _, w in setup_spans]
        setup_times = [probe.rescale(t0, w) for t0, w in setup_spans]
        attempted += len(phase.seconds)
        failed += phase.failed
        n = len(phase.seconds)
        pct, tail_value = tail(phase.seconds)
        _, tail_wall = tail(phase.wall)
        metrics = {
            "cmd_p50_s": statistics.median(phase.seconds),
            "cmd_tail_s": tail_value,
            "cmds_per_s": n / sum(phase.seconds),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "cmd_p50_s": f"median of {n} commands; wall {statistics.median(phase.wall):.6g} s",
            "cmd_tail_s": f"p{pct:.2f} of {n} commands, {min(10, n - 1)} beyond it; "
            f"wall {tail_wall:.6g} s",
            "cmds_per_s": f"{n} commands in {sum(phase.seconds):.3f} reference s; "
            f"wall {n / sum(phase.wall):.6g} 1/s",
            "setup_s": f"median of {len(setup_times)} set-ups: "
            + ", ".join(f"{t:.3f}" for t in setup_times)
            + f"; wall {statistics.median(setup_walls):.6g} s",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        result_metrics = {}
        for name, unit in END_TO_END:
            result_metrics[name] = {"value": metrics[name], "unit": unit}
            lines.append(f"{name} = {metrics[name]:.6g} {unit}  ({notes[name]})")
        lines.append(f"failed_frac = {failed / attempted:.6g} frac  ({failed} of {attempted} commands)")
        lines.append(
            f"speed probe: median {statistics.median(probe.seconds):.6g} s over "
            f"{len(probe.seconds)} probes (min {min(probe.seconds):.6g}, max "
            f"{max(probe.seconds):.6g}); times above are rescaled to {PROBE_SECONDS:g} s a probe"
        )
    else:
        from spantrace import Tracer

        untraced = measure(cli, commands, seconds / 2, 1)
        tracer = Tracer()
        tracer.install(modules)
        traced = measure(cli, commands, seconds / 2, 1, tracer)
        attempted += len(untraced.seconds) + len(traced.seconds)
        failed += untraced.failed + traced.failed
        totals = tracer.totals()
        spans = tracer.write(f"{WORK}/trace-{workload}.tsv")
        result_metrics, notes = layer_metrics(totals, traced, untraced)
        n = len(traced.seconds)
        lines.append(
            f"traced {n} commands ({spans} spans, written to {WORK}/trace-{workload}.tsv); "
            f"per-command values below"
        )
        for name, metric in result_metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
        lines.append("span totals per command (calls, inclusive s, self s):")
        for name, row in totals.items():
            lines.append(
                f"  {name}: {row['calls'] / n:.6g} calls, {row['s'] / n:.6g} s, "
                f"{row['self_s'] / n:.6g} s self"
            )
        lines.append(f"failed_frac = {failed / attempted:.6g} frac  ({failed} of {attempted} commands)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    return result, lines


def run_all(args) -> int:
    """Run every workload in its own child process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited with {child.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark gradedrings CLI commands.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
