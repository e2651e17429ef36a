"""Batch command-line front end.

Subcommands:

    validate FILE                      axiom check, report violations
    classes FILE                       connection classes with certificates
    decompose FILE                     class ideals, complement, flags
    properties FILE [--oracle-samples K] [--seed S]
    simple FILE [--oracle-samples K] [--seed S]
    gen banded --n N --r R [--weights ...] [--primes ...] [-o FILE]
    gen group --torsion m1,m2,... [-o FILE]
    gen sum FILEA FILEB [--embedding disjoint|shared] [-o FILE]
    gen random --seed S [--max-dim D] [-o FILE]

Global flags: --report json|text (default text), --out PATH, --timing.
--oracle-samples defaults to 8 and --seed to 0.

Exit codes: 0 when the analysis ran and every requested theorem check
passed, 1 when the analysis ran but some check failed (details are in the
report), 2 for malformed input.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from . import report as rpt
from .connections import connection_classes, is_symmetric_support, verify_certificate
from .decomposition import decompose
from .errors import MalformedInputError, PreconditionError, SpecFileError, TheoremViolationError
from .generators import BandedRingParams, RandomRingParams, banded_ring, direct_sum, group_algebra, random_ring
from .groups import GroupSignature
from .properties import properties_report
from .specfile import dumps_ring, load_ring


def _parse_list(flag: str, text: str, convert) -> tuple:
    """A comma-separated option value, each item converted by ``convert``."""
    try:
        return tuple([convert(item) for item in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"{flag}: cannot parse {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedrings",
        description="Exact analysis of group-graded rings with inner product families.",
    )
    parser.add_argument("--report", choices=("json", "text"), default="text")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--timing", action="store_true", help="include a timing section")

    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # value given before the subcommand from being clobbered by defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "classes", "decompose"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")

    for name in ("properties", "simple"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")
        p.add_argument("--oracle-samples", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("gen").add_subparsers(dest="generator", required=True)

    banded = gen.add_parser("banded")
    banded.add_argument("--n", type=int, required=True, help="rows per band")
    banded.add_argument("--r", type=int, required=True, help="number of bands")
    banded.add_argument("--weights", default="1", help="comma-separated rationals >= 1")
    banded.add_argument("--primes", default=None, help="comma-separated distinct primes")
    banded.add_argument("-o", "--output", default=None)

    group = gen.add_parser("group")
    group.add_argument("--torsion", required=True, help="comma-separated moduli >= 2")
    group.add_argument("-o", "--output", default=None)

    gsum = gen.add_parser("sum")
    gsum.add_argument("file_a")
    gsum.add_argument("file_b")
    gsum.add_argument("--embedding", choices=("disjoint", "shared"), default="disjoint")
    gsum.add_argument("-o", "--output", default=None)

    grandom = gen.add_parser("random")
    grandom.add_argument("--seed", type=int, default=0)
    grandom.add_argument("--max-dim", type=int, default=24)
    grandom.add_argument("-o", "--output", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  A parser is a web of reference
    cycles that only the cyclic garbage collector frees, so building one per
    command leaves garbage behind until the next full collection."""
    return build_parser()


def _write(path, text: str) -> None:
    """Write a report or a ring spec to ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_valid(path):
    """The ring in ``path``; one that fails validation is malformed input."""
    ring = load_ring(path)
    if violations := ring.validate().violations:
        first = violations[0]
        raise SpecFileError(f"{path}: [{first.kind}] at {first.where}: {first.detail}")
    return ring


def _analyze(args) -> int:
    started = time.perf_counter()
    ring = load_ring(args.file)
    report: dict = {"command": args.command, "input": args.file}
    validation = ring.validate()
    report["validation"] = rpt.validation_section(validation)
    failed = not validation.ok

    if validation.ok and args.command != "validate":
        symmetric, witness = is_symmetric_support(ring)
        report["support"] = rpt.support_section(ring, symmetric, witness)

        if args.command in ("classes", "decompose"):
            classes = connection_classes(ring)
            report["classes"] = rpt.classes_section(classes)
        if args.command == "classes":
            failed = not all(
                verify_certificate(ring, path) for path in classes.certificates.values()
            )
        elif args.command == "decompose":
            dec = decompose(ring)
            report["decomposition"] = rpt.decomposition_section(ring, dec)
            # decompose raises on the annihilation and orthogonality checks
            failed = not dec.covers
        else:  # properties, simple
            props = properties_report(ring, oracle_samples=args.oracle_samples, oracle_seed=args.seed)
            report["properties"] = rpt.properties_section(props)
            theorem, oracle = props.simple_by_theorem, props.oracle.verdict
            failed = theorem is not None and oracle is not None and theorem != oracle

    if args.timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    text = rpt.dumps_report(report) if args.report == "json" else rpt.render_text(report)
    _write(args.out, text)
    return 1 if failed else 0


def _generate(args) -> int:
    if args.generator == "banded":
        weights = _parse_list("--weights", args.weights, Fraction)
        primes = None
        if args.primes:
            primes = _parse_list("--primes", args.primes, int)
        params = BandedRingParams(args.n, args.r, primes, weights)
        ring = banded_ring(params)
        meta = {
            "generator": "banded",
            "n": args.n,
            "r": args.r,
            "weights": [str(w) for w in weights],
            "primes": list(params.primes),
        }
    elif args.generator == "group":
        moduli = tuple(sorted(_parse_list("--torsion", args.torsion, int)))
        try:
            signature = GroupSignature(0, moduli)
        except MalformedInputError as exc:
            raise SpecFileError(f"--torsion: {exc}") from exc
        ring = group_algebra(signature)
        meta = {"generator": "group", "torsion": list(moduli)}
    elif args.generator == "sum":
        ring = direct_sum(_load_valid(args.file_a), _load_valid(args.file_b), args.embedding)
        meta = {"generator": "sum", "embedding": args.embedding}
    else:  # random
        ring = random_ring(args.seed, RandomRingParams(max_dim=args.max_dim))
        meta = {"generator": "random", "seed": args.seed, "max_dim": args.max_dim}
    validation = ring.validate()
    if not validation.ok:
        raise TheoremViolationError(
            "generator produced an invalid ring: " + "; ".join(v.detail for v in validation)
        )
    _write(args.output, dumps_ring(ring, meta))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _generate(args)
        return _analyze(args)
    except (SpecFileError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
