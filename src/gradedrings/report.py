"""Analysis reports: JSON assembly and text rendering.

Reports are plain dictionaries of JSON-native values so they round-trip
losslessly.  Sections are present exactly when the corresponding analysis
was requested.  A subspace's basis is written from its sparse rows: every
row starts as ``"0"`` strings and only the nonzero coordinates are
formatted.  Serialization goes through :func:`specfile.dumps_json`, which
writes what ``json.dumps(report, indent=2, sort_keys=True)`` writes; keys
are sorted, so a report is byte-stable across runs of the same analysis on
the same input.  The text rendering is a pure function of the JSON report.
The decomposition section takes ``coherent`` from the memoized
:func:`~gradedrings.decomposition.is_coherent` of the ring.
"""

from __future__ import annotations

from .connections import ConnectionClasses
from .decomposition import IdealDecomposition, is_coherent
from .linalg import dense_strings
from .properties import PropertyReport
from .ring import GradedRing, ViolationReport
from .specfile import dumps_json


def _basis(sub) -> list[list[str]]:
    """The dense rows of a subspace's canonical basis, as strings."""
    return [dense_strings(row, sub.ambient) for row in sub.sparse.values()]


def _subspace(sub) -> dict:
    return {"dimension": sub.dim, "basis": _basis(sub)}


def validation_section(report: ViolationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "where": list(v.where), "detail": v.detail}
            for v in report.violations
        ],
    }


def support_section(ring: GradedRing, symmetric: bool, witness) -> dict:
    return {
        "size": len(ring.support()),
        "elements": [list(g) for g in ring.sorted_support()],
        "symmetric": symmetric,
        "asymmetry_witness": None if witness is None else list(witness),
    }


def classes_section(classes: ConnectionClasses) -> dict:
    blocks = []
    for block, rep in zip(classes.blocks, classes.representatives):
        members = []
        for member in block:
            path = classes.certificates[member]
            members.append(
                {
                    "member": list(member),
                    "certificate": {
                        "elements": [list(e) for e in path.elements],
                        "source": list(path.source),
                        "target": list(path.target),
                    },
                }
            )
        blocks.append({"representative": list(rep), "members": members})
    return {"count": classes.count, "blocks": blocks}


def decomposition_section(ring: GradedRing, dec: IdealDecomposition) -> dict:
    ideals = []
    for block, ideal, one_span, comp_sum in zip(
        dec.classes.blocks, dec.ideals, dec.identity_spans, dec.component_sums
    ):
        ideals.append(
            {
                "class": [list(g) for g in block],
                "dimension": ideal.dim,
                "identity_span_dimension": one_span.dim,
                "component_sum_dimension": comp_sum.dim,
                "basis": _basis(ideal),
            }
        )
    return {
        "ideals": ideals,
        "complement": _subspace(dec.complement),
        "complement_exact": dec.complement_exact,
        "covers": dec.covers,
        # the only value: decompose raises when distinct class ideals do not annihilate
        "pairwise_zero": True,
        "orthogonal_ideals": dec.orthogonal_ideals,
        "coherent": is_coherent(ring).ok,
    }


def _tri(value, none_label: str):
    return none_label if value is None else value


def properties_section(props: PropertyReport) -> dict:
    failure = props.support_multiplicative_failure
    hypotheses = props.hypotheses
    return {
        "maximal_length": hypotheses["maximal_length"],
        "support_multiplicative": hypotheses["support_multiplicative"],
        "support_multiplicative_failure": None
        if failure is None
        else [list(failure[0]), list(failure[1])],
        "annihilator": _subspace(props.annihilator),
        "symmetric_support": hypotheses["symmetric_support"],
        "symmetry_witness": None
        if props.symmetry_witness is None
        else list(props.symmetry_witness),
        "coherent": props.coherence.ok,
        "coherence": {
            "span_ok": props.coherence.span_ok,
            "pairing_failures": [
                {"g": list(g), "h": list(h), "gram": a}
                for g, h, a in props.coherence.pairing_failures
            ],
        },
        "theorem_hypotheses": dict(hypotheses),
        "simple_by_theorem": _tri(props.simple_by_theorem, "hypotheses-not-met"),
        "simple_by_oracle": _tri(props.oracle.verdict, "inconclusive"),
        "oracle": {
            "closures_tested": props.oracle.closures_tested,
            "reason": props.oracle.reason,
            "witness": None
            if props.oracle.witness is None
            # the annihilator's ambient dimension is the ring's
            else dense_strings(props.oracle.witness, props.annihilator.ambient),
        },
    }


def dumps_report(report: dict) -> str:
    return dumps_json(report)


def render_text(report: dict) -> str:
    """Human-readable rendering; a pure function of the JSON report."""
    lines = []
    lines.append(f"command: {report.get('command', '?')}")
    if "input" in report:
        lines.append(f"input: {report['input']}")
    if "validation" in report:
        v = report["validation"]
        lines.append(f"validation: {'ok' if v['ok'] else 'FAILED'}")
        for violation in v["violations"]:
            lines.append(
                f"  [{violation['kind']}] at {tuple(violation['where'])}: {violation['detail']}"
            )
    if "support" in report:
        s = report["support"]
        sym = "symmetric" if s["symmetric"] else f"not symmetric (witness {s['asymmetry_witness']})"
        lines.append(f"support: {s['size']} element(s), {sym}")
    if "classes" in report:
        c = report["classes"]
        lines.append(f"connection classes: {c['count']}")
        for block in c["blocks"]:
            members = ", ".join(str(tuple(m["member"])) for m in block["members"])
            lines.append(f"  [{tuple(block['representative'])}]: {members}")
    if "decomposition" in report:
        d = report["decomposition"]
        lines.append(f"ideals: {len(d['ideals'])}")
        for ideal in d["ideals"]:
            lines.append(
                f"  class of {tuple(ideal['class'][0])}: dimension {ideal['dimension']} "
                f"(identity span {ideal['identity_span_dimension']}, "
                f"components {ideal['component_sum_dimension']})"
            )
        lines.append(
            f"complement dimension: {d['complement']['dimension']} "
            f"(exact: {d['complement_exact']})"
        )
        lines.append(
            f"covers: {d['covers']}  pairwise_zero: {d['pairwise_zero']}  "
            f"orthogonal_ideals: {d['orthogonal_ideals']}  coherent: {d['coherent']}"
        )
    if "properties" in report:
        p = report["properties"]
        lines.append(f"maximal length: {p['maximal_length']}")
        mult = p["support_multiplicative"]
        if mult:
            lines.append("support multiplicative: True")
        else:
            lines.append(
                f"support multiplicative: False (witness pair {p['support_multiplicative_failure']})"
            )
        lines.append(f"annihilator dimension: {p['annihilator']['dimension']}")
        lines.append(f"symmetric support: {p['symmetric_support']}")
        lines.append(f"coherent identity component: {p['coherent']}")
        lines.append(f"graded simple (theorem): {p['simple_by_theorem']}")
        lines.append(
            f"graded simple (oracle): {p['simple_by_oracle']} "
            f"({p['oracle']['closures_tested']} closures tested; {p['oracle']['reason']})"
        )
    if "timing" in report:
        lines.append(f"elapsed: {report['timing']['seconds']} s")
    return "\n".join(lines) + "\n"
