"""Ring-spec files: the JSON interchange format for rings.

Schema (format_version 1):

    {
      "format_version": 1,
      "group": {"free_rank": int, "torsion": [int, ...]},
      "basis": ["label", ...],
      "degrees": [[int, ...], ...],          one exponent vector per label
      "structure": [{"i": int, "j": int, "k": int, "scalar": "p/q"}, ...],
      "grams": [gram, ...],                  dense rows or {"sparse": [...]}
      "metadata": {...}                      free-form, optional
    }

Repeated (i, j, k) structure entries are summed, and entries that cancel
leave no product behind.  Scalar strings are "p", "p/q", "a+b*i" or
"a-b*i" with reduced fractions.
A Gram is either a dense matrix (list of rows of scalar strings) or
{"sparse": [{"i": int, "j": int, "scalar": str}, ...]} with omitted entries
zero.  Indices are 0-based.  Serialization is deterministic: structure
triples are sorted, scalars are written canonically, and keys are emitted
in sorted order, so equal rings produce byte-identical files.
"""

from __future__ import annotations

import json

from .errors import MalformedInputError, SpecFileError
from .groups import GroupSignature
from .linalg import Scalar, ZERO
from .ring import GradedRing

FORMAT_VERSION = 1

# grams up to this dimension are written densely, larger ones sparsely
_DENSE_GRAM_LIMIT = 16


def ring_to_dict(ring: GradedRing, metadata: dict | None = None) -> dict:
    structure = [
        {"i": i, "j": j, "k": k, "scalar": str(c)}
        for (i, j) in sorted(ring.structure)
        for k, c in ring.structure[(i, j)]
    ]
    grams = []
    for gram in ring.grams:
        n = len(gram)
        if n <= _DENSE_GRAM_LIMIT:
            grams.append([[str(row.get(j, ZERO)) for j in range(n)] for row in gram.sparse])
        else:
            entries = [
                {"i": i, "j": j, "scalar": str(row[j])}
                for i, row in enumerate(gram.sparse)
                for j in sorted(row)
            ]
            grams.append({"sparse": entries})
    return {
        "format_version": FORMAT_VERSION,
        "group": {
            "free_rank": ring.signature.free_rank,
            "torsion": list(ring.signature.torsion),
        },
        "basis": list(ring.labels),
        "degrees": [list(d) for d in ring.degrees],
        "structure": structure,
        "grams": grams,
        "metadata": dict(metadata or {}),
    }


def dumps_ring(ring: GradedRing, metadata: dict | None = None) -> str:
    return json.dumps(ring_to_dict(ring, metadata), indent=2, sort_keys=True) + "\n"


def save_ring(path, ring: GradedRing, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_ring(ring, metadata))


def _need(data: dict, key: str, where: str):
    if key not in data:
        raise SpecFileError(f"{where}: missing required field {key!r}")
    return data[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_scalar(text, where: str) -> Scalar:
    try:
        return Scalar.from_string(text)
    except MalformedInputError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc


def ring_from_dict(data) -> GradedRing:
    """Parse a spec dictionary; SpecFileError messages name the field."""
    if not isinstance(data, dict):
        raise SpecFileError("top level: expected a JSON object")
    version = _need(data, "format_version", "top level")
    if version != FORMAT_VERSION:
        raise SpecFileError(f"format_version: unsupported value {version!r}")
    group = _need(data, "group", "top level")
    if not isinstance(group, dict):
        raise SpecFileError("group: expected an object")
    free_rank = _as_int(_need(group, "free_rank", "group"), "group.free_rank")
    torsion = _need(group, "torsion", "group")
    if not isinstance(torsion, list):
        raise SpecFileError("group.torsion: expected a list")
    torsion = tuple(
        _as_int(m, f"group.torsion[{idx}]") for idx, m in enumerate(torsion)
    )
    try:
        sig = GroupSignature(free_rank, torsion)
    except MalformedInputError as exc:
        raise SpecFileError(f"group: {exc}") from exc

    basis = _need(data, "basis", "top level")
    if not isinstance(basis, list) or not all(isinstance(x, str) for x in basis):
        raise SpecFileError("basis: expected a list of strings")
    n = len(basis)

    degrees_raw = _need(data, "degrees", "top level")
    if not isinstance(degrees_raw, list) or len(degrees_raw) != n:
        raise SpecFileError(f"degrees: expected a list of {n} exponent vectors")
    degrees = []
    for idx, vec in enumerate(degrees_raw):
        if not isinstance(vec, list):
            raise SpecFileError(f"degrees[{idx}]: expected a list of integers")
        degrees.append(tuple(_as_int(e, f"degrees[{idx}]") for e in vec))
        if len(degrees[-1]) != sig.length:
            raise SpecFileError(
                f"degrees[{idx}]: has {len(degrees[-1])} coordinates, "
                f"the group needs {sig.length}"
            )

    structure_raw = _need(data, "structure", "top level")
    if not isinstance(structure_raw, list):
        raise SpecFileError("structure: expected a list of sparse entries")
    structure: dict = {}
    for idx, entry in enumerate(structure_raw):
        where = f"structure[{idx}]"
        if not isinstance(entry, dict):
            raise SpecFileError(f"{where}: expected an object")
        i = _as_int(_need(entry, "i", where), f"{where}.i")
        j = _as_int(_need(entry, "j", where), f"{where}.j")
        k = _as_int(_need(entry, "k", where), f"{where}.k")
        for name, value in (("i", i), ("j", j), ("k", k)):
            if not 0 <= value < n:
                raise SpecFileError(f"{where}.{name}: index {value} out of range 0..{n - 1}")
        scalar = _parse_scalar(_need(entry, "scalar", where), f"{where}.scalar")
        structure.setdefault((i, j), []).append((k, scalar))

    grams_raw = _need(data, "grams", "top level")
    if not isinstance(grams_raw, list) or not grams_raw:
        raise SpecFileError("grams: expected a nonempty list")
    grams = []
    for a, gram in enumerate(grams_raw):
        where = f"grams[{a}]"
        if isinstance(gram, dict):
            entries = _need(gram, "sparse", where)
            if not isinstance(entries, list):
                raise SpecFileError(f"{where}.sparse: expected a list")
            rows = [{} for _ in range(n)]
            for idx, entry in enumerate(entries):
                spot = f"{where}.sparse[{idx}]"
                if not isinstance(entry, dict):
                    raise SpecFileError(f"{spot}: expected an object")
                i = _as_int(_need(entry, "i", spot), f"{spot}.i")
                j = _as_int(_need(entry, "j", spot), f"{spot}.j")
                if not (0 <= i < n and 0 <= j < n):
                    raise SpecFileError(f"{spot}: index ({i},{j}) out of range")
                rows[i][j] = _parse_scalar(_need(entry, "scalar", spot), f"{spot}.scalar")
            grams.append(rows)
        elif isinstance(gram, list):
            if len(gram) != n or any(not isinstance(row, list) or len(row) != n for row in gram):
                raise SpecFileError(f"{where}: expected a dense {n}x{n} matrix")
            grams.append(
                [
                    [_parse_scalar(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
                    for i, row in enumerate(gram)
                ]
            )
        else:
            raise SpecFileError(f"{where}: expected a dense matrix or a sparse object")

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SpecFileError("metadata: expected an object")
    return GradedRing(sig, degrees, structure, grams, basis)


def loads_ring(text: str) -> GradedRing:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SpecFileError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SpecFileError("invalid JSON: arrays or objects nested too deeply") from None
    return ring_from_dict(data)


def load_ring(path) -> GradedRing:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return loads_ring(text)
