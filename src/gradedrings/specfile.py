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
zero.  Indices are 0-based.  A load parses each distinct scalar string
once and shares the resulting (immutable) scalar wherever the string
recurs.  In memory every Gram is sparse rows: dense Gram rows are read
straight into their nonzero entries and written back by
:func:`~gradedrings.linalg.dense_strings`.

Serialization is deterministic: structure triples are sorted, scalars are
written canonically, and keys are emitted in sorted order, so equal rings
produce byte-identical files.  :func:`dumps_json` writes spec files and
analysis reports alike; its output is byte for byte that of
``json.dumps(value, indent=2, sort_keys=True)`` plus a final newline.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .errors import MalformedInputError, SpecFileError
from .groups import GroupSignature
from .linalg import ONE, ZERO, Scalar, dense_strings
from .ring import GradedRing

FORMAT_VERSION = 1

# grams up to this dimension are written densely, larger ones sparsely
_DENSE_GRAM_LIMIT = 16


def ring_to_dict(ring: GradedRing, metadata: dict | None = None) -> dict:
    structure = [
        {"i": i, "j": j, "k": k, "scalar": str(c)}
        for (i, j), entries in ring.structure.items()
        for k, c in entries
    ]
    grams = []
    for gram in ring.grams:
        n = len(gram)
        if n <= _DENSE_GRAM_LIMIT:
            grams.append([dense_strings(row, n) for row in gram.sparse])
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


_STR_ONLY = {str}
_INT_ONLY = {int}


def dumps_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for values built from str-keyed dicts, lists, tuples, str, int, float,
    bool and None; anything else raises ``TypeError``.  Strings go through
    json's own escaper and floats through ``json.dumps``; a list of only
    strs or only ints (never bools) is written in one join, and a list of
    ints once per value and indentation within a call, since reports repeat
    degree vectors many times (the rows of strs they hold seldom repeat).
    Unlike json's indenting encoder, whose closures form a reference cycle
    per call, it leaves no garbage for the cyclic collector."""
    parts: list[str] = []
    _write_json(value, "\n", parts, {})
    return "".join(parts) + "\n"


def _write_json(value, newline: str, parts: list[str], leaves: dict[tuple, str]) -> None:
    """Append the encoding of ``value`` to ``parts``; ``newline`` is a line
    break followed by the indentation of the line ``value`` starts on, and
    ``leaves`` maps (newline, *items) to the text of a list of ints."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == _INT_ONLY:
            key = (newline, *value)
            text = leaves.get(key)
            if text is None:
                joined = ("," + inner).join(map(int.__repr__, value))
                text = leaves[key] = "[" + inner + joined + newline + "]"
            parts.append(text)
            return
        if kinds == _STR_ONLY:
            joined = ("," + inner).join(map(encode_basestring_ascii, value))
            parts.append("[" + inner + joined + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, inner, parts, leaves)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, parts, leaves)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps_ring(ring: GradedRing, metadata: dict | None = None) -> str:
    return dumps_json(ring_to_dict(ring, metadata))


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


def _int_field(data: dict, key: str, where: str) -> int:
    """``data[key]``, an integer; the field's name is formatted only for an error."""
    value = _need(data, key, where)
    return value if type(value) is int else _as_int(value, f"{where}.{key}")


def _parse_scalar(text, where: str, parsed: dict) -> Scalar:
    """Parse ``text``, which ``parsed`` does not hold, and store it there
    if it is a ``str``; every zero becomes the shared ``ZERO`` and every one
    the shared ``ONE``, so callers (and ``add_scaled``) test for them by
    identity.  ``Scalar.from_string`` rejects non-strings."""
    try:
        scalar = Scalar.from_string(text) or ZERO
    except MalformedInputError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc
    if scalar == ONE:
        scalar = ONE
    if type(text) is str:
        parsed[text] = scalar
    return scalar


def _scalar_field(data: dict, key: str, where: str, parsed: dict) -> Scalar:
    """``data[key]`` as a scalar, looked up in ``parsed`` or parsed."""
    text = _need(data, key, where)
    scalar = parsed.get(text) if type(text) is str else None
    return _parse_scalar(text, f"{where}.{key}", parsed) if scalar is None else scalar


def _check_degree(vec, where: str, length: int) -> None:
    """SpecFileError unless ``vec`` is a list of ``length`` integers."""
    if not isinstance(vec, list):
        raise SpecFileError(f"{where}: expected a list of integers")
    for e in vec:
        _as_int(e, where)
    if len(vec) != length:
        raise SpecFileError(f"{where}: has {len(vec)} coordinates, the group needs {length}")


def _structure_entry(entry, where: str, n: int, parsed: dict) -> tuple[int, int, int, Scalar]:
    """The (i, j, k, scalar) of a structure entry, checked field by field."""
    if not isinstance(entry, dict):
        raise SpecFileError(f"{where}: expected an object")
    i = _int_field(entry, "i", where)
    j = _int_field(entry, "j", where)
    k = _int_field(entry, "k", where)
    for name, value in (("i", i), ("j", j), ("k", k)):
        if not 0 <= value < n:
            raise SpecFileError(f"{where}.{name}: index {value} out of range 0..{n - 1}")
    return i, j, k, _scalar_field(entry, "scalar", where, parsed)


def _sparse_gram_entry(entry, spot: str, n: int, parsed: dict) -> tuple[int, int, Scalar]:
    """The (i, j, scalar) of a sparse Gram entry, checked field by field."""
    if not isinstance(entry, dict):
        raise SpecFileError(f"{spot}: expected an object")
    i = _int_field(entry, "i", spot)
    j = _int_field(entry, "j", spot)
    if not (0 <= i < n and 0 <= j < n):
        raise SpecFileError(f"{spot}: index ({i},{j}) out of range")
    return i, j, _scalar_field(entry, "scalar", spot, parsed)


def ring_from_dict(data) -> GradedRing:
    """Parse a spec dictionary; SpecFileError messages name the field."""
    # each distinct scalar string is parsed once per load and its
    # (immutable) scalar shared; only str values are looked up or stored
    parsed: dict[str, Scalar] = {}
    if not isinstance(data, dict):
        raise SpecFileError("top level: expected a JSON object")
    version = _need(data, "format_version", "top level")
    if type(version) is not int or version != FORMAT_VERSION:
        raise SpecFileError(f"format_version: unsupported value {version!r}")
    group = _need(data, "group", "top level")
    if not isinstance(group, dict):
        raise SpecFileError("group: expected an object")
    free_rank = _int_field(group, "free_rank", "group")
    torsion = _need(group, "torsion", "group")
    if not isinstance(torsion, list):
        raise SpecFileError("group.torsion: expected a list")
    torsion = tuple([_as_int(m, f"group.torsion[{idx}]") for idx, m in enumerate(torsion)])
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
    # every degree, structure entry and sparse Gram entry passes plain type
    # and range tests first; one that fails them, or whose scalar string is
    # new, goes through the checks that name its fields, so a field's name
    # is formatted only for an error or a new string
    degrees = []
    for idx, vec in enumerate(degrees_raw):
        if not (
            type(vec) is list and len(vec) == sig.length and _INT_ONLY.issuperset(map(type, vec))
        ):
            _check_degree(vec, f"degrees[{idx}]", sig.length)
        degrees.append(tuple(vec))

    structure_raw = _need(data, "structure", "top level")
    if not isinstance(structure_raw, list):
        raise SpecFileError("structure: expected a list of sparse entries")
    structure: dict = {}
    for idx, entry in enumerate(structure_raw):
        if type(entry) is dict:
            i, j, k = entry.get("i"), entry.get("j"), entry.get("k")
            text = entry.get("scalar")
            scalar = parsed.get(text) if type(text) is str else None
        else:
            scalar = None
        if not (
            scalar is not None
            and type(i) is int and type(j) is int and type(k) is int
            and 0 <= i < n and 0 <= j < n and 0 <= k < n
        ):
            i, j, k, scalar = _structure_entry(entry, f"structure[{idx}]", n, parsed)
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
                if type(entry) is dict:
                    i, j, text = entry.get("i"), entry.get("j"), entry.get("scalar")
                    scalar = parsed.get(text) if type(text) is str else None
                else:
                    scalar = None
                if not (
                    scalar is not None
                    and type(i) is int and type(j) is int
                    and 0 <= i < n and 0 <= j < n
                ):
                    i, j, scalar = _sparse_gram_entry(entry, f"{where}.sparse[{idx}]", n, parsed)
                rows[i][j] = scalar
            grams.append(rows)
        elif isinstance(gram, list):
            if len(gram) != n or any(not isinstance(row, list) or len(row) != n for row in gram):
                raise SpecFileError(f"{where}: expected a dense {n}x{n} matrix")
            rows = []
            for i, row in enumerate(gram):
                nonzero = {}
                for j, x in enumerate(row):
                    # _scalar_field's lookup, inlined so that the entry's
                    # name is formatted only for a string not seen before
                    scalar = parsed.get(x) if type(x) is str else None
                    if scalar is None:
                        scalar = _parse_scalar(x, f"{where}[{i}][{j}]", parsed)
                    if scalar is not ZERO:
                        nonzero[j] = scalar
                rows.append(nonzero)
            grams.append(rows)
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
