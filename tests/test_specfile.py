import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings import (
    BandedRingParams,
    GradedRing,
    GroupSignature,
    MalformedInputError,
    Scalar,
    SpecFileError,
    banded_ring,
    dumps_ring,
    group_algebra,
    load_ring,
    loads_ring,
    random_ring,
    save_ring,
)
from gradedrings.specfile import ring_from_dict, ring_to_dict
from gradedrings.linalg import ONE, dense_strings
from gradedrings.specfile import dumps_json

@pytest.mark.parametrize(
    "ring",
    [
        banded_ring(BandedRingParams(2, 1)),
        banded_ring(BandedRingParams(3, 2)),  # dim 18 exercises sparse grams
        group_algebra(GroupSignature(0, (2, 3))),
        random_ring(5),
    ],
    ids=["band2", "band3x2", "z6", "random5"],
)
def test_round_trip(ring):
    assert ring_from_dict(ring_to_dict(ring)) == ring


def test_repeated_structure_entries_are_summed():
    data = ring_to_dict(banded_ring(BandedRingParams(2, 1)))
    plain = ring_from_dict(data)
    cancelling = json.loads(json.dumps(data))
    cancelling["structure"] += [
        {"i": 0, "j": 1, "k": 1, "scalar": "1"},
        {"i": 0, "j": 1, "k": 1, "scalar": "-1"},
    ]
    assert ring_from_dict(cancelling) == plain
    halves = json.loads(json.dumps(data))
    entry = halves["structure"][0]
    entry["scalar"] = "1/2"
    halves["structure"].append(dict(entry))
    assert ring_from_dict(halves) == plain


def test_round_trip_through_files(tmp_path):
    ring = banded_ring(BandedRingParams(2, 2))
    path = tmp_path / "ring.json"
    save_ring(path, ring, {"note": "fixture"})
    loaded = load_ring(path)
    assert loaded == ring


def test_dumps_is_deterministic():
    ring = random_ring(9)
    assert dumps_ring(ring) == dumps_ring(ring)


def test_complex_scalars_round_trip():
    i = Scalar(0, 1)
    gram = [{0: Scalar(1), 1: i}, {0: -i, 1: Scalar(2)}]
    ring = GradedRing(GroupSignature(0, ()), [(), ()], {}, [gram])
    assert ring.validate().ok
    again = ring_from_dict(ring_to_dict(ring))
    assert again == ring
    assert again.grams[0].sparse[0][1] == i


def test_sparse_gram_form_is_accepted():
    data = ring_to_dict(banded_ring(BandedRingParams(2, 1)))
    dense = data["grams"][0]
    sparse = {
        "sparse": [
            {"i": i, "j": j, "scalar": cell}
            for i, row in enumerate(dense)
            for j, cell in enumerate(row)
            if cell != "0"
        ]
    }
    data["grams"][0] = sparse
    assert ring_from_dict(data) == banded_ring(BandedRingParams(2, 1))


def test_metadata_is_preserved_in_files(tmp_path):
    ring = group_algebra(GroupSignature(0, (2,)))
    path = tmp_path / "ring.json"
    save_ring(path, ring, {"generator": "group", "torsion": [2]})
    raw = json.loads(path.read_text())
    assert raw["metadata"]["generator"] == "group"


def base_dict():
    return ring_to_dict(banded_ring(BandedRingParams(2, 1)))


def test_missing_field_diagnostic():
    data = base_dict()
    del data["degrees"]
    with pytest.raises(SpecFileError, match="degrees"):
        ring_from_dict(data)


def test_bad_index_diagnostic():
    data = base_dict()
    data["structure"][0]["k"] = 99
    with pytest.raises(SpecFileError, match=r"structure\[0\].k"):
        ring_from_dict(data)


def test_bad_scalar_diagnostic():
    data = base_dict()
    data["structure"][2]["scalar"] = "one half"
    with pytest.raises(SpecFileError, match=r"structure\[2\].scalar"):
        ring_from_dict(data)


@pytest.mark.parametrize("value", [True, "1", 1.0, None])
@pytest.mark.parametrize(
    "spot, where",
    [
        ("structure", r"structure\[1\]\.j"),
        ("sparse", r"grams\[0\]\.sparse\[0\]\.i"),
        ("degrees", r"degrees\[2\]"),
        ("free_rank", r"group\.free_rank"),
    ],
)
def test_non_integer_fields_are_rejected(spot, where, value):
    data = base_dict()
    if spot == "structure":
        data["structure"][1]["j"] = value
    elif spot == "sparse":
        data["grams"][0] = {"sparse": [{"i": value, "j": 0, "scalar": "1"}]}
    elif spot == "degrees":
        data["degrees"][2][0] = value
    else:
        data["group"]["free_rank"] = value
    with pytest.raises(SpecFileError, match=where + ": expected an integer"):
        ring_from_dict(data)


def test_degree_length_diagnostic():
    data = base_dict()
    data["degrees"][1] = [1]
    with pytest.raises(SpecFileError, match=r"degrees\[1\]"):
        ring_from_dict(data)


def test_unsupported_version_diagnostic():
    data = base_dict()
    data["format_version"] = 99
    with pytest.raises(SpecFileError, match="format_version"):
        ring_from_dict(data)


def test_invalid_json_names_the_line():
    with pytest.raises(SpecFileError, match="line 1"):
        loads_ring("{invalid json")


def test_unreadable_file(tmp_path):
    with pytest.raises(SpecFileError, match="cannot read"):
        load_ring(tmp_path / "missing.json")


def test_empty_grams_rejected():
    data = base_dict()
    data["grams"] = []
    with pytest.raises(SpecFileError, match="grams"):
        ring_from_dict(data)


def test_gram_shape_rejected():
    data = base_dict()
    data["grams"][0] = [["1", "0"], ["0", "1"]]  # wrong size for dim 4
    with pytest.raises(SpecFileError, match=r"grams\[0\]"):
        ring_from_dict(data)


@pytest.mark.parametrize("text", ["1/0", "0/0", "1+1/0*i", "1-2/0*i", "3/0*i", "1" + "0" * 5000])
def test_unrepresentable_scalars_are_malformed_input(text):
    with pytest.raises(MalformedInputError):
        Scalar.from_string(text)
    data = ring_to_dict(banded_ring(BandedRingParams(2, 1)))
    data["structure"][1]["scalar"] = text
    with pytest.raises(SpecFileError, match=r"structure\[1\]\.scalar"):
        loads_ring(json.dumps(data))


# -- parsing each scalar string once ---------------------------------------


def count_from_string(monkeypatch) -> Counter:
    """Count ``Scalar.from_string`` calls per argument from now on."""
    calls = Counter()
    parse = Scalar.from_string

    def counted(cls, text):
        calls[text if isinstance(text, str) else repr(text)] += 1
        return parse(text)

    monkeypatch.setattr(Scalar, "from_string", classmethod(counted))
    return calls


def spec_scalar_strings(data) -> set:
    strings = {entry["scalar"] for entry in data["structure"]}
    for gram in data["grams"]:
        if isinstance(gram, dict):
            strings.update(entry["scalar"] for entry in gram["sparse"])
        else:
            strings.update(x for row in gram for x in row)
    return strings


@pytest.mark.parametrize(
    "ring",
    [
        banded_ring(BandedRingParams(5, 3, None, (Fraction(1), Fraction(2)))),
        random_ring(1),  # dim 12: a dense Gram
    ],
    ids=["banded5x3-w1,2", "random1-dense"],
)
def test_each_scalar_string_is_parsed_once_per_load(monkeypatch, ring):
    text = dumps_ring(ring)
    data = json.loads(text)
    calls = count_from_string(monkeypatch)
    assert loads_ring(text) == ring
    assert set(calls) == spec_scalar_strings(data)
    assert max(calls.values()) == 1
    # no cache outlives a load: the next load parses every string again
    loads_ring(text)
    assert set(calls.values()) == {2}


def test_banded_spec_parses_two_strings():
    """Banded (5, 3) with weights (1, 2) spells 525 scalars with two strings."""
    data = ring_to_dict(banded_ring(BandedRingParams(5, 3, None, (Fraction(1), Fraction(2)))))
    assert len(data["structure"]) + sum(len(g["sparse"]) for g in data["grams"]) == 525
    assert spec_scalar_strings(data) == {"1", "2"}


def test_dense_gram_zeros_are_dropped_at_parse_time():
    data = base_dict()
    n = len(data["basis"])
    data["grams"][0] = [["0/7" if i != j else "3/3" for j in range(n)] for i in range(n)]
    gram = ring_from_dict(data).grams[0]
    assert gram.sparse == tuple({i: Scalar(1)} for i in range(n))
    assert gram.square


def test_equal_strings_share_one_scalar():
    ring = loads_ring(dumps_ring(banded_ring(BandedRingParams(2, 1))))
    ones = {id(c) for entries in ring.structure.values() for _, c in entries}
    assert len(ones) == 1


def test_parsed_ones_are_the_shared_one():
    data = base_dict()
    n = len(data["basis"])
    data["grams"][0] = [["0/7" if i != j else "3/3" for j in range(n)] for i in range(n)]
    ring = ring_from_dict(data)
    assert all(c is ONE for entries in ring.structure.values() for _, c in entries)
    assert all(x is ONE for row in ring.grams[0].sparse for x in row.values())


def test_validating_a_loaded_ring_compares_no_structure_constant_with_one(monkeypatch):
    """``add_scaled`` tests its factor against the shared ``ONE`` by identity
    first, so on a loaded banded (5, 3) with weights (1, 2), whose 375
    structure constants are all one, ``validate`` calls ``Scalar.__eq__``
    75 times, all in the Hausdorff check's nullspace (1,875 when each
    constant was compared by value).  Each Gram's hermiticity is decided
    when it is built, so ``validate`` compares no Gram entry either (it
    made 300 such comparisons when the malformed and the positivity checks
    each decided it)."""
    text = dumps_ring(banded_ring(BandedRingParams(5, 3, None, (Fraction(1), Fraction(2)))))
    ring = loads_ring(text)
    calls = 0
    equal = Scalar.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return equal(self, other)

    monkeypatch.setattr(Scalar, "__eq__", counted)
    assert ring.validate().ok
    assert len(ring.structure) == 375
    assert calls == 75


@pytest.mark.parametrize("spot", ["dense", "structure"])
def test_a_list_given_as_a_scalar_names_the_field(spot):
    data = base_dict()
    if spot == "dense":
        data["grams"][0][1][2] = ["1"]
        where = r"grams\[0\]\[1\]\[2\]"
    else:
        data["structure"][3]["scalar"] = ["1"]
        where = r"structure\[3\]\.scalar"
    with pytest.raises(SpecFileError, match=where + ": scalar must be a string, got list"):
        ring_from_dict(data)
    with pytest.raises(SpecFileError, match=where):
        loads_ring(json.dumps(data))


def test_a_failed_parse_is_not_remembered(monkeypatch):
    data = base_dict()
    data["structure"][0]["scalar"] = "1/0"
    calls = count_from_string(monkeypatch)
    for _ in range(2):
        with pytest.raises(SpecFileError, match=r"structure\[0\]\.scalar"):
            ring_from_dict(data)
    assert calls["1/0"] == 2


def test_dense_strings_writes_only_nonzero_entries():
    rows = [{1: Scalar(Fraction(-1, 2))}, {}, {0: Scalar(0, 1), 2: Scalar(3)}]
    assert [dense_strings(row, 3) for row in rows] == [
        ["0", "-1/2", "0"], ["0", "0", "0"], ["0+1*i", "0", "3"]
    ]


# -- the JSON writer --------------------------------------------------------

json_strings = st.text() | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "\u2028", "\U0001f600", '"a"\\b/']
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 5e-324, 0.1, 1e16, 123456789.0])
    | json_strings
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.lists(json_strings)
    | st.lists(st.integers())
    | st.dictionaries(json_strings, children),
    max_leaves=40,
)


def reference_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(deadline=None, max_examples=200)
@given(json_values)
def test_dumps_json_matches_json_dumps(value):
    assert dumps_json(value) == reference_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        [],
        {},
        (),
        [True, 1, "1", None],
        [True, False],
        [1, True],
        ["a", 1],
        [1, 2.5],
        [[], {}, [[]], {"": []}],
        {"b": [1, 2], "a": {"d": "x", "c": ["y", "z"]}, "é": -0.0},
        [2**64, -(2**64) - 1, 0],
        [float("inf"), float("-inf"), float("nan")],
        {"seconds": 0.123456},
        # leaf lists are written once per value and indentation
        ['"', "\\", "\x1f", "\x7f", "é", ""],
        [['"', "é", ""], ['"', "é", ""], {"a": ['"', "é", ""]}],
        {"a": [1, -2, 3], "b": [1, -2, 3], "c": [[1, -2, 3]]},
        [[1, 0, 1], [True, False, True], [1, 0, 1], [[True, False, True]]],
        [[1, 0], [1.0, 0.0], ["1", "0"], [1, 0]],
    ],
)
def test_dumps_json_matches_json_dumps_on_edge_cases(value):
    assert dumps_json(value) == reference_dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}], {1, 2}, ["a", {1}], b"x"])
def test_dumps_json_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        dumps_json(value)


@pytest.mark.parametrize(
    "ring",
    [banded_ring(BandedRingParams(3, 2)), random_ring(1), random_ring(5)],
    ids=["band3x2", "random1", "random5"],
)
def test_dumps_ring_matches_json_dumps(ring):
    meta = {"generator": "test", "weights": ["1", "3/2"], "n": 3}
    assert dumps_ring(ring, meta) == reference_dumps(ring_to_dict(ring, meta))
