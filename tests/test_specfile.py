import json

import pytest

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
    ring_from_dict,
    ring_to_dict,
    save_ring,
)

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
    gram = [[Scalar(1), i], [-i, Scalar(2)]]
    ring = GradedRing(GroupSignature(0, ()), [(), ()], {}, [gram])
    assert ring.validate().ok
    again = ring_from_dict(ring_to_dict(ring))
    assert again == ring
    assert again.grams[0][0][1] == i


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
