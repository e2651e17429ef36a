import json
import os

import pytest

from gradedrings import save_ring
from gradedrings.cli import main
from gradedrings.report import render_text

from conftest import (
    associativity_defect_ring,
    grading_defect_ring,
    hausdorff_defect_ring,
    malformed_scalar_spec_dict,
    orthogonality_defect_ring,
    psd_defect_ring,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, err = run(capsys, *argv, "-o", str(path))
    assert code == 0, err
    return str(path)


def test_gen_banded_and_validate(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "band.json", "gen", "banded", "--n", "2", "--r", "1")
    code, out, _ = run(capsys, "--report", "json", "validate", path)
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["ok"] is True
    assert report["command"] == "validate"


def test_gen_output_reparses_to_the_generated_ring(capsys, tmp_path):
    from gradedrings import BandedRingParams, banded_ring, load_ring

    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "3", "--r", "2")
    assert load_ring(path) == banded_ring(BandedRingParams(3, 2))


def test_gen_writes_to_stdout_without_output_flag(capsys):
    code, out, _ = run(capsys, "gen", "group", "--torsion", "2")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["torsion"] == [2]
    assert len(data["basis"]) == 2


def test_classes_report(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "3", "--r", "2")
    code, out, _ = run(capsys, "--report", "json", "classes", path)
    assert code == 0
    report = json.loads(out)
    assert report["classes"]["count"] == 2
    assert report["support"]["size"] == 12
    assert report["support"]["symmetric"] is True
    # certificates are embedded and carry the endpoints
    first = report["classes"]["blocks"][0]["members"][0]
    assert first["certificate"]["source"] == report["classes"]["blocks"][0]["representative"]


def test_decompose_report_and_exit_code(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "2")
    code, out, _ = run(capsys, "--report", "json", "decompose", path)
    assert code == 0
    report = json.loads(out)
    dec = report["decomposition"]
    assert [i["dimension"] for i in dec["ideals"]] == [4, 4]
    assert dec["complement"]["dimension"] == 0
    assert dec["covers"] and dec["pairwise_zero"] and dec["orthogonal_ideals"]


def test_simple_one_band(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "3", "--r", "1")
    code, out, _ = run(capsys, "--report", "json", "simple", path)
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["simple_by_theorem"] is True
    assert props["simple_by_oracle"] is True


def test_properties_flags(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")
    code, out, _ = run(
        capsys, "--report", "json", "properties", path, "--oracle-samples", "2", "--seed", "5"
    )
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["maximal_length"] and props["coherent"]
    assert props["annihilator"]["dimension"] == 0


def test_gen_sum(capsys, tmp_path):
    a = gen_file(capsys, tmp_path, "a.json", "gen", "banded", "--n", "2", "--r", "1")
    b = gen_file(capsys, tmp_path, "b.json", "gen", "group", "--torsion", "3")
    s = gen_file(capsys, tmp_path, "s.json", "gen", "sum", a, b)
    code, out, _ = run(capsys, "--report", "json", "classes", s)
    assert code == 0
    assert json.loads(out)["classes"]["count"] == 2


def test_gen_banded_weights_flag(capsys, tmp_path):
    path = gen_file(
        capsys, tmp_path, "w.json",
        "gen", "banded", "--n", "2", "--r", "1", "--weights", "1,3/2",
    )
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert len(data["grams"]) == 2
    assert data["grams"][1][0][0] == "3/2"
    code, _, _ = run(capsys, "validate", path)
    assert code == 0


def test_decompose_with_nonzero_complement_through_the_cli(capsys, tmp_path):
    from gradedrings import direct_sum, banded_ring, BandedRingParams
    from conftest import trivially_graded_zero_ring

    ring = direct_sum(banded_ring(BandedRingParams(2, 1)), trivially_graded_zero_ring(1))
    path = tmp_path / "padded.json"
    save_ring(path, ring)
    code, out, _ = run(capsys, "--report", "json", "decompose", str(path))
    assert code == 0
    dec = json.loads(out)["decomposition"]
    assert dec["complement"]["dimension"] == 1
    assert dec["complement_exact"] and dec["covers"]


def test_gen_random_determinism(capsys, tmp_path):
    p1 = gen_file(capsys, tmp_path, "r1.json", "gen", "random", "--seed", "42")
    p2 = gen_file(capsys, tmp_path, "r2.json", "gen", "random", "--seed", "42")
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_gen_random_rejects_max_dim_below_two(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, "gen", "random", "--max-dim", "-3", "-o", str(out_path))
    assert code == 2
    assert "max_dim" in err and out == ""
    assert not out_path.exists()


def z3_spec_with_degree_four():
    """The group algebra of Z/3 with one degree written as [4], not [1]."""
    from gradedrings import GroupSignature, group_algebra
    from gradedrings.specfile import ring_to_dict

    data = ring_to_dict(group_algebra(GroupSignature(0, (3,))))
    data["degrees"][1] = [4]
    return json.dumps(data)


GEN_SUM_DETAILS = {
    "malformed": "(1,): degree (4,) does not conform to the signature",
    # both sides in one text form: 0, or terms c ek
    "associativity": "(0, 0, 0): (e0 e0) e0 = 0 but e0 (e0 e0) = 1 e2",
}


@pytest.mark.parametrize("kind", ["malformed", "associativity"])
def test_gen_sum_of_an_invalid_input_exits_two_naming_it(capsys, tmp_path, kind):
    bad = tmp_path / f"{kind}.json"
    if kind == "malformed":
        bad.write_text(z3_spec_with_degree_four())
    else:
        save_ring(bad, associativity_defect_ring())
    good = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")
    out_path = tmp_path / "sum.json"
    for pair in ((str(bad), good), (good, str(bad))):
        code, out, err = run(capsys, "gen", "sum", *pair, "-o", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: {bad}: [{kind}] at {GEN_SUM_DETAILS[kind]}\n"
        assert not out_path.exists()


def test_gen_sum_shared_embedding_collision_exits_two(capsys, tmp_path):
    a = gen_file(capsys, tmp_path, "a.json", "gen", "banded", "--n", "2", "--r", "1")
    code, _, err = run(capsys, "gen", "sum", a, a, "--embedding", "shared")
    assert code == 2
    assert "collide" in err


def test_text_report_is_rendered_from_json(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")
    code, json_out, _ = run(capsys, "--report", "json", "decompose", path)
    code2, text_out, _ = run(capsys, "--report", "text", "decompose", path)
    assert code == code2 == 0
    assert text_out == render_text(json.loads(json_out))
    assert "covers: True" in text_out


def test_out_flag_writes_report(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "--report", "json", "validate", path, "--out", str(report_path))
    assert code == 0
    assert out == ""
    assert json.loads(report_path.read_text())["validation"]["ok"] is True


def test_an_unwritable_report_path_exits_two_without_a_traceback(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")
    report_path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "--out", str(report_path), "validate", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {report_path}: ")
    assert not report_path.parent.exists()


def test_an_unwritable_spec_path_exits_two_without_a_traceback(capsys, tmp_path):
    for target in (tmp_path / "missing" / "y.json", tmp_path):  # no folder, a folder
        code, out, err = run(capsys, "gen", "banded", "--n", "2", "--r", "1", "-o", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")


def test_timing_section_is_opt_in(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")
    _, out, _ = run(capsys, "--report", "json", "validate", path)
    assert "timing" not in json.loads(out)
    _, out, _ = run(capsys, "--report", "json", "--timing", "validate", path)
    assert "timing" in json.loads(out)


def test_reports_do_not_depend_on_the_environment(capsys, tmp_path, monkeypatch):
    """The seed and sample count come from the command line or its defaults;
    no environment variable changes a spec or a report."""
    band = gen_file(capsys, tmp_path, "band.json", "gen", "banded", "--n", "2", "--r", "1")

    def outputs(name):
        spec = gen_file(capsys, tmp_path, f"{name}.json", "gen", "random")
        code, report, _ = run(capsys, "--report", "json", "properties", band)
        assert code == 0
        with open(spec, "rb") as fh:
            return fh.read(), report

    plain = outputs("plain")
    monkeypatch.setenv("GRADED_SEED", "7")
    monkeypatch.setenv("GRADED_SAMPLES", "3")
    assert outputs("env") == plain


DEFECTS = [
    ("grading", grading_defect_ring),
    ("associativity", associativity_defect_ring),
    ("orthogonality", orthogonality_defect_ring),
    ("psd", psd_defect_ring),
    ("hausdorff", hausdorff_defect_ring),
]


@pytest.mark.parametrize("kind,builder", DEFECTS, ids=[k for k, _ in DEFECTS])
def test_planted_defect_exits_one_with_the_right_kind(capsys, tmp_path, kind, builder):
    path = tmp_path / f"{kind}.json"
    save_ring(path, builder())
    code, out, _ = run(capsys, "--report", "json", "validate", str(path))
    assert code == 1
    violations = json.loads(out)["validation"]["violations"]
    assert {v["kind"] for v in violations} == {kind}


def test_malformed_scalar_exits_two(capsys, tmp_path):
    path = tmp_path / "badscalar.json"
    path.write_text(json.dumps(malformed_scalar_spec_dict()))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "scalar" in err or "grams" in err


@pytest.mark.parametrize("spot", ["dense", "structure"])
def test_a_list_given_as_a_scalar_exits_two(capsys, tmp_path, spot):
    data = malformed_scalar_spec_dict()
    data["grams"][0][0][0] = "1"
    if spot == "dense":
        data["grams"][0][1][0] = ["0"]
        where = "grams[0][1][0]"
    else:
        data["structure"] = [{"i": 0, "j": 0, "k": 0, "scalar": ["1"]}]
        where = "structure[0].scalar"
    path = tmp_path / "listscalar.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {where}: scalar must be a string, got list\n"


def test_unreadable_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_exits_two_with_line_diagnostic(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  broken\n}")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 2" in err


def test_bad_generator_parameters_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "banded", "--n", "2", "--r", "1", "--primes", "2,2")
    assert code == 2
    assert "distinct" in err


@pytest.mark.parametrize("weights", ["abc", "1/0"])
def test_unparseable_weights_exit_two(capsys, weights):
    code, _, err = run(capsys, "gen", "banded", "--n", "2", "--r", "1", "--weights", weights)
    assert code == 2
    assert "--weights" in err and weights in err


def test_unparseable_primes_and_torsion_exit_two(capsys):
    code, _, err = run(capsys, "gen", "banded", "--n", "2", "--r", "1", "--primes", "2,x")
    assert code == 2 and "--primes" in err
    code, _, err = run(capsys, "gen", "group", "--torsion", "1")
    assert code == 2 and "--torsion" in err


def test_library_errors_are_not_reported_as_bad_input(capsys, tmp_path, monkeypatch):
    path = gen_file(capsys, tmp_path, "b.json", "gen", "banded", "--n", "2", "--r", "1")

    def broken(ring):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr("gradedrings.cli.decompose", broken)
    with pytest.raises(ZeroDivisionError, match="planted"):
        main(["decompose", path])


def banded_spec(edit):
    from gradedrings import BandedRingParams, banded_ring
    from gradedrings.specfile import ring_to_dict

    data = ring_to_dict(banded_ring(BandedRingParams(2, 1)))
    edit(data)
    return json.dumps(data)


def set_structure_scalar(text):
    def edit(data):
        data["structure"][0]["scalar"] = text

    return edit


def set_dense_gram_scalar(text):
    def edit(data):
        data["grams"][0][1][1] = text

    return edit


def set_sparse_gram_scalar(text):
    def edit(data):
        entries = [{"i": 0, "j": 0, "scalar": "1"}, {"i": 1, "j": 1, "scalar": text}]
        data["grams"][0] = {"sparse": entries}

    return edit


LONG_INTEGER = "1" + "0" * 5000  # past Python's 4300-digit int conversion limit

MALFORMED_SPECS = [
    (f"{where}-{text[:8]}", banded_spec(setter(text)), field)
    for text in ("1/0", "0/0", "1+1/0*i", "1/0*i", LONG_INTEGER)
    for where, setter, field in (
        ("structure", set_structure_scalar, "structure[0].scalar"),
        ("dense", set_dense_gram_scalar, "grams[0][1][1]"),
        ("sparse", set_sparse_gram_scalar, "grams[0].sparse[1].scalar"),
    )
] + [
    (
        "json-integer",
        banded_spec(lambda d: None).replace('"i": 0', f'"i": {LONG_INTEGER}', 1),
        "invalid JSON",
    ),
    (
        "json-nesting",
        banded_spec(lambda d: None).replace("{}", "[" * 10**5 + "]" * 10**5),  # the metadata
        "nested too deeply",
    ),
]


@pytest.mark.parametrize(
    "text, field", [(t, f) for _, t, f in MALFORMED_SPECS], ids=[n for n, _, _ in MALFORMED_SPECS]
)
def test_malformed_numbers_exit_two_naming_the_field(capsys, tmp_path, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err and out == ""


def test_non_utf8_file_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(banded_spec(lambda d: None).replace("a((1,1)", "\xe9((1,1)").encode("latin-1"))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: cannot read") and str(path) in err and "UTF-8" in err
