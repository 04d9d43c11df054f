"""End-to-end command dispatch, exit codes, and report content."""

import json

import pytest

import reedychain.chain as ch
import reedychain.cli as cli
import reedychain.serialization as sz
import reedychain.sobj as so


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_homology_of_sphere_fixture(capsys):
    rep = run_json(capsys, "--p", "7", "homology", "sphere:1")
    assert rep["homology"] == {"1": 1}
    assert rep["p"] == 7


def test_homology_of_file_input(capsys, tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(sz.dumps(ch.disk(7, 2)))
    rep = run_json(capsys, "homology", str(path))
    assert rep["homology"] == {}
    assert rep["dims"] == {"1": 1, "2": 1}


def test_classify_identity_smap_file(capsys, tmp_path):
    x = so.constant(2, ch.sphere(7, 0))
    path = tmp_path / "idmap.json"
    path.write_text(sz.dumps(so.identity_smap(x)))
    rep = run_json(capsys, "classify", str(path))
    assert rep["level_we"] and rep["reedy_cof"] and rep["reedy_fib"]
    assert rep["equifibered"] and rep["realization_we"]
    assert rep["flag"] == "exact"
    assert rep["witnesses"] == {}


def test_counterexample_report(capsys):
    rep = run_json(capsys, "--p", "7", "--trunc", "3", "counterexample", "reedy-sm7")
    assert rep["level_we"] is False
    assert rep["level_we_witness"] == [0, 0]
    assert rep["realization_we"] is True
    assert rep["flag"] == "exact"
    assert rep["box_reedy_cof"] is True


def test_check_realization_axiom_clean(capsys):
    code, out, err = run(
        capsys, "--p", "7", "--trunc", "2", "--samples", "5", "--seed", "7",
        "check", "realization-axiom",
    )
    assert code == 0, err
    rep = json.loads(out)
    assert rep["status"] == "ok"
    assert rep["violations"] == []


def test_check_sm7_reedy_structure(capsys):
    code, out, err = run(
        capsys, "--p", "7", "--trunc", "2", "--samples", "4", "check", "sm7",
        "--structure", "reedy",
    )
    assert code == 0, err
    rep = json.loads(out)
    assert rep["structure"] == "reedy"
    assert rep["status"] == "ok"


def test_generators_counts(capsys):
    rep = run_json(
        capsys, "--p", "7", "--trunc", "2", "--window", "0..2", "generators", "Jprime"
    )
    assert rep["count"] == 9
    assert rep["family"] == "Jprime"
    assert all(m["weq"] is False for m in rep["members"])
    rep2 = run_json(
        capsys, "--p", "7", "--trunc", "2", "--window", "0..2", "generators", "J'"
    )
    assert rep2 == rep


def test_rlp_solvable_and_unsolvable(capsys, tmp_path):
    import reedychain.lifting as lf

    x = so.constant(1, ch.disk(7, 1))
    zero = so.constant(1, ch.zero_complex(7))
    solvable = lf.LiftingProblem(
        i=so.zero_smap(zero, x),
        p=so.identity_smap(x),
        top=so.zero_smap(zero, x),
        bottom=so.identity_smap(x),
    )
    path = tmp_path / "ok.json"
    path.write_text(sz.dumps(solvable))
    rep = run_json(capsys, "rlp", str(path))
    assert rep["exists"] is True
    assert rep["witness"] is not None

    cs = so.constant(1, ch.sphere(7, 0))
    cd = so.constant(1, ch.disk(7, 1))
    czero = so.constant(1, ch.zero_complex(7))
    unsolvable = lf.LiftingProblem(
        i=so.constant_map(1, ch.sphere_disk_inclusion(7, 1)),
        p=so.zero_smap(cs, czero),
        top=so.identity_smap(cs),
        bottom=so.zero_smap(cd, czero),
    )
    path2 = tmp_path / "no.json"
    path2.write_text(sz.dumps(unsolvable))
    code, out, err = run(capsys, "rlp", str(path2))
    assert code == 0
    assert json.loads(out)["exists"] is False


def test_tensor_and_sing_emit_objects(capsys):
    rep = run_json(capsys, "--p", "7", "--trunc", "2", "tensor", "sphere:0", "delta:1")
    x = sz.sobj_from_doc(rep["result"])
    assert x.N == 2
    rep2 = run_json(capsys, "--p", "7", "--trunc", "2", "sing", "sphere:0")
    y = sz.sobj_from_doc(rep2["result"])
    assert y.N == 2


def test_cotensor_against_boundary_matches_matching(capsys):
    rep = run_json(
        capsys, "--p", "7", "--trunc", "2", "cotensor", "const:sphere:0", "boundary:1"
    )
    m = run_json(capsys, "--p", "7", "--trunc", "2", "matching", "1", "const:sphere:0")
    assert rep["dims"] == m["dims"] == {"0": 2}


def test_realize_constant_recovers_complex(capsys):
    rep = run_json(capsys, "--p", "7", "--trunc", "2", "realize", "const:sphere:0")
    assert rep["homology"] == {"0": 1}


def test_total_complex_normalized(capsys):
    rep = run_json(
        capsys, "--p", "7", "--trunc", "2", "total-complex", "--normalized",
        "const:sphere:0",
    )
    assert rep["mode"] == "normalized"
    assert rep["homology"] == {"0": 1}


def test_latching_out_of_range_is_exit_2(capsys):
    code, out, err = run(capsys, "--p", "7", "--trunc", "2", "latching", "5", "const:sphere:0")
    assert code == 2
    assert "5" in err


def test_validate_bad_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in err


def _complex_file(tmp_path, p, entry):
    """Two-term complex whose one differential entry is the JSON text ``entry``."""
    path = tmp_path / "complex.json"
    text = f'{{"p": {p}, "complex": {{"lo": 0, "hi": 1, "dims": [1, 1], "diff": [[[{entry}]]]}}}}'
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("p", (4, 4294967311))
def test_bad_prime_in_file_is_exit_2(capsys, tmp_path, p):
    """A composite p would run with pseudo-inverses; a p past 2**15 would
    overflow int64 products.  Both are refused, never answered."""
    code, out, err = run(capsys, "homology", _complex_file(tmp_path, p, 1))
    assert code == 2
    assert out == ""
    assert f"complex.p={p}" in err


def test_bad_prime_option_is_exit_2(capsys):
    code, out, err = run(capsys, "--p", "4294967311", "homology", "sphere:0")
    assert code == 2
    assert "4294967311" in err


@pytest.mark.parametrize("entry", ("1" + "0" * 23, "9" * 5000), ids=("1e23", "5000-digits"))
def test_oversize_integer_is_exit_2(capsys, tmp_path, entry):
    code, out, err = run(capsys, "homology", _complex_file(tmp_path, 7, entry))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_validate_good_fixture(capsys):
    rep = run_json(capsys, "--p", "7", "--trunc", "2", "validate", "const:disk:1")
    assert rep == {"command": "validate", "kind": "sobj", "valid": True}


def test_unknown_fixture_is_exit_2(capsys):
    code, out, err = run(capsys, "homology", "torus:9")
    assert code == 2
    assert "torus:9" in err


def test_cap_exhaustion_is_exit_3(capsys, tmp_path):
    x = so.constant(1, ch.disk(7, 1))
    zero = so.constant(1, ch.zero_complex(7))
    import reedychain.lifting as lf

    pr = lf.LiftingProblem(
        i=so.zero_smap(zero, x),
        p=so.identity_smap(x),
        top=so.zero_smap(zero, x),
        bottom=so.identity_smap(x),
    )
    path = tmp_path / "pr.json"
    path.write_text(sz.dumps(pr))
    code, out, err = run(capsys, "--cap", "1", "rlp", str(path))
    assert code == 3


def test_env_variables_feed_manifest(capsys, monkeypatch):
    monkeypatch.setenv("REEDYCHAIN_P", "7")
    monkeypatch.setenv("REEDYCHAIN_TRUNC", "2")
    rep = run_json(capsys, "sing", "sphere:0")
    assert rep["result"]["N"] == 2
    assert rep["result"]["p"] == 7


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "--p", "7", "--trunc", "2", "counterexample", "reedy-sm7")
    _, out2, _ = run(capsys, "--p", "7", "--trunc", "2", "counterexample", "reedy-sm7")
    assert out1 == out2


def test_pretty_output_renders_lines(capsys):
    code, out, err = run(
        capsys, "--p", "7", "--trunc", "2", "--pretty", "homology", "sphere:1"
    )
    assert code == 0
    assert "homology:" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
