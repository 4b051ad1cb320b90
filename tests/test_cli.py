import json

import pytest

from modplab.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_success_json(capsys):
    code, out, err = run(["verify", "--suite", "chi-functor", "--seed", "3"], capsys)
    assert code == 0 and err == ""
    assert out.endswith("\n")
    rep = json.loads(out)
    assert rep["schema"] == "1"
    assert rep["suite"] == "chi-functor" and rep["seed"] == 3
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0


def test_verify_reruns_byte_identical(capsys):
    _, first, _ = run(["verify", "--suite", "chi-functor", "--seed", "3"], capsys)
    _, second, _ = run(["verify", "--suite", "chi-functor", "--seed", "3"], capsys)
    assert first == second


def test_verify_unknown_suite(capsys):
    code, out, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 2 and "unknown suite" in err


def test_verify_malformed_catalog(tmp_path, capsys):
    bad = tmp_path / "cat.json"
    bad.write_text('{"groups": 7}')
    code, _, err = run(
        ["verify", "--suite", "chi-functor", "--catalog", str(bad)], capsys
    )
    assert code == 2 and "catalog" in err


@pytest.mark.parametrize(
    "argv",
    [["stable", "--group", "C3", "--field", "F3"], ["fairness", "--mode", "finite", "--group", "S3"]],
)
def test_malformed_catalog_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "cat.json"
    bad.write_text('{"groups": 7}')
    code, out, err = run(argv + ["--catalog", str(bad)], capsys)
    assert code == 2 and out == "" and err.startswith("error: malformed catalog")


def test_catalog_field_beyond_int16_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"groups": [{"ref": "C2"}], "fields": [{"p": 32771}]}))
    code, _, err = run(["verify", "--suite", "chi-functor", "--catalog", str(cat)], capsys)
    assert code == 2 and "too large" in err


def test_fairness_sl2_rejects_composite_p(capsys):
    code, out, err = run(["fairness", "--mode", "sl2", "--p", "4", "--m", "1", "--n", "1"], capsys)
    assert code == 2 and out == "" and "prime" in err


def test_verify_text_format(capsys):
    code, out, _ = run(["verify", "--suite", "higman", "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("suite: higman")
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 36


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["verify", "--suite", "chi-functor", "--seed", "3", "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n") and json.loads(text)["suite"] == "chi-functor"


def test_fairness_sl2_with_oracle(capsys):
    code, out, _ = run(
        ["fairness", "--mode", "sl2", "--p", "2", "--m", "1", "--n", "1", "--oracle-N", "4"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["n_prime"] == 2
    assert data["certificate_valid"] is True
    assert data["oracle_agreement"] == "pass"
    assert all(row["closed_form"] == row["bruteforce"] for row in data["oracle"])


def test_fairness_sl2_without_oracle(capsys):
    code, out, _ = run(["fairness", "--mode", "sl2", "--p", "3", "--m", "2", "--n", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["n_prime"] == 3
    assert data.get("oracle") is None


def test_fairness_sl2_precision_exit(capsys):
    code, _, err = run(
        [
            "fairness", "--mode", "sl2", "--p", "2", "--m", "1", "--n", "1",
            "--oracle-N", "2", "--a", "1",
        ],
        capsys,
    )
    assert code == 3
    assert "n + 2a < N" in err  # message names the violated inequality


def test_fairness_sl2_missing_params(capsys):
    code, _, err = run(["fairness", "--mode", "sl2", "--m", "1", "--n", "1"], capsys)
    assert code == 2 and "--p" in err


def test_fairness_finite_witness(capsys):
    code, out, _ = run(
        [
            "fairness", "--mode", "finite", "--group", "S3",
            "--K", "0,3", "--H", "0,3", "--Hprime", "0",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["outcome"] == "witness-found"
    assert data["report"]["witness"] == 1
    assert data["report"]["witness_label"] == "(012)"


def test_fairness_finite_exhausted(capsys):
    code, out, _ = run(
        [
            "fairness", "--mode", "finite", "--group", "S3",
            "--K", "0,1,2", "--H", "0,1,2", "--Hprime", "0",
        ],
        capsys,
    )
    assert code == 0  # exhausted is a successful computation, not a failure
    data = json.loads(out)
    assert data["report"]["outcome"] == "exhausted"
    assert data["report"]["witness"] is None


def test_fairness_finite_default_refinement(capsys):
    code, out, _ = run(["fairness", "--mode", "finite", "--group", "C4", "--H", "0,2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["Hprime"] == [0]
    assert data["report"]["outcome"] == "exhausted"


def test_fairness_finite_bad_subgroup(capsys):
    code, _, err = run(
        ["fairness", "--mode", "finite", "--group", "S3", "--K", "0,1"], capsys
    )
    assert code == 2 and err


def test_fairness_finite_group_file(tmp_path, capsys):
    from modplab.catalog import cyclic_group, group_to_json

    gfile = tmp_path / "c4.json"
    gfile.write_text(json.dumps(group_to_json(cyclic_group(4))))
    code, out, _ = run(
        ["fairness", "--mode", "finite", "--group", str(gfile), "--H", "0,2"], capsys
    )
    assert code == 0
    assert json.loads(out)["report"]["outcome"] == "exhausted"


def test_stable_report(capsys):
    code, out, _ = run(
        ["stable", "--group", "C3", "--field", "F3", "--U", "0", "--pairs", "triv:triv"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    row = data["rows"][0]
    assert row["pair"] == "triv->triv"
    assert row["projective"]["stable_dim"] == 1
    assert row["injective"]["stable_dim"] == 1
    assert all(entry["agree"] for entry in data["frobenius_crosscheck"])
    blocks = {entry["block"]: entry for entry in data["jordan_table"]}
    assert blocks[1]["loop_stable"] == [2] and blocks[1]["susp_stable"] == [2]
    assert blocks[2]["loop_stable"] == [1] and blocks[2]["susp_stable"] == [1]


def test_stable_full_subgroup_all_zero(capsys):
    code, out, _ = run(
        ["stable", "--group", "C3", "--field", "F3", "--U", "0,1,2", "--pairs", "triv:triv"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert all(
        row["projective"]["stable_dim"] == 0 and row["injective"]["stable_dim"] == 0
        for row in data["rows"]
    )


def test_stable_bad_inputs(capsys):
    code, _, err = run(["stable", "--group", "C3", "--field", "noop"], capsys)
    assert code == 2 and "field" in err
    code2, _, err2 = run(["stable", "--group", "noop", "--field", "F3"], capsys)
    assert code2 == 2
    code3, _, err3 = run(
        ["stable", "--group", "C3", "--field", "F3", "--pairs", "triv:nope"], capsys
    )
    assert code3 == 2


def test_stable_reruns_byte_identical(capsys):
    argv = ["stable", "--group", "C2", "--field", "F2", "--U", "0"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second and first.endswith("\n")


def test_fairness_sl2_rejects_p_beyond_64_bits(capsys):
    argv = ["fairness", "--mode", "sl2", "--p", "18446744073709551629", "--m", "1", "--n", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and "2**64" in err


def test_verify_out_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["verify", "--suite", "higman", "--out", str(target)], capsys)
    assert code == 2 and out == "" and err.startswith("error: cannot write")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [["stable", "--field", "F2", "--group"], ["fairness", "--mode", "finite", "--group"]],
)
def test_group_file_holding_a_list_exits_2(tmp_path, capsys, argv):
    gfile = tmp_path / "g.json"
    gfile.write_text("[[0, 1], [1, 0]]")
    code, out, err = run(argv + [str(gfile)], capsys)
    assert code == 2 and out == "" and err.startswith("error: malformed group file")
