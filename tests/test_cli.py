import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    from modplab.catalog import cyclic_group

    gfile = tmp_path / "c4.json"
    gfile.write_text(json.dumps(cyclic_group(4).to_json()))
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


def test_stable_exits_2_when_induce_is_over_its_budget(capsys, monkeypatch):
    from modplab import exact, reps

    # the pool's perm3 (3 x 3 x 3 cells) fits; Ind Res of triv2 (3 x 6 x 6) does not
    monkeypatch.setattr(reps, "INDUCE_CELLS", 107)
    monkeypatch.setattr(exact, "_IND_SELF_CACHE", {})
    code, out, err = run(["stable", "--group", "C3", "--field", "F3"], capsys)
    assert code == 2 and out == ""
    assert "108 cells, over the budget of 107" in err


def _refuse_every_induce(monkeypatch):
    """A zero induce budget, with the memos of induced modules emptied so
    that every rep pool is built again; nothing large is allocated."""
    from modplab import catalog, covers, exact, reps

    monkeypatch.setattr(reps, "INDUCE_CELLS", 0)
    for module, memo in ((catalog, "_REP_CACHE"), (covers, "_IND_CACHE"), (exact, "_IND_SELF_CACHE")):
        monkeypatch.setattr(module, memo, {})


@pytest.mark.parametrize("suite", ["frobenius", "phi-machinery", "exact-axioms", "stable-frobenius"])
def test_verify_reports_a_rep_pool_over_the_induce_budget(suite, tmp_path, capsys, monkeypatch):
    # C2's rep pool holds perm2, induced from the trivial subgroup
    cat = tmp_path / "c2.json"
    cat.write_text(json.dumps({"groups": [{"ref": "C2"}], "fields": [{"name": "F2", "p": 2}]}))
    _refuse_every_induce(monkeypatch)
    code, out, err = run(["verify", "--suite", suite, "--catalog", str(cat)], capsys)
    assert code == 1 and err == ""
    cases = json.loads(out)["cases"]
    errors = [c for c in cases if c["outcome"] == "error"]
    assert errors and all("over the budget of 0" in c["details"]["exception"] for c in errors)
    if suite == "phi-machinery":  # its cases are per rep, so the pool's failure is one case
        assert [c["id"] for c in cases if c["id"].endswith("/reps")] == ["phi/C2/F2/reps"]


def test_stable_exits_2_when_the_rep_pool_is_over_the_induce_budget(capsys, monkeypatch):
    _refuse_every_induce(monkeypatch)
    code, out, err = run(["stable", "--group", "C2", "--field", "F2"], capsys)
    assert code == 2 and out == ""
    assert "over the budget of 0" in err


def test_stable_exits_2_when_a_system_is_over_the_cell_budget(capsys, monkeypatch):
    from modplab import linalg

    # the stable homs run first; hom_space of triv and a 3-dimensional
    # pool rep needs a 3 x 3 equivariance system
    monkeypatch.setattr(linalg, "SYSTEM_CELLS", 8)
    code, out, err = run(["stable", "--group", "C3", "--field", "F3"], capsys)
    assert code == 2 and out == ""
    assert "equivariance_system needs a 3 x 3 matrix, 9 cells, over the budget of 8" in err


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


@pytest.mark.parametrize(
    "argv",
    [["stable", "--field", "F2", "--group"], ["fairness", "--mode", "finite", "--group"]],
)
@pytest.mark.parametrize(
    "table", [[[0, 1.5], [1, 0]], [[0, 70000], [1, 0]], [[0, 10**30], [1, 0]]], ids=["float", "int16", "huge"]
)
def test_group_file_with_bad_entries_exits_2(tmp_path, capsys, argv, table):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"table": table}))
    code, out, err = run(argv + [str(gfile)], capsys)
    assert code == 2 and out == "" and err.startswith("error: malformed group file")


def test_catalog_name_that_is_not_a_string_exits_2(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"groups": [{"ref": "C2"}], "fields": [{"p": 2, "name": 5}, {"p": 3}]}))
    code, out, err = run(["verify", "--suite", "chi-functor", "--catalog", str(cat)], capsys)
    assert code == 2 and out == "" and "names must be strings" in err


@pytest.mark.parametrize("depths", [["--m", "1", "--n", "65536"], ["--m", "10" * 10, "--n", "1"]])
def test_fairness_sl2_rejects_depths_beyond_limit(capsys, depths):
    code, out, err = run(["fairness", "--mode", "sl2", "--p", "2"] + depths, capsys)
    assert code == 2 and out == "" and "2**16" in err


def test_fairness_oracle_with_huge_precision_exits_2(capsys):
    argv = ["fairness", "--mode", "sl2", "--p", "2", "--m", "1", "--n", "1", "--oracle-N", "100000000"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and "exceeds the cap" in err


@pytest.mark.parametrize(
    "depths, code",
    [
        (["--m", "1", "--n", "1", "--oracle-N", "1"], 3),  # n >= N
        (["--m", "1", "--n", "1", "--oracle-N", "-5"], 2),  # N < 1
        (["--m", "5", "--n", "1", "--oracle-N", "3"], 3),  # m > N
    ],
)
def test_fairness_oracle_with_no_valid_exponent_fails_as_with_a(capsys, depths, code):
    """Not even a = 0 fits the precision, so no oracle row can run: the
    exit code is the one the same arguments give with --a 0."""
    argv = ["fairness", "--mode", "sl2", "--p", "3"] + depths
    assert run(argv + ["--a", "0"], capsys)[0] == code
    got, out, err = run(argv, capsys)
    assert got == code and out == "" and err.startswith("error:")


# ---- the exit-code contract under random argument vectors ----

FUZZ_FILES = {
    "cat-c2.json": {"groups": [{"ref": "C2"}], "fields": [{"p": 2}]},
    "cat-c3.json": {"groups": [{"ref": "C3"}], "fields": [{"p": 3}, {"p": 2, "k": 2}]},
    "cat-v4.json": {"groups": [{"ref": "V4"}], "fields": [{"p": 3}]},
    "cat-trivial.json": {"groups": [{"name": "E", "table": [[0]]}], "fields": [{"p": 5}]},
    "cat-file.json": {"groups": ["g-c2.json"], "fields": [{"p": 3}]},
    "cat-empty.json": {"groups": [], "fields": [{"p": 2}]},
    "cat-composite.json": {"groups": [{"ref": "C2"}], "fields": [{"p": 4}]},
    "cat-huge-k.json": {"groups": [{"ref": "C2"}], "fields": [{"p": 2, "k": 10**8}]},
    "cat-float-k.json": {"groups": [{"ref": "C2"}], "fields": [{"p": 2, "k": 1.5}]},
    "cat-names.json": {"groups": [{"ref": "C2"}], "fields": [{"p": 2, "name": 5}, {"p": 3}]},
    "cat-ref.json": {"groups": [{"ref": "Z7"}], "fields": [{"p": 2}]},
    "cat-dangling.json": {"groups": ["nowhere.json"], "fields": [{"p": 2}]},
    "cat-list.json": [1, 2],
    "g-c2.json": {"table": [[0, 1], [1, 0]], "labels": ["e", "g"]},
    "g-latin.json": {"table": [[0, 1], [1, 1]]},
    "g-nonassoc.json": {"table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
    "g-float.json": {"table": [[0, 1.5], [1, 0]]},
    "g-int16.json": {"table": [[0, 70000], [1, 0]]},
    "g-huge.json": {"table": [[0, 10**30], [1, 0]]},
    "g-text.json": {"table": [["a", 1], [1, 0]]},
    "g-ragged.json": {"table": [[0, 1], [1]]},
    "g-list.json": [[0, 1], [1, 0]],
    "g-labels.json": {"table": [[0, 1], [1, 0]], "labels": ["e"]},
}
RAW_FILES = {"not-json.json": b"{not json", "binary.json": b"\xff\xfe\x00"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, body in FUZZ_FILES.items():
        (root / name).write_text(json.dumps(body))
    for name, raw in RAW_FILES.items():
        (root / name).write_bytes(raw)
    return root


GARBAGE = ["", "x", "-1", "0", "1", "0,1", "0,,1", ",", "1.5", "a:b", "triv:nope", "9" * 20]
CATALOGS = sorted(n for n in FUZZ_FILES if n.startswith("cat-")) + sorted(RAW_FILES) + ["missing.json"]
GROUP_FILES = sorted(n for n in FUZZ_FILES if n.startswith("g-")) + sorted(RAW_FILES) + ["missing.json"]


def _mostly(valid, bad=GARBAGE):
    """Valid values three times as often as garbage."""
    return st.sampled_from(list(valid) * 3 + list(bad))


@st.composite
def argv_strategy(draw, root):
    """A random subcommand with a random subset of its flags.  verify always
    reads a one-group catalog file, and numeric flags stay small, so no
    example runs a built-in suite or a large enumeration."""
    path = lambda name: str(root / name)  # noqa: E731
    small = [str(i) for i in range(-2, 6)]
    group = st.one_of(
        _mostly(["C2", "C3", "S3", "V4", "C4"], ["nope", ""]),
        st.sampled_from(GROUP_FILES).map(path),
    )
    members = st.one_of(
        st.sampled_from(GARBAGE),
        st.lists(st.integers(-1, 6), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    )
    common = {
        "--format": _mostly(["json", "text"], ["xml"]),
        "--out": st.sampled_from(["out.txt", "missing/out.txt", "."]).map(path),
        "--catalog": st.sampled_from(CATALOGS).map(path),
    }
    command = draw(_mostly(["verify", "fairness", "stable"], ["nope"]))
    if command == "verify":
        suites = ["frobenius", "phi-machinery", "higman", "exact-axioms", "stable-frobenius", "chi-functor"]
        flags = {"--suite": _mostly(suites, ["nope"]), "--seed": _mostly(small), **common}
        required = {"--suite"}
    elif command == "fairness":
        numbers = _mostly(small, GARBAGE + ["18446744073709551629"])
        mode = draw(_mostly(["sl2", "finite"], ["nope"]))
        flags = {
            "--mode": st.just(mode),
            "--p": _mostly(["2", "3", "5"], ["4", "1", "-3", "18446744073709551629", "x"]),
            "--m": numbers,
            "--n": numbers,
            "--a": numbers,
            "--oracle-N": _mostly(small, ["100000000", "x"]),
            "--group": group,
            "--K": members,
            "--H": members,
            "--Hprime": members,
            **common,
        }
        required = {"--mode", "--p", "--m", "--n"} if mode == "sl2" else {"--mode", "--group"}
    elif command == "stable":
        flags = {
            "--group": group,
            "--field": _mostly(["F2", "F3", "F4", "F5"], ["nope", ""]),
            "--U": members,
            "--pairs": st.sampled_from(GARBAGE + ["triv:triv", "triv:triv,triv:char1"]),
            **common,
        }
        required = {"--group", "--field"}
    else:
        return [command] + draw(st.lists(st.sampled_from(GARBAGE), max_size=3))
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags)), unique=True)))
    # required flags are left out now and then, to reach argparse's errors
    chosen |= required if draw(_mostly([True], [False])) else set()
    if command == "verify":
        chosen.add("--catalog")  # never a built-in suite
    argv = [command]
    for flag in sorted(chosen):
        argv += [flag, draw(flags[flag])]
    return argv


def _has_failed_case(report: str) -> bool:
    try:
        body = json.loads(report)
    except ValueError:  # text format
        return any(ln.startswith("FAIL ") or "MISMATCH" in ln for ln in report.splitlines())
    return (
        any(c["outcome"] == "fail" for c in body.get("cases", []))
        or body.get("oracle_agreement") == "fail"
        or any(not c["agree"] for c in body.get("frobenius_crosscheck", []))
    )


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_hold_under_fuzzing(fuzz_dir, data):
    argv = data.draw(argv_strategy(fuzz_dir))
    out_file = fuzz_dir / "out.txt"
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argument vector
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        report = out_file.read_text() if "--out" in argv and out_file.exists() else out.getvalue()
        assert _has_failed_case(report), argv
