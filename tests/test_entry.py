"""The console entry `modplab.cli.run` and what `import modplab.cli` loads.

`run` ends the process with `os._exit` once the answer is flushed, so these
tests launch `python -m modplab.cli` in a subprocess and compare it with the
in-process `main()`.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modplab
from modplab.catalog import catalog_groups, cyclic_group
from modplab.cli import main
from modplab.covers import CoverBlock, assemble_cover, cover_vectors, module_covers
from modplab.exact import stable_hom
from modplab.fairness import fairness_refinement, overlap_depths, witness_search
from modplab.fields import FiniteField
from modplab.groups import Subgroup
from modplab.reports import Case
from modplab.reps import regular_rep, trivial_rep

SRC = str(Path(modplab.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def launch(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, timeout=120, **kwargs)


def launch_cli(argv, **kwargs) -> subprocess.CompletedProcess:
    return launch(["-m", "modplab.cli", *argv], capture_output=True, **kwargs)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["stable", "--group", "C3", "--field", "F3"], 0),
        (["fairness", "--mode", "finite", "--group", "D4"], 0),
        (["verify", "--suite", "higman", "--seed", "0"], 0),
        (["verify", "--suite", "higman", "--seed", "0", "--format", "text"], 0),
        (["fairness", "--mode", "sl2", "--p", "2", "--m", "1", "--n", "1", "--oracle-N", "1"], 3),
    ],
    ids=["stable", "fairness-finite", "verify-json", "verify-text", "precision"],
)
def test_console_entry_matches_in_process_main(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = launch_cli(argv)
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode("utf-8")
    assert proc.stderr == captured.err.encode("utf-8")


def test_console_entry_writes_the_same_out_file(tmp_path, capsys):
    argv = ["fairness", "--mode", "sl2", "--p", "3", "--m", "1", "--n", "1", "--oracle-N", "4"]
    here, there = tmp_path / "main.json", tmp_path / "run.json"
    code = main(argv + ["--out", str(here)])
    assert capsys.readouterr().out == ""
    proc = launch_cli(argv + ["--out", str(there)])
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert code == 0 and there.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2), ([], 2)])
def test_console_entry_takes_argparse_exit_codes(argv, code):
    proc = launch_cli(argv)
    assert proc.returncode == code
    assert b"Traceback" not in proc.stderr
    assert (proc.stdout != b"") == (code == 0)


def test_closed_stdout_exits_2_with_one_error_line():
    proc = launch_cli(
        ["stable", "--group", "C3", "--field", "F3"], preexec_fn=lambda: os.close(1)
    )
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: file descriptor 1 is closed\n"


def test_stdout_pipe_without_reader_exits_2_with_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = launch(
            ["-m", "modplab.cli", "verify", "--suite", "chi-functor"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write stdout: Broken pipe\n"


def test_import_loads_no_dataclasses_and_no_hashlib_before_a_digest():
    probe = (
        "import json, sys\n"
        "import modplab.cli\n"
        "names = ('hashlib', '_hashlib', 'dataclasses')\n"
        "before = [m for m in names if m in sys.modules]\n"
        "from modplab.reports import input_digest\n"
        "input_digest({'g': 'S3'})\n"
        "print(json.dumps([before, [m for m in names if m in sys.modules]]))\n"
    )
    proc = launch(["-c", probe], capture_output=True, check=True)
    before, after = json.loads(proc.stdout)
    assert before == []
    assert "_hashlib" not in after and "dataclasses" not in after  # no OpenSSL at all


def test_import_and_commands_register_no_atexit_callback():
    probe = (
        "import atexit, contextlib, io, json\n"
        "calls = []\n"
        "atexit.register = lambda fn, *a, **k: calls.append(repr(fn))\n"
        "from modplab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--suite', 'chi-functor']),\n"
        "             main(['fairness', '--mode', 'finite', '--group', 'D4']),\n"
        "             main(['stable', '--group', 'C3', '--field', 'F3'])]\n"
        "print(json.dumps([codes, calls]))\n"
    )
    proc = launch(["-c", probe], capture_output=True, check=True)
    assert json.loads(proc.stdout) == [[0, 0, 0], []]


def _records():
    """(record, a record of the same type with other fields, a field name)
    for each record type of the library."""
    F2 = FiniteField(2)
    C2, C4, D4 = cyclic_group(2), cyclic_group(4), catalog_groups()["D4"]
    asm, other_asm = (
        assemble_cover(module_covers(V, cover_vectors(V)), cover_vectors(V))
        for V in (trivial_rep(C4, F2), trivial_rep(C4, F2, 0))
    )
    block = asm.blocks[0]
    cert, other_cert = fairness_refinement(1, 1, 2), fairness_refinement(2, 1, 3)
    full = Subgroup.full(D4)
    triv, reg = trivial_rep(C2, F2), regular_rep(C2, F2)
    E = Subgroup.trivial(C2)
    return {
        "DepthTriple": (overlap_depths(1, 1, 0), overlap_depths(1, 2, 0), "upper"),
        "CertComponent": (cert.components[0], cert.components[1], "name"),
        "FairnessCertificate": (cert, other_cert, "n_prime"),
        "WitnessReport": (
            witness_search(D4, full, full, full),
            witness_search(D4, full, full, Subgroup.trivial(D4)),
            "outcome",
        ),
        "CoverBlock": (block, CoverBlock(block.vector, Subgroup.full(C4)), "subgroup"),
        "CoverAssembly": (asm, other_asm, "blocks"),
        "StableHomResult": (stable_hom(triv, triv, E), stable_hom(triv, reg, E), "stable_dim"),
    }


@pytest.mark.parametrize(
    "name",
    [
        "DepthTriple",
        "CertComponent",
        "FairnessCertificate",
        "WitnessReport",
        "CoverBlock",
        "CoverAssembly",
        "StableHomResult",
    ],
)
def test_records_compare_hash_and_stay_frozen(name):
    record, other, field = _records()[name]
    twin = copy.copy(record)
    assert type(record).__name__ == name and type(other) is type(record)
    assert twin is not record and twin == record and other != record
    if name == "CoverAssembly":  # its map field is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert getattr(record, field) == getattr(twin, field)


def test_case_compares_by_value_with_a_fresh_details_dict():
    a, b = Case("x", {"g": "S3"}, "pass"), Case("x", {"g": "S3"}, "pass")
    assert a == b and a != Case("x", {"g": "S3"}, "fail") and a != ("x", {"g": "S3"}, "pass", {})
    assert a.details == {} and a.details is not b.details
    a.details["n"] = 1
    assert b.details == {} and a != b
    with pytest.raises(TypeError):
        hash(a)
    assert repr(b) == "Case(id='x', inputs={'g': 'S3'}, outcome='pass', details={})"
