"""CLI driver: exit codes, formats, determinism."""

import json
import subprocess
import sys

from heckeclifford.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_relations_s5_exit0_and_l001_pass(capsys):
    code, out = run_cli(["relations", "--l", "2", "--suite", "s5"], capsys)
    assert code == 0
    payload = json.loads(out)
    names = {
        c["check"]: c["status"]
        for s in payload["suites"]
        for c in s["checks"]
    }
    assert names["L001-relations"] == "pass"


def test_serre_exit0(capsys):
    code, out = run_cli(["serre", "--l", "3"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_char_json(capsys):
    code, out = run_cli(["char", "--l", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["integrality_failures"] == []
    assert all("character" in item for item in payload["library"])
    # character entries follow the word/coeff convention
    item = payload["library"][0]["character"][0]
    assert set(item) == {"word", "coeff"}


def test_crystal_blambda_dot(capsys):
    code, out = run_cli(
        ["crystal", "blambda", "--l", "2", "--lambda", "1,0", "--depth", "6", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "label=0" in out or "label=1" in out


def test_crystal_binfty_json_schema(capsys):
    code, out = run_cli(["crystal", "binfty", "--l", "2", "--depth", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"nodes", "edges"}
    node = payload["nodes"][0]
    assert set(node) == {"id", "wt", "eps", "phi"}
    assert set(node["wt"]) == {"lam", "alpha"}
    edge = payload["edges"][0]
    assert set(edge) == {"from", "to", "color"}


def test_blambda_requires_lambda(capsys):
    code, _ = run_cli(["crystal", "blambda", "--l", "2"], capsys)
    assert code == 2


def test_blambda_bad_lambda_is_usage_error(capsys):
    for lam in (["--lambda", "1,0,3"], ["--lambda", "x,1"], ["--lambda=-1,0"]):
        code, out = run_cli(["crystal", "blambda", "--l", "2", *lam], capsys)
        assert code == 2, lam
        assert out == ""


def test_usage_error_exit2():
    proc = subprocess.run(
        [sys.executable, "-m", "heckeclifford.cli", "relations"],
        capture_output=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "heckeclifford.cli", "relations", "--l", "1"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_byte_determinism(capsys):
    a = run_cli(["crystal", "binfty", "--l", "3", "--depth", "4"], capsys)
    b = run_cli(["crystal", "binfty", "--l", "3", "--depth", "4"], capsys)
    assert a == b
    c = run_cli(["serre", "--l", "2"], capsys)
    d = run_cli(["serre", "--l", "2"], capsys)
    assert c == d


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(["serre", "--l", "2", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["ok"] is True
