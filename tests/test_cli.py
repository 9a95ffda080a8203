"""CLI driver: exit codes, formats, determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from heckeclifford import cli, realizations
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


@pytest.mark.parametrize("args", [["char", "--l", "3"], ["all", "--l", "2", "--depth", "1"]])
def test_integrality_failure_exits_1_and_is_listed(capsys, non_integral_library, args):
    code, out = run_cli(args, capsys)
    assert code == 1
    payload = json.loads(out)
    failures = payload.get("parts", payload)["integrality_failures"]
    assert [{k: f[k] for k in ("label", "letter", "r")} for f in failures] == [
        {**non_integral_library, "label": list(non_integral_library["label"])}
    ]
    assert "2!" in failures[0]["err"]
    if args[0] == "char":
        # the library the report lists is the one that was checked
        labels = [[item[k] for k in "ijab"] for item in payload["library"]]
        assert list(non_integral_library["label"]) in labels


def test_crystal_blambda_dot(capsys):
    code, out = run_cli(
        ["crystal", "blambda", "--l", "2", "--lambda", "1,0", "--depth", "6", "--format", "dot"],
        capsys,
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "label=0" in out or "label=1" in out


def test_crystal_dot_out_matches_stdout(capsys, tmp_path):
    argv = ["crystal", "binfty", "--l", "3", "--depth", "3", "--format", "dot"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    path = tmp_path / "crystal.dot"
    assert run_cli(argv + ["--out", str(path)], capsys) == (0, "")
    assert path.read_bytes() == out.encode()


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


def test_binfty_rejects_lambda(capsys):
    assert main(["crystal", "binfty", "--l", "2", "--lambda", "1,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "binfty takes no --lambda\n"


def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch):
    # --out and its directory are checked before any report is computed
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "x.json").mkdir(parents=True)
    reasons = {
        "missing": "No such file or directory",
        "file": "Not a directory",
        "dir": "Is a directory",
    }
    runs = [(["serre", "--l", "2"], "serre_verify")]
    runs.append((["relations", "--l", "4"], "relation_suites"))
    for argv, command in runs:

        def not_called(*args, command=command):
            raise AssertionError(f"{command} ran before --out was checked")

        monkeypatch.setattr(cli, command, not_called)
        for parent, reason in reasons.items():
            path = tmp_path / parent / "x.json"
            with pytest.raises(SystemExit) as exit_:
                main(argv + ["--out", str(path)])
            assert exit_.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"cannot write report to {path}: {reason}\n"
    assert not (tmp_path / "missing").exists()


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


def test_consistency_failure_is_a_failed_check(monkeypatch, capsys):
    argv = ["crystal", "binfty", "--l", "3", "--depth", "3"]
    assert run_cli(argv, capsys)[0] == 0
    # negative control: rotation 1 keeps a trailing zero after every f_0, so
    # two words reaching one element disagree in that rotation
    f = realizations.PathCrystal.f

    def skewed(self, a, i):
        out = f(self, a, i)
        return out + (0,) if self.start == 1 and i == 0 else out

    monkeypatch.setattr(realizations.PathCrystal, "f", skewed)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "check failed: two words reach (1, 0, 1) with different rotations\n"


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


def test_verify_l3_reports_match_benchmark_reference(tmp_path, capsys):
    # the digests the benchmark's verify-l3 workload checks, read from its file
    ref = Path(__file__).resolve().parent.parent / "benchsuite" / "reference.json"
    want = json.loads(ref.read_text())["verify-l3"]["sha256"]
    commands = {
        "relations": ["relations", "--l", "3", "--suite", "all"],
        "serre": ["serre", "--l", "3"],
        "char": ["char", "--l", "3"],
    }
    assert set(commands) == set(want)
    for name, argv in commands.items():
        path = tmp_path / f"{name}.json"
        code, out = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (0, "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want[name], name
