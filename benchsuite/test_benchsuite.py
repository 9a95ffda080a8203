"""Tests of the benchmark itself, negative controls included.

    python -m pytest benchsuite -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verdict  # noqa: E402
import worker  # noqa: E402

worker.import_library()

from heckeclifford import cli, linalg, realizations  # noqa: E402
from heckeclifford.scalars import CycField  # noqa: E402


@pytest.fixture(scope="module")
def crystal_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("crystal") / "crystal.json"
    argv = ["crystal", "binfty", "--l", "4", "--depth", str(worker.CRYSTAL_DEPTH)]
    code = cli.main(argv + ["--out", str(path)])
    return code, path.read_bytes()


def test_crystal_report_matches_reference(crystal_report):
    code, report = crystal_report
    ref = verdict.load_reference()["crystal-l4"]
    nodes = ref["checks"] - 1
    assert verdict.judge_crystal(report, code, [[]] * nodes, ref) == (nodes + 1, 0)


def test_corrupted_crystal_report_fails_every_check(crystal_report):
    code, report = crystal_report
    ref = verdict.load_reference()["crystal-l4"]
    nodes = ref["checks"] - 1
    corrupted = report.replace(b'"color": 0', b'"color": 1', 1)
    assert corrupted != report
    attempted, failed = verdict.judge_crystal(corrupted, code, [[]] * nodes, ref)
    assert failed / attempted == 1
    # a nonzero exit code or a missing report fails the pass the same way
    assert verdict.judge_crystal(report, 1, [[]] * nodes, ref) == (nodes + 1, nodes + 1)
    assert verdict.judge_crystal(None, 0, [[]] * nodes, ref) == (nodes + 1, nodes + 1)


def test_corrupted_verify_report_fails_every_check(tmp_path):
    reports, codes = {}, {}
    for name, argv in worker.VERIFY_COMMANDS[1:]:
        path = tmp_path / f"{name}.json"
        codes[name] = cli.main(argv + ["--out", str(path)])
        reports[name] = path.read_bytes()
    ref = verdict.load_reference()["verify-l3"]
    fake_relations = json.dumps({"l": 3, "ok": True, "suites": []}).encode()
    reports["relations"], codes["relations"] = fake_relations, 0
    attempted, failed = verdict.judge_verify(reports, codes, reports["serre"], ref)
    assert attempted > 1 and failed == attempted


@pytest.fixture()
def small_linalg(monkeypatch):
    monkeypatch.setattr(worker, "FAMILIES", 2)
    w = worker.LinalgRandom()
    w.setup(0)
    return w


def _null_span(name):
    return contextlib.nullcontext()


def test_linalg_random_checks_pass(small_linalg, tmp_path):
    attempted, failed, _ = small_linalg.run(tmp_path, _null_span, None)
    assert attempted == 2 * (2 + worker.QUERIES) and failed == 0


def test_perturbed_dependency_is_caught(small_linalg, tmp_path, monkeypatch):
    original = linalg.nullspace_combinations

    def perturbed(field, tagged):
        deps = original(field, tagged)
        first = deps[0]
        tag = max(first)
        nums, den = first[tag]
        first[tag] = ((nums[0] + 1,) + tuple(nums[1:]), den)
        return deps

    monkeypatch.setattr(linalg, "nullspace_combinations", perturbed)
    attempted, failed, _ = small_linalg.run(tmp_path, _null_span, None)
    assert failed >= 1
    # against a reference digest the whole pass fails
    ref = {"digests": {"0": "0" * 64}}
    attempted, failed, _ = small_linalg.run(tmp_path, _null_span, ref)
    assert failed == attempted


def test_wrong_membership_is_caught(small_linalg, tmp_path, monkeypatch):
    monkeypatch.setattr(linalg.Echelon, "contains", lambda self, v: True)
    _, failed, _ = small_linalg.run(tmp_path, _null_span, None)
    assert failed == 2 * (worker.QUERIES // 2)


def test_span_tracer_records_parents_and_restores():
    field = CycField.for_l(4)
    original = linalg.rank_of
    bound_in_cli = cli.generate_binfty
    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        assert linalg.rank_of is not original
        assert cli.generate_binfty is not bound_in_cli
        with tracer.span("pass"):
            one = field.one.raw
            assert linalg.rank_of(field, [{0: one}, {1: one}, {0: one, 1: one}]) == 2
    finally:
        tracer.uninstall()
    assert linalg.rank_of is original and cli.generate_binfty is bound_in_cli
    agg = tracer.aggregate()
    assert agg["linalg.rank_of"]["calls"] == 1
    assert agg["linalg.Echelon.insert"]["calls"] == 3
    assert tracer.children_named("linalg.rank_of", "linalg.Echelon.insert") == 3
    for row in agg.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9
    assert agg["pass"]["total_s"] >= agg["linalg.rank_of"]["total_s"]


def test_count_tracer_counts_kernel_and_crystal_calls():
    tracer = tracing.CountTracer()
    tracer.install()
    try:
        field = CycField.for_l(3)
        _ = field.q * field.q
        fam = realizations.PathFamily.vacuum(3)
        fam.f(0)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    assert counts["kernels.felem_mul"] >= 1
    assert counts["realizations.PathCrystal.f"] >= 1


def _result(backend="python", wall=10.0):
    return {
        "env": {"backend": backend, "python": "3.11.7", "implementation": "CPython",
                "nproc": 2, "cpu_model": "cpu", "machine": "x86_64", "trace": 0},
        "workloads": {"verify-l3": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}},
    }


def test_compare_refuses_other_backend(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_result()))
    new.write_text(json.dumps(_result(backend="cython")))
    assert compare.main([str(base), str(new)]) == 2
    new.write_text(json.dumps(_result(wall=10.5)))
    assert compare.main([str(base), str(new)]) == 0
    new.write_text(json.dumps(_result(wall=20.0)))
    assert compare.main([str(base), str(new)]) == 1


def test_highest_percentile():
    assert run.highest_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = run.highest_percentile([float(k) for k in range(40)])
    assert label == "p75" and value == 29.0


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchsuite",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchsuite/run.py", "--workload", "verify-l3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
