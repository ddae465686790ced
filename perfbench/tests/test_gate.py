"""The exact-answer gate catches wrong answers; the benchmark needs the sources."""

import shutil
import subprocess
import sys

import run
import workloads as wl
from bcclab import matching as mt


def rank_job(job_id):
    return next(job for job in wl.rank_jobs(0) if job.id == job_id)


def test_pinned_answer_passes():
    failed = run.run_rep([rank_job("rank/M6"), rank_job("rank/E8")], run.load_pinned()).failed
    assert failed == []


def test_perturbed_expected_rank_fails(monkeypatch):
    monkeypatch.setitem(wl.EXPECTED, "rank/E8", 104)
    failed = run.run_rep([rank_job("rank/E8")], run.load_pinned()).failed
    assert failed == ["rank/E8"]


def test_perturbed_pinned_digest_fails():
    pinned = dict(run.load_pinned())
    pinned["rank/E8"] = "0" * 64
    failed = run.run_rep([rank_job("rank/E8")], pinned).failed
    assert failed == ["rank/E8"]


def test_job_that_raises_counts_as_failed():
    def boom(ctx):
        raise RuntimeError("library error")

    failed = run.run_rep([wl.Job("boom", boom, lambda r: r)], {}).failed
    assert failed == ["boom"]


def test_k_matching_revalidation():
    adjacency = {"a": ["x", "y"], "b": ["y", "z"]}
    good = mt.k_matching(adjacency, 1)
    assert wl.validate_k_matching(adjacency, 1, good)["kind"] == "KMatching"
    overlapping = mt.KMatching(1, {"a": frozenset({"y"}), "b": frozenset({"y"})})
    non_edge = mt.KMatching(1, {"a": frozenset({"z"}), "b": frozenset({"y"})})
    false_violation = mt.HallViolation(1, frozenset({"a"}), frozenset({"x", "y"}))
    for wrong in (overlapping, non_edge, false_violation):
        try:
            wl.validate_k_matching(adjacency, 1, wrong)
        except wl.GateError:
            continue
        raise AssertionError(f"accepted {wrong}")
    violation = mt.k_matching(adjacency, 2)
    assert wl.validate_k_matching(adjacency, 2, violation)["kind"] == "HallViolation"


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
