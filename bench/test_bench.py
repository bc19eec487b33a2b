"""Tests of the benchmark itself; the package's own suite is under tests/.

    python3 -m pytest -q bench/test_bench.py

Each traced run starts a fresh interpreter, so the exact counters are also
shown not to depend on hash randomization.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

EXACT = {"stability.candidates", "stability.cap_hits", "stability.verdicts",
         "minkowski.solver_iterations", "git.setups"}

# per-layer metrics that must be nonzero on the workload meant to move them
EXERCISED = {
    "stability-mix": (
        "klyachko.self_s", "klyachko.meet_join.calls", "klyachko.subsheaf.calls",
        "stability.self_s", "stability.candidates", "stability.verdicts",
        "stability.cap_hits", "stability.certified_share", "linalg.rref.calls",
        "cli.self_s", "lattice.self_s", "linalg.self_s", "polytope.self_s",
    ),
    "quotient-class": (
        "polytope.volume.s", "polytope.volume_evals", "minkowski.self_s",
        "minkowski.solver.s", "minkowski.solver_iterations",
        "minkowski.solver_volume_evals", "minkowski.max_residual", "build.self_s",
    ),
    "git-classify": (
        "linalg.feasible_point.calls", "linalg.feasible_point.s", "git.setups",
        "git.setup.s", "git.self_s", "polytope.construct.s", "polytope.face_lattice.s",
    ),
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _is_exact(name):
    return name.endswith(".calls") or name.endswith("_evals") or name in EXACT


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = _result(_run(workload, 1))["metrics"]
    second = _result(_run(workload, 1))["metrics"]
    assert set(first) == {m["name"] for m in _spec()["per_layer"]}
    exact = [name for name in first if _is_exact(name)]
    assert len(exact) == 11
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name
    for name in EXERCISED[workload]:
        assert first[name]["value"] > 0, name


def test_closure_bound_jobs_set_the_tail():
    res = _result(_run("stability-mix", 0))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    info = json.loads((ROOT / ".bench_build" / "toricgit-bench" / "stability-mix-seed3"
                       / "result-trace0.json").read_text(encoding="utf-8"))
    assert info["tail_jobs"] and all("closure" in name for name in info["tail_jobs"])


def test_only_the_malformed_jobs_fail_on_git_classify():
    proc = _run("git-classify", 0, seed=corpus.DEFAULT_SEED)
    res = _result(proc)
    assert res["correct"]
    failing = {line.split()[2].rstrip(":") for line in proc.stdout.splitlines()
               if line.startswith("# FAILED")}
    assert failing <= {"malformed-basis", "malformed-indices", "malformed-summand",
                       "malformed-cap"}
    assert res["failed"] == len(failing)


def test_corpus_is_seeded_and_does_not_import_the_package():
    code = ("import sys; import corpus; a = corpus.generate('git-classify', 4); "
            "assert a == corpus.generate('git-classify', 4); "
            "assert a != corpus.generate('git-classify', 5); "
            "assert not any(m.startswith('toricgit') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, timeout=120)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("stability-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
