"""Smoke test of the benchmark on tiny inputs (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_SUFFIXES = (".calls", ".order", ".pairs", ".fail")


def bench(workload: str, seed: int, trace: int, root: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in run.SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result(workload, 1, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in out["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_same_seed_repeats_configs_and_exact_counts():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    first, second = (result("verify_small", 7, 1)["metrics"] for _ in range(2))
    exact = [name for name in run.PER_LAYER if name.endswith(EXACT_SUFFIXES)]
    assert "elliptic.close_to.calls" in exact and "groups.build.order" in exact
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert first["elliptic.close_to.calls"]["value"] > 0


def test_same_seed_repeats_attempted_and_failed():
    first, second = (result("verify_small", 7, 0) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    spec = {w["name"] for w in run.SPEC["workloads"]}
    assert all(run.pass_count(w, run.SPEC["run_seconds"]) >= 1 for w in spec)


def test_different_seed_draws_different_configs():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


def test_wrong_exact_value_is_flagged():
    cmd = workloads.generate("exact", 1, tiny=True)[0]
    good = workloads.check(cmd, 0, _construct_stdout(cmd, cmd["expect"]["group_order"]), "", None)
    bad = workloads.check(cmd, 0, _construct_stdout(cmd, 1), "", None)
    assert good["status"] == "ok"
    assert bad["status"] == "wrong" and "group order" in bad["detail"]


def _construct_stdout(cmd: dict, order: int) -> str:
    summary = {
        "group_order": order,
        "polarization": cmd["expect"]["polarization"],
        "theoretical_degree": order,
    }
    return "a\nb\nc\nd\n" + json.dumps(summary, indent=2) + "\n"


def test_only_an_honest_verdict_keeps_the_run_correct():
    cmd = workloads.generate("exact", 1, tiny=True)[0]
    crash = workloads.check(cmd, 1, "", "Traceback (most recent call last):\nValueError: x", None)
    assert crash["status"] == "crash"
    verify = next(c for c in workloads.generate("exact", 1, tiny=True) if c["kind"] == "verify")
    short = {"group_order": verify["expect"]["group_order"], "pass": True, "samples": []}
    missing = workloads.check(verify, 0, "", "", json.dumps(short).encode())
    assert missing["status"] == "crash" and "samples" in missing["detail"]
    verdict = {"status": "verdict"}
    assert run.tally([verdict]) == {"correct": True, "attempted": 1, "failed": 1}
    for bad in (crash, missing, {"status": "wrong"}):
        assert run.tally([verdict, bad])["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("exact", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
