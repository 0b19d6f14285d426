"""Tests of the benchmark itself: its correctness gate and a reduced-size run.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _wrong_num_uncovered(job_list):
    job_list[0].expected["num_uncovered"] += 1


def _wrong_status(job_list):
    job_list[0].expected["status"] = "exhausted_no_cover"


def _wrong_vanishing(job_list):
    job_list[-1].expected = 1


def _malformed_output(job_list):
    job_list[0].run = lambda: {"code": 0, "json": {"status": "found_cover", "family": [{}]}, "stderr": ""}


@pytest.mark.parametrize(
    "workload, tamper",
    [
        ("verify", _wrong_num_uncovered),
        ("search", _wrong_status),
        ("search", _malformed_output),
        ("algebra", _wrong_vanishing),
    ],
)
def test_gate_reports_a_wrong_expected_answer(tmp_path, workload, tamper):
    job_list = jobs.make_jobs(workload, 7, tmp_path, "smoke")
    tamper(job_list)
    records = jobs.run_jobs(job_list)
    rnd = {"jobs": records, "traced": False, "peak_rss_mb": 1.0, "setup_s": 0.1}
    result, info = run.summarize(workload, 7, 0, [rnd], [0.1])
    assert [r["ok"] for r in records].count(False) == 1
    assert info["fail_frac"]["value"] > 0
    assert result["failed"] == 1 and result["correct"] is False
    assert run.exit_code(result) != 0


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        jobs.make_jobs("verify", seed, d, "smoke")
        return {p.name: p.read_text() for p in sorted(d.iterdir())}

    first = inputs(5, "a")
    assert first == inputs(5, "b")
    assert first != inputs(6, "c")


def _bench(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace, section):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _bench(["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
