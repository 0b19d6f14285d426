"""The skewcube benchmark.

    python3 perfbench/run.py --workload {verify,search,algebra} --seed N \\
        --seconds S --trace {0,1}

Runs rounds of the workload one after another, each in a fresh interpreter
(``round.py``), until the next round would end after ``--seconds``; at
least one round runs, and with ``--trace 1`` at least one untraced and one
traced round, alternating. One client, one job at a time: a closed loop.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is ``{"info": ...}``: machine facts, the seed, per-kind job times, computed
counts and any failures. The exit code is 0 only when every job's answer
was right. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "search", "algebra")
# A cap on a run's measuring time, whatever --seconds asks for.
HARD_LIMIT_S = 150
SETUP_SAMPLES = 7

END_TO_END = {
    "jobs_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RoundFailed(RuntimeError):
    pass


def run_round(args, index: int, traced: bool, setup_only: bool, timeout: float) -> dict:
    """Run round.py in a new process group; kill the group on timeout."""
    cmd = [
        sys.executable,
        str(HERE / "round.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--scale", args.scale,
        "--round", str(index),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RoundFailed(f"round {index} exceeded {timeout:.0f} s") from None
    finally:
        _kill_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round {index} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _kill_group(pgid: int) -> None:
    # The round's own worker processes are joined by it; this only reaps
    # anything left behind by a round that was killed or crashed.
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def collect(args) -> tuple[list[dict], list[float]]:
    """Run rounds for ``args.seconds``; return them and the set-up samples."""
    start = time.monotonic()
    rounds: list[dict] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        elapsed = time.monotonic() - start
        r = run_round(args, len(rounds), traced, False, HARD_LIMIT_S - elapsed)
        r["traced"] = traced
        rounds.append(r)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        complete = not args.trace or len(rounds) >= 2
        step = 2 * per_round if args.trace else per_round
        if complete and (elapsed + step > args.seconds or elapsed + step > HARD_LIMIT_S):
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        elapsed = time.monotonic() - start
        setups.append(run_round(args, len(setups), False, True, HARD_LIMIT_S + 20 - elapsed)["setup_s"])
    return rounds, setups


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _job_medians(rounds: list[dict], key: str) -> list[float]:
    """Per job (same order in every round), the median of ``key`` over rounds."""
    if not rounds:
        return []
    return [_median([r["jobs"][i][key] for r in rounds]) for i in range(len(rounds[0]["jobs"]))]


def summarize(workload: str, seed: int, trace: int, rounds: list[dict], setups: list[float]):
    """The result line and the info object of one run."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    all_jobs = [j for r in rounds for j in r["jobs"]]
    failed = sum(not j["ok"] for j in all_jobs)

    first = rounds[0]["jobs"]  # the first round is always untraced
    # Each job's time is its median over the rounds; a job kind's time and
    # the run's time are sums of those medians.
    plain_s = _job_medians(plain, "seconds")
    if trace:
        values = {name: _median([r["layers"].get(name, 0.0) for r in traced]) for name in LAYER_METRICS}
        values["trace.overhead_s"] = sum(_job_medians(traced, "seconds")) - sum(plain_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values = {
            "jobs_s": sum(plain_s),
            "cpu_s": sum(_job_medians(plain, "cpu_s")),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    # Per job kind, reported here: a kind exists in one workload only, so it
    # cannot be an end-to-end metric, which every workload must report.
    kinds: dict[str, dict] = {}
    for j, t in zip(first, plain_s):
        kinds.setdefault(j["kind"], {"value": 0.0, "unit": "s"})["value"] += t
    info = {
        "workload": workload,
        "seed": seed,
        "machine": machine_facts(rounds[0].get("versions", {})),
        "rounds": {
            "untraced": len(plain),
            "traced": len(traced),
            "setup_samples": len(setups),
            "untraced_jobs_s": [sum(j["seconds"] for j in r["jobs"]) for r in plain],
        },
        "fail_frac": {"value": failed / len(all_jobs), "unit": "ratio"},
        "job_s": kinds,
        "jobs": [
            {
                "name": j["name"],
                "kind": j["kind"],
                "seconds": plain_s[i],
                "computed": j["computed"],
                "measured": j["measured"],
                **j["info"],
            }
            for i, j in enumerate(first)
        ],
        "failures": [f"{j['name']}: {p}" for j in all_jobs for p in j["problems"]][:20],
    }
    result = {"correct": failed == 0, "attempted": len(all_jobs), "failed": failed, "metrics": metrics}
    return result, info


def machine_facts(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, **versions}


def exit_code(result: dict) -> int:
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skewcube benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full", help="smoke: reduced sizes, for the benchmark's tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skewcube" / "__init__.py").is_file():
        sys.stderr.write(f"run: no skewcube sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    try:
        rounds, setups = collect(args)
    except RoundFailed as e:
        sys.stderr.write(f"run: {e}\n")
        return 2
    result, info = summarize(args.workload, args.seed, args.trace, rounds, setups)
    sys.stdout.write(json.dumps({"info": info}) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
