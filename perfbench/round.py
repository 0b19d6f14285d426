"""One round of a workload in a fresh interpreter.

    python3 perfbench/round.py --workload W --seed N [--trace 0|1] [--setup-only]

Imports the package from ``src/`` of this checkout, generates the inputs,
runs every job once, checks the answers and prints one JSON line. A fresh
interpreter per round keeps imports and the package's caches cold, as they
are for a command-line user. ``run.py`` starts the rounds and aggregates.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before the first import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import jobs  # numpy and the package under test, timed as set-up

    if jobs.package_dir() != SRC / "skewcube":
        sys.stderr.write(f"round: skewcube imported from {jobs.package_dir()}, not {SRC}\n")
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job_list = jobs.make_jobs(args.workload, args.seed, workdir, args.scale)
        result = {"setup_s": time.perf_counter() - T0}
        if not args.setup_only:
            result.update(_run(job_list, args, jobs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["versions"] = {"python": platform.python_version(), "numpy": jobs.np.__version__}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _run(job_list, args, jobs) -> dict:
    out = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}/seed{args.seed}/round{args.round}")
        with tracer.installed():
            records = jobs.run_jobs(job_list, tracer.span)
        out["layers"] = tracing.layer_metrics(tracer, records)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-round{args.round}.jsonl")
    else:
        records = jobs.run_jobs(job_list)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["jobs"] = records
    return out


if __name__ == "__main__":
    sys.exit(main())
