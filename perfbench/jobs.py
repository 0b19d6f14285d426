"""Workload inputs, job execution and the correctness gate.

A workload is a list of jobs. Each job runs one engine once, from outside:
jobs with a command-line surface call ``skewcube.cli.main(argv)`` on input
files written by ``make_jobs`` and read back the JSON a user would read;
the others call the public API. Every expected answer comes from the
mathematics or from the generated input, never from the code under test.

Import this module only after ``src/`` of the checkout is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import skewcube
from skewcube import cli, constructions, fourier, interpolation, search
from skewcube.subsets import labels_of

# Job sizes. "full" is what the benchmark measures; "smoke" is a reduced
# copy with the same job kinds, for the benchmark's own tests.
SIZES = {
    "full": {
        "verify_n": 22,
        "bigint_n": 18,
        # (n, coefficient bound, offset bound, max_k, size of the cover found
        # or None for exhausted_no_cover)
        "search": [(5, 2, 5, 4, 4), (6, 2, 0, 5, 5), (6, 1, 6, 5, None)],
        "greedy": (6, 2, 6),
        "interp": (14, 4, 3),
        "recover": (14, 4, 3, 8, 8),
        "kernel": [(13, 6, "int"), (12, 6, "rational")],
        "vanishing": [(11, 2, 5), (14, 4, 3)],
    },
    "smoke": {
        "verify_n": 10,
        "bigint_n": 8,
        "search": [(4, 1, 0, 4, 4), (4, 1, 4, 4, 4), (4, 2, 4, 3, None)],
        "greedy": (4, 1, 4),
        "interp": (6, 2, 2),
        "recover": (6, 2, 2, 2, 3),
        "kernel": [(5, 2, "int"), (4, 2, "rational")],
        "vanishing": [(5, 2, 2), (6, 2, 2)],
    },
}

PARALLEL_WORKERS = 2
BIGINT_SCALE = 1 << 62


@dataclass
class Job:
    """One closed-loop request: ``run`` returns the output that ``check``
    compares with ``expected``; ``check`` returns a list of problems."""

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], list[str]]
    expected: Any
    computed: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- helpers


def _rational_json(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_rational(v) -> Fraction:
    return Fraction(v) if isinstance(v, int) else Fraction(str(v))


def call_cli(argv: list[str]) -> dict:
    """Run the CLI in-process; return its exit code and parsed stdout JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue().strip()
    return {
        "code": code,
        "json": json.loads(text.splitlines()[-1]) if text else None,
        "stderr": err.getvalue().strip()[-500:],
    }


def _compare(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _covers_cube(planes, n: int) -> bool:
    """Brute-force cover check over all 2^n points with exact rationals."""
    for point in itertools.product((1, -1), repeat=n):
        if not any(sum(c * x for c, x in zip(a, point)) + b == 0 for a, b in planes):
            return False
    return True


@functools.lru_cache(maxsize=None)
def pool_size(n: int, coeff_bound: int, offset_bound: int) -> int:
    """Count primitive skew integer planes within bounds that meet the cube.

    Leading coefficient positive, |a_j| <= B, |b| <= offset, gcd(a, b) = 1,
    and a.x = -b for some x in {-1,1}^n: the definition of the search's
    candidate pool, counted here directly.
    """
    values = [v for v in range(-coeff_bound, coeff_bound + 1) if v]
    A = np.array(
        [a for a in itertools.product(*([[v for v in values if v > 0]] + [values] * (n - 1)))],
        dtype=np.int64,
    )
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64)
    forms = A @ signs.T
    content = np.gcd.reduce(np.abs(A), axis=1)
    total = 0
    for b in range(-offset_bound, offset_bound + 1):
        meets = (forms == -b).any(axis=1)
        total += int((meets & (np.gcd(content, abs(b)) == 1)).sum())
    return total


# ------------------------------------------------------------- verify


def _level_set_copy(n: int, rng: random.Random, scale: int, drop_level: int | None):
    """A transformed copy of ``level_set_cover(n)``.

    Plane k of the level-set cover meets exactly the points with k
    coordinates +1. The copy substitutes x_j = s_j * y_pi(j) (a coordinate
    permutation with sign flips, a bijection of the cube), multiplies each
    plane by its own nonzero rational, optionally drops one level, and
    shuffles the planes. Counts per plane therefore stay C(n, k).
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    planes = []
    for k, plane in enumerate(constructions.level_set_cover(n).planes):
        if k == drop_level:
            continue
        r = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)) * scale
        a = [Fraction(0)] * n
        for j, c in enumerate(plane.a):
            a[perm[j]] = r * signs[j] * c
        planes.append((k, tuple(a), r * plane.b))
    rng.shuffle(planes)
    return planes, perm, signs


def _max_integerized(planes) -> int:
    """Largest |coefficient| after clearing each plane's denominators."""
    best = 0
    for _, a, b in planes:
        den = math.lcm(b.denominator, *(c.denominator for c in a))
        best = max(best, abs(b * den).numerator, *(abs(c * den).numerator for c in a))
    return best


def _write_planes(path: Path, planes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for _, a, b in planes:
            fh.write(json.dumps({"a": [_rational_json(c) for c in a], "b": _rational_json(b)}) + "\n")


def check_verify(out, exp) -> list[str]:
    problems: list[str] = []
    _compare(problems, "exit code", out["code"], exp["code"])
    rep = out["json"] or {}
    for key in ("covered", "n", "num_planes", "num_uncovered", "per_plane_counts"):
        _compare(problems, key, rep.get(key), exp[key])
    sample = rep.get("uncovered_sample", [])
    if len(sample) != min(32, exp["num_uncovered"]):
        problems.append(f"uncovered_sample has {len(sample)} points")
    perm, signs = exp["perm"], exp["signs"]
    for y in sample:
        level = sum(1 for j in range(exp["n"]) if signs[j] * y[perm[j]] == 1)
        if level != exp["uncovered_level"]:
            problems.append(f"sample point {y} lies on level {level}, which is covered")
            break
    return problems


def _family(workdir, name, n, rng, scale, drop_level) -> dict:
    planes, perm, signs = _level_set_copy(n, rng, scale, drop_level)
    path = Path(workdir) / f"{name}.jsonl"
    _write_planes(path, planes)
    uncovered = 0 if drop_level is None else math.comb(n, drop_level)
    return {
        "name": name,
        "path": path,
        "max_abs_integerized_coef": _max_integerized(planes),
        "evals": len(planes) << n,
        "expected": {
            "code": 0 if uncovered == 0 else 1,
            "covered": uncovered == 0,
            "n": n,
            "num_planes": len(planes),
            "num_uncovered": uncovered,
            "per_plane_counts": [math.comb(n, k) for k, _, _ in planes],
            "uncovered_level": drop_level,
            "perm": perm,
            "signs": signs,
        },
    }


def _verify_job(family: dict, kind: str, workers: int) -> Job:
    n = family["expected"]["n"]
    argv = ["verify", str(family["path"]), "--n", str(n), "--workers", str(workers)]
    return Job(
        name=f"{family['name']}_n{n}_w{workers}",
        kind=kind,
        run=functools.partial(call_cli, argv),
        check=check_verify,
        expected=dict(family["expected"]),
        computed={"evals": family["evals"]},
        info={"max_abs_integerized_coef": family["max_abs_integerized_coef"], "workers": workers},
    )


def _verify_jobs(sizes, rng, workdir):
    n = sizes["verify_n"]
    copy = _family(workdir, "levels_minus_middle", n, rng, 1, n // 2)
    bigint = _family(workdir, "levels_bigint", sizes["bigint_n"], rng, BIGINT_SCALE, None)
    # The same int64 family runs serially and then in parallel, so the two
    # times give the parallel efficiency.
    return [
        _verify_job(copy, "verify_s", 1),
        _verify_job(bigint, "verify_bigint_s", 1),
        _verify_job(copy, "verify_parallel_s", PARALLEL_WORKERS),
    ]


# ------------------------------------------------------------- search


def _family_problems(planes, n, coeff_bound, offset_bound) -> list[str]:
    problems = []
    for a, b in planes:
        if len(a) != n or any(c == 0 or abs(c) > coeff_bound or c.denominator != 1 for c in a):
            problems.append(f"plane {a} is not skew within |a_j| <= {coeff_bound}")
        if abs(b) > offset_bound or b.denominator != 1:
            problems.append(f"offset {b} outside |b| <= {offset_bound}")
    if not _covers_cube(planes, n):
        problems.append("emitted family does not cover the cube")
    return problems


def check_search(out, exp) -> list[str]:
    problems: list[str] = []
    _compare(problems, "exit code", out["code"], exp["code"])
    rep = out["json"] or {}
    _compare(problems, "status", rep.get("status"), exp["status"])
    _compare(problems, "candidate_pool_size", rep.get("candidate_pool_size"), _expected_pool(exp))
    family = rep.get("family")
    if exp["size"] is None:
        _compare(problems, "family", family, None)
    elif not isinstance(family, list):
        problems.append("found_cover without a family")
    else:
        _compare(problems, "family size", len(family), exp["size"])
        planes = [
            (tuple(_parse_rational(c) for c in p["a"]), _parse_rational(p["b"])) for p in family
        ]
        problems += _family_problems(planes, exp["n"], exp["coeff_bound"], exp["offset_bound"])
    return problems


def check_greedy(out, exp) -> list[str]:
    problems: list[str] = []
    _compare(problems, "pool size", out["pool_size"], _expected_pool(exp))
    planes = out["family"]
    if len(planes) < exp["min_size"]:
        problems.append(f"{len(planes)} planes beat the lower bound {exp['min_size']}")
    problems += _family_problems(planes, exp["n"], exp["coeff_bound"], exp["offset_bound"])
    return problems


def _run_greedy(n, coeff_bound, offset_bound):
    pool = search.candidate_pool(n, coeff_bound, offset_bound)
    family = search.greedy_cover(n, pool)
    return {"pool_size": len(pool), "family": [(p.a, p.b) for p in family]}


def _search_jobs(sizes, rng, workdir):
    jobs = []
    for n, B, off, max_k, size in sizes["search"]:
        found = size is not None
        expected = {
            "code": 0 if found else 1,
            "status": "found_cover" if found else "exhausted_no_cover",
            "size": size,
            "pool_size": None,
            "n": n,
            "coeff_bound": B,
            "offset_bound": off,
        }
        argv = ["search", "--n", str(n), "-B", str(B), "--offset-bound", str(off), "--max-k", str(max_k)]
        jobs.append(
            Job(
                name=f"search_n{n}_B{B}_off{off}_k{max_k}",
                kind="search_found_s" if found else "search_exhausted_s",
                run=functools.partial(call_cli, argv),
                check=check_search,
                expected=expected,
            )
        )
    n, B, off = sizes["greedy"]
    jobs.append(
        Job(
            name=f"greedy_n{n}_B{B}_off{off}",
            kind="greedy_s",
            run=functools.partial(_run_greedy, n, B, off),
            check=check_greedy,
            expected={
                "pool_size": None,
                "min_size": search.lower_bound(n),
                "n": n,
                "coeff_bound": B,
                "offset_bound": off,
            },
        )
    )
    return jobs


def _expected_pool(exp) -> int:
    # Counted when checking, so that the count stays out of the timed set-up.
    if exp["pool_size"] is None:
        return pool_size(exp["n"], exp["coeff_bound"], exp["offset_bound"])
    return exp["pool_size"]


# ------------------------------------------------------------ algebra


def _poly_json(poly) -> dict:
    return {
        "n": poly.n,
        "k": poly.k,
        "coeffs": [
            {"S": list(labels_of(mask)), "c": [_rational_json(v) for v in vec]}
            for mask, vec in sorted(poly.coeffs.items())
        ],
    }


def _top_subset(poly, d: int, rng: random.Random) -> int:
    return rng.choice(sorted(mask for mask in poly.coeffs if mask.bit_count() == d))


def check_interp(out, exp) -> list[str]:
    problems: list[str] = []
    _compare(problems, "exit code", out["code"], exp["code"])
    rep = out["json"] or {}
    _compare(problems, "coefficient", rep.get("coefficient"), exp["coefficient"])
    _compare(problems, "direct", rep.get("direct"), exp["coefficient"])
    _compare(problems, "match", rep.get("match"), True)
    return problems


def check_recover(out, exp) -> list[str]:
    problems: list[str] = []
    _compare(problems, "recoveries", len(out), len(exp))
    for i, (got, want) in enumerate(zip(out, exp)):
        if tuple(got) != tuple(want):
            problems.append(f"recovery {i}: got {_short(got)}, expected {_short(want)}")
            break
    return problems


def check_kernel(out, exp) -> list[str]:
    problems: list[str] = []
    _compare(problems, "exit code", out["code"], exp["code"])
    rep = out["json"] or {}
    for key in ("nullity", "guarantee_applies", "kernel_trivial"):
        _compare(problems, key, rep.get(key), exp[key])
    return problems


def check_equal(out, exp) -> list[str]:
    return [] if out == exp else [f"got {_short(out)}, expected {_short(exp)}"]


def _run_recover(n, m, d, subsets, polys):
    out = []
    for mask in subsets:
        scheme = interpolation.build_scheme(n, m, d, labels_of(mask))
        for poly in polys:
            out.append(interpolation.recover_coefficient(scheme, lambda pt, p=poly: p.value_at(pt.bits)))
    return out


def _matrix(rows: int, cols: int) -> dict:
    return {"matrix_rows": rows, "matrix_cols": cols, "matrix_cells": rows * cols}


def _run_vanishing(n, m, d):
    # Looked up at call time, so that a traced run sees its wrapper.
    return interpolation.vanishing_dimension(n, m, d)


def _algebra_jobs(sizes, rng, workdir, seed):
    jobs = []
    n, m, d = sizes["interp"]
    poly = fourier.random_poly(n, d, 2, f"perfbench/{seed}")
    mask = _top_subset(poly, d, rng)
    path = Path(workdir) / "interp_poly.json"
    path.write_text(json.dumps(_poly_json(poly)), encoding="utf-8")
    argv = ["interp", str(path), "--m", str(m), "--subset", ",".join(map(str, labels_of(mask)))]
    jobs.append(
        Job(
            name=f"interp_n{n}_m{m}_d{d}",
            kind="interp_table_s",
            run=functools.partial(call_cli, argv),
            check=check_interp,
            expected={"code": 0, "coefficient": [_rational_json(v) for v in poly.coeffs[mask]]},
            # Two dense butterflies (inverse_wht, then wht), n levels of 2^n
            # additions or subtractions on k-vectors each.
            computed={"butterfly_adds": 2 * n * (1 << n) * poly.k},
        )
    )

    n, m, d, nsub, npoly = sizes["recover"]
    polys = [fourier.random_poly(n, d, 2, f"perfbench/{seed}/{i}") for i in range(npoly)]
    # Each subset is the top subset of one polynomial, so every subset has
    # at least one nonzero expected coefficient.
    subsets = [_top_subset(polys[i % npoly], d, rng) for i in range(nsub)]
    zero = (Fraction(0),) * 2
    atoms = (1 + math.comb(m - 1, m // 2)) ** d * (1 << d)
    jobs.append(
        Job(
            name=f"recover_n{n}_m{m}_d{d}_{nsub}x{npoly}",
            kind="interp_recover_s",
            run=functools.partial(_run_recover, n, m, d, subsets, polys),
            check=check_recover,
            expected=[p.coeffs.get(s, zero) for s in subsets for p in polys],
            computed={"atoms_x_polys": atoms * nsub * npoly},
        )
    )

    for n, d, field_kind in sizes["kernel"]:
        if field_kind == "int":
            a = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(n)]
        else:
            a = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(2, 9)) for _ in range(n)]
        applies = n >= 2 * d + 1
        # The system is D_T * W * D_S^-1 with W the inclusion matrix of
        # d-subsets in (d+1)-subsets, which has full rank (Gottlieb-Kantor).
        nullity = max(0, math.comb(n, d) - math.comb(n, d + 1))
        argv = ["kernel", str(n), str(d), "--", *(str(_rational_json(Fraction(v))) for v in a)]
        jobs.append(
            Job(
                name=f"kernel_n{n}_d{d}_{field_kind}",
                kind="kernel_s",
                run=functools.partial(call_cli, argv),
                check=check_kernel,
                expected={
                    "code": 0,
                    "nullity": nullity,
                    "guarantee_applies": applies,
                    "kernel_trivial": (nullity == 0) if applies else None,
                },
                computed=_matrix(math.comb(n, d + 1), math.comb(n, d)),
            )
        )

    for n, m, d in sizes["vanishing"]:
        rows = sum(math.comb(n, w) for w in range(0, n + 1, m))
        cols = sum(math.comb(n, i) for i in range(d + 1))
        jobs.append(
            Job(
                name=f"vanishing_n{n}_m{m}_d{d}",
                kind="vanishing_s",
                run=functools.partial(_run_vanishing, n, m, d),
                check=check_equal,
                # n >= d*m + m/2: no nonzero map of degree <= d vanishes on W(m).
                expected=0,
                computed=_matrix(rows, cols),
            )
        )
    return jobs


# ---------------------------------------------------------------- rounds


def make_jobs(workload: str, seed: int, workdir, scale: str = "full") -> list[Job]:
    """Generate the workload's inputs from ``seed`` and write its input files."""
    sizes = SIZES[scale]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "verify":
        return _verify_jobs(sizes, rng, workdir)
    if workload == "search":
        return _search_jobs(sizes, rng, workdir)
    if workload == "algebra":
        return _algebra_jobs(sizes, rng, workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _cpu_seconds() -> float:
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_jobs(jobs: list[Job], span=None) -> list[dict]:
    """Run the jobs one at a time, then check each output.

    Each job's wall and CPU seconds cover only its ``run``; CPU includes
    worker processes the job started and waited for. ``span`` (optional)
    is a context-manager factory taking a span name; the traced run passes
    its tracer's, so that each job is a root span.
    """
    records = []
    for job in jobs:
        error = None
        ctx = span(f"job.{job.name}") if span else contextlib.nullcontext()
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with ctx:
                output = job.run()
        except Exception as e:  # a job that raises is a failed job, not a crash
            output, error = None, f"{type(e).__name__}: {e}"
        seconds, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        records.append({"job": job, "output": output, "error": error, "seconds": seconds, "cpu_s": cpu})
    return [_judge(r) for r in records]


def _judge(record) -> dict:
    job, output, error = record["job"], record["output"], record["error"]
    try:
        problems = [error] if error else job.check(output, job.expected)
    except Exception as e:  # malformed output is a wrong answer
        problems = [f"output not checkable: {type(e).__name__}: {e}"]
    measured = {}
    if problems and isinstance(output, dict) and output.get("stderr"):
        problems.append(f"stderr: {output['stderr']}")
    if isinstance(output, dict) and isinstance(output.get("json"), dict):
        rep = output["json"]
        for key in ("nodes_explored", "candidate_pool_size"):
            if key in rep:
                measured[key] = rep[key]
    elif isinstance(output, dict) and "pool_size" in output:
        measured = {"candidate_pool_size": output["pool_size"], "family_size": len(output["family"])}
    return {
        "name": job.name,
        "kind": job.kind,
        "seconds": record["seconds"],
        "cpu_s": record["cpu_s"],
        "ok": not problems,
        "problems": problems[:5],
        "computed": job.computed,
        "measured": measured,
        "info": job.info,
    }


def package_dir() -> Path:
    return Path(skewcube.__file__).resolve().parent
