"""Command-line surface: construct, verify, interp, kernel, search.

Exit codes: 0 success (covered, match, certificate holds), 1 semantic
negative (uncovered, mismatch, no cover found), 2 usage or parse failure,
3 validation failure, 4 precondition violation. Codes 2 to 4 come from the
``exit_code`` of the raised ``SkewcubeError`` (see ``errors``), and ``main``
prints every such error as one ``error: ...`` line on stderr. The argument
parser raises its usage errors as ``UsageError``, so they print the same one
line; unreadable files also exit 2 with one line.

Plane files are JSON lines, one object per plane: {"a": [...], "b": ...}.
Polynomial files are a single JSON object {"n", "k", "coeffs"} with 1-based,
strictly increasing index lists. Rationals are JSON integers or strings
"p" or "p/q" of ASCII digits, q > 0 (the whole string, so no whitespace);
floats are rejected to keep everything exact.

The argument parser is built once per process and shared by every ``main``
call.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Sequence, TextIO

from .constructions import (
    balanced_even_cover,
    example_n6,
    level_set_cover,
    power_of_two_cover,
)
from .cube import CoverFamily, CoverReport, Hyperplane, verify_cover
from .errors import DegreeTooHigh, DimensionMismatch, ParseError, SkewcubeError, UsageError
from .fourier import MultilinearPoly, degree
from .interpolation import build_scheme, check_recovery_size, recover_coefficient
from .kernel import check_system, kernel_nullity
from .search import SearchConfig, SearchStatus, min_cover_search
from .subsets import mask_of

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# The whole string, ASCII digits only: no trailing newline, no other digits.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def _parse_rational(value, line: int | None = None) -> int | Fraction:
    """An int as it is, or a string "p" or "p/q" as the Fraction p/q."""
    if type(value) is int:
        return value
    match = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    if match:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"not an exact rational: {value!r}", line)


def _rational_json(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _open_input(path: str) -> TextIO:
    return sys.stdin if path == "-" else open(path, "r", encoding="utf-8")


def _read_text(stream: TextIO) -> str:
    # A text stream decodes in blocks, so the failing line is not known here.
    try:
        return stream.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"input is not UTF-8 ({e.reason})") from None


def _load_json(text: str, line: int | None = None):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON ({e.msg})", line) from None
    except (RecursionError, ValueError) as e:  # nested too deeply, too many digits
        raise ParseError(f"invalid JSON ({e})", line) from None


def read_planes(stream: TextIO) -> CoverFamily:
    """Parse a JSON-lines plane file; errors name the offending line."""
    planes = []
    n = None
    for lineno, raw in enumerate(_read_text(stream).split("\n"), start=1):
        text = raw.strip()
        if not text:
            continue
        obj = _load_json(text, lineno)
        if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
            raise ParseError('expected an object with keys "a" and "b"', lineno)
        if not isinstance(obj["a"], list) or not obj["a"]:
            raise ParseError('"a" must be a nonempty list', lineno)
        # JSON ints stay ints, so an all-int plane takes Hyperplane's int-row path.
        a = tuple(_parse_rational(v, lineno) for v in obj["a"])
        b = _parse_rational(obj["b"], lineno)
        if n is None:
            n = len(a)
        elif len(a) != n:
            raise ParseError(f"dimension {len(a)} differs from earlier {n}", lineno)
        planes.append(Hyperplane(a, b))
    if not planes:
        raise ParseError("no planes in input")
    return CoverFamily(tuple(planes))


def _plane_json(plane: Hyperplane) -> dict:
    return {"a": [_rational_json(c) for c in plane.a], "b": _rational_json(plane.b)}


def write_planes(family: CoverFamily, stream: TextIO) -> None:
    for plane in family:
        stream.write(json.dumps(_plane_json(plane), sort_keys=True) + "\n")


def read_poly(stream: TextIO) -> MultilinearPoly:
    obj = _load_json(_read_text(stream))
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    for key in ("n", "k", "coeffs"):
        if key not in obj:
            raise ParseError(f'missing key "{key}"')
    n, k = obj["n"], obj["k"]
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise ParseError('"n" and "k" must be positive integers')
    if not isinstance(obj["coeffs"], list):
        raise ParseError('"coeffs" must be a list')
    coeffs: dict[int, tuple[Fraction, ...]] = {}
    for entry in obj["coeffs"]:
        if not isinstance(entry, dict) or "S" not in entry or "c" not in entry:
            raise ParseError('each coefficient needs keys "S" and "c"')
        if not isinstance(entry["c"], list):
            raise ParseError('"c" must be a list')
        S = entry["S"]
        if not isinstance(S, list) or any(type(i) is not int for i in S):
            raise ParseError('"S" must be a list of integers')
        if any(not 1 <= i <= n for i in S):
            raise ParseError(f'"S" indices must lie in 1..{n}: {S}')
        if any(S[i] >= S[i + 1] for i in range(len(S) - 1)):
            raise ParseError(f'"S" must be strictly increasing: {S}')
        mask = mask_of(S)
        if mask in coeffs:
            raise ParseError(f"duplicate subset {S}")
        vec = tuple(_parse_rational(v) for v in entry["c"])
        if len(vec) != k:
            raise ParseError(f"coefficient for {S} has length {len(vec)}, expected {k}")
        coeffs[mask] = vec
    return MultilinearPoly(n, k, coeffs)


def _report_json(report: CoverReport, n: int, num_planes: int) -> dict:
    return {
        "covered": report.covered,
        "n": n,
        "num_planes": num_planes,
        "num_uncovered": report.num_uncovered,
        "per_plane_counts": list(report.per_plane_counts),
        "uncovered_sample": [list(p.coords()) for p in report.uncovered_sample],
    }


def cmd_construct(args) -> int:
    if args.kind != "example-n6" and args.param is None:
        raise UsageError(f"construct {args.kind} needs an integer parameter")
    if args.kind == "pow2":
        family = power_of_two_cover(args.param)
    elif args.kind == "levels":
        family = level_set_cover(args.param)
    elif args.kind == "balanced":
        family = balanced_even_cover(args.param)
    else:
        family = example_n6()
    write_planes(family, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise UsageError(f"verify: --workers must be at least 1, got {args.workers}")
    with _open_input(args.planes) as stream:
        family = read_planes(stream)
    if args.n is not None and args.n != family.n:
        raise DimensionMismatch(f"file has n={family.n}, expected n={args.n}")
    report = verify_cover(family, workers=args.workers)
    _emit(_report_json(report, family.n, len(family)))
    return EXIT_OK if report.covered else EXIT_NEGATIVE


def cmd_interp(args) -> int:
    with _open_input(args.poly) as stream:
        poly = read_poly(stream)
    try:
        # A list, not a set: a repeated label must reach the layout check.
        subset = sorted(int(tok) for tok in args.subset.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"interp: cannot parse subset {args.subset!r}") from None
    d = len(subset)
    deg = degree(poly)
    if deg > d:
        raise DegreeTooHigh(f"deg(f) = {deg} exceeds |S| = {d}")
    # The even modulus and n >= d*m + m/2 (exit 4), then the size cap (exit 3),
    # all before build_scheme lays out n coordinates.
    check_recovery_size(poly.n, poly.k, args.m, subset)
    scheme = build_scheme(poly.n, args.m, d, subset)
    # Only the scheme's atoms are evaluated, never the 2^n value table.
    recovered = recover_coefficient(scheme, lambda pt: poly.value_at(pt.bits))
    direct = poly.coeffs.get(mask_of(subset), (Fraction(0),) * poly.k)
    match = recovered == direct
    _emit(
        {
            "coefficient": [_rational_json(v) for v in recovered],
            "direct": [_rational_json(v) for v in direct],
            "match": match,
        }
    )
    return EXIT_OK if match else EXIT_NEGATIVE


def cmd_kernel(args) -> int:
    coeffs = check_system(args.n, args.d, [_parse_rational(tok) for tok in args.a])
    # The nullity has a closed form, so the C(n, d+1) rows are never built.
    nullity = kernel_nullity(args.n, args.d)
    applicable = args.n >= 2 * args.d + 1
    holds = nullity == 0 if applicable else None
    _emit(
        {
            "n": args.n,
            "d": args.d,
            "a": [_rational_json(c) for c in coeffs],
            "nullity": nullity,
            "guarantee_applies": applicable,
            "kernel_trivial": holds,
        }
    )
    return EXIT_OK if holds in (True, None) else EXIT_NEGATIVE


def cmd_search(args) -> int:
    config = SearchConfig(
        n=args.n,
        coeff_bound=args.coeff_bound,
        offset_bound=args.offset_bound,
        max_k=args.max_k,
        time_budget=args.time_budget,
    )
    outcome = min_cover_search(config)
    family = outcome.family
    _emit(
        {
            "status": outcome.status.value,
            "family": None if family is None else [_plane_json(p) for p in family],
            "nodes_explored": outcome.nodes_explored,
            "candidate_pool_size": outcome.candidate_pool_size,
        }
    )
    return EXIT_OK if outcome.status is SearchStatus.FOUND_COVER else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its usage errors as ``UsageError``
    instead of printing usage and exiting; its subparsers are _Parsers too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    parse_args keeps no state between calls."""
    parser = _Parser(prog="skewcube")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a generated plane family as JSON lines")
    p.add_argument("kind", choices=["pow2", "levels", "balanced", "example-n6"])
    p.add_argument("param", type=int, nargs="?")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustively verify a plane file as a cover")
    p.add_argument("planes", nargs="?", default="-", help="plane file, or - for stdin")
    p.add_argument("--n", type=int, default=None, help="expected dimension")
    p.add_argument(
        "--workers", type=int, default=1, help="parallel verification processes (default 1)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("interp", help="recover one coefficient from values on W(m)")
    p.add_argument("poly", help="polynomial file, or - for stdin")
    p.add_argument("--m", type=int, required=True, help="even weight modulus")
    p.add_argument("--subset", "-S", required=True, help="target subset, e.g. 2,4")
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser(
        "kernel",
        help="nullity of the top-coefficient system",
        epilog="negative coefficients need a -- separator: kernel 3 1 -- 1 -2 3",
    )
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("a", nargs="+", help="n nonzero rational coefficients")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("search", help="bounded search for a minimal skew cover")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coeff-bound", "-B", type=int, default=1)
    p.add_argument("--offset-bound", type=int, default=None)
    p.add_argument("--max-k", type=int, default=8)
    p.add_argument("--time-budget", type=float, default=None)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else EXIT_USAGE
        return args.func(args)
    except SkewcubeError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
