import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from skewcube import cli, cube, errors


def run(argv, stdin=None, capsys=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_verify_pipe_all_kinds(capsys, monkeypatch):
    for argv in (
        ["construct", "pow2", "2"],
        ["construct", "levels", "3"],
        ["construct", "balanced", "4"],
        ["construct", "example-n6"],
    ):
        code, planes, _ = run(argv, capsys=capsys)
        assert code == 0
        code, out, _ = run(["verify", "-"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["covered"] is True
        assert report["num_uncovered"] == 0


def test_construct_verify_pipe_past_n_24(capsys, monkeypatch):
    # these exited 3 while verify enumerated all 2^n points; each family has
    # at most two coordinate classes besides singletons
    for argv, n in (
        (["construct", "pow2", "8"], 263),
        (["construct", "levels", "100"], 100),
        (["construct", "balanced", "60"], 60),
    ):
        code, planes, _ = run(argv, capsys=capsys)
        assert code == 0
        code, out, _ = run(["verify", "-", "--workers", "2"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["covered"] is True and report["n"] == n
        assert sum(report["per_plane_counts"]) >= 2**n


def test_construct_balanced_odd_is_usage_error(capsys):
    code, _, err = run(["construct", "balanced", "5"], capsys=capsys)
    assert code == 2
    assert "even" in err


def test_construct_missing_param(capsys):
    code, _, err = run(["construct", "pow2"], capsys=capsys)
    assert code == 2


def test_verify_not_covered(capsys, monkeypatch):
    planes = '{"a": [1, 1], "b": 0}\n'
    code, out, _ = run(["verify", "-"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    report = json.loads(out)
    assert report["num_uncovered"] == 2
    assert report["uncovered_sample"] == [[1, 1], [-1, -1]]


def test_verify_parse_error_names_line(capsys, monkeypatch):
    planes = '{"a": [1, 1], "b": 0}\n{"a": [1, "oops"], "b": 0}\n'
    code, _, err = run(["verify", "-"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert "line 2" in err


def test_verify_float_rejected(capsys, monkeypatch):
    code, _, err = run(["verify", "-"], stdin='{"a": [1.5, 1], "b": 0}\n', capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_verify_dimension_flag_mismatch(capsys, monkeypatch):
    code, _, err = run(
        ["verify", "-", "--n", "3"], stdin='{"a": [1, 1], "b": 0}\n', capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 3


def test_verify_mixed_dimensions_rejected(capsys, monkeypatch):
    planes = '{"a": [1, 1], "b": 0}\n{"a": [1, 1, 1], "b": 0}\n'
    code, _, err = run(["verify", "-"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert "line 2" in err


def test_verify_rational_strings(capsys, monkeypatch):
    planes = '{"a": ["1/2", "-1/2"], "b": 0}\n{"a": [1, 1], "b": 0}\n'
    code, out, _ = run(["verify", "-"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)
    report = json.loads(out)
    assert report["per_plane_counts"] == [2, 2]


_RATIONAL_CORPUS = {
    # accepted: ASCII digits, an optional minus sign, an optional /q with q > 0
    "0": True, "-0": True, "7": True, "-7": True, "007": True, "1/2": True,
    "-3/4": True, "2/4": True, "10/5": True, "0/9": True, "9" * 4300: True,
    "-" + "9" * 4300: True, "1/" + "9" * 4300: True,
    # rejected: a trailing newline and non-ASCII digits (both accepted once),
    # then signs, spaces, other number syntax and more digits than int() reads
    "1\n": False, "-1/2\n": False, "\u0661": False, "1\u0661": False, "1/\u0661": False,
    "\uff11": False, "\u00b2": False, "\u00bd": False, "1/0": False, "1/02": False,
    "1/-2": False, "-1/-2": False, "+1": False, " 1": False, "1 ": False, "\n1": False,
    "1 /2": False, "1/ 2": False, "1.5": False, "1e3": False, "1_000": False, "": False,
    "-": False, "/2": False, "1/": False, "1//2": False, "0x10": False, "nan": False,
    "Infinity": False, "9" * 4301: False, "1/" + "9" * 4301: False,
}


@pytest.mark.parametrize("text", list(_RATIONAL_CORPUS), ids=range(len(_RATIONAL_CORPUS)))
def test_rational_grammar(text, capsys, monkeypatch):
    if _RATIONAL_CORPUS[text]:
        assert cli._parse_rational(text) == Fraction(text)
        return
    with pytest.raises(cli.ParseError):
        cli._parse_rational(text)
    plane = json.dumps({"a": [text, 1], "b": 0}) + "\n"
    code, out, err = run(["verify", "-"], stdin=plane, capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: line 1: ")


@settings(deadline=None, max_examples=200)
@given(st.from_regex(r"-?[0-9]{1,40}(/[1-9][0-9]{0,40})?", fullmatch=True) | st.text(max_size=8))
def test_accepted_rationals_equal_fraction_of_the_string(text):
    try:
        got = cli._parse_rational(text)
    except cli.ParseError:
        assert not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", text)
    else:
        assert type(got) is Fraction and got == Fraction(text)


def test_newline_and_non_ascii_digit_rationals_exit_2(capsys, monkeypatch):
    # The old grammar read this line as the plane x_1 + x_2 = 0.
    plane = json.dumps({"a": ["1\n", "\u0661"], "b": 0}) + "\n"
    code, out, err = run(["verify", "-"], stdin=plane, capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


def test_json_integers_stay_ints_in_plane_rows():
    fam = cli.read_planes(io.StringIO('{"a": [2, -3], "b": 1}\n{"a": ["1/2", 1], "b": 0}\n'))
    assert fam.planes[0]._row == ((2, -3), 1, 1)
    assert fam.planes[1]._row == ((1, 2), 0, 2)
    assert fam.planes[0] == cube.Hyperplane((Fraction(2), Fraction(-3)), Fraction(1))


POLY_X2 = json.dumps({"n": 3, "k": 1, "coeffs": [{"S": [2], "c": [1]}]})


def test_interp_recovers_single_variable(capsys, monkeypatch):
    code, out, _ = run(
        ["interp", "-", "--m", "2", "--subset", "2"],
        stdin=POLY_X2,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    got = json.loads(out)
    assert got == {"coefficient": [1], "direct": [1], "match": True}


def test_interp_constant_poly(capsys, monkeypatch):
    poly = json.dumps({"n": 3, "k": 2, "coeffs": [{"S": [], "c": [3, "5/2"]}]})
    code, out, _ = run(
        ["interp", "-", "--m", "2", "--subset", "2"],
        stdin=poly,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    got = json.loads(out)
    assert got["coefficient"] == [0, 0]
    assert got["match"] is True


def test_interp_odd_modulus_exit_4(capsys, monkeypatch):
    # BadModulus, the class vanishing_dimension raises for an odd m too
    code, out, err = run(
        ["interp", "-", "--m", "3", "-S", "1"],
        stdin=POLY_X2,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 4
    assert out == ""
    assert err == "error: modulus must be even and >= 2, got 3\n"


def test_interp_feasibility_violation_exit_4(capsys, monkeypatch):
    poly = json.dumps(
        {"n": 3, "k": 1, "coeffs": [{"S": [1], "c": [1]}, {"S": [2, 3], "c": [1]}]}
    )
    code, _, err = run(
        ["interp", "-", "--m", "2", "--subset", "1,2"],
        stdin=poly,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 4
    assert ">=" in err or "feasib" in err


def test_interp_duplicate_subset_rejected(capsys, monkeypatch):
    poly = json.dumps(
        {"n": 3, "k": 1, "coeffs": [{"S": [2], "c": [1]}, {"S": [2], "c": [2]}]}
    )
    code, _, _ = run(
        ["interp", "-", "--m", "2", "--subset", "2"],
        stdin=poly,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 2


def test_interp_repeated_label_exit_4(capsys, monkeypatch):
    # -S 2,2 names one label twice, which build_scheme refuses; the CLI
    # keeps the repeat so that its layout check sees it
    from skewcube.interpolation import build_scheme

    with pytest.raises(errors.BadSubsetSize):
        build_scheme(6, 2, 2, [2, 2])
    poly = json.dumps({"n": 6, "k": 1, "coeffs": [{"S": [2], "c": [1]}]})
    code, out, err = run(
        ["interp", "-", "--m", "2", "-S", "2,2"],
        stdin=poly,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 4
    assert out == ""
    assert err == "error: need a subset of exactly 2 distinct labels, got (2, 2)\n"


def test_kernel_base_case(capsys):
    code, out, _ = run(["kernel", "3", "1", "1", "1", "1"], capsys=capsys)
    assert code == 0
    got = json.loads(out)
    assert got["nullity"] == 0
    assert got["guarantee_applies"] is True
    assert got["kernel_trivial"] is True


def test_kernel_outside_hypothesis(capsys):
    code, out, _ = run(["kernel", "2", "1", "1", "1"], capsys=capsys)
    assert code == 0
    got = json.loads(out)
    assert got["nullity"] == 1
    assert got["guarantee_applies"] is False
    assert got["kernel_trivial"] is None


def test_kernel_zero_coefficient_exit_3(capsys):
    code, _, _ = run(["kernel", "3", "1", "1", "0", "1"], capsys=capsys)
    assert code == 3


def test_kernel_rational_coefficients(capsys):
    # "--" ends option parsing so negative coefficients pass through
    code, out, _ = run(["kernel", "3", "1", "--", "1/2", "-2/3", "5"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["nullity"] == 0


@pytest.mark.parametrize(
    "n, d, nullity",
    [
        # C(30, 11) = 54,627,300 rows: refused before the nullity had a closed form
        (30, 10, 0),
        # C(24, 13) = 2,496,144 rows; the nullity is the Catalan number C(24, 12)/13
        (24, 12, 208012),
    ],
)
def test_kernel_answers_without_building_the_system(n, d, nullity, capsys):
    code, out, err = run(["kernel", str(n), str(d), *["1"] * n], capsys=capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["nullity"] == nullity


def test_search_finds_n5_record(capsys):
    code, out, _ = run(
        ["search", "--n", "5", "-B", "2", "--offset-bound", "0", "--max-k", "4"],
        capsys=capsys,
    )
    assert code == 0
    got = json.loads(out)
    assert got["status"] == "found_cover"
    assert len(got["family"]) == 4


def test_search_vacuous_negative_exit(capsys):
    code, out, _ = run(
        ["search", "--n", "3", "-B", "1", "--offset-bound", "1", "--max-k", "2"],
        capsys=capsys,
    )
    assert code == 1
    assert json.loads(out)["status"] == "exhausted_no_cover"


def test_search_no_canonical_first_flag_is_usage_error(capsys):
    code, out, _ = run(["search", "--n", "3", "--no-canonical-first"], capsys=capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["search", "--n", "3", "--bogus"], ["search"], ["search", "--n", "x"]],
)
def test_argparse_errors_are_one_line_usage_errors(argv, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_prints_to_stdout_and_exits_0(capsys):
    code, out, err = run(["search", "--help"], capsys=capsys)
    assert code == 0
    assert "--coeff-bound" in out and err == ""


def test_outputs_byte_deterministic(capsys, monkeypatch):
    runs = []
    for _ in range(2):
        _, out, _ = run(["construct", "example-n6"], capsys=capsys)
        _, rep, _ = run(["verify", "-"], stdin=out, capsys=capsys, monkeypatch=monkeypatch)
        runs.append((out, rep))
    assert runs[0] == runs[1]


def test_construct_output_reparses(capsys, monkeypatch):
    _, out, _ = run(["construct", "levels", "4"], capsys=capsys)
    fam = cli.read_planes(io.StringIO(out))
    assert fam.n == 4 and len(fam) == 5


def test_poly_subset_must_be_increasing():
    poly = json.dumps({"n": 3, "k": 1, "coeffs": [{"S": [2, 1], "c": [1]}]})
    with pytest.raises(cli.ParseError):
        cli.read_poly(io.StringIO(poly))


def test_verify_workers_below_one_is_usage_error(capsys, monkeypatch):
    for value in ("0", "-3"):
        argv = ["verify", "-", "--workers", value]
        code, out, err = run(argv, stdin='{"a": [1, 1], "b": 0}\n', capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--workers" in err


def test_verify_directory_is_usage_error(tmp_path, capsys):
    code, _, err = run(["verify", str(tmp_path)], capsys=capsys)
    assert code == 2
    assert "Traceback" not in err


def test_verify_workers_default(capsys, monkeypatch):
    seen, real_verify = [], cli.verify_cover

    def recording_verify(family, *, workers):
        seen.append(workers)
        return real_verify(family)

    monkeypatch.setattr(cli, "verify_cover", recording_verify)
    planes = '{"a": [1, 1], "b": 0}\n'
    assert run(["verify", "-"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)[0] == 1
    assert run(["verify", "-", "--workers", "2"], stdin=planes, capsys=capsys, monkeypatch=monkeypatch)[0] == 1
    assert seen == [1, 2]


def _in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv, stdin):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "skewcube.cli", *argv], input=stdin, capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


_IMPORT_GUARD = """
import os, sys
import skewcube, skewcube.cli

def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))

print(pool_modules())
from skewcube.cube import CoverFamily, Hyperplane, verify_cover
fam = CoverFamily((Hyperplane((1, 2, 3, 4), 0), Hyperplane((1, 2, 3, 4), 2)))
serial = verify_cover(fam, chunk_bits=2)
# Four chunks and two workers start a pool, which loads the pool module.
if (os.cpu_count() or 1) > 1:
    assert verify_cover(fam, workers=2, chunk_bits=2) == serial
    assert "concurrent.futures.process" in pool_modules()
"""


def test_import_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_repeated_main_calls_equal_fresh_processes():
    # One process, one parser: mixed subcommands and an argparse error
    # between two good calls give the same stdout, stderr and exit code as a
    # new process for each call.
    planes = "".join(json.dumps({"a": [1] * 3, "b": b}) + "\n" for b in (3, 1, -1, -3))
    calls = [
        (["construct", "levels", "3"], ""),
        (["verify", "-"], planes),
        (["verify", "-", "--n", "3"], planes),
        (["search", "--n", "3", "--bogus"], ""),
        (["kernel", "3", "1", "1", "2", "3"], ""),
        (["kernel", "3", "1", "--", "1", "-2", "1/3"], ""),
        (["verify", "-"], planes[: planes.index("\n") + 1]),
        (["interp", "-", "--m", "2", "-S", "2"], POLY_X2),
        (["search", "--n", "3", "-B", "2", "--max-k", "3"], ""),
    ]
    got = [_in_process(*call) for call in calls]
    want = [_fresh_process(*call) for call in calls]
    assert got == want
    assert [code for code, _, _ in got] == [0, 0, 0, 2, 0, 0, 1, 0, 0]


@pytest.mark.parametrize(
    "argv",
    [["kernel", "3", "5", "1", "1", "1"], ["kernel", "3", "--", "-1", "1", "1", "1"]],
)
def test_kernel_degree_out_of_range_exit_4(argv, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_kernel_coefficient_beyond_int64(capsys):
    code, out, _ = run(["kernel", "3", "1", "100000000000000000000", "1", "1"], capsys=capsys)
    assert code == 0
    got = json.loads(out)
    assert got["nullity"] == 0
    assert got["a"][0] == 100000000000000000000


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "levels", "3"],
        ["verify", "-"],
        ["interp", "-", "--m", "2", "-S", "1"],
        ["kernel", "3", "1", "1", "1", "1"],
        ["search", "--n", "3"],
    ],
)
def test_workers_env_is_ignored(argv, capsys, monkeypatch):
    # No environment variable steers the CLI: argv is its only input.
    monkeypatch.delenv("SKEWCUBE_WORKERS", raising=False)
    want = run(argv, stdin="", capsys=capsys, monkeypatch=monkeypatch)
    for value in ("abc", "3"):
        monkeypatch.setenv("SKEWCUBE_WORKERS", value)
        assert run(argv, stdin="", capsys=capsys, monkeypatch=monkeypatch) == want


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", "--n", "0"], "--n"),
        (["search", "--n", "3", "--max-k", "-1"], "--max-k"),
        (["search", "--n", "3", "-B", "0"], "--coeff-bound"),
        (["search", "--n", "3", "--offset-bound", "-1"], "--offset-bound"),
    ],
)
def test_search_out_of_range_argument_is_usage_error(argv, flag, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and flag in err


@pytest.mark.parametrize(
    "poly, key",
    [
        ({"n": 3, "k": 1, "coeffs": 5}, '"coeffs"'),
        ({"n": 3, "k": 1, "coeffs": [{"S": [1], "c": 5}]}, '"c"'),
    ],
)
def test_interp_non_list_coefficients_are_parse_errors(poly, key, capsys, monkeypatch):
    argv = ["interp", "-", "--m", "2", "-S", "1"]
    code, out, err = run(argv, stdin=json.dumps(poly), capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and key in err


EXIT_CODES = {
    errors.SkewcubeError: 3,
    errors.UsageError: 2,
    errors.ParseError: 2,
    errors.DimensionMismatch: 3,
    errors.DimensionTooLarge: 3,
    errors.EmptyFamily: 3,
    errors.MissingValue: 3,
    errors.ZeroCoefficient: 3,
    errors.PoolInsufficient: 3,
    errors.BadModulus: 4,
    errors.DegreeTooHigh: 4,
    errors.BadSubsetSize: 4,
    errors.DegreeOutOfRange: 4,
}


def _error_classes(cls=errors.SkewcubeError):
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _error_classes(sub)
    return found


def test_every_error_class_carries_its_exit_code():
    assert _error_classes() == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        assert cls.exit_code == code, cls.__name__
    assert issubclass(errors.UsageError, ValueError)


@pytest.mark.parametrize(
    "argv",
    [
        # (n + 1) * n, n * n and 512 * 520 coefficients are over the 2^17 cap
        ["construct", "levels", "400"],
        ["construct", "balanced", "400"],
        ["construct", "pow2", "9"],
        ["construct", "pow2", str(10**30)],
    ],
)
def test_construct_above_the_cap_exits_3(argv, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # 2^16 raw planes x 2^16 points is over the 2^28-cell pool cap
        ["search", "--n", "16", "-B", "1", "--offset-bound", "0"],
        ["search", "--n", "7", "-B", "3"],
        ["search", "--n", "25"],
        ["search", "--n", str(10**30)],
    ],
)
def test_search_above_the_cap_exits_3(argv, capsys):
    code, out, err = run(argv, capsys=capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_construct_levels_zero_is_one_line_usage_error(capsys):
    code, out, err = run(["construct", "levels", "0"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: n must be >= 1, got 0\n"


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"a": [1, 1], "b": 0}\n\xff\xfe\n')
    for argv in (["verify", str(bad)], ["interp", str(bad), "--m", "2", "-S", "1"]):
        code, out, err = run(argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "UTF-8" in err


INTERP_S1 = ["interp", "-", "--m", "2", "-S", "1"]


@pytest.mark.parametrize(
    "argv, stdin, want",
    [
        (["verify", "-"], "[" * 100_000, 2),
        (["verify", "-"], "[" + "1" * 5000 + "]", 2),
        (["kernel", "3", "1", "1", "1", "1" * 5000], None, 2),
        (INTERP_S1, json.dumps({"n": 10**30, "k": 1, "coeffs": [{"S": [1], "c": [1]}]}), 3),
        (INTERP_S1, json.dumps({"n": 5, "k": 10**8, "coeffs": []}), 3),
    ],
)
def test_oversized_input_is_one_line_error(argv, stdin, want, capsys, monkeypatch):
    code, out, err = run(argv, stdin=stdin, capsys=capsys, monkeypatch=monkeypatch)
    assert code == want
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**30),
    st.floats(allow_nan=False),
    st.sampled_from(["1/2", "-3/4", "2/0", "x", ""]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from("abnkcS"), st.integers(-2, 2), max_size=2),
)
_tokens = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from([str(10**30), "1/2", "-3/4", "2/0", "1.5", "x", ""]),
    st.text(max_size=4),
)
_small = st.integers(-1, 4).map(str) | st.sampled_from(["25", str(10**30), "x"])


def _maybe(strategy, junk=_junk):
    """Mostly the well-formed value, one time in five junk in its place."""
    return st.integers(0, 4).flatmap(lambda i: junk if i == 4 else strategy)


def _flag(name, values):
    """The flag with a value, one time in five left out."""
    return _maybe(values.map(lambda v: [name, v]), st.just([]))


@st.composite
def _construct(draw):
    kind = draw(st.sampled_from(["pow2", "levels", "balanced", "example-n6", "cube"]))
    param = draw(st.lists(st.integers(-2, 26).map(str) | _tokens, max_size=1))
    return ["construct", kind, *param], None


@st.composite
def _verify(draw):
    n = draw(st.integers(1, 4))
    coeff = st.integers(-2, 2)
    planes = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "a": _maybe(st.lists(coeff, min_size=n, max_size=n)),
                    "b": _maybe(st.integers(-3, 3)),
                }
            ),
            min_size=1,
            max_size=5,
        )
    )
    lines = [json.dumps(p) for p in planes]
    tail = draw(st.sampled_from(["", "\n", "\n{", "\n" + "[" * 100_000, '\n{"a": [1], "b": 0}']))
    argv = ["verify", "-"]
    argv += draw(_flag("--n", st.sampled_from([str(n), str(n + 1), "x"])))
    argv += draw(_flag("--workers", st.sampled_from(["1", "2", "0", "x"])))
    return argv, "\n".join(lines) + tail


@st.composite
def _interp(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 2))
    labels = st.lists(st.integers(1, n), max_size=2, unique=True).map(sorted)
    vector = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    entry = st.fixed_dictionaries({"S": labels, "c": vector})
    coeffs = draw(st.lists(entry, max_size=3, unique_by=lambda e: tuple(e["S"])))
    poly = {"n": n, "k": k, "coeffs": coeffs}
    bad_n = st.sampled_from([0, -1, 25, 10**30, "3", True])
    poly["n"] = draw(_maybe(st.just(n), bad_n))
    poly["k"] = draw(_maybe(st.just(k), st.sampled_from([0, 10**8, "1"])))
    poly["coeffs"] = draw(_maybe(st.just(poly["coeffs"]), _junk | st.lists(_junk, max_size=2)))
    text = draw(_maybe(st.just(json.dumps(poly)), st.sampled_from(["", "{", "[" * 100_000])))
    argv = ["interp", "-"]
    argv += draw(_flag("--m", st.sampled_from(["2", "4", "3", "0", "-2", "x"])))
    argv += draw(_flag("--subset", st.sampled_from(["1", "1,2", "2,4", "", "0", "2,2", "x", "9"])))
    return argv, text


@st.composite
def _kernel(draw):
    n = draw(st.integers(1, 5))
    nonzero = st.integers(-3, 3).filter(bool).map(str) | st.sampled_from(["1/2", "-3/4"])
    a = draw(_maybe(st.lists(nonzero, min_size=n, max_size=n), st.lists(_tokens, max_size=6)))
    d = draw(_maybe(st.integers(0, n).map(str), _small))
    return ["kernel", draw(_maybe(st.just(str(n)), _small)), d, "--", *a], None


@st.composite
def _search(draw):
    argv = ["search"]
    argv += draw(_flag("--n", _small))
    argv += draw(_flag("-B", st.sampled_from(["-1", "0", "1", "2", str(10**30)])))
    argv += draw(_flag("--offset-bound", _small))
    argv += draw(_flag("--max-k", st.integers(-1, 4).map(str)))
    argv += draw(st.sampled_from([[], ["--no-canonical-first"]]))
    return argv, None


_invocations = st.one_of(
    _construct(),
    _verify(),
    st.just((["verify", "no-such-file.jsonl"], None)),
    _interp(),
    _kernel(),
    _search(),
    st.tuples(st.lists(_tokens, max_size=4), st.just(None)),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_invocations)
def test_malformed_input_ends_in_exit_code_not_traceback(invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    if code in (3, 4):
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")


def _no_table(*args):
    raise AssertionError("interp built a 2^n value table")


def test_interp_past_24_evaluates_atoms_only(capsys, monkeypatch):
    from skewcube import fourier

    monkeypatch.setattr(fourier, "inverse_wht", _no_table)
    monkeypatch.setattr(fourier, "_butterfly", _no_table)
    poly = {
        "n": 40,
        "k": 2,
        "coeffs": [
            {"S": [4, 8, 12], "c": ["-7/3", 5]},
            {"S": [1, 20, 40], "c": [1, "1/2"]},
            {"S": [2, 39], "c": [str(3**50), 0]},
            {"S": [], "c": ["2/9", -1]},
        ],
    }
    argv = ["interp", "-", "--m", "4", "-S", "4,8,12"]
    code, out, err = run(argv, stdin=json.dumps(poly), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"coefficient": ["-7/3", 5], "direct": ["-7/3", 5], "match": True}
    argv = ["interp", "-", "--m", "4", "-S", "1,20,40"]
    code, out, err = run(argv, stdin=json.dumps(poly), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, json.loads(out)["coefficient"]) == (0, [1, "1/2"])


def test_interp_cap_refuses_before_build_scheme(capsys, monkeypatch):
    def no_scheme(*args):
        raise AssertionError("build_scheme ran past the cap")

    monkeypatch.setattr(cli, "build_scheme", no_scheme)
    # 512 atoms * (2047 + 2) > 2^20, and 4^8 atoms * (17 + 1) > 2^20 at n <= 24
    for n, m, subset in [(2047, "4", "4,8,12"), (17, "2", "2,4,6,8,10,12,14,16")]:
        poly = json.dumps({"n": n, "k": 2 if m == "4" else 1, "coeffs": []})
        argv = ["interp", "-", "--m", m, "-S", subset]
        code, out, err = run(argv, stdin=poly, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "2^20" in err


def test_search_config_messages_name_the_flag():
    from skewcube.search import SearchConfig

    for kwargs, flag in [
        ({"n": 0}, "--n"),
        ({"n": 3, "coeff_bound": 0}, "--coeff-bound"),
        ({"n": 3, "offset_bound": -1}, "--offset-bound"),
        ({"n": 3, "max_k": -1}, "--max-k"),
    ]:
        with pytest.raises(errors.UsageError, match=flag):
            SearchConfig(**kwargs)


def test_search_time_budget_zero_exits_1_with_timeout(capsys):
    code, out, _ = run(
        ["search", "--n", "6", "-B", "2", "--offset-bound", "6", "--max-k", "5", "--time-budget", "0"],
        capsys=capsys,
    )
    assert code == 1
    got = json.loads(out)
    assert got["status"] == "timeout"
    assert got["family"] is None


@pytest.mark.parametrize("budget", ["nan", "-1", "-0.5"])
def test_search_bad_time_budget_is_usage_error(budget, capsys):
    code, out, err = run(["search", "--n", "3", "--time-budget", budget], capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--time-budget" in err
