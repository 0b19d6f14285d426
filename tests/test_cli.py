import io
import json

import pytest

from skewcube import cli


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
    code, _, err = run(
        ["interp", "-", "--m", "3", "--subset", "2"],
        stdin=POLY_X2,
        capsys=capsys,
        monkeypatch=monkeypatch,
    )
    assert code == 4


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


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("SKEWCUBE_WORKERS", "3")
    assert cli._build_parser().parse_args(["verify", "-"]).workers == 3
    monkeypatch.delenv("SKEWCUBE_WORKERS")
    assert cli._build_parser().parse_args(["verify", "-"]).workers == 1


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
def test_non_integer_workers_env_is_usage_error(argv, capsys, monkeypatch):
    monkeypatch.setenv("SKEWCUBE_WORKERS", "abc")
    code, out, err = run(argv, stdin="", capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "SKEWCUBE_WORKERS" in err


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
