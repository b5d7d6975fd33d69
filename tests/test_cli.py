"""Command line behaviour: output text, exit codes, stdin streaming."""

import io
import os
import subprocess
import sys

import pytest

import thincert
from thincert.cli import main

INDEPENDENT = "field rational\n3 2\n0 0 1\n1 0 1\n1 1 1\n2 1 1\n"
DEPENDENT_GF2 = "field gf 2\n3 4\n0 0 1\n0 3 1\n1 1 1\n1 3 1\n2 2 1\n2 3 1\n"
ALL_ONES = "field rational\n2 2\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n"
ANTIDIAG = "field gf 5\n2 2\n0 1 1\n1 0 1\n"
ONES_GF2 = "field gf 2\n2 2\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n"
VIOLATOR = "field rational\n3 3\n0 0 1\n0 1 1\n1 2 1\n"


@pytest.fixture
def matrix_file(tmp_path):
    def write(text, name="m.mtx"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_rank(matrix_file, capsys):
    assert main(["rank", matrix_file(DEPENDENT_GF2)]) == 0
    assert capsys.readouterr().out == "rank: 3\n"


def test_kernel_trivial(matrix_file, capsys):
    assert main(["kernel", matrix_file(INDEPENDENT)]) == 0
    assert capsys.readouterr().out == "kernel: trivial\n"


def test_kernel_basis(matrix_file, capsys):
    assert main(["kernel", matrix_file(DEPENDENT_GF2)]) == 1
    assert capsys.readouterr().out == "kernel basis:\n1 1 1 1\n"


def test_solve_solution(matrix_file, capsys):
    path = matrix_file("field gf 5\n2 2\n0 0 2\n0 1 1\n1 0 1\n1 1 2\n")
    assert main(["solve", path, "1 2"]) == 0
    assert capsys.readouterr().out == "solution: 0 1\n"


def test_solve_refutation(matrix_file, capsys):
    assert main(["solve", matrix_file(ALL_ONES), "0 1"]) == 1
    assert capsys.readouterr().out == "unsolvable, certificate: 1 -1\n"


def test_solve_wrong_rhs_length(matrix_file, capsys):
    assert main(["solve", matrix_file(ALL_ONES), "0 1 2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2 scalars" in err


def test_certify_sdr(matrix_file, capsys):
    assert main(["certify", matrix_file(INDEPENDENT)]) == 0
    assert capsys.readouterr().out == "SDR:\nc0 -> r0\nc1 -> r1\n"


def test_certify_kernel(matrix_file, capsys):
    assert main(["certify", matrix_file(DEPENDENT_GF2)]) == 1
    assert capsys.readouterr().out == "KERNEL: 1 1 1 1\n"


def test_certify_via_violator(matrix_file, capsys):
    assert main(["certify", "--via-violator", matrix_file(VIOLATOR)]) == 1
    assert capsys.readouterr().out == "KERNEL: 1 -1 0\n"


def test_diagonalize_permutation(matrix_file, capsys):
    assert main(["diagonalize", matrix_file(ANTIDIAG)]) == 0
    assert capsys.readouterr().out == "PERMUTATION:\nc0 -> r1\nc1 -> r0\n"


def test_diagonalize_singular(matrix_file, capsys):
    assert main(["diagonalize", matrix_file(ONES_GF2)]) == 1
    assert capsys.readouterr().out == "KERNEL (row side): 1 1\n"


def test_mu_finite(matrix_file, capsys):
    path = matrix_file(INDEPENDENT)
    assert main(["mu", path, "r0 r1 c0"]) == 0
    assert capsys.readouterr().out == "mu = 1, saturated = true\n"
    assert main(["mu", path, "c0 r0 r1"]) == 0
    assert capsys.readouterr().out == "mu = 1, saturated = false\n"


def test_mu_ordinal(matrix_file, capsys):
    path = matrix_file(INDEPENDENT)
    assert main(["mu", path, "[c0]*"]) == 0
    assert capsys.readouterr().out == "mu = -inf\n"
    assert main(["mu", path, "[r0 r1 c0]*"]) == 0
    assert capsys.readouterr().out == "mu = +inf\n"
    assert main(["mu", path, "[r0 c0]* r1"]) == 0
    assert capsys.readouterr().out == "mu = 1\n"


def test_witness(matrix_file, capsys):
    assert main(["witness", matrix_file(INDEPENDENT), "r0 r1 c0"]) == 0
    assert capsys.readouterr().out == (
        "I' = {r0, r1}\n"
        "J' = {c0}\n"
        "mu = 1 = |I'| - rank = 2 - 1\n")


def test_witness_include(matrix_file, capsys):
    assert main(["witness", matrix_file(INDEPENDENT),
                 "r0 r1 c0 r2 c1", "--include", "r2"]) == 0
    out = capsys.readouterr().out
    assert "I' = {r0, r1, r2}" in out
    assert "mu = 1 = |I'| - rank = 3 - 2" in out


def test_witness_include_refuses_a_column(matrix_file, capsys):
    assert main(["witness", matrix_file(INDEPENDENT), "r0 r1 c0", "--include", "c0"]) == 2
    assert "--include takes row vertices, got 'c0'" in capsys.readouterr().err


def test_witness_dependent_column_is_an_error(matrix_file, capsys):
    assert main(["witness", matrix_file(ALL_ONES), "r0 r1 c0 c1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "c1" in err


def test_witness_rejects_ordinal_strings(matrix_file, capsys):
    assert main(["witness", matrix_file(INDEPENDENT), "[r0 c0]*"]) == 2
    assert "finite string" in capsys.readouterr().err


def test_stream_unsolvable(matrix_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "# two clashing rows\n"
        "1 ; 0:1 1:1\n"
        "\n"
        "2 ; 0:1 1:1\n"
        "0 ; 1:1\n"))
    assert main(["stream"]) == 1
    assert capsys.readouterr().out == "unsolvable at prefix 2, core: 0 1\n"


def test_stream_solvable_gf(matrix_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("7 ; 0:2\n1 ; 0:1 1:1\n"))
    assert main(["stream", "--field", "gf:5"]) == 0
    assert capsys.readouterr().out == "all prefixes solvable\n"


def test_stream_bad_field(capsys):
    assert main(["stream", "--field", "octonion"]) == 2
    assert "field token" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["rank", "/nonexistent/nowhere.mtx"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_file(matrix_file, capsys):
    assert main(["rank", matrix_file("field gf 2\n1 1\n0 0 7/2\n")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["rank"]) == 2


@pytest.mark.parametrize("exc", [AssertionError("self-check failed"),
                                 RecursionError("maximum recursion depth exceeded"),
                                 MemoryError("out of memory")])
def test_internal_errors_exit_3(matrix_file, capsys, monkeypatch, exc):
    def boom(matrix):
        raise exc
    monkeypatch.setattr("thincert.cli.rank", boom)
    assert main(["rank", matrix_file(INDEPENDENT)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_module_entry_point(matrix_file, tmp_path):
    # The child runs from tmp_path, where a relative PYTHONPATH such as
    # "src" no longer resolves; put the absolute directory holding the
    # imported package first so the child runs the code under test.
    package_parent = os.path.dirname(
        os.path.dirname(os.path.abspath(thincert.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_parent, inherited]))}
    path = matrix_file(DEPENDENT_GF2)
    proc = subprocess.run([sys.executable, "-m", "thincert", "rank", path],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rank: 3\n"
