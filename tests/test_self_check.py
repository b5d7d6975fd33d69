"""A certificate the library built and then refused is an internal failure.

Each test breaks one step that makes a certificate (a kernel vector, a
matching, a rank), so the certificate handed to its ``checked`` factory is
wrong.  The library must raise ``AssertionError`` and the CLI must exit 3,
never report the refusal as a ``ValueError`` about the input.  A matching
forged by the caller is the caller's fault, so ``cantor_bernstein_merge``
still refuses it with ``ValueError``.  A stream latch whose combination is
refused is tested in ``test_stream.py``.
"""

import pytest

import thincert.bigraph
import thincert.certify
import thincert.strings
from thincert import (FieldSpec, Matching, SaturatedString, SparseMatrix, Vector,
                      cantor_bernstein_merge, certify_columns, diagonalize, hall_violator,
                      lemma_witness, max_matching, parse_matrix, parse_vertex, solve,
                      support_graph, unsolvable_core)
from thincert.cli import main
from thincert.elimination import Eliminator

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)

FIELDS = [GF2, GF5, QQ]

# No zero column: adding one to a kernel vector's last entry moves A v by
# that column, so the broken vector never annihilates the matrix.
DEPENDENT_GF2 = "field gf 2\n3 4\n0 0 1\n0 3 1\n1 1 1\n1 3 1\n2 2 1\n2 3 1\n"
ALL_ONES = "field rational\n2 2\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n"
VIOLATOR = "field rational\n3 3\n0 0 1\n0 1 1\n1 2 1\n"
INDEPENDENT = "field rational\n3 2\n0 0 1\n1 0 1\n1 1 1\n2 1 1\n"
ANTIDIAG = "field gf 5\n2 2\n0 1 1\n1 0 1\n"


@pytest.fixture
def broken_kernel(monkeypatch):
    """Every kernel vector comes back with one added to its last entry."""
    kernel_vector = Eliminator.kernel_vector

    def broken(self, free):
        cells = kernel_vector(self, free)
        last = max(cells)
        cells[last] = self.spec.add(cells[last], self.spec.one)
        return cells

    monkeypatch.setattr(Eliminator, "kernel_vector", broken)


@pytest.fixture
def broken_matching(monkeypatch):
    """Every augmenting search also pairs the first column with a row that
    is not in the graph."""
    augment = thincert.bigraph._augment

    def broken(adj, roots, match_row):
        dead = augment(adj, roots, match_row)
        match_row[-1] = next(iter(adj))
        return dead

    monkeypatch.setattr(thincert.bigraph, "_augment", broken)


@pytest.fixture
def broken_rank(monkeypatch):
    rank = thincert.strings.rank
    monkeypatch.setattr(thincert.strings, "rank", lambda matrix: rank(matrix) + 1)


@pytest.fixture
def forged_cover(monkeypatch):
    """The matching handed to ``Sdr``/``Bijection`` pairs c_j with r_j, a
    zero entry of ``ANTIDIAG``."""
    monkeypatch.setattr(thincert.certify, "max_matching", lambda graph: Matching(
        frozenset((j, j) for j in graph.left)))


def test_refuted_solve_and_core(broken_kernel):
    for spec in FIELDS:
        m = SparseMatrix.from_dense(spec, [[1, 1], [1, 1]])
        rhs = Vector.from_dense(spec, [1, 0] if spec is GF2 else [1, 2])
        with pytest.raises(AssertionError, match="self-check failed"):
            solve(m, rhs)
        with pytest.raises(AssertionError, match="self-check failed"):
            unsolvable_core(m, rhs)


@pytest.mark.parametrize("text, via_violator", [(DEPENDENT_GF2, False), (VIOLATOR, True)],
                         ids=["kernel", "via-violator"])
def test_certify_columns_kernel(broken_kernel, text, via_violator):
    with pytest.raises(AssertionError, match="self-check failed"):
        certify_columns(parse_matrix(text), via_violator=via_violator)


@pytest.mark.parametrize("text", [ALL_ONES, DEPENDENT_GF2], ids=["row-side", "col-side"])
def test_diagonalize_kernel(broken_kernel, text):
    # ALL_ONES has dependent rows; DEPENDENT_GF2 is wide, its rows independent.
    with pytest.raises(AssertionError, match="self-check failed"):
        diagonalize(parse_matrix(text))


@pytest.mark.parametrize("via_violator", [False, True])
def test_certify_columns_sdr(forged_cover, via_violator):
    with pytest.raises(AssertionError, match="self-check failed"):
        certify_columns(parse_matrix(ANTIDIAG), via_violator=via_violator)


def test_diagonalize_bijection(forged_cover):
    with pytest.raises(AssertionError, match="self-check failed"):
        diagonalize(parse_matrix(ANTIDIAG))


@pytest.mark.parametrize("fn", [max_matching, hall_violator])
def test_matchings(broken_matching, fn):
    for text in (INDEPENDENT, VIOLATOR, ANTIDIAG):
        with pytest.raises(AssertionError, match="self-check failed"):
            fn(support_graph(parse_matrix(text)))


def test_lemma_witness(broken_rank):
    string = SaturatedString(tuple(map(parse_vertex, "r0 r1 c0".split())))
    with pytest.raises(AssertionError, match="self-check failed: witness identity fails"):
        lemma_witness(parse_matrix(INDEPENDENT), string)


@pytest.mark.parametrize("fixture, text, argv", [
    ("broken_kernel", DEPENDENT_GF2, ["certify"]),
    ("broken_kernel", VIOLATOR, ["certify", "--via-violator"]),
    ("broken_kernel", ALL_ONES, ["diagonalize"]),
    ("broken_kernel", ALL_ONES, ["solve", "1 2"]),
    ("broken_rank", INDEPENDENT, ["witness", "r0 r1 c0"]),
], ids=["certify", "certify-via-violator", "diagonalize", "solve", "witness"])
def test_cli_exits_3(request, tmp_path, capsys, fixture, text, argv):
    request.getfixturevalue(fixture)
    path = tmp_path / "m.mtx"
    path.write_text(text, encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: AssertionError: self-check failed: ")


def test_merge_refuses_a_forged_matching_as_bad_input():
    # The caller built this matching without Matching.checked, so its
    # non-edges are the caller's fault: ValueError, not AssertionError.
    graph = support_graph(parse_matrix(ANTIDIAG))
    forged = Matching(frozenset({(0, 0), (1, 1)}))
    with pytest.raises(ValueError, match="is not an edge"):
        cantor_bernstein_merge(graph, forged, forged)
