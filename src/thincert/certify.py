"""Certificates for column independence and two-sided diagonal rearrangement.

``certify_columns`` decides by exact kernel computation, never by matching
existence alone: a trivial kernel must come with a column-covering matching
(its absence would contradict the finite covering theorem and aborts
loudly), and a nontrivial kernel is reported with a verified kernel vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .bigraph import Matching, SupportGraph, hall_violator, max_matching, support_graph
from .field import _is_index
from .linalg import SparseMatrix, Vector, _first_kernel_vector, _self_check

__all__ = [
    "Sdr",
    "Dependence",
    "Certificate",
    "Bijection",
    "certify_columns",
    "diagonalize",
]


@dataclass(frozen=True)
class Sdr:
    """An injection of columns into rows hitting nonzero entries only."""

    assignment: Mapping[int, int]

    @classmethod
    def checked(cls, matrix: SparseMatrix, assignment: Mapping[int, int]) -> "Sdr":
        if sorted(assignment) != list(range(matrix.num_cols)):
            raise ValueError("assignment must cover every column exactly once")
        if len(set(assignment.values())) != len(assignment):
            raise ValueError("assignment reuses a row")
        for j, i in assignment.items():
            if not (_is_index(j) and _is_index(i) and 0 <= i < matrix.num_rows):
                raise ValueError(f"c{j!r} -> r{i!r} is not a pair of indices in range")
            if j not in matrix._cells[i]:
                raise ValueError(f"entry at (r{i}, c{j}) is zero")
        return cls(dict(sorted(assignment.items())))


@dataclass(frozen=True)
class Dependence:
    """A verified nonzero kernel vector, tagged with the side it refutes."""

    vector: Vector
    side: str = "col"

    @classmethod
    def checked(cls, matrix: SparseMatrix, vector: Vector, side: str = "col") -> "Dependence":
        if side not in ("col", "row"):
            raise ValueError(f"side must be 'col' or 'row', got {side!r}")
        if vector.is_zero:
            raise ValueError("kernel vector is zero")
        if vector.length != (matrix.num_cols if side == "col" else matrix.num_rows):
            raise ValueError("kernel vector has the wrong length")
        image = matrix.mul_vector(vector) if side == "col" else matrix.combine_rows(vector)
        if not image.is_zero:
            raise ValueError("kernel vector fails to annihilate the matrix")
        return cls(vector, side)


Certificate = Union[Sdr, Dependence]


@dataclass(frozen=True)
class Bijection:
    """A two-way column/row pairing whose diagonal entries are all nonzero."""

    col_to_row: Mapping[int, int]
    row_to_col: Mapping[int, int]

    @classmethod
    def checked(cls, matrix: SparseMatrix, col_to_row: Mapping[int, int]) -> "Bijection":
        if matrix.num_rows != matrix.num_cols:
            raise ValueError("bijection requires a square matrix")
        # On a square matrix an injective cover of the columns hits every row.
        fwd = Sdr.checked(matrix, col_to_row).assignment
        return cls(fwd, {i: j for j, i in fwd.items()})


def _column_cover(matrix: SparseMatrix, graph: SupportGraph | None = None) -> Matching:
    """A maximum matching of the support graph (``graph`` if given), which
    must cover the columns of a trivial kernel."""
    m = max_matching(graph if graph is not None else support_graph(matrix))
    if m.size != matrix.num_cols:
        raise AssertionError("trivial kernel but no column-covering matching; "
                             "this contradicts the finite covering theorem")
    return m


def certify_columns(matrix: SparseMatrix, via_violator: bool = False) -> Certificate:
    """Either an Sdr for the columns or a verified kernel vector.

    With ``via_violator`` a Hall violator J0 is sought first.  If there is
    one (a trivial kernel never has one), the kernel vector of the
    violator's submatrix alone (rows N(J0), columns J0, fewer rows than
    columns) is extended by zeros, a genuine kernel vector since rows
    outside N(J0) carry no support on J0.  Otherwise the support graph is
    reused for the Sdr's matching.
    """
    graph = None
    if via_violator:
        graph = support_graph(matrix)
        violator = hall_violator(graph)
        if violator is not None:
            cols = sorted(violator)
            local = _first_kernel_vector(
                matrix.submatrix(sorted(graph.neighbourhood(violator)), cols))
            if local is None:
                raise AssertionError("violator submatrix has fewer rows than columns "
                                     "yet a trivial kernel")
            lam = Vector.from_pairs(matrix.spec, matrix.num_cols,
                                    ((cols[pos], v) for pos, v in local._cells.items()))
            return _self_check(Dependence.checked, matrix, lam, "col")
    kern = _first_kernel_vector(matrix)
    if kern is not None:
        return _self_check(Dependence.checked, matrix, kern, "col")
    return _self_check(Sdr.checked, matrix, _column_cover(matrix, graph).col_to_row)


def diagonalize(matrix: SparseMatrix) -> Bijection | Dependence:
    """A diagonal rearrangement when both sides are independent.

    If the rows or the columns are dependent, the offending verified kernel
    vector is returned instead, row side reported first.  One elimination of
    the transpose decides: dependent rows give the row-side vector;
    independent rows pin the rank to the row count, so a wide matrix has
    dependent columns and a square one has a trivial column kernel too.  One
    maximum matching then covers the columns of the square matrix, and so
    its rows too; ``Bijection.checked`` verifies it.  (The paper's merge of
    a column-covering and a row-covering injection, ``cantor_bernstein_merge``,
    would return that one matching unchanged.)
    """
    row_kern = _first_kernel_vector(matrix.transpose())
    if row_kern is not None:
        return _self_check(Dependence.checked, matrix, row_kern, "row")
    if matrix.num_rows != matrix.num_cols:
        return _self_check(Dependence.checked, matrix, _first_kernel_vector(matrix), "col")
    return _self_check(Bijection.checked, matrix, _column_cover(matrix).col_to_row)
