"""Vertex strings, the mu weighting, and rank witnesses.

A string lists distinct vertices of a support graph; a row entry is worth
+1 and a column entry -1.  A string is saturated when every column it lists
has its whole neighbourhood listed earlier.  For infinite strings presented
as eventually-periodic blocks the limit value is a liminf, computed in
closed form from the per-period drift.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Container, Iterable, Sequence, Union

from .bigraph import SupportGraph, Vertex, support_graph
from .elimination import Eliminator
from .field import Raw
from .linalg import SparseMatrix, Vector, _is_index, _self_check, rank, solve

__all__ = [
    "MuValue",
    "SaturatedString",
    "OmegaBlock",
    "OrdinalString",
    "WitnessPair",
    "DependentColumnsError",
    "parse_vertex",
    "parse_string_literal",
    "is_saturated",
    "mu_finite",
    "mu_ordinal",
    "lemma_witness",
    "unlisted_rows_vanish",
]

#: Finite values are ints; the only floats that ever appear are +-math.inf.
MuValue = Union[int, float]

_VERTEX_RE = re.compile(r"([rc])(\d+)")


def parse_vertex(token: str) -> Vertex:
    m = _VERTEX_RE.fullmatch(token.strip())
    if m is None:
        raise ValueError(f"malformed vertex token {token!r}")
    return Vertex(m.group(1), int(m.group(2)))


@dataclass(frozen=True)
class SaturatedString:
    """A finite injective vertex sequence (saturation is checked against a graph)."""

    entries: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("string entries must be distinct")

    @classmethod
    def _trusted(cls, entries: tuple[Vertex, ...]) -> "SaturatedString":
        """The string of ``entries``, which the caller guarantees distinct."""
        s = object.__new__(cls)
        object.__setattr__(s, "entries", entries)
        return s

    @classmethod
    def of(cls, *tokens: str) -> "SaturatedString":
        return cls(tuple(parse_vertex(t) for t in tokens))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def prefix(self, k: int) -> "SaturatedString":
        return SaturatedString(self.entries[:k])

    @property
    def row_range(self) -> frozenset[int]:
        return frozenset(v.index for v in self.entries if v.is_row)

    @property
    def col_range(self) -> frozenset[int]:
        return frozenset(v.index for v in self.entries if v.is_col)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.entries)


@dataclass(frozen=True)
class OmegaBlock:
    """One omega-length piece: a finite preamble, then a pattern repeated forever."""

    pattern: tuple[Vertex, ...]
    preamble: tuple[Vertex, ...] = ()

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("block pattern must be nonempty")


@dataclass(frozen=True)
class OrdinalString:
    """A string of length omega*m + k: m omega-blocks followed by a finite tail.

    Pattern repetitions stand for fresh vertices of a periodically presented
    graph family, so only the side tags of the entries matter here.
    """

    blocks: tuple[OmegaBlock, ...]
    tail: tuple[Vertex, ...] = ()

    def __str__(self) -> str:
        parts = []
        for b in self.blocks:
            pre = " ".join(str(v) for v in b.preamble)
            pat = " ".join(str(v) for v in b.pattern)
            parts.append(f"[{pre} | {pat}]*" if b.preamble else f"[{pat}]*")
        if self.tail:
            parts.append(" ".join(str(v) for v in self.tail))
        return " ".join(parts)


def parse_string_literal(text: str) -> SaturatedString | OrdinalString:
    """Parse whitespace-separated vertex tokens, with optional ``[pre | pat]*`` blocks."""
    s = text.strip()
    if "[" not in s:
        return SaturatedString(tuple(parse_vertex(t) for t in s.split()))
    blocks = []
    while s.startswith("["):
        end = s.find("]")
        if end < 0 or not s.startswith("]*", end):
            raise ValueError("unterminated block, expected ']*'")
        inner = s[1:end]
        s = s[end + 2:].lstrip()
        if "|" in inner:
            pre_text, _, pat_text = inner.partition("|")
        else:
            pre_text, pat_text = "", inner
        pre = tuple(parse_vertex(t) for t in pre_text.split())
        pat = tuple(parse_vertex(t) for t in pat_text.split())
        blocks.append(OmegaBlock(pattern=pat, preamble=pre))
    if "[" in s:
        raise ValueError("blocks must precede the tail")
    tail = tuple(parse_vertex(t) for t in s.split())
    return OrdinalString(tuple(blocks), tail)


def _require_vertices(entries: Iterable[Vertex], rows: Container[int],
                      cols: Container[int]) -> int:
    """Raise on the first entry whose index is not among ``rows`` (row entries)
    or ``cols`` (column entries); return mu, the row entries less the columns."""
    mu = 0
    for side, index in entries:
        mu += 1 if side == "r" else -1
        if index not in (rows if side == "r" else cols):
            raise ValueError(f"vertex {side}{index} is not in the graph")
    return mu


def is_saturated(graph: SupportGraph, string: SaturatedString | Sequence[Vertex]) -> bool:
    """True iff the entries are distinct and every listed column's neighbourhood
    appears earlier in the string."""
    entries = tuple(string.entries if isinstance(string, SaturatedString) else string)
    adj = graph.adj
    _require_vertices(entries, graph.radj, adj)
    if len(set(entries)) != len(entries):
        return False
    earlier_rows: set[int] = set()
    for side, index in entries:
        if side == "r":
            earlier_rows.add(index)
        elif not earlier_rows.issuperset(adj[index]):
            return False
    return True


def _step(value: MuValue, v: Vertex) -> MuValue:
    return value + 1 if v.is_row else value - 1


def mu_finite(graph: SupportGraph, string: SaturatedString) -> int:
    """Row entries count +1, column entries -1; finite strings sum to an int."""
    return _require_vertices(string.entries, graph.radj, graph.adj)


def mu_ordinal(string: OrdinalString) -> MuValue:
    """Value of an eventually-periodic string, with liminf at each omega limit.

    Entering a limit with a finite value, the pattern's net drift d decides:
    d < 0 gives -inf, d > 0 gives +inf, and d = 0 gives the minimum value
    attained at the offsets of the repeating cycle.  Infinite values pass
    through every later step unchanged.
    """
    value: MuValue = 0
    for block in string.blocks:
        for v in block.preamble:
            value = _step(value, v)
        if isinstance(value, float) and math.isinf(value):
            continue
        psums = [0]
        for v in block.pattern:
            psums.append(psums[-1] + (1 if v.is_row else -1))
        drift = psums[-1]
        if drift < 0:
            value = -math.inf
        elif drift > 0:
            value = math.inf
        else:
            value = value + min(psums[:-1])
    for v in string.tail:
        value = _step(value, v)
    return value


def unlisted_rows_vanish(matrix: SparseMatrix, string: SaturatedString) -> bool:
    """True iff every matrix row absent from the string is zero on the string's columns.

    For saturated strings this always holds: a column can only be listed once
    its whole support is, so entries outside the listed rows vanish.
    """
    listed_rows = string.row_range
    listed_cols = string.col_range
    for i in range(matrix.num_rows):
        if i in listed_rows:
            continue
        if not listed_cols.isdisjoint(matrix._cells[i]):
            return False
    return True


@dataclass(frozen=True)
class WitnessPair:
    """Finite sets (rows, cols) with mu(f) = |rows| - rank of the restriction."""

    rows: frozenset[int]
    cols: frozenset[int]

    @classmethod
    def checked(cls, matrix: SparseMatrix, string: SaturatedString,
                rows: Iterable[int], cols: Iterable[int]) -> "WitnessPair":
        rset, cset = frozenset(rows), frozenset(cols)
        if not (rset <= string.row_range and all(map(_is_index, rset))):
            raise ValueError("witness rows outside the string's row range")
        if not (cset <= string.col_range and all(map(_is_index, cset))):
            raise ValueError("witness cols outside the string's column range")
        # the support graph's vertices are exactly the matrix's rows and columns
        mu = _require_vertices(string.entries, range(matrix.num_rows), range(matrix.num_cols))
        r = rank(matrix.submatrix(sorted(rset), sorted(cset)))
        if mu != len(rset) - r:
            raise ValueError(f"witness identity fails: mu {mu} != {len(rset)} - {r}")
        return cls(rset, cset)


class DependentColumnsError(ValueError):
    """Raised when witness extraction stumbles on a kernel vector.

    The offending vector (over the matrix columns) is attached.
    """

    def __init__(self, message: str, kernel_vector: Vector):
        super().__init__(message)
        self.kernel_vector = kernel_vector


def lemma_witness(matrix: SparseMatrix, string: SaturatedString,
                  base_rows: Iterable[int] = ()) -> WitnessPair:
    """Extract a rank witness for a saturated string by replaying it.

    Every row entry joins the witness row set without changing the rank of
    the restriction (its earlier-column entries are all zero).  Every column
    entry must be independent of the earlier listed columns: the columns are
    fed, as vectors over the rows, into one elimination, and since each
    one's support lies inside the rows listed before it, the rank steps up
    by one exactly when it is independent.  If some column turns out
    dependent instead, the sub-system on the listed rows and earlier columns
    is solved once, and its unique solution is converted into a kernel
    vector of the full matrix, verified, and raised as a
    ``DependentColumnsError``.
    """
    graph = support_graph(matrix)
    if not is_saturated(graph, string):
        raise ValueError("string is not saturated for this matrix")
    base = frozenset(base_rows)
    if not base <= string.row_range:
        raise ValueError("base rows must appear in the string")
    running = 0
    for k, v in enumerate(string.entries):
        if running < 0:
            raise ValueError(f"mu of the prefix of length {k} is negative")
        running = _step(running, v)
    spec = matrix.spec
    columns: dict[int, dict[int, Raw]] = {j: {} for j in string.col_range}
    for i in string.row_range:
        for j, v in matrix._cells[i].items():
            if (column := columns.get(j)) is not None:
                column[i] = v
    elim = Eliminator(spec, track=False)
    listed_rows: list[int] = []
    listed_cols: list[int] = []
    for v in string.entries:
        if v.is_row:
            listed_rows.append(v.index)
            continue
        j0 = v.index
        column = columns[j0]
        elim.feed(column, spec.zero)
        if elim.rank > len(listed_cols):
            listed_cols.append(j0)
            continue
        rows_now = sorted(listed_rows)
        cols_now = sorted(listed_cols)
        rhs = Vector.from_pairs(spec, len(rows_now),
                                ((pos, column[i]) for pos, i in enumerate(rows_now)
                                 if i in column))
        outcome = solve(matrix.submatrix(rows_now, cols_now), rhs)
        if not isinstance(outcome, Vector):
            raise AssertionError(f"dependent column c{j0} has no solution on the listed rows")
        cells = {cols_now[pos]: v for pos, v in outcome._cells.items()}
        cells[j0] = spec.neg(spec.one)
        lam = Vector.from_pairs(spec, matrix.num_cols, cells.items())
        if not matrix.mul_vector(lam).is_zero:
            raise AssertionError("dependent-column kernel vector failed verification")
        raise DependentColumnsError(f"column c{j0} depends on the earlier listed columns", lam)
    return _self_check(WitnessPair.checked, matrix, string, listed_rows, listed_cols)
