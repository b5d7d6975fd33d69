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
from itertools import compress
from typing import Container, Iterable, Sequence, Union

from .bigraph import SupportGraph, Vertex, _raw_vertex
from .field import _is_index
from .linalg import SparseMatrix, Vector, _box_view, _first_kernel_vector, _self_check, rank

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
    """A finite injective vertex sequence (saturation is checked against a graph).

    Stored raw, one int per vertex: row i is ``i`` and column j is ``~j``.
    ``entries`` is boxed into ``Vertex`` objects on first access and cached,
    as a ``Vector``'s is; the library reads the raw form.  The public
    constructor checks every entry as ``Vertex`` does; internal builders
    skip the checks via ``_trusted``.
    """

    entries: tuple[Vertex, ...]
    _VIEW = "entries"
    __getattr__ = _box_view

    def __post_init__(self) -> None:
        raw = tuple(_raw_vertex(side, index) for side, index in self.entries)
        if len(set(raw)) != len(raw):
            raise ValueError("string entries must be distinct")
        object.__setattr__(self, "_raw", raw)

    @classmethod
    def _trusted(cls, raw: tuple[int, ...]) -> "SaturatedString":
        """The string of raw vertices ``raw``, which the caller guarantees distinct."""
        s = object.__new__(cls)
        object.__setattr__(s, "_raw", raw)
        return s

    def _boxed(self) -> tuple[Vertex, ...]:
        new = tuple.__new__
        return tuple(new(Vertex, ("r", v) if v >= 0 else ("c", ~v)) for v in self._raw)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __reduce__(self):
        return type(self), (self.entries,)

    @classmethod
    def of(cls, *tokens: str) -> "SaturatedString":
        return cls(tuple(parse_vertex(t) for t in tokens))

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self):
        return iter(self.entries)

    def prefix(self, k: int) -> "SaturatedString":
        return SaturatedString._trusted(self._raw[:k])

    @property
    def row_range(self) -> frozenset[int]:
        return frozenset(v for v in self._raw if v >= 0)

    @property
    def col_range(self) -> frozenset[int]:
        return frozenset(~v for v in self._raw if v < 0)

    def __str__(self) -> str:
        return " ".join(f"r{v}" if v >= 0 else f"c{~v}" for v in self._raw)


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


def _require_vertices(raw: Iterable[int], rows: Container[int],
                      cols: Container[int]) -> int:
    """Raise on the first raw vertex that is not a row among ``rows`` or a
    column among ``cols``; return mu, the row entries less the columns."""
    mu = 0
    for v in raw:
        if v >= 0:
            mu += 1
            if v not in rows:
                raise ValueError(f"vertex r{v} is not in the graph")
        else:
            mu -= 1
            if ~v not in cols:
                raise ValueError(f"vertex c{~v} is not in the graph")
    return mu


def is_saturated(graph: SupportGraph, string: SaturatedString | Sequence[Vertex]) -> bool:
    """True iff the entries are distinct and every listed column's neighbourhood
    appears earlier in the string.

    A ``SaturatedString``'s entries are distinct by construction; a plain
    sequence is checked as the ``SaturatedString`` constructor checks it,
    except that a repeated vertex gives False."""
    if isinstance(string, SaturatedString):
        raw, distinct = string._raw, True
    else:
        raw = tuple(_raw_vertex(side, index) for side, index in string)
        distinct = len(set(raw)) == len(raw)
    adj = graph.adj
    _require_vertices(raw, graph.radj, adj)
    if not distinct:
        return False
    earlier_rows: set[int] = set()
    for v in raw:
        if v >= 0:
            earlier_rows.add(v)
        elif not earlier_rows.issuperset(adj[~v]):
            return False
    return True


def _saturated_in(matrix: SparseMatrix, raw: tuple[int, ...]) -> bool:
    """``is_saturated`` for ``raw``, distinct raw vertices of ``matrix``,
    read off its rows in one pass over the nonzeros with no support graph:
    a nonzero at (i, j) with column j listed needs row i listed before j."""
    at = {v: k for k, v in enumerate(raw)}
    end = len(raw)          # the position of every unlisted vertex
    cells = matrix._cells
    for i in compress(range(matrix.num_rows), cells):
        k = at.get(i, end)
        for j in cells[i]:
            if at.get(~j, end) < k:
                return False
    return True


def _step(value: MuValue, v: Vertex) -> MuValue:
    return value + 1 if v.is_row else value - 1


def mu_finite(graph: SupportGraph, string: SaturatedString) -> int:
    """Row entries count +1, column entries -1; finite strings sum to an int."""
    return _require_vertices(string._raw, graph.radj, graph.adj)


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
        mu = _require_vertices(string._raw, range(matrix.num_rows), range(matrix.num_cols))
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
    """Extract a rank witness for a saturated string: I' is every listed row
    and J' every listed column, unless some listed column depends on the
    columns listed before it.

    Saturation puts each listed column's support inside the listed rows, so
    the listed columns are restricted to those rows, in string order, and
    one kernel vector of that restriction decides.  A column is a pivot
    exactly when it is independent of the columns before it, so the lowest
    free column is the first dependent one, j0.  Its kernel vector lives on
    j0 and the pivots before it, which are independent, so it is the unique
    combination with -1 at j0; scaled so, it is verified against the full
    matrix (``A lam = 0``) and raised as a ``DependentColumnsError``.  With
    no free column every listed column is independent, and the pair is
    checked before it is returned.  Saturation is checked on the matrix's
    nonzeros, so nothing is built per column of a wide matrix.
    """
    raw = string._raw
    _require_vertices(raw, range(matrix.num_rows), range(matrix.num_cols))
    if not _saturated_in(matrix, raw):
        raise ValueError("string is not saturated for this matrix")
    base = frozenset(base_rows)
    if not all(map(_is_index, base)):
        raise ValueError("base rows must be ints")
    if not base <= string.row_range:
        raise ValueError("base rows must appear in the string")
    running = 0
    for k, v in enumerate(raw):
        if running < 0:
            raise ValueError(f"mu of the prefix of length {k} is negative")
        running += 1 if v >= 0 else -1
    listed_rows = [v for v in raw if v >= 0]
    cols = [~v for v in raw if v < 0]
    local = _first_kernel_vector(matrix.submatrix(listed_rows, cols))
    if local is None:
        return _self_check(WitnessPair.checked, matrix, string, listed_rows, cols)
    spec, free = matrix.spec, max(local._cells)
    scale = spec.neg(spec.inv(local._cells[free]))
    lam = Vector.from_pairs(spec, matrix.num_cols, ((cols[pos], spec.mul(scale, v))
                                                    for pos, v in local._cells.items()))
    if not matrix.mul_vector(lam).is_zero:
        raise AssertionError("dependent-column kernel vector failed verification")
    raise DependentColumnsError(f"column c{cols[free]} depends on the earlier listed columns", lam)
