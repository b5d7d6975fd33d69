"""Incremental consistency checking for equation rows arriving one at a time.

The column universe grows as new column indices appear.  Solvability status
is monotone: once some prefix is refuted the status latches, though later
rows are still accepted.  The refutation core comes straight from the
elimination provenance, and its row combination is checked on the core's
rows alone before it is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .elimination import Eliminator
from .field import FieldElement, FieldSpec, Raw
from .linalg import SparseMatrix, UnsolvabilityCertificate, Vector, _row_products, _self_check

__all__ = ["AllPrefixesSolvable", "UnsolvableAt", "StreamStatus", "StreamState"]


@dataclass(frozen=True)
class AllPrefixesSolvable:
    """Every prefix pushed so far admits a solution."""


@dataclass(frozen=True)
class UnsolvableAt:
    """The first ``prefix_len`` rows are unsolvable; ``core`` refutes on its own."""

    prefix_len: int
    core: frozenset[int]


StreamStatus = Union[AllPrefixesSolvable, UnsolvableAt]


class StreamState:
    """Single-writer accumulator of equation rows over one field."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.num_cols = 0
        self.status: StreamStatus = AllPrefixesSolvable()
        self._elim = Eliminator(spec)
        self._rows: list[tuple[dict[int, Raw], Raw]] = []

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def is_solvable(self) -> bool:
        return isinstance(self.status, AllPrefixesSolvable)

    def push(self, row: Iterable[tuple[int, FieldElement]], rhs: FieldElement) -> "StreamState":
        """Append one equation; updates the eliminated form and the status."""
        cells: dict[int, Raw] = {}
        top = self.num_cols
        for col, el in row:
            if not isinstance(col, int) or isinstance(col, bool) or col < 0:
                raise ValueError(f"bad column index {col!r}")
            if col in cells:
                raise ValueError(f"duplicate column {col}")
            cells[col] = self.spec.coerce(el)
            top = max(top, col + 1)
        rhs_raw = self.spec.coerce(rhs)
        self.num_cols = top
        cells = {c: v for c, v in cells.items() if v != 0}
        self._rows.append((cells, rhs_raw))
        combo = self._elim.feed(cells, rhs_raw)
        if combo is not None and self.is_solvable:
            self._verify_core(combo)
            self.status = UnsolvableAt(len(self._rows), frozenset(combo))
        return self

    def _verify_core(self, combo: dict[int, Raw]) -> None:
        """Check the combination ``combo`` ({row: coefficient}) as an
        unsolvability certificate of the core's rows alone."""
        spec, core = self.spec, sorted(combo)
        rows = [self._rows[i] for i in core]
        sub = SparseMatrix._trusted(spec, len(core), self.num_cols, {
            pos: dict(sorted(cells.items())) for pos, (cells, _) in enumerate(rows)})
        rhs = Vector.from_pairs(spec, len(core), ((pos, b) for pos, (_, b) in enumerate(rows)))
        y = Vector.from_pairs(spec, len(core), ((pos, combo[i]) for pos, i in enumerate(core)))
        _self_check(UnsolvabilityCertificate.checked, sub, rhs, y)

    def solution(self) -> Vector:
        """A solution of everything pushed so far, free variables zero."""
        if not self.is_solvable:
            raise ValueError("stream has an unsolvable prefix")
        x = self._elim.solution()
        if _row_products(self.spec, [cells for cells, _ in self._rows], x) != {
                i: b for i, (_, b) in enumerate(self._rows) if b}:
            raise AssertionError("stream solution failed verification")
        return Vector.from_pairs(self.spec, self.num_cols, x.items())
