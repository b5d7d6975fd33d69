"""Incremental consistency checking for equation rows arriving one at a time.

The column universe grows as new column indices appear.  Solvability status
is monotone: once some prefix is refuted the status latches; later rows are
still accepted and reduced.  The refutation core comes straight from the
elimination provenance, its row combination is checked as a certificate of
the whole prefix, and the stored prefix is then dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .elimination import Eliminator
from .field import FieldElement, FieldSpec, Raw, _is_index
from .linalg import (SparseMatrix, UnsolvabilityCertificate, Vector, _self_check,
                     _verified_solution)

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
        self.num_cols = self.num_rows = 0
        self.status: StreamStatus = AllPrefixesSolvable()
        self._elim = Eliminator(spec)
        # The prefix until the latch: {row: cells in column order}, {row: nonzero rhs}.
        self._rows: dict[int, dict[int, Raw]] | None = {}
        self._rhs: dict[int, Raw] | None = {}

    @property
    def is_solvable(self) -> bool:
        return isinstance(self.status, AllPrefixesSolvable)

    def push(self, row: Iterable[tuple[int, FieldElement]], rhs: FieldElement) -> "StreamState":
        """Append one equation; updates the eliminated form and the status."""
        cells: dict[int, Raw] = {}
        top = self.num_cols
        for col, el in row:
            if not _is_index(col) or col < 0:
                raise ValueError(f"bad column index {col!r}")
            if col in cells:
                raise ValueError(f"duplicate column {col}")
            cells[col] = self.spec.coerce(el)
            top = max(top, col + 1)
        rhs_raw = self.spec.coerce(rhs)
        self.num_cols = top
        cells = {c: v for c, v in cells.items() if v != 0}
        if self.is_solvable:
            self._rows[self.num_rows] = dict(sorted(cells.items()))
            if rhs_raw:
                self._rhs[self.num_rows] = rhs_raw
        self.num_rows += 1
        combo = self._elim.feed(cells, rhs_raw)
        if combo is not None and self.is_solvable:
            self._verify_core(combo)
            self.status = UnsolvableAt(self.num_rows, frozenset(combo))
            self._rows = self._rhs = None
        return self

    def _system(self) -> tuple[SparseMatrix, Vector]:
        """The prefix pushed so far as the system A x = b."""
        return (SparseMatrix._trusted(self.spec, self.num_rows, self.num_cols, self._rows),
                Vector._trusted(self.spec, self.num_rows, self._rhs))

    def _verify_core(self, combo: dict[int, Raw]) -> None:
        """Check ``combo`` ({row: coefficient}) as an unsolvability certificate
        of the whole prefix, as ``unsolvable_core`` checks its own."""
        a, b = self._system()
        y = Vector.from_pairs(self.spec, a.num_rows, combo.items())
        _self_check(UnsolvabilityCertificate.checked, a, b, y)

    def solution(self) -> Vector:
        """A solution of everything pushed so far, free variables zero."""
        if not self.is_solvable:
            raise ValueError("stream has an unsolvable prefix")
        return _verified_solution(*self._system(), self._elim.solution())
