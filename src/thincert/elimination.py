"""Incremental exact Gaussian elimination with optional row provenance.

Rows arrive one at a time as sparse {column: raw value} dicts.  A tracking
eliminator makes each reduced row remember the combination of original rows
it was built from, so a row that vanishes with a nonzero right-hand side
hands back a ready-made refutation combination.  Callers that only need the
row space (rank, kernels) turn tracking off and skip that bookkeeping.
Pivots are deterministic: rows are processed in arrival order and a
surviving row pivots on its lowest column index.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .field import FieldSpec, Raw


class ReducedRow:
    __slots__ = ("cells", "rhs", "combo")

    def __init__(self, cells: dict[int, Raw], rhs: Raw, combo: dict[int, Raw]):
        self.cells = cells      # column -> value, pivot column min(cells) holds one
        self.rhs = rhs
        self.combo = combo      # original row index -> coefficient; {} untracked


class Eliminator:
    """Echelon state over a growing list of rows.

    With ``track`` every pivot row carries its provenance combination; without
    it ``combo`` stays empty and refutations carry no combination.
    """

    __slots__ = ("spec", "pivots", "rows_seen", "track")

    def __init__(self, spec: FieldSpec, track: bool = True):
        self.spec = spec
        self.pivots: dict[int, ReducedRow] = {}
        self.rows_seen = 0
        self.track = track

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def feed(self, cells: dict[int, Raw], rhs: Raw) -> dict[int, Raw] | None:
        """Reduce one row against the current pivots.

        Returns the provenance combination (empty when untracked) when the
        row vanishes with a nonzero right-hand side (a contradiction), and
        None otherwise.  A surviving row is registered as a new pivot, scaled
        to a unit lead.  ``cells`` is never mutated.
        """
        spec = self.spec
        zero = spec.zero
        pivots = self.pivots
        k = self.rows_seen
        self.rows_seen = k + 1
        row = {c: v for c, v in cells.items() if v != 0}
        combo: dict[int, Raw] = {k: spec.one} if self.track else {}
        # Min-heap of the row's pivot columns; a column is pushed when it
        # enters the row, and an entry whose column has cancelled is skipped.
        # Reducing by the pivot at h only touches columns above h, so the row
        # is always reduced at its lowest pivot column first.
        heap = [c for c in row if c in pivots]
        heapify(heap)
        while heap:
            hit = heappop(heap)
            factor = row.pop(hit, None)
            if factor is None:
                continue
            piv = pivots[hit]
            for c, v in piv.cells.items():
                if c == hit:
                    continue
                old = row.get(c)
                if old is None:
                    row[c] = spec.sub(zero, spec.mul(factor, v))
                    if c in pivots:
                        heappush(heap, c)
                else:
                    w = spec.sub(old, spec.mul(factor, v))
                    if w == 0:
                        del row[c]
                    else:
                        row[c] = w
            rhs = spec.sub(rhs, spec.mul(factor, piv.rhs))
            for i, y in piv.combo.items():
                w = spec.sub(combo.get(i, zero), spec.mul(factor, y))
                if w == 0:
                    combo.pop(i, None)
                else:
                    combo[i] = w
        if row:
            lead_col = min(row)
            lead = row[lead_col]
            if lead != spec.one:
                scale = spec.inv(lead)
                row = {c: spec.mul(scale, v) for c, v in row.items()}
                rhs = spec.mul(scale, rhs)
                combo = {i: spec.mul(scale, y) for i, y in combo.items()}
            pivots[lead_col] = ReducedRow(row, rhs, combo)
            return None
        if rhs != 0:
            return combo
        return None

    def solution(self) -> dict[int, Raw]:
        """Back-substitute a solution with every free variable set to zero."""
        spec = self.spec
        x: dict[int, Raw] = {}
        for c in sorted(self.pivots, reverse=True):
            r = self.pivots[c]
            acc = r.rhs
            for cc, v in r.cells.items():
                if cc == c:
                    continue
                xv = x.get(cc)
                if xv is not None:
                    acc = spec.sub(acc, spec.mul(v, xv))
            if acc != 0:
                x[c] = acc
        return x

    def reduced_pivots(self) -> dict[int, dict[int, Raw]]:
        """Fully back-reduced pivot rows with unit leading entries.

        The result is the unique reduced echelon basis of the row space, so
        anything derived from it is canonical regardless of feed order.
        """
        spec = self.spec
        reduced: dict[int, dict[int, Raw]] = {}
        for c in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[c].cells)
            for cc in [x for x in row if x != c and x in self.pivots]:
                # cc > c, already reduced; its row has a unit lead and only
                # free columns elsewhere, so no new pivot columns appear.
                factor = row.pop(cc)
                for c2, v2 in reduced[cc].items():
                    if c2 == cc:
                        continue
                    w = spec.sub(row.get(c2, spec.zero), spec.mul(factor, v2))
                    if w == 0:
                        row.pop(c2, None)
                    else:
                        row[c2] = w
            reduced[c] = row
        return reduced
