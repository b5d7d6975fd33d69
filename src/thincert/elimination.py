"""Incremental exact Gaussian elimination with optional row provenance.

Rows arrive one at a time as sparse {column: raw value} dicts.  A tracking
eliminator, which only ``StreamState`` builds, keeps for each pivot row the
trail of its reduction (the L factor): its own row index, the pivot columns
it was reduced by with their field-valued multipliers, and one scale, so
that the stored row is ``scale * (row own - sum of combo[c] * pivot row c)``.
A row that vanishes with a nonzero right-hand side expands its trail once
into the refutation combination of original rows.  ``linalg`` keeps no
trail: it reads a refutation off an elimination of the transpose of the rows
the combination can use.
Elimination is forward only: a row is reduced while its lowest column has a
pivot, and the first column without one leads it; pivot columns above the
lead are left for back-substitution and ``reduced_pivots``.  Pivot columns
are those of the unique reduced echelon form, so they, ``reduced_pivots``,
``kernel_vector`` and ``solution`` do not depend on row order; only a
refutation combination does.  They do depend on the order of the column
labels, which the caller chooses: ``linalg`` labels columns in a
fill-reducing order, and then feeds kernel vectors to a second eliminator
under labels that reverse the column order, whose ``reduced_pivots`` are the
index-order kernel vectors.  ``StreamState`` labels each column by its index.

One loop reduces over both fields on plain ``int`` values, by the
fraction-free step ``row = a*row - b*pivot`` with ``a`` the pivot's lead.
Over GF(p) a pivot row is scaled to a unit lead when registered, so ``a`` is
one, and the step is not reduced: an entry is reduced mod p once, when it
comes up as the row's lowest column, the right-hand side once after the
loop, and a surviving row once, as it is scaled to a unit lead.  Between
reductions an entry stays below (steps + 1) * p^2 in absolute value.  An
entry that cancels stays in the row as a zero, over both fields; it is
dropped when it comes up, or when the row is rebuilt.  Over Q a row is
cleared of denominators and divided after each step by the gcd of row and
right-hand side; a pivot row keeps a positive integer lead.  The trail does
not enter that gcd, so a tracked pivot row equals an untracked one; over Q
its multipliers and scale are ``Fraction``s, built only when tracking.
Every pivot row is proportional to its unit-lead form, so pivot columns,
``solution`` and ``reduced_pivots`` (which divide by the lead) and
refutations (scaled to coefficient one on the row fed) equal those of
unit-lead elimination.
Back-substitution and ``reduced_pivots`` stay on integers too: a vector is
integer numerators over one common denominator, and a reduced row is divided
by its lead once, as it is emitted; ``Fraction``s are built only for the
result.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable

from .field import FieldSpec, Raw


def _divided(row: dict[int, int], rhs: int, g: int) -> tuple[dict[int, int], int]:
    """An integer row and right-hand side divided exactly by ``g``, without
    the row's zeros (entries that cancelled and linger in the row)."""
    return {c: v // g for c, v in row.items() if v}, rhs // g


class ReducedRow:
    __slots__ = ("cells", "rhs", "combo", "own", "scale")

    def __init__(self, cells: dict[int, Raw], rhs: Raw, combo: dict[int, Raw],
                 own: int, scale: Raw):
        # column -> value; the pivot column min(cells) holds one over GF(p),
        # a positive integer lead over Q (where every value is an int)
        self.cells = cells
        self.rhs = rhs
        # The trail, {} untracked: pivot column c -> multiplier, a raw field
        # value.  The row is scale * (row ``own`` - sum of combo[c] * pivot
        # row c).
        self.combo = combo
        self.own = own
        self.scale = scale


class Eliminator:
    """Echelon state over a growing list of rows.

    With ``track`` (streams only) every pivot row carries its trail; without
    it ``combo`` stays empty and a refutation carries no combination.
    """

    __slots__ = ("spec", "pivots", "rows_seen", "track")

    def __init__(self, spec: FieldSpec, track: bool = True):
        self.spec = spec
        self.pivots: dict[int, ReducedRow] = {}
        self.rows_seen = 0      # provenance index of the next row
        self.track = track

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def feed(self, cells: dict[int, Raw], rhs: Raw) -> dict[int, Raw] | None:
        """Reduce one row, lowest column first, until that column has no pivot.

        Returns the provenance combination, expanded from the trails (empty
        when untracked), when the row vanishes with a nonzero right-hand side
        (a contradiction), and None otherwise; a combination gives the row
        fed coefficient one.  A surviving row is registered as a new pivot,
        scaled to a unit lead over GF(p) and to a primitive integer row with
        a positive lead over Q.  ``cells`` is never mutated.
        """
        p = self.spec.modulus
        pivots = self.pivots
        track = self.track
        k = self.rows_seen
        self.rows_seen = k + 1
        # The row equals s * (row k - sum of trail[c] * pivot row c).
        trail: dict[int, Raw] = {}
        s = 1
        if p is None:
            m = lcm(rhs.denominator, *[v.denominator for v in cells.values()])
            row = {c: n for c, v in cells.items() if (n := v.numerator * (m // v.denominator))}
            rhs = rhs.numerator * (m // rhs.denominator)
            g = gcd(*row.values(), rhs) or 1
            if g > 1:
                row, rhs = _divided(row, rhs, g)
            if track:
                s = Fraction(m, g)
        else:
            row = dict(cells)
        # Min-heap of the row's columns, pushed as they enter the row.  An
        # entry that cancels stays in the row as a zero, so over GF(p) each
        # column is pushed once.  An entry is reduced mod p only when it
        # reaches the top, and one that is zero there is dropped.  Reducing
        # by the pivot at h only touches columns above h, so the top nonzero
        # entry is the row's lowest column.  The first one without a pivot
        # leads the row.
        heap = list(row)
        heapify(heap)
        while heap:
            hit = heappop(heap)
            b = row.get(hit)
            if b is None:       # over Q only: dropped by ``_divided``
                continue
            if p is not None:
                b %= p
            if not b:
                del row[hit]
                continue
            piv = pivots.get(hit)
            if piv is None:
                break
            del row[hit]
            a = piv.cells[hit]
            if a != 1:          # over Q only: a GF(p) pivot has a unit lead
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    row = {c: a * v for c, v in row.items()}
                    rhs *= a
            # row = a*row - b*pivot, not reduced mod p
            nb = -b
            for c, v in piv.cells.items():
                if c == hit:
                    continue
                old = row.get(c)
                if old is None:
                    row[c] = nb * v
                    heappush(heap, c)
                else:
                    row[c] = old + nb * v
            rhs += nb * piv.rhs
            if p is None:
                g = gcd(*row.values(), rhs) or 1
                if g > 1:
                    row, rhs = _divided(row, rhs, g)
                if track:
                    trail[hit] = b / (a * s)
                    s = s * a / g
            elif track:
                trail[hit] = b
        if p is not None:
            rhs %= p
        if row:         # the loop stopped at the lead column ``hit``, of value b
            if p is None:
                if b < 0:
                    row, rhs = _divided(row, rhs, -1)
                    s = -s
                elif not all(row.values()):
                    row = {c: v for c, v in row.items() if v}
            else:
                if b != 1:
                    s = self.spec.inv(b)
                    rhs = s * rhs % p
                row = {c: w for c, v in row.items() if (w := s * v % p)}
            pivots[hit] = ReducedRow(row, rhs, trail, k, s)
            return None
        if rhs == 0:
            return None
        return self._expand(k, trail) if track else {}

    def _expand(self, k: int, trail: dict[int, Raw]) -> dict[int, Raw]:
        """The combination of row ``k`` minus trail[c] times the combination
        of pivot row c, as {row index: coefficient}.

        A sparse triangular solve: the pivots reached are visited from the
        highest column down, since a trail names only pivot columns below
        its lead, so a pivot's weight is complete when it is visited.  Each
        pivot contributes to its own row alone."""
        p = self.spec.modulus
        pivots = self.pivots
        weights = {c: -b for c, b in trail.items()}
        heap = [-c for c in weights]
        heapify(heap)
        out = {k: self.spec.one}
        while heap:
            c = -heappop(heap)
            r = pivots[c]
            y = weights.pop(c) * r.scale
            if p is not None:
                y %= p
            if not y:
                continue
            out[r.own] = y
            for cc, b in r.combo.items():
                w = weights.get(cc)
                if w is None:
                    weights[cc] = -y * b
                    heappush(heap, -cc)
                else:
                    weights[cc] = w - y * b
        return out

    def solution(self) -> dict[int, Raw]:
        """Back-substitute a solution with every free variable set to zero."""
        return self._back_substitute({}, self.pivots, homogeneous=False)

    def kernel_vector(self, free: int) -> dict[int, Raw]:
        """The kernel vector of the pivot rows (right-hand sides ignored) that
        is one at the free column ``free`` and zero at every other free
        column: the vector ``reduced_pivots`` gives for ``free``.  A pivot
        row above ``free`` only meets columns where that vector is zero, so
        only the pivots below ``free`` are back-substituted."""
        return self._back_substitute({free: 1}, [c for c in self.pivots if c < free],
                                     homogeneous=True)

    def _back_substitute(self, x: dict[int, int], cols: Iterable[int],
                         homogeneous: bool) -> dict[int, Raw]:
        """Fill ``x`` at the pivot columns ``cols``, highest first.  Over Q
        ``x`` holds integers over one common denominator ``d``, widened (and
        ``x`` rescaled) only when a lead does not divide its sum."""
        p = self.spec.modulus
        d = 1
        for c in sorted(cols, reverse=True):
            r = self.pivots[c]
            acc = 0 if homogeneous else r.rhs * d
            for cc, v in r.cells.items():
                if cc != c and (xv := x.get(cc)) is not None:
                    acc -= v * xv
            if p is not None:
                if acc := acc % p:
                    x[c] = acc      # a GF(p) pivot has a unit lead
            elif acc:
                a = r.cells[c]
                g = gcd(acc, a)
                if a != g:
                    x = {k: a // g * v for k, v in x.items()}
                    d *= a // g
                x[c] = acc // g
        return x if p is not None else {k: Fraction(v, d) for k, v in x.items()}

    def reduced_pivots(self) -> dict[int, dict[int, Raw]]:
        """Fully back-reduced pivot rows with unit leading entries.

        The result is the unique reduced echelon basis of the row space, so
        anything derived from it is canonical regardless of feed order.  Rows
        are back-reduced as integer rows (primitive over Q) and divided by
        their leads only as each is emitted.
        """
        p = self.spec.modulus
        pivots = self.pivots
        ints: dict[int, dict[int, int]] = {}
        reduced: dict[int, dict[int, Raw]] = {}
        for c in sorted(pivots, reverse=True):
            row = dict(pivots[c].cells)
            # Each cc > c is already reduced: its row holds only free columns
            # besides cc, so no new pivot columns appear.
            hits = [cc for cc in row if cc != c and cc in pivots]
            if p is None and hits and (m := lcm(*[ints[cc][cc] for cc in hits])) != 1:
                row = {k: m * v for k, v in row.items()}
            for cc in hits:
                done = ints[cc]
                f = row.pop(cc) if p is not None else row.pop(cc) // done[cc]
                for c2, v2 in done.items():
                    if c2 != cc:
                        w = row.get(c2, 0) - f * v2 if p is None else (row.get(c2, 0) - f * v2) % p
                        if w:
                            row[c2] = w
                        else:
                            row.pop(c2, None)
            if p is None and (g := gcd(*row.values())) > 1:
                row = {k: v // g for k, v in row.items()}
            ints[c] = row
            reduced[c] = row if p is not None else {k: Fraction(v, row[c]) for k, v in row.items()}
        return reduced
