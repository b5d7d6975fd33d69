"""Sparse vectors and matrices over an exact field, with certifying solvers.

Every answer that leaves this module is re-checked against its defining
equation before it is returned: solutions multiply back, kernel vectors
annihilate the matrix, and unsolvability certificates are verified left
null combinations with a nonzero right-hand side.

The canonical answers are defined by the reduced echelon form in
column-index order, but each matrix is eliminated once, in a fill-reducing
column order (``_feed_all``).  Rank, solvability and the kernel do not
depend on that order; the index-order kernel vectors are rebuilt from the
kernel (``_index_order_kernel``), and solutions from them.  A refutation
depends on row order only, and is found by feeding the rows in index order
(``_refutation``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .elimination import Eliminator
from .field import FieldElement, FieldSpec, Raw, _is_index, common_denominator

__all__ = [
    "Vector",
    "SparseMatrix",
    "UnsolvabilityCertificate",
    "rank",
    "kernel_basis",
    "solve",
    "unsolvable_core",
]

Scalarish = Union[int, Fraction, FieldElement]


def _box_view(self, name: str):
    """``__getattr__`` of ``Vector``, ``SparseMatrix`` and ``SaturatedString``:
    only the boxed view ``_VIEW`` can be missing, on a trusted instance.  Box
    it once and cache it."""
    if name != self._VIEW:
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
    view = self._boxed()
    object.__setattr__(self, name, view)
    return view


def _check_sizes(*sizes: object) -> None:
    """Refuse a dimension or length that is not a nonnegative int (a bool
    or a float is refused as an index is)."""
    for n in sizes:
        if not (_is_index(n) and n >= 0):
            raise ValueError(f"size {n!r} is not a nonnegative int")


def _checked_cells(spec: FieldSpec, pairs: Iterable[tuple[int, FieldElement]],
                   bound: int) -> dict[int, Raw]:
    """The raw cells of public (index, element) pairs, checked: indices are
    ints ascending strictly in [0, bound), elements nonzero and of ``spec``."""
    cells: dict[int, Raw] = {}
    prev = -1
    for idx, el in pairs:
        if not (_is_index(idx) and prev < idx < bound):
            raise ValueError(f"index {idx!r} is not an int above {prev} in range({bound})")
        if el.spec is not spec and el.spec != spec:
            raise ValueError("entry from a different field")
        if not el:
            raise ValueError("explicit zero entry")
        cells[idx] = el.value
        prev = idx
    return cells


@dataclass(frozen=True)
class Vector:
    """Immutable sparse vector: sorted (index, element) pairs, no zeros.

    Stored raw like a ``SparseMatrix`` row; ``entries`` is boxed on first
    access and cached.  Internal builders skip the checks via ``_trusted``.
    """

    spec: FieldSpec
    length: int
    entries: tuple[tuple[int, FieldElement], ...]
    _VIEW = "entries"
    __getattr__ = _box_view

    def __post_init__(self) -> None:
        _check_sizes(self.length)
        object.__setattr__(self, "_cells", _checked_cells(self.spec, self.entries, self.length))

    @classmethod
    def _trusted(cls, spec: FieldSpec, length: int, cells: dict[int, Raw]) -> "Vector":
        """The vector of ``cells``, which pass the public checks, indices ascending."""
        v = object.__new__(cls)
        v.__dict__.update(spec=spec, length=length, _cells=cells)
        return v

    def _boxed(self) -> tuple[tuple[int, FieldElement], ...]:
        spec, box = self.spec, FieldElement._canonical
        return tuple((i, box(spec, v)) for i, v in self._cells.items())

    @classmethod
    def from_pairs(cls, spec: FieldSpec, length: int,
                   pairs: Iterable[tuple[int, Scalarish]]) -> "Vector":
        _check_sizes(length)
        cells: dict[int, Raw] = {}
        for idx, val in pairs:
            if not (_is_index(idx) and 0 <= idx < length):
                raise ValueError(f"index {idx!r} is not in range({length})")
            if idx in cells:
                raise ValueError(f"duplicate index {idx}")
            cells[idx] = spec.coerce(val)
        return cls._trusted(spec, length, {i: v for i, v in sorted(cells.items()) if v != 0})

    @classmethod
    def from_dense(cls, spec: FieldSpec, values: Sequence[Scalarish]) -> "Vector":
        return cls.from_pairs(spec, len(values), enumerate(values))

    @classmethod
    def zero(cls, spec: FieldSpec, length: int) -> "Vector":
        _check_sizes(length)
        return cls._trusted(spec, length, {})

    @property
    def is_zero(self) -> bool:
        return not self._cells

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._cells)

    def get(self, idx: int) -> FieldElement:
        if not (_is_index(idx) and 0 <= idx < self.length):
            raise IndexError(idx)
        return FieldElement._canonical(self.spec, self._cells.get(idx, self.spec.zero))

    def to_dense(self) -> list[FieldElement]:
        return [self.get(i) for i in range(self.length)]

    def raw_cells(self) -> dict[int, Raw]:
        return dict(self._cells)

    def dot(self, other: "Vector") -> FieldElement:
        if other.spec != self.spec or other.length != self.length:
            raise ValueError("dot product needs matching field and length")
        product = _row_products(self.spec, [self._cells], other._cells)
        return FieldElement._canonical(self.spec, product.get(0, self.spec.zero))

    def scaled(self, factor: Scalarish) -> "Vector":
        f = self.spec.coerce(factor)
        return Vector.from_pairs(self.spec, self.length,
                                 ((i, self.spec.mul(f, v)) for i, v in self._cells.items()))

    def __str__(self) -> str:
        out = [str(self.spec.zero)] * self.length
        for i, v in self._cells.items():
            out[i] = str(v)
        return " ".join(out)


#: The row of every matrix with no entries in it: one read-only empty mapping.
_EMPTY_ROW: Mapping[int, Raw] = MappingProxyType({})


def _row_products(spec: FieldSpec, rows: Iterable[Mapping[int, Raw]],
                  x: dict[int, Raw]) -> dict[int, Raw]:
    """Each row times x on raw cells: {row position: nonzero raw value}."""
    p = spec.modulus
    cells, d = (x, 1) if p is not None else common_denominator(x)
    out: dict[int, Raw] = {}
    for i, row in enumerate(rows):
        acc, den = 0, 1     # over Q: acc / (den * d), den the row's lcm so far
        for j, a in row.items():
            if (w := cells.get(j)) is not None:
                if p is not None:
                    acc += a * w
                    continue
                if den % a.denominator:
                    m = a.denominator // gcd(den, a.denominator)
                    acc, den = acc * m, den * m
                acc += a.numerator * (den // a.denominator) * w
        if p is not None:
            if acc := acc % p:
                out[i] = acc
        elif acc:
            out[i] = Fraction(acc, den * d)
    return out


@dataclass(frozen=True)
class SparseMatrix:
    """Row-major sparse matrix; each row is a sorted tuple of (col, element).

    Rows are stored raw: a ``{col: nonzero raw value}`` dict per row, in
    column order, with empty rows sharing one read-only mapping.  ``rows`` is
    boxed from them on first access and cached.  The public constructor takes
    ``rows`` and validates them; internal builders use ``_trusted``.
    """

    spec: FieldSpec
    num_rows: int
    num_cols: int
    rows: tuple[tuple[tuple[int, FieldElement], ...], ...]
    _VIEW = "rows"
    __getattr__ = _box_view

    def __post_init__(self) -> None:
        _check_sizes(self.num_rows, self.num_cols)
        if len(self.rows) != self.num_rows:
            raise ValueError("row count does not match num_rows")
        object.__setattr__(self, "_cells", tuple(
            _checked_cells(self.spec, row, self.num_cols) or _EMPTY_ROW for row in self.rows))

    @classmethod
    def _trusted(cls, spec: FieldSpec, num_rows: int, num_cols: int,
                 per_row: Mapping[int, dict[int, Raw]]) -> "SparseMatrix":
        """The matrix of ``{row: {col: raw value}}`` cells, used as they are.

        The caller has made the public constructor's checks: every index is
        in range, every value is a nonzero raw value canonical for ``spec``,
        and each row's columns ascend.  Absent and empty rows share one
        empty row.
        """
        rows = [_EMPTY_ROW] * num_rows
        for i, cells in per_row.items():
            if cells:
                rows[i] = cells
        m = object.__new__(cls)
        m.__dict__.update(spec=spec, num_rows=num_rows, num_cols=num_cols, _cells=tuple(rows))
        return m

    def _boxed(self) -> tuple[tuple[tuple[int, FieldElement], ...], ...]:
        """The ``rows`` view.  Each stored raw object is boxed once, so entries
        that share a raw value (equal tokens of one file) share an element."""
        spec, box = self.spec, FieldElement._canonical
        elements: dict[int, FieldElement] = {}     # id of a stored raw value -> its box
        out = []
        for row in self._cells:
            pairs = []
            for j, v in row.items():
                el = elements.get(id(v))
                if el is None:
                    el = elements[id(v)] = box(spec, v)
                pairs.append((j, el))
            out.append(tuple(pairs))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.num_rows, self.num_cols, self._cells) == (
            other.spec, other.num_rows, other.num_cols, other._cells)

    def __reduce__(self):
        # The read-only empty row cannot be pickled: rebuild from ``rows``.
        return type(self), (self.spec, self.num_rows, self.num_cols, self.rows)

    @classmethod
    def from_entries(cls, spec: FieldSpec, num_rows: int, num_cols: int,
                     entries: Mapping[tuple[int, int], Scalarish]
                     | Iterable[tuple[int, int, Scalarish]]) -> "SparseMatrix":
        _check_sizes(num_rows, num_cols)
        if isinstance(entries, Mapping):
            items: Iterable[tuple[int, int, Scalarish]] = (
                (i, j, v) for (i, j), v in entries.items())
        else:
            items = entries
        per_row: dict[int, list[tuple[int, Scalarish]]] = {}
        for i, j, v in items:
            if not (_is_index(i) and 0 <= i < num_rows):
                raise ValueError(f"row {i!r} is not in range({num_rows})")
            per_row.setdefault(i, []).append((j, v))
        return cls._trusted(spec, num_rows, num_cols, {
            i: Vector.from_pairs(spec, num_cols, pairs)._cells for i, pairs in per_row.items()})

    @classmethod
    def from_dense(cls, spec: FieldSpec, grid: Sequence[Sequence[Scalarish]],
                   num_cols: int | None = None) -> "SparseMatrix":
        nr = len(grid)
        nc = num_cols if num_cols is not None else (len(grid[0]) if nr else 0)
        if any(len(row) != nc for row in grid):
            raise ValueError("ragged dense grid")
        return cls.from_entries(spec, nr, nc, [
            (i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row)])

    @property
    def nnz(self) -> int:
        return sum(map(len, self._cells))

    def entry(self, i: int, j: int) -> FieldElement:
        if not (_is_index(i) and _is_index(j) and 0 <= i < self.num_rows
                and 0 <= j < self.num_cols):
            raise IndexError((i, j))
        return FieldElement._canonical(self.spec, self._cells[i].get(j, self.spec.zero))

    def nonzeros(self) -> Iterable[tuple[int, int, FieldElement]]:
        spec, box = self.spec, FieldElement._canonical
        for i, row in enumerate(self._cells):
            for j, v in row.items():
                yield i, j, box(spec, v)

    def raw_row(self, i: int) -> dict[int, Raw]:
        if not (_is_index(i) and 0 <= i < self.num_rows):
            raise IndexError(i)
        return dict(self._cells[i])

    def column(self, j: int) -> Vector:
        if not (_is_index(j) and 0 <= j < self.num_cols):
            raise IndexError(j)
        return Vector._trusted(self.spec, self.num_rows, {
            i: v for i, row in enumerate(self._cells) if (v := row.get(j)) is not None})

    def transpose(self) -> "SparseMatrix":
        # Nonempty rows are visited in index order, so each column comes out sorted.
        cols: dict[int, dict[int, Raw]] = {}
        for i in compress(range(self.num_rows), self._cells):
            for j, v in self._cells[i].items():
                col = cols.get(j)
                if col is None:
                    cols[j] = {i: v}
                else:
                    col[i] = v
        return SparseMatrix._trusted(self.spec, self.num_cols, self.num_rows, cols)

    def submatrix(self, row_ids: Sequence[int], col_ids: Sequence[int]) -> "SparseMatrix":
        """Restriction to the given original rows and columns, reindexed densely."""
        col_pos = {}
        for pos, j in enumerate(col_ids):
            if not (_is_index(j) and 0 <= j < self.num_cols):
                raise IndexError(j)
            if j in col_pos:
                raise ValueError(f"duplicate column {j}")
            col_pos[j] = pos
        seen_rows = set()
        per_row = {}
        for pos, i in enumerate(row_ids):
            if not (_is_index(i) and 0 <= i < self.num_rows):
                raise IndexError(i)
            if i in seen_rows:
                raise ValueError(f"duplicate row {i}")
            seen_rows.add(i)
            per_row[pos] = dict(sorted([(p, v) for j, v in self._cells[i].items()
                                        if (p := col_pos.get(j)) is not None]))
        return SparseMatrix._trusted(self.spec, len(row_ids), len(col_ids), per_row)

    def mul_vector(self, v: Vector) -> Vector:
        """A @ v for a column vector over the columns."""
        if v.spec != self.spec or v.length != self.num_cols:
            raise ValueError("vector does not match the matrix columns")
        return Vector._trusted(self.spec, self.num_rows,
                               _row_products(self.spec, self._cells, v._cells))

    def combine_rows(self, y: Vector) -> Vector:
        """y^T A as a vector over the columns."""
        if y.spec != self.spec or y.length != self.num_rows:
            raise ValueError("vector does not match the matrix rows")
        spec, p, rows = self.spec, self.spec.modulus, self._cells
        ys, d = (y._cells, 1) if p is not None else common_denominator(y._cells)
        # Over Q the rows used are scaled to integers by one lcm.
        den = 1 if p is not None else lcm(*[a.denominator for i in ys for a in rows[i].values()])
        acc: dict[int, int] = {}
        for i, yi in ys.items():
            for j, a in rows[i].items():
                w = yi * a if p is not None else yi * a.numerator * (den // a.denominator)
                acc[j] = acc.get(j, 0) + w
        return Vector.from_pairs(spec, self.num_cols, (
            (j, w % p if p is not None else Fraction(w, den * d)) for j, w in acc.items()))

    def to_dense(self) -> list[list[FieldElement]]:
        return [Vector._trusted(self.spec, self.num_cols, row).to_dense() for row in self._cells]


@dataclass(frozen=True)
class UnsolvabilityCertificate:
    """A left combination y with y^T A = 0 and y^T b != 0."""

    y: Vector

    @classmethod
    def checked(cls, matrix: SparseMatrix, rhs: Vector, y: Vector) -> "UnsolvabilityCertificate":
        if y.is_zero:
            raise ValueError("certificate vector is zero")
        if not matrix.combine_rows(y).is_zero:
            raise ValueError("certificate does not annihilate the rows")
        if not y.dot(rhs):
            raise ValueError("certificate is orthogonal to the right-hand side")
        return cls(y)


def _self_check(factory, *args):
    """Run a certificate's ``checked`` factory on a certificate this library
    built.  A refusal there is the library's fault, not the input's, so its
    ``ValueError`` is re-raised as ``AssertionError``.  The caller looks the
    factory up on each call, so a wrapper put on the class sees every check."""
    try:
        return factory(*args)
    except ValueError as exc:
        raise AssertionError(f"self-check failed: {exc}") from exc


def _column_labels(rows: Sequence[Mapping[int, Raw]], nonempty: list[int]) -> dict[int, int]:
    """``{column: label}`` in label order: the nonempty columns, counted over
    the ``nonempty`` rows only, labelled 0, 1, ... by ascending nonzero
    count, ties by index.  This is the fill-reducing order every
    elimination here uses."""
    counts = Counter(chain.from_iterable(map(rows.__getitem__, nonempty)))
    return {j: g for g, j in enumerate(sorted(sorted(counts), key=counts.__getitem__))}


def _feed_all(matrix: SparseMatrix, rhs: Vector | None) -> tuple[Eliminator, dict[int, int], bool]:
    """Feed rows, sparsest first, until the first contradiction, to an
    eliminator under ``_column_labels``, and say whether there was a
    contradiction; the labels are returned too.

    Empty rows are fed only with a nonzero right-hand side, and first.  Rank,
    solvability and the kernel depend on neither the column order nor the
    row order; the index-order answers are rebuilt from the kernel
    (``_index_order_kernel``).  No trail is kept: ``_refutation`` needs
    none."""
    rows = matrix._cells
    nonempty = list(compress(range(len(rows)), rows))
    label = _column_labels(rows, nonempty)
    elim = Eliminator(matrix.spec, track=False)
    rhs_cells = rhs._cells if rhs is not None else {}
    zero = matrix.spec.zero
    # 0 = 0 rows leave the echelon form as it is, so they are never fed.
    order = [i for i in rhs_cells if not rows[i]] + sorted(nonempty, key=lambda i: len(rows[i]))
    for i in order:
        if elim.feed({label[j]: v for j, v in rows[i].items()},
                     rhs_cells.get(i, zero)) is not None:
            return elim, label, True
    return elim, label, False


def _index_order_kernel(elim: Eliminator, label: dict[int, int]) -> dict[int, dict[int, Raw]]:
    """The kernel vectors of the index-order reduced echelon form on the
    nonempty columns, ``{f: cells}`` with the free columns f ascending.

    Such a v_f is one at f, zero at every other free column, and lives on f
    and the pivot columns below it, so the v_f, read in descending column
    order, are the unique reduced echelon form of the kernel.  Any kernel
    basis gives them: ``elim``'s kernel vectors (``label`` as ``_feed_all``
    returns it) are fed to a second eliminator under label -j for column j,
    and reduced."""
    spec, cols = elim.spec, list(label)
    rebuild = Eliminator(spec, track=False)
    for g in range(len(cols)):
        if g not in elim.pivots:
            rebuild.feed({-cols[c]: v for c, v in elim.kernel_vector(g).items()}, spec.zero)
    return {-c: {-cc: v for cc, v in row.items()}
            for c, row in rebuild.reduced_pivots().items()}


def _normalized(spec: FieldSpec, length: int, cells: dict[int, Raw]) -> Vector:
    """Scale so the lowest-index nonzero entry is one."""
    lead = spec.inv(cells[min(cells)])
    return Vector.from_pairs(spec, length, ((i, spec.mul(lead, v)) for i, v in cells.items()))


def rank(matrix: SparseMatrix) -> int:
    """Rank of the matrix, by deterministic sparse elimination."""
    elim, _, _ = _feed_all(matrix, None)
    return elim.rank


def kernel_basis(matrix: SparseMatrix) -> list[Vector]:
    """Canonical basis of the right kernel, one vector per free column.

    Vectors are derived from the unique reduced echelon form in column-index
    order, e_j for an empty column j, and scaled so their lowest-index
    nonzero entry is one; each one is verified to satisfy A v = 0 exactly
    before being returned.
    """
    spec = matrix.spec
    elim, label, _ = _feed_all(matrix, None)
    kernel = _index_order_kernel(elim, label)
    basis = []
    for free in range(matrix.num_cols):
        cells = kernel.get(free)
        if cells is None:
            if free in label:
                continue
            cells = {free: spec.one}
        vec = _normalized(spec, matrix.num_cols, cells)
        if not matrix.mul_vector(vec).is_zero:
            raise AssertionError("kernel vector failed verification")
        basis.append(vec)
    return basis


def _first_kernel_vector(matrix: SparseMatrix) -> Vector | None:
    """``kernel_basis(matrix)[0]`` without the rest of the basis, or None
    when the kernel is trivial: v_f at the lowest free column f, e_f if f
    is empty.  It is not verified here; the certificate built from it
    verifies it.

    Columns 0, ..., f-1 are independent, so f is at most the number of
    nonempty rows, and v_f lives on columns up to f: a wider matrix is cut
    to its first (nonempty rows + 1) columns, whose kernel is smaller."""
    cells = matrix._cells
    rows = list(compress(range(len(cells)), cells))
    width = min(len(rows) + 1, matrix.num_cols)
    part = matrix if width == matrix.num_cols else matrix.submatrix(rows, range(width))
    elim, label, _ = _feed_all(part, None)
    if elim.rank == width:
        return None
    empty = next(j for j in count() if j not in label)
    kernel = _index_order_kernel(elim, label)
    free = next(iter(kernel), width)
    cells = {empty: matrix.spec.one} if empty < free else kernel[free]
    return _normalized(matrix.spec, matrix.num_cols, cells)


def _check_rhs(matrix: SparseMatrix, rhs: Vector) -> None:
    if rhs.spec != matrix.spec:
        raise ValueError("right-hand side from a different field")
    if rhs.length != matrix.num_rows:
        raise ValueError("right-hand side length does not match the rows")


def _refutation(matrix: SparseMatrix, rhs: Vector) -> UnsolvabilityCertificate | None:
    """The checked certificate of an unsolvable A x = b, or None if b lies in
    the column space: the y a trail through A's rows in the given order would
    give, normalized.

    Let k be the first row whose prefix is unsolvable.  The trail combines
    row k, with coefficient one, with only the earlier rows that raised the
    rank; they are independent, so that y is unique.  No trail is kept: the
    rows are fed in index order, without provenance, until row k, noting the
    rows that raised the rank.  Row k lies in their span, so those rows and
    row k have a one-dimensional left kernel, and y spans it: it is read off
    one elimination of their transpose.  An empty row k (b_k nonzero) gives
    y = e_k.  y is also v_k, A^T's index-order kernel vector at k."""
    spec, rows, b = matrix.spec, matrix._cells, rhs._cells
    nonempty = list(compress(range(len(rows)), rows))
    label = _column_labels(rows, nonempty)
    elim = Eliminator(spec, track=False)
    raised = []
    # 0 = 0 rows leave the echelon form as it is, so they are never fed.
    for k in sorted(chain(nonempty, (i for i in b if not rows[i]))):
        before = elim.rank
        if elim.feed({label[j]: v for j, v in rows[k].items()}, b.get(k, spec.zero)) is not None:
            break
        if elim.rank > before:
            raised.append(k)
    else:
        return None
    y = {k: spec.one}
    if rows[k]:
        part = [*raised, k]
        sub = SparseMatrix._trusted(spec, len(part), matrix.num_cols,
                                    dict(enumerate(map(rows.__getitem__, part))))
        elim, label, _ = _feed_all(sub.transpose(), None)
        free = next(g for g in count() if g not in elim.pivots)     # the only one
        cols = list(label)
        y = {part[cols[g]]: v for g, v in elim.kernel_vector(free).items()}
    return _self_check(UnsolvabilityCertificate.checked,
                       matrix, rhs, _normalized(spec, matrix.num_rows, y))


def _verified_solution(matrix: SparseMatrix, rhs: Vector, x: dict[int, Raw]) -> Vector:
    """The raw solution ``x`` of A x = b as a vector, once A x equals b in
    every row, those with a zero b_i included."""
    if _row_products(matrix.spec, matrix._cells, x) != rhs._cells:
        raise AssertionError("solution failed verification")
    return Vector.from_pairs(matrix.spec, matrix.num_cols, x.items())


def solve(matrix: SparseMatrix, rhs: Vector) -> Vector | UnsolvabilityCertificate:
    """Solve A x = b exactly, or certify that no solution exists.

    A solution is zero at every free column of the column-index order and
    multiplies back to b.  An unsolvability certificate is scaled so its
    lowest-index nonzero entry is one and is verified before being returned.
    It is a kernel vector of the transpose (``_refutation``); no elimination
    keeps a trail.
    """
    _check_rhs(matrix, rhs)
    elim, label, refuted = _feed_all(matrix, rhs)
    if refuted:
        return _refutation(matrix, rhs)
    # The relabelled elimination's solution x0 is zero at its own free
    # columns; x0 - sum of x0_f v_f is zero at the index-order ones.
    spec, cols = matrix.spec, list(label)
    x = {cols[c]: v for c, v in elim.solution().items()}
    for f, v in _index_order_kernel(elim, label).items():
        if (xf := x.get(f)) is not None:
            for j, w in v.items():
                x[j] = spec.sub(x.get(j, spec.zero), spec.mul(xf, w))
    return _verified_solution(matrix, rhs, x)


def unsolvable_core(matrix: SparseMatrix, rhs: Vector, minimize: bool = False) -> frozenset[int]:
    """Row indices whose combination refutes A x = b.

    The core is the support of ``solve``'s certificate, computed by one
    elimination of the transpose and checked once against the whole system.
    Rows outside the core have coefficient zero, so that check is already a
    check on the core's rows alone.  The core is irreducible, so
    ``minimize`` has nothing to do: the certificate combines one row with
    independent earlier rows, so every proper subset is solvable.
    """
    _check_rhs(matrix, rhs)
    outcome = _refutation(matrix, rhs)
    if outcome is None:
        raise ValueError("system is solvable, no core exists")
    return outcome.y.support
