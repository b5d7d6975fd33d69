"""Text formats: the matrix file, stream rows, and field tokens.

A matrix file is line oriented: a field header, a dimension line, then one
nonzero entry per line.  ``#`` starts a comment.  Writing a parsed canonical
file reproduces it byte for byte (entries sorted by row then column, no
comments, one trailing newline).
"""

from __future__ import annotations

from .field import FieldElement, FieldSpec, Raw, parse_scalar
from .linalg import SparseMatrix

__all__ = [
    "MatrixFormatError",
    "parse_matrix",
    "render_matrix",
    "parse_field_token",
    "parse_stream_row",
]


class MatrixFormatError(ValueError):
    """A malformed matrix file, with the offending line number in the message."""


def _fail(lineno: int, why: str) -> None:
    raise MatrixFormatError(f"line {lineno}: {why}")


def parse_matrix(text: str) -> SparseMatrix:
    """Parse the line-oriented matrix format into a SparseMatrix.

    Each distinct scalar token is parsed and checked once, and equal tokens
    share its raw value; the matrix is built from these raw rows unchecked,
    since every check of the public constructor has been made here.
    """
    spec: FieldSpec | None = None
    dims: tuple[int, int] | None = None
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw_line in lines:
        parts = raw_line.split("#", 1)[0].split()
        if not parts:
            continue
        if spec is None:
            if parts[0] != "field":
                _fail(lineno, "expected a 'field ...' header")
            if parts[1:] == ["rational"]:
                spec = FieldSpec.rationals()
            elif len(parts) == 3 and parts[1] == "gf":
                try:
                    spec = FieldSpec.gf(int(parts[2]))
                except ValueError as exc:
                    _fail(lineno, str(exc))
            else:
                _fail(lineno, f"unknown field {' '.join(parts[1:])!r}")
            continue
        if len(parts) != 2:
            _fail(lineno, "expected '<rows> <cols>'")
        try:
            dims = int(parts[0]), int(parts[1])
        except ValueError:
            _fail(lineno, "dimensions must be integers")
        if dims[0] < 0 or dims[1] < 0:
            _fail(lineno, "dimensions must be nonnegative")
        break
    if spec is None:
        raise MatrixFormatError("missing 'field ...' header")
    if dims is None:
        raise MatrixFormatError("missing dimension line")
    nr, nc = dims
    per_row: dict[int, dict[int, Raw]] = {}
    values: dict[str, Raw] = {}
    parse_raw = spec.parse_raw
    # Rows are sorted at the end only if some row's columns may not ascend:
    # a row continued on the next line with a lower column, or resumed later.
    in_order, last_i, last_j = True, -1, -1
    for lineno, raw_line in lines:
        if "#" in raw_line:
            raw_line = raw_line.split("#", 1)[0]
        parts = raw_line.split()
        if len(parts) != 3:
            if not parts:
                continue
            _fail(lineno, "expected '<row> <col> <scalar>'")
        row_text, col_text, token = parts
        try:
            i, j = int(row_text), int(col_text)
        except ValueError:
            _fail(lineno, "row and column must be integers")
        if not (0 <= i < nr and 0 <= j < nc):
            _fail(lineno, f"entry ({i}, {j}) out of range for {nr}x{nc}")
        cells = per_row.get(i)
        if cells is None:
            cells = per_row[i] = {}
        elif j in cells:
            _fail(lineno, f"duplicate entry at ({i}, {j})")
        elif i != last_i or j < last_j:
            in_order = False
        last_i, last_j = i, j
        value = values.get(token)
        if value is None:
            try:
                value = values[token] = parse_raw(token)
            except (ValueError, ZeroDivisionError) as exc:
                _fail(lineno, str(exc))
            if value == 0:
                _fail(lineno, "explicit zero entries are not allowed")
        cells[j] = value
    if not in_order:
        per_row = {i: dict(sorted(cells.items())) for i, cells in per_row.items()}
    return SparseMatrix._trusted(spec, nr, nc, per_row)


def render_matrix(matrix: SparseMatrix) -> str:
    """Canonical text for a matrix: header, dims, entries sorted by (row, col)."""
    spec = matrix.spec
    head = "field rational" if not spec.is_prime_field else f"field gf {spec.modulus}"
    lines = [head, f"{matrix.num_rows} {matrix.num_cols}"]
    for i, row in enumerate(matrix._cells):
        for j, v in row.items():
            lines.append(f"{i} {j} {v}")
    return "\n".join(lines) + "\n"


def parse_field_token(token: str) -> FieldSpec:
    """Parse a compact field name: ``rational`` or ``gf:<p>``."""
    t = token.strip().lower()
    if t == "rational":
        return FieldSpec.rationals()
    if t.startswith("gf:"):
        return FieldSpec.gf(int(t[3:]))
    raise ValueError(f"unknown field token {token!r} (want 'rational' or 'gf:<p>')")


def parse_stream_row(line: str, spec: FieldSpec) -> tuple[list[tuple[int, FieldElement]], FieldElement]:
    """Parse ``<rhs> ; <col>:<scalar> <col>:<scalar> ...`` into (pairs, rhs)."""
    if ";" not in line:
        raise ValueError("stream row needs '<rhs> ; <entries>'")
    rhs_text, _, rest = line.partition(";")
    rhs = parse_scalar(rhs_text, spec)
    pairs = []
    for tok in rest.split():
        col_text, sep, val_text = tok.partition(":")
        if not sep:
            raise ValueError(f"malformed stream entry {tok!r} (want '<col>:<scalar>')")
        try:
            col = int(col_text)
        except ValueError:
            raise ValueError(f"bad column index in {tok!r}") from None
        if col < 0:
            raise ValueError(f"negative column index in {tok!r}")
        pairs.append((col, parse_scalar(val_text, spec)))
    return pairs, rhs
