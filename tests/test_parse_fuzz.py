"""Differential fuzz of ``parse_matrix`` against the straightforward parser.

``reference_parse_matrix`` parses, checks and boxes every scalar token on
every line, with no sharing between equal tokens.  The library parser must
agree with it on every text: equal rows (values, their types and the field),
or the same ``MatrixFormatError`` text.  ``derandomize=True`` makes the
examples a fixed function of the test, so a run cannot flake.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from thincert import FieldElement, FieldSpec, MatrixFormatError, SparseMatrix, parse_matrix
from thincert.cli import main
from thincert.files import _fail


def from_cells(spec: FieldSpec, num_rows: int, num_cols: int,
               per_row: dict[int, dict[int, FieldElement]]) -> SparseMatrix:
    """``SparseMatrix._trusted`` on ``{row: {col: nonzero element}}`` cells, in any order."""
    return SparseMatrix._trusted(spec, num_rows, num_cols, {
        i: {j: el.value for j, el in sorted(cells.items())} for i, cells in per_row.items()})


def reference_parse_matrix(text: str) -> SparseMatrix:
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
    parse_raw = spec.parse_raw
    box = FieldElement._canonical
    per_row: dict[int, dict[int, FieldElement]] = {}
    for lineno, raw_line in lines:
        parts = raw_line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 3:
            _fail(lineno, "expected '<row> <col> <scalar>'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            _fail(lineno, "row and column must be integers")
        if not (0 <= i < nr and 0 <= j < nc):
            _fail(lineno, f"entry ({i}, {j}) out of range for {nr}x{nc}")
        cells = per_row.get(i)
        if cells is None:
            cells = per_row[i] = {}
        elif j in cells:
            _fail(lineno, f"duplicate entry at ({i}, {j})")
        try:
            value = parse_raw(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            _fail(lineno, str(exc))
        if value == 0:
            _fail(lineno, "explicit zero entries are not allowed")
        cells[j] = box(spec, value)
    return from_cells(spec, nr, nc, per_row)


# Each list repeats its valid choices so that most texts get far into the
# body; the rest reach every error.  1/2 and 2/4 are one value written two
# ways, and 1000003 vanishes in GF(1000003).
HEADERS = ["field gf 2", "field gf 5", "field gf 1000003", "field rational"] * 6 + [
    "field gf 4", "field real"]
DIMS = ["3 3", "4 4", "2 3", "3 2"] * 6 + ["0 0", "1 1", "3", "x 2", "-1 2"]
SCALARS = ["1"] * 12 + ["2", "3", "4", "-1", "5", "7", "10", "1/2", "2/4", "-7/3"] * 2 + [
    "1000003", "5/5", "1/5", "2/10", "0/5", "-0", "0", "00", "3/0", "+1", "1_0", "x",
    "1/", "/2", "1.5"]
INDICES = ["0", "1", "2"] * 10 + ["3", "-1", "9", "x", "01"]
COMMENTS = [""] * 6 + ["  # note", "#", "\t# 1 2 3"]

entry_lines = st.tuples(st.sampled_from(INDICES), st.sampled_from(INDICES),
                        st.sampled_from(SCALARS)).map(" ".join)
other_lines = st.one_of(
    st.just(""), st.just("   "), st.just("# a comment"),
    st.lists(st.sampled_from(INDICES + SCALARS), min_size=1, max_size=4).map(" ".join))
body_lines = st.tuples(
    st.integers(0, 7).flatmap(lambda k: other_lines if k == 0 else entry_lines),
    st.sampled_from(COMMENTS)).map("".join)


@st.composite
def matrix_texts(draw):
    head = draw(st.sampled_from(HEADERS))
    dims = draw(st.sampled_from(DIMS))
    lead = draw(st.lists(st.sampled_from(["", "# header comment"]), max_size=2))
    body = draw(st.lists(body_lines, max_size=12))
    end = draw(st.sampled_from(["\n", ""]))
    return "\n".join(lead + [head, dims] + body) + end


def outcome(parse, text):
    try:
        m = parse(text)
    except MatrixFormatError as exc:
        return "error", str(exc)
    cells = [[(j, el.spec, type(el.value), el.value) for j, el in row] for row in m.rows]
    return "ok", m.spec, m.num_rows, m.num_cols, cells


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(matrix_texts())
def test_parse_matrix_agrees_with_the_reference(text):
    want = outcome(reference_parse_matrix, text)
    assert outcome(parse_matrix, text) == want
    if want[0] == "error":
        # the command line reports the same message, exit 2, no traceback
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.mtx")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["rank", path])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {want[1]}\n")


def test_equal_tokens_share_one_element():
    m = parse_matrix("field rational\n2 2\n0 0 1/2\n0 1 2/4\n1 1 1/2\n")
    (_, a), (_, b) = m.rows[0]
    (_, c), = m.rows[1]
    assert a is c and a == b and a is not b
