"""Differential fuzz of the stream-row and vertex-string formats.

``reference_parse_stream_row`` and ``reference_parse_string_literal`` are
verbatim copies of the library parsers as they stood when these tests were
written.  The library must agree with them on every text: the same result,
or the same error type and message.  An error must also reach the command
line (``thincert stream``, ``thincert mu``) as exit code 2 with
``error: <message>`` on stderr and no traceback.  ``derandomize=True`` makes
the examples a fixed function of the test, so a run cannot flake.
"""

import contextlib
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thincert import (FieldElement, FieldSpec, OmegaBlock, OrdinalString, SaturatedString,
                      Vertex, parse_stream_row, parse_string_literal)
from thincert.cli import main
from thincert.field import parse_scalar


def reference_parse_stream_row(line: str, spec: FieldSpec) -> tuple[list[tuple[int, FieldElement]], FieldElement]:
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


_VERTEX_RE = re.compile(r"([rc])(\d+)")


def parse_vertex(token: str) -> Vertex:
    m = _VERTEX_RE.fullmatch(token.strip())
    if m is None:
        raise ValueError(f"malformed vertex token {token!r}")
    return Vertex(m.group(1), int(m.group(2)))


def reference_parse_string_literal(text: str) -> SaturatedString | OrdinalString:
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


def outcome(parse, *args):
    try:
        res = parse(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return "error", type(exc).__name__, str(exc)
    if isinstance(res, tuple):      # stream row: the types of the values count too
        pairs, rhs = res
        return "ok", [(c, el.spec, type(el.value), el.value) for c, el in pairs], (
            rhs.spec, type(rhs.value), rhs.value)
    return "ok", repr(res)


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# stream rows

FIELDS = {"rational": FieldSpec.rationals(), "gf:2": FieldSpec.gf(2),
          "gf:5": FieldSpec.gf(5), "gf:1000003": FieldSpec.gf(1000003)}
SCALARS = ["1"] * 6 + ["0", "2", "-1", "7", "1/2", "2/4", "-7/3", "1000003"] * 2 + [
    "5/5", "1/5", "0/5", "-0", "3/0", "+1", "1_0", "x", "1/", "/2", "1.5", "", " 2 "]
COLS = ["0", "1", "2"] * 4 + ["10", "01", "-1", "x", "", "+3", "1_0"]
BAD_ENTRIES = ["1", ":", "::", "0:1:2", "x:1", ":1", "1:", "-0:1"]

stream_entries = st.one_of(
    st.tuples(st.sampled_from(COLS), st.sampled_from(SCALARS)).map(":".join),
    st.sampled_from(BAD_ENTRIES))
stream_texts = st.tuples(
    st.sampled_from(SCALARS),
    st.sampled_from([" ; ", ";", " ;", "; ", "\t;\t"] * 4 + ["", " ", ";;"]),
    st.lists(stream_entries, max_size=5),
    st.sampled_from([" ", "  ", "\t"])).map(lambda t: t[0] + t[1] + t[3].join(t[2]))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.sampled_from(sorted(FIELDS)), stream_texts)
def test_parse_stream_row_agrees_with_the_reference(field, text):
    spec = FIELDS[field]
    assert outcome(parse_stream_row, text, spec) == outcome(reference_parse_stream_row, text, spec)
    # The command line parses each stripped stdin line.
    line = text.strip()
    want = outcome(reference_parse_stream_row, line, spec)
    if line and want[0] == "error":
        assert run_cli(["stream", "--field", field], line + "\n") == (2, "", f"error: {want[2]}\n")


# --------------------------------------------------------------------------
# vertex strings

VERTICES = ["r0", "c0", "r1", "c1", "r2", "c2", "r12", "c3"] * 3 + [
    "r01", "x1", "r", "c-1", "R1", "c 1", "r1c1"]
MARKS = ["[", "]", "]*", "|", "*", "[]*", "[ | ]*", "[r0 | c1]*", "[c0]*", "[r1|c2 r2]*"]

string_texts = st.lists(st.one_of(st.sampled_from(VERTICES), st.sampled_from(MARKS)),
                        max_size=8).flatmap(
    lambda toks: st.lists(st.sampled_from([" ", "  ", "", "\t"]), min_size=len(toks) + 1,
                          max_size=len(toks) + 1).map(
        lambda seps: seps[0] + "".join(t + s for t, s in zip(toks, seps[1:]))))

MATRIX = "field gf 2\n3 4\n0 0 1\n1 1 1\n2 2 1\n2 3 1\n"


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mu") / "m.mtx"
    path.write_text(MATRIX, encoding="utf-8")
    return str(path)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=string_texts)
def test_parse_string_literal_agrees_with_the_reference(matrix_path, text):
    want = outcome(reference_parse_string_literal, text)
    assert outcome(parse_string_literal, text) == want
    if want[0] == "error":
        assert run_cli(["mu", matrix_path, text]) == (2, "", f"error: {want[2]}\n")

