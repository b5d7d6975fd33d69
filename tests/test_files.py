"""The matrix file format, stream rows, and field tokens."""

import random
from fractions import Fraction

import pytest

import gen
from thincert import (FieldSpec, MatrixFormatError, SparseMatrix,
                      parse_field_token, parse_matrix, parse_stream_row,
                      render_matrix)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)

SAMPLE = """\
# unit columns plus a ones column
field gf 2
3 4
0 0 1
0 3 1
1 1 1   # interior comment
1 3 1
2 2 1
2 3 1
"""


def test_parse_sample_file():
    m = parse_matrix(SAMPLE)
    assert m.spec == GF2
    assert (m.num_rows, m.num_cols) == (3, 4)
    assert m.nnz == 6
    assert m.entry(1, 1) == 1 and m.entry(0, 1) == 0


def test_render_is_canonical_fixed_point():
    canon = render_matrix(parse_matrix(SAMPLE))
    assert canon == """\
field gf 2
3 4
0 0 1
0 3 1
1 1 1
1 3 1
2 2 1
2 3 1
"""
    assert render_matrix(parse_matrix(canon)) == canon


def test_rational_file_round_trip():
    text = "field rational\n2 2\n0 0 1/2\n1 1 -7/3\n"
    m = parse_matrix(text)
    assert m.entry(0, 0) == Fraction(1, 2)
    assert m.entry(1, 1) == Fraction(-7, 3)
    assert render_matrix(m) == text


def test_random_matrices_round_trip():
    rng = random.Random(777)
    for spec in (GF2, FieldSpec.gf(5), QQ):
        for _ in range(10):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=9, max_cols=9)
            assert parse_matrix(render_matrix(m)) == m


def test_empty_matrix_files():
    m = parse_matrix("field rational\n0 0\n")
    assert (m.num_rows, m.num_cols) == (0, 0)
    assert render_matrix(m) == "field rational\n0 0\n"


def test_parse_errors_carry_line_numbers():
    cases = [
        ("3 4\n0 0 1\n", "line 1"),  # missing header
        ("field gf 4\n", "line 1"),  # not a prime
        ("field rational\n3\n", "line 2"),
        ("field rational\n2 2\n0 0\n", "line 3"),
        ("field rational\n2 2\n0 5 1\n", "out of range"),
        ("field rational\n2 2\n0 0 1\n0 0 2\n", "duplicate"),
        ("field rational\n2 2\n0 0 0\n", "zero"),
        ("field rational\n2 2\nx 0 1\n", "integers"),
        ("field gf 5\n1 1\n0 0 1/5\n", "line 3"),
    ]
    for text, needle in cases:
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix(text)
        assert needle in str(info.value)


def test_missing_sections():
    with pytest.raises(MatrixFormatError, match="header"):
        parse_matrix("# nothing here\n")
    with pytest.raises(MatrixFormatError, match="dimension"):
        parse_matrix("field rational\n")


def test_parse_field_token():
    assert parse_field_token("rational") == QQ
    assert parse_field_token("gf:7") == FieldSpec.gf(7)
    assert parse_field_token(" GF:5 ") == FieldSpec.gf(5)
    for bad in ("gf", "gf:", "gf:four", "gf:6", "real"):
        with pytest.raises(ValueError):
            parse_field_token(bad)


def test_parse_stream_row():
    pairs, rhs = parse_stream_row("3 ; 0:1 2:-1/2", QQ)
    assert rhs == 3
    assert [(c, str(v)) for c, v in pairs] == [(0, "1"), (2, "-1/2")]
    pairs, rhs = parse_stream_row("4 ;", FieldSpec.gf(5))
    assert rhs == 4 and pairs == []


def test_parse_stream_row_errors():
    for bad in ("1 0:1", "x ; 0:1", "1 ; 0", "1 ; a:1", "1 ; -1:1", "1 ; 0:x"):
        with pytest.raises(ValueError):
            parse_stream_row(bad, QQ)


def test_parse_error_goldens():
    cases = [
        ("field rational\n1 1\n0 0 3/0\n", "line 3: zero denominator in scalar '3/0'"),
        ("field gf 5\n1 1\n0 0 3/0\n", "line 3: zero denominator in scalar '3/0'"),
        ("field gf 5\n1 1\n0 0 2/10\n",
         "line 3: denominator of '2/10' vanishes in FieldSpec(gf 5)"),
        ("field rational\n1 1\n0 0 0/5\n", "line 3: explicit zero entries are not allowed"),
        ("field gf 7\n1 1\n0 0 0/5\n", "line 3: explicit zero entries are not allowed"),
        ("field gf 5\n1 1\n\n# comment\n0 0 10\n",
         "line 5: explicit zero entries are not allowed"),
        ("field rational\n1 1\n0 0 +1\n", "line 3: malformed scalar '+1'"),
        ("field gf 5\n1 1\n0 0 1_0\n", "line 3: malformed scalar '1_0'"),
    ]
    for text, message in cases:
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix(text)
        assert str(info.value) == message


def test_unit_denominator_parses_like_an_integer():
    for head in ("field rational", "field gf 5", "field gf 1000003"):
        plain = parse_matrix(f"{head}\n1 2\n0 0 7\n0 1 -3\n")
        assert parse_matrix(f"{head}\n1 2\n0 0 7/1\n0 1 -3/1\n") == plain
        assert render_matrix(parse_matrix(render_matrix(plain))) == render_matrix(plain)


def test_integer_gfp_file_parses_without_inversions(monkeypatch):
    rng = random.Random(31)
    matrices = [gen.dependent_cols_matrix(FieldSpec.gf(p), rng, max_rows=12, max_cols=12)
                for p in (2, 5, 1000003)]
    texts = [render_matrix(m) for m in matrices]
    calls = []
    inv = FieldSpec.inv

    def counted(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(FieldSpec, "inv", counted)
    assert [parse_matrix(t) for t in texts] == matrices
    assert calls == []
    parse_matrix("field gf 5\n1 1\n0 0 1/2\n")
    assert calls == [2]


def test_parsed_entries_are_canonical():
    m = parse_matrix("field gf 5\n2 2\n0 0 7\n1 1 -1\n")
    assert [(i, j, el.value) for i, j, el in m.nonzeros()] == [(0, 0, 2), (1, 1, 4)]
    assert all(el.spec is m.spec for _, _, el in m.nonzeros())
    q = parse_matrix("field rational\n1 1\n0 0 6/4\n")
    assert q.entry(0, 0).value == Fraction(3, 2)
    assert type(parse_matrix("field rational\n1 1\n0 0 3\n").entry(0, 0).value) is Fraction


def test_shuffled_entries_give_the_canonical_matrix():
    """Entries listed out of order, in a file or through ``from_entries``,
    give the matrix of the canonical listing, empty rows included."""
    rng = random.Random(4242)
    for spec in (GF2, FieldSpec.gf(5), QQ):
        for _ in range(20):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=12, max_cols=12)
            m = SparseMatrix.from_entries(spec, m.num_rows + 2, m.num_cols,
                                          [(i, j, el) for i, j, el in m.nonzeros()])
            header, dims, *body = render_matrix(m).splitlines()
            rng.shuffle(body)
            text = "\n".join([header, dims, *body]) + "\n"
            assert parse_matrix(text) == m
            assert render_matrix(parse_matrix(text)) == render_matrix(m)
            entries = list(m.nonzeros())
            rng.shuffle(entries)
            assert SparseMatrix.from_entries(spec, m.num_rows, m.num_cols, entries) == m


def test_resumed_row_repeating_an_earlier_column_is_a_duplicate():
    """Row 0 resumes after row 1 and repeats column 5, which is not the
    column of its last line before, so every column of a resumed row is
    looked up."""
    text = "field gf 5\n2 6\n0 5 1\n1 0 1\n0 3 1\n0 5 1\n"
    with pytest.raises(MatrixFormatError) as info:
        parse_matrix(text)
    assert str(info.value) == "line 6: duplicate entry at (0, 5)"


def test_adjacent_lines_with_differently_written_row_indices_make_one_row():
    m = parse_matrix("field gf 5\n2 2\n1 0 1\n01 1 1\n")
    assert m == parse_matrix("field gf 5\n2 2\n1 0 1\n1 1 1\n")
    assert m.nnz == 2 and m.raw_row(1) == {0: 1, 1: 1}
    with pytest.raises(MatrixFormatError) as info:
        parse_matrix("field gf 5\n2 2\n1 1 1\n01 0 1\n1 1 2\n")
    assert str(info.value) == "line 5: duplicate entry at (1, 1)"
