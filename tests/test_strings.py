"""Vertex strings, the weighting, limit values, and rank witnesses."""

import itertools
import math
import random
import tracemalloc

import pytest

import gen
import thincert.strings
from thincert import (DependentColumnsError, FieldSpec, OmegaBlock,
                      OrdinalString, SaturatedString, SparseMatrix, Vector,
                      Vertex, WitnessPair, is_saturated, lemma_witness, mu_finite,
                      mu_ordinal, parse_matrix, parse_string_literal, parse_vertex, rank,
                      solve, support_graph, unlisted_rows_vanish, unsolvable_core)

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)


# --------------------------------------------------------------------------
# parsing

def test_parse_vertex():
    assert parse_vertex("r0") == Vertex.row(0)
    assert parse_vertex(" c12 ") == Vertex.col(12)
    for bad in ("x1", "r", "c-1", "r1c2", ""):
        with pytest.raises(ValueError):
            parse_vertex(bad)


def test_string_of_and_parts():
    s = SaturatedString.of("r0", "r2", "c1")
    assert len(s) == 3
    assert str(s) == "r0 r2 c1"
    assert s.row_range == frozenset({0, 2})
    assert s.col_range == frozenset({1})
    assert str(s.prefix(2)) == "r0 r2"
    assert list(s.prefix(0)) == []


def test_string_rejects_repeats():
    with pytest.raises(ValueError):
        SaturatedString.of("r0", "c1", "r0")


def test_parse_string_literal_finite():
    s = parse_string_literal("r0 c0  r1")
    assert isinstance(s, SaturatedString)
    assert str(s) == "r0 c0 r1"
    assert isinstance(parse_string_literal(""), SaturatedString)


def test_parse_string_literal_blocks():
    s = parse_string_literal("[r0 c0]*")
    assert isinstance(s, OrdinalString)
    assert s.blocks == (OmegaBlock(pattern=(Vertex.row(0), Vertex.col(0))),)
    assert s.tail == ()

    s = parse_string_literal("[r0 | c0 r1]* [c2]* r3 c4")
    assert len(s.blocks) == 2
    assert s.blocks[0].preamble == (Vertex.row(0),)
    assert s.blocks[0].pattern == (Vertex.col(0), Vertex.row(1))
    assert s.blocks[1].preamble == ()
    assert s.tail == (Vertex.row(3), Vertex.col(4))


def test_parse_string_literal_errors():
    for bad in ("[r0", "[r0]", "r0 [c0]*", "[r0]* [c1", "[]*", "[ | r0]* [x]*"):
        with pytest.raises(ValueError):
            parse_string_literal(bad)


def test_ordinal_string_render_parse_round_trip():
    rng = random.Random(123)
    for _ in range(40):
        s = gen.random_ordinal_string(rng)
        assert parse_string_literal(str(s)) == s


# --------------------------------------------------------------------------
# saturation

def test_is_saturated_examples():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    g = support_graph(m)
    assert is_saturated(g, SaturatedString.of())
    assert is_saturated(g, SaturatedString.of("r0", "r1", "c0"))
    assert is_saturated(g, SaturatedString.of("r1", "r2", "c1", "r0", "c0"))
    # column 0 needs rows 0 and 1 listed first
    assert not is_saturated(g, SaturatedString.of("c0", "r0", "r1"))
    assert not is_saturated(g, SaturatedString.of("r0", "c0"))
    with pytest.raises(ValueError):
        is_saturated(g, SaturatedString.of("r9"))


def test_is_saturated_accepts_raw_sequences_and_repeats():
    g = support_graph(SparseMatrix.from_dense(QQ, [[1]]))
    assert not is_saturated(g, [Vertex.row(0), Vertex.row(0)])
    assert is_saturated(g, [Vertex.row(0), Vertex.col(0)])
    # every column saturated, but c0 listed twice
    assert not is_saturated(g, [Vertex.row(0), Vertex.col(0), Vertex.col(0)])


@pytest.mark.parametrize("entry", [("x", 0), ("row", 0), ("r", -1), ("c", -2), ("c", "0")],
                         ids=["side-x", "side-row", "row-negative", "col-negative", "index-str"])
def test_strings_refuse_what_vertex_refuses(entry):
    """A string's raw form encodes column j as ~j, so a side other than r
    or c, or a negative index, would read as some other vertex."""
    g = support_graph(SparseMatrix.from_dense(QQ, [[1]]))
    with pytest.raises(ValueError):
        Vertex(*entry)
    with pytest.raises(ValueError):
        SaturatedString((Vertex.row(0), entry))
    with pytest.raises(ValueError):
        is_saturated(g, [Vertex.row(0), entry])


WIDE = [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0]]   # rows 0-2, columns 0-3
TALL = [list(col) for col in zip(*WIDE)]           # rows 0-3, columns 0-2


@pytest.mark.parametrize("grid, tokens, offender", [
    (WIDE, ("r0", "r7", "c9"), "r7"),          # an unknown row comes first
    (WIDE, ("r0", "c5", "r9"), "c5"),          # an unknown column comes first
    (TALL, ("r1", "c3"), "c3"),                # row 3 exists, column 3 does not
    (WIDE, ("c0", "r0", "r1", "c1", "r3"), "r3"),   # column 3 exists, row 3 does not
])
def test_unknown_vertices_are_named_in_string_order(grid, tokens, offender):
    m = SparseMatrix.from_dense(QQ, grid)
    g = support_graph(m)
    message = f"^vertex {offender} is not in the graph$"
    entries = tuple(parse_vertex(t) for t in tokens)
    s = SaturatedString(entries)
    with pytest.raises(ValueError, match=message):
        is_saturated(g, s)
    with pytest.raises(ValueError, match=message):
        is_saturated(g, list(entries))
    with pytest.raises(ValueError, match=message):
        mu_finite(g, s)
    rows = [v.index for v in entries if v.is_row]
    cols = [v.index for v in entries if v.is_col]
    with pytest.raises(ValueError, match=message):
        WitnessPair.checked(m, s, rows, cols)
    with pytest.raises(ValueError, match=message):
        lemma_witness(m, s)


@pytest.mark.parametrize("rows, cols", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_lemma_witness_saturation_equals_the_graph_check(rows, cols):
    """``lemma_witness`` checks saturation on the matrix's nonzeros, with no
    support graph: on every GF(2) matrix of the shape and every string of
    distinct vertices, it refuses the string as unsaturated exactly when
    ``is_saturated`` on the support graph says False."""
    refused = 0
    for grid in itertools.product([0, 1], repeat=rows * cols):
        m = SparseMatrix.from_dense(GF2, [grid[i * cols:(i + 1) * cols] for i in range(rows)])
        g = support_graph(m)
        vertices = [Vertex.row(i) for i in range(rows)] + [Vertex.col(j) for j in range(cols)]
        for k in range(len(vertices) + 1):
            for entries in itertools.permutations(vertices, k):
                s = SaturatedString(entries)
                assert thincert.strings._saturated_in(m, s._raw) == is_saturated(g, s)
                if not is_saturated(g, s):
                    refused += 1
                    with pytest.raises(ValueError, match="^string is not saturated"):
                        lemma_witness(m, s)
    assert refused


def test_generated_strings_are_saturated():
    rng = random.Random(321)
    for _ in range(30):
        m = gen.dependent_cols_matrix(GF5, rng, max_rows=8, max_cols=8)
        s = gen.random_saturated_string(m, rng)
        assert is_saturated(support_graph(m), s)


# --------------------------------------------------------------------------
# finite weights

def test_mu_finite_examples():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    g = support_graph(m)
    assert mu_finite(g, SaturatedString.of()) == 0
    assert mu_finite(g, SaturatedString.of("r0")) == 1
    assert mu_finite(g, SaturatedString.of("r0", "r1", "c0")) == 1
    assert mu_finite(g, SaturatedString.of("r0", "r1", "r2", "c0", "c1")) == 1


def test_mu_finite_steps_by_one():
    rng = random.Random(432)
    m = gen.dependent_cols_matrix(GF2, rng, max_rows=7, max_cols=7)
    g = support_graph(m)
    s = gen.random_saturated_string(m, rng, stop=0.05)
    values = [mu_finite(g, s.prefix(k)) for k in range(len(s) + 1)]
    assert values[0] == 0
    for k, v in enumerate(s):
        delta = 1 if v.is_row else -1
        assert values[k + 1] - values[k] == delta


def test_mu_finite_is_the_sum_of_steps():
    rng = random.Random(4321)
    for t in range(200):
        spec = (GF2, GF5, QQ)[t % 3]
        m = gen.dependent_cols_matrix(spec, rng, max_rows=9, max_cols=9)
        s = gen.random_saturated_string(m, rng, stop=0.05)
        value = 0
        for v in s:
            value = thincert.strings._step(value, v)
        assert mu_finite(support_graph(m), s) == value


def test_saturated_strings_leave_unlisted_rows_clean():
    rng = random.Random(543)
    for spec in (GF2, GF5, QQ):
        for _ in range(20):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=8, max_cols=8)
            s = gen.random_saturated_string(m, rng)
            assert unlisted_rows_vanish(m, s)


def test_unsaturated_listing_can_hit_unlisted_rows():
    m = SparseMatrix.from_dense(QQ, [[1], [1]])
    s = SaturatedString.of("r0", "c0")  # row 1 carries c0 but is not listed
    assert not is_saturated(support_graph(m), s)
    assert not unlisted_rows_vanish(m, s)


# --------------------------------------------------------------------------
# limit values

def test_mu_ordinal_frozen_examples():
    assert mu_ordinal(parse_string_literal("[r0 c0]*")) == 0
    assert mu_ordinal(parse_string_literal("[c0]*")) == -math.inf
    assert mu_ordinal(parse_string_literal("[r0 r1 c0]*")) == math.inf


def test_mu_ordinal_balanced_block_takes_cycle_minimum():
    # after the preamble the value is 2; the cycle dips by one before recovering
    assert mu_ordinal(parse_string_literal("[r0 r1 | c0 r2]*")) == 1
    assert mu_ordinal(parse_string_literal("[c0 r0]*")) == -1
    assert mu_ordinal(parse_string_literal("[r0 c0]* r1 r2")) == 2


def test_mu_ordinal_infinity_is_absorbing():
    assert mu_ordinal(parse_string_literal("[c0]* [r0 r1 c0]*")) == -math.inf
    assert mu_ordinal(parse_string_literal("[c0]* r0 r1 r2")) == -math.inf
    assert mu_ordinal(parse_string_literal("[r0 r1 c0]* [c0]*")) == math.inf


def test_mu_ordinal_matches_simulation():
    rng = random.Random(654)
    cases = [gen.random_ordinal_string(rng) for _ in range(60)]
    cases += [gen.random_ordinal_string(rng, drift=d)
              for d in (-1, 0, 1) for _ in range(10)]
    for s in cases:
        assert mu_ordinal(s) == gen.simulate_mu(s), str(s)


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        OmegaBlock(pattern=())


# --------------------------------------------------------------------------
# rank witnesses

def test_witness_pair_checked_validation():
    m = SparseMatrix.from_dense(QQ, [[1]])
    s = SaturatedString.of("r0", "c0")
    ok = WitnessPair.checked(m, s, [0], [0])
    assert ok.rows == frozenset({0}) and ok.cols == frozenset({0})
    with pytest.raises(ValueError):
        WitnessPair.checked(m, s, [1], [0])  # row outside the string
    with pytest.raises(ValueError, match=r"^witness identity fails: mu 0 != 1 - 0$"):
        WitnessPair.checked(m, s, [0], [])


def test_witness_pair_refuses_columns_outside_the_string():
    m = SparseMatrix.from_dense(QQ, [[1, 1]])
    s = SaturatedString.of("r0", "c0")
    with pytest.raises(ValueError, match="witness cols outside the string's column range"):
        WitnessPair.checked(m, s, [0], [1])


def test_lemma_witness_identity_example():
    m = SparseMatrix.from_dense(QQ, [[1]])
    pair = lemma_witness(m, SaturatedString.of("r0", "c0"))
    assert pair.rows == frozenset({0}) and pair.cols == frozenset({0})


def test_lemma_witness_collects_all_listed_vertices():
    m = SparseMatrix.from_dense(GF5, [[1, 2], [0, 3], [4, 0]])
    s = SaturatedString.of("r0", "r1", "c1", "r2", "c0")
    pair = lemma_witness(m, s)
    assert pair.rows == s.row_range and pair.cols == s.col_range


def test_lemma_witness_respects_base_rows():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    s = SaturatedString.of("r0", "r1", "c0", "r2", "c1")
    pair = lemma_witness(m, s, base_rows=[1, 2])
    assert frozenset({1, 2}) <= pair.rows
    with pytest.raises(ValueError):
        lemma_witness(m, s, base_rows=[7])


def test_lemma_witness_flags_dependent_column():
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    s = SaturatedString.of("r0", "r1", "c0", "c1")
    with pytest.raises(DependentColumnsError) as info:
        lemma_witness(m, s)
    lam = info.value.kernel_vector
    assert m.mul_vector(lam).is_zero and not lam.is_zero
    assert lam.get(1) == -1


def test_lemma_witness_zero_column_is_dependent():
    m = SparseMatrix.from_entries(QQ, 1, 1, {})
    with pytest.raises(DependentColumnsError) as info:
        lemma_witness(m, SaturatedString.of("c0"))
    assert str(info.value.kernel_vector) == "-1"


def test_lemma_witness_rejects_bad_hypotheses():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    with pytest.raises(ValueError, match="saturated"):
        lemma_witness(m, SaturatedString.of("c0", "r0", "r1"))
    # saturated (the column is empty) but the value dips below zero
    m2 = SparseMatrix.from_dense(QQ, [[0]])
    with pytest.raises(ValueError, match="negative"):
        lemma_witness(m2, SaturatedString.of("c0", "r0"))


def test_lemma_witness_memory_follows_the_string_not_the_width():
    """A two-vertex string over a 3 x 2,000,000 matrix with one entry: no
    structure is built per column (the matrix's support graph alone takes
    over 150 MB)."""
    m = parse_matrix("field gf 5\n3 2000000\n0 5 1\n")
    tracemalloc.start()
    try:
        pair = lemma_witness(m, SaturatedString.of("r0", "c5"))
        with pytest.raises(ValueError, match="not saturated"):
            lemma_witness(m, SaturatedString.of("c5", "r0"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair == WitnessPair(frozenset({0}), frozenset({5}))
    assert peak < 1 << 20


def test_lemma_witness_random_agreement():
    rng = random.Random(765)
    for spec in (GF2, GF5, QQ):
        for _ in range(25):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=8, max_cols=8)
            s = gen.random_saturated_string(m, rng)
            g = support_graph(m)
            try:
                pair = lemma_witness(m, s)
            except DependentColumnsError as e:
                assert m.mul_vector(e.kernel_vector).is_zero
                assert not e.kernel_vector.is_zero
                continue
            sub = m.submatrix(sorted(pair.rows), sorted(pair.cols))
            assert mu_finite(g, s) == len(pair.rows) - rank(sub)


def _three_solve_replay(matrix, string):
    """Reference: the replay that solves one sub-system per listed column and
    folds in its refutation core."""
    listed_rows, listed_cols = [], []
    for v in string.entries:
        if v.is_row:
            listed_rows.append(v.index)
            continue
        j0 = v.index
        rows_now, cols_now = sorted(listed_rows), sorted(listed_cols)
        sub = matrix.submatrix(rows_now, cols_now)
        colmap = matrix.column(j0).raw_cells()
        rhs = Vector.from_pairs(matrix.spec, len(rows_now),
                                ((pos, colmap[i]) for pos, i in enumerate(rows_now)
                                 if i in colmap))
        outcome = solve(sub, rhs)
        if isinstance(outcome, Vector):
            cells = {cols_now[pos]: el.value for pos, el in outcome.entries}
            cells[j0] = matrix.spec.neg(matrix.spec.one)
            lam = Vector.from_pairs(matrix.spec, matrix.num_cols, cells.items())
            return DependentColumnsError(
                f"column c{j0} depends on the earlier listed columns", lam)
        assert {rows_now[pos] for pos in unsolvable_core(sub, rhs)} <= set(listed_rows)
        listed_cols.append(j0)
    return WitnessPair.checked(matrix, string, listed_rows, listed_cols)


def _outcome(matrix, string):
    try:
        return lemma_witness(matrix, string)
    except DependentColumnsError as exc:
        return exc


def test_lemma_witness_matches_three_solve_replay():
    rng = random.Random(4242)
    dependent = 0
    for spec in (GF2, GF5, QQ):
        for t in range(40):
            if t % 2:
                m = gen.dependent_cols_matrix(spec, rng, max_rows=10, max_cols=10)
            else:
                m = gen.independent_cols_matrix(spec, rng, max_rows=10, max_cols=8)
            s = gen.random_saturated_string(m, rng, stop=0.03)
            got, want = _outcome(m, s), _three_solve_replay(m, s)
            assert type(got) is type(want)
            if isinstance(want, DependentColumnsError):
                dependent += 1
                assert str(got) == str(want)
                assert got.kernel_vector == want.kernel_vector
            else:
                assert got == want
    assert dependent >= 10


def _saturated_strings(matrix):
    """Every string of distinct vertices that lists each column after all
    of its support rows, the empty string and those with a negative prefix
    weight included."""
    graph = support_graph(matrix)
    vertices = [Vertex.row(i) for i in graph.right] + [Vertex.col(j) for j in graph.left]
    for k in range(len(vertices) + 1):
        for entries in itertools.permutations(vertices, k):
            if is_saturated(graph, entries):
                yield SaturatedString(entries)


def _sweep_outcome(outcome):
    if isinstance(outcome, DependentColumnsError):
        return "dependent", str(outcome), outcome.kernel_vector
    if isinstance(outcome, ValueError):
        return "refused", str(outcome)
    return "pair", outcome


def _checked_replay(matrix, string):
    """``_three_solve_replay`` behind ``lemma_witness``'s prefix-weight check."""
    running = 0
    for k, v in enumerate(string.entries):
        if running < 0:
            return ValueError(f"mu of the prefix of length {k} is negative")
        running += 1 if v.is_row else -1
    return _three_solve_replay(matrix, string)


@pytest.mark.parametrize("spec, shapes, values", [
    (GF2, [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)], [0, 1]),
    (FieldSpec.gf(3), [(2, 2)], [0, 1, 2]),
    (QQ, [(2, 2)], [0, 1, -2]),
], ids=["gf2", "gf3", "q"])
def test_lemma_witness_matches_replay_on_every_small_matrix(spec, shapes, values):
    """Every matrix of the given shapes and entries, with every saturated
    string over it: the outcome is the replay's pair, dependent column and
    kernel vector, or refusal."""
    for rows, cols in shapes:
        for grid in itertools.product(values, repeat=rows * cols):
            m = SparseMatrix.from_dense(spec, [grid[i * cols:(i + 1) * cols]
                                               for i in range(rows)])
            for s in _saturated_strings(m):
                try:
                    got = lemma_witness(m, s)
                except ValueError as exc:
                    got = exc
                assert _sweep_outcome(got) == _sweep_outcome(_checked_replay(m, s)), (m, str(s))


def test_lemma_witness_verifies_the_dependent_column_vector(monkeypatch):
    m = SparseMatrix.from_dense(QQ, [[1, 2], [1, 2]])
    s = SaturatedString.of("r0", "r1", "c0", "c1")
    with pytest.raises(DependentColumnsError) as info:
        lemma_witness(m, s)
    assert str(info.value.kernel_vector) == "2 -1"
    # A wrong kernel vector of the restriction must not escape as one of A.
    monkeypatch.setattr(thincert.strings, "_first_kernel_vector",
                        lambda sub: Vector.from_dense(QQ, [3, 1]))
    with pytest.raises(AssertionError, match="verification"):
        lemma_witness(m, s)
