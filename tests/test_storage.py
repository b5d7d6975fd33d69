"""Raw storage inside ``SparseMatrix``, ``Vector`` and ``SaturatedString``.

Internal builders (``parse_matrix``, ``from_entries``, ``transpose``,
``submatrix``, ``deficiency_string``, and every vector the library returns)
skip the public constructors' checks, so everything they build must pass
those checks anyway.  The library computes on the raw cells and raw
vertices: the boxed ``rows`` and ``entries`` views are built only when a
caller asks for them.  One index rule holds for every public constructor
and ``checked`` factory: an index is an int, never a float or a bool.
"""

import pickle
import random

import pytest
from hypothesis import given, settings

import gen
from test_parse_fuzz import matrix_texts
from thincert import (Bijection, Dependence, DependentColumnsError, FieldElement, FieldSpec,
                      Matching, MatrixFormatError, SaturatedString, Sdr, SparseMatrix,
                      StreamState, SupportGraph, UnsolvabilityCertificate, Vector, Vertex,
                      WitnessPair,
                      certify_columns, deficiency_string, diagonalize, hall_violator,
                      is_saturated, kernel_basis, lemma_witness, mu_finite, parse_matrix, rank,
                      render_matrix, solve, support_graph, unsolvable_core)
from thincert.linalg import _EMPTY_ROW

FIELDS = [FieldSpec.gf(2), FieldSpec.gf(5), FieldSpec.rationals()]


def assert_passes_public_checks(m: SparseMatrix) -> None:
    rows = m.rows
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(el) is FieldElement for row in rows for _, el in row)
    again = SparseMatrix(m.spec, m.num_rows, m.num_cols, rows)
    assert again == m and again.rows == rows
    assert all(row or row is _EMPTY_ROW for row in m._cells)
    assert m.rows is rows   # boxed once, then cached


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(matrix_texts())
def test_parsed_matrices_pass_the_public_checks(text):
    try:
        m = parse_matrix(text)
    except MatrixFormatError:
        return
    assert_passes_public_checks(m)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_built_matrices_pass_the_public_checks(spec):
    rng = random.Random(f"trusted/{spec.modulus}")
    for _ in range(20):
        m = gen.dependent_cols_matrix(spec, rng, max_rows=12, max_cols=12)
        assert_passes_public_checks(m)
        assert_passes_public_checks(m.transpose())
        rows = rng.sample(range(m.num_rows), rng.randint(0, m.num_rows))
        cols = rng.sample(range(m.num_cols), rng.randint(0, m.num_cols))
        assert_passes_public_checks(m.submatrix(rows, cols))
        assert pickle.loads(pickle.dumps(m)) == m


def test_public_constructor_keeps_its_rows():
    spec = FieldSpec.gf(5)
    rows = (((1, spec.element(2)),), ())
    m = SparseMatrix(spec, 2, 3, rows)
    assert m.rows is rows and m == SparseMatrix.from_entries(spec, 2, 3, {(0, 1): 2})
    with pytest.raises(ValueError, match="explicit zero entry"):
        SparseMatrix(spec, 1, 3, (((0, spec.element(5)),),))


def assert_vector_passes_public_checks(v: Vector) -> None:
    back = pickle.loads(pickle.dumps(v))       # before anything is boxed
    entries = v.entries
    assert type(entries) is tuple and all(type(el) is FieldElement for _, el in entries)
    again = Vector(v.spec, v.length, entries)
    assert list(again._cells.items()) == list(v._cells.items())
    assert again == v and hash(again) == hash(v) and back == v
    assert v.entries is entries     # boxed once, then cached


def _library_vectors(spec, rng):
    """Every kind of vector the library builds, as (kind, vector) pairs, over
    matrices drawn from ``rng``."""
    for t in range(24):
        make = (gen.independent_cols_matrix, gen.dependent_cols_matrix,
                lambda spec, rng: gen.invertible_matrix(spec, rng, 10))[t % 3]
        m = make(spec, rng)
        x0 = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_cols)])
        y0 = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
        b = m.mul_vector(x0)
        yield "mul_vector", b
        yield "combine_rows", m.combine_rows(y0)
        yield "column", m.column(rng.randrange(m.num_cols))
        yield "solution", solve(m, b)
        outcome = solve(m, y0)
        if isinstance(outcome, UnsolvabilityCertificate):
            yield "refutation", outcome.y
        for vec in kernel_basis(m):
            yield "kernel_basis", vec
        for cert in (certify_columns(m), diagonalize(m)):
            if isinstance(cert, Dependence):
                yield f"dependence/{cert.side}", cert.vector
        if hall_violator(support_graph(m)) is not None:
            yield "violator-local", certify_columns(m, via_violator=True).vector
        try:
            lemma_witness(m, gen.random_saturated_string(m, rng))
        except DependentColumnsError as exc:
            yield "dependent column", exc.kernel_vector
        state = StreamState(spec)
        for i in range(m.num_rows):
            state.push(m.rows[i], b.get(i))
        yield "stream solution", state.solution()


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_built_vectors_pass_the_public_checks(spec):
    seen = set()
    for kind, v in _library_vectors(spec, random.Random(f"vectors/{spec.modulus}")):
        assert_vector_passes_public_checks(v)
        seen.add(kind)
    assert seen == {"mul_vector", "combine_rows", "column", "solution", "refutation",
                    "kernel_basis", "dependence/col", "dependence/row", "violator-local",
                    "dependent column", "stream solution"}


def test_public_vector_constructor_keeps_its_entries():
    spec = FieldSpec.gf(5)
    entries = ((1, spec.element(2)),)
    v = Vector(spec, 3, entries)
    assert v.entries is entries and v == Vector.from_pairs(spec, 3, [(1, 7), (2, 5)])
    with pytest.raises(ValueError, match="explicit zero entry"):
        Vector(spec, 3, ((0, spec.element(5)),))
    with pytest.raises(ValueError, match="is not an int above 1"):
        Vector(spec, 3, ((1, spec.element(1)), (0, spec.element(1))))
    with pytest.raises(ValueError, match="duplicate index"):
        Vector.from_pairs(spec, 3, [(1, 1), (1, 2)])


GF5 = FieldSpec.gf(5)
_EL = GF5.element(2)
_M = SparseMatrix.from_dense(GF5, [[1, 1], [1, 2]])
_S = SaturatedString.of("r0", "r1", "c0", "c1")
_G = SupportGraph([0, 1], [0], [(0, 0), (1, 0)])     # {c0, c1} violates the covering condition


@pytest.mark.parametrize("build", [
    lambda: Vector(GF5, 3, ((1.0, _EL),)),
    lambda: Vector(GF5, 3, ((True, _EL),)),
    lambda: Vector.from_pairs(GF5, 3, [(1.0, 2)]),
    lambda: SparseMatrix(GF5, 1, 2, (((1.0, _EL),),)),
    lambda: SparseMatrix.from_entries(GF5, 2, 2, [(0, 1.0, 2)]),
    lambda: SparseMatrix.from_entries(GF5, 2, 2, [(True, 0, 2)]),
    lambda: Sdr.checked(_M, {0: True, 1: 0}),
    lambda: Sdr.checked(_M, {0: 1.0, 1: 0}),
    lambda: Bijection.checked(_M, {0: 1, 1.0: 0}),
    lambda: Matching.checked(support_graph(_M), [(1.0, 0), (0, 1)]),
    lambda: WitnessPair.checked(_M, _S, [0, True], [0, 1]),
    lambda: WitnessPair.checked(_M, _S, [0, 1.0], [0, 1]),
    lambda: StreamState(GF5).push([(1.0, _EL)], _EL),
    lambda: Vertex("c", True),
    lambda: Vertex("r", 1.0),
    lambda: SupportGraph([1.0], [0], []),
    lambda: SupportGraph([0, 1], [0], [(1.0, 0)]),
    lambda: deficiency_string(_G, [1.0, 0]),
    lambda: deficiency_string(_G, [True, 0]),
    lambda: lemma_witness(_M, _S, base_rows=[0.0]),
    lambda: lemma_witness(_M, _S, base_rows=[True]),
    lambda: SaturatedString((("r", 1.0), ("c", True))),
    lambda: SaturatedString((("c", True),)),
    lambda: is_saturated(support_graph(_M), [("r", 1.0)]),
    lambda: is_saturated(support_graph(_M), [Vertex.row(0), ("c", True)]),
], ids=["vector-float", "vector-bool", "from_pairs-float", "matrix-float",
        "from_entries-float", "from_entries-bool", "sdr-bool", "sdr-float", "bijection-float",
        "matching-float", "witness-bool", "witness-float", "stream-float", "vertex-bool",
        "vertex-float", "graph-vertex-float", "graph-edge-float", "deficiency-float",
        "deficiency-bool", "base-row-float", "base-row-bool", "string-float", "string-bool",
        "saturated-float", "saturated-bool"])
def test_public_inputs_refuse_non_int_indices(build):
    """A float or bool equals and hashes like an int index, so without the
    check it passes every lookup and ends up inside the result."""
    with pytest.raises(ValueError):
        build()


_V = Vector.from_pairs(GF5, 3, [(1, 2)])


@pytest.mark.parametrize("read", [
    lambda: _M.entry(True, 1),
    lambda: _M.entry(0, 1.0),
    lambda: _M.raw_row(True),
    lambda: _M.column(True),
    lambda: _M.column(1.0),
    lambda: _M.submatrix([True], [0]),
    lambda: _M.submatrix([1.0], [0]),
    lambda: _M.submatrix([0], [1.0]),
    lambda: _V.get(True),
    lambda: _V.get(1.0),
], ids=["entry-bool", "entry-float", "raw_row-bool", "column-bool", "column-float",
        "submatrix-row-bool", "submatrix-row-float", "submatrix-col-float", "get-bool",
        "get-float"])
def test_public_accessors_refuse_non_int_indices(read):
    """An accessor refuses a float or bool index as it does one out of range,
    instead of reading the entry of the int it equals."""
    with pytest.raises(IndexError):
        read()


@pytest.mark.parametrize("build", [
    lambda: SparseMatrix(GF5, -1, 2, ()),
    lambda: SparseMatrix(GF5, 2.0, 2, ((), ())),
    lambda: SparseMatrix(GF5, 1, True, ((),)),
    lambda: SparseMatrix.from_entries(GF5, -1, 2, []),
    lambda: SparseMatrix.from_entries(GF5, 1, -1, []),
    lambda: SparseMatrix.from_dense(GF5, [], num_cols=-2),
    lambda: Vector(GF5, -1, ()),
    lambda: Vector.from_pairs(GF5, 2.0, [(0, 1)]),
    lambda: Vector.zero(GF5, -3),
], ids=["matrix-negative-rows", "matrix-float-rows", "matrix-bool-cols", "from_entries-negative-rows",
        "from_entries-negative-cols", "from_dense-negative-cols", "vector-negative",
        "from_pairs-float", "zero-negative"])
def test_public_constructors_refuse_bad_sizes(build):
    """A dimension or length is a nonnegative int, as an index is an int:
    a float or bool one fails only later, inside ``transpose`` or ``pow``."""
    with pytest.raises(ValueError, match="is not a nonnegative int"):
        build()


def _matrix_texts(spec, rng):
    """Rendered random matrices; the generators box, so they run first."""
    return [render_matrix((gen.independent_cols_matrix, gen.dependent_cols_matrix,
                           lambda spec, rng: gen.invertible_matrix(spec, rng, 10))[t % 3](spec, rng))
            for t in range(18)]


def _exercise_library(spec, texts, rng):
    """Run every library entry point on the parsed ``texts``; return how many
    systems were refuted."""
    refuted = 0
    for text in texts:
        m = parse_matrix(text)
        rank(m)
        for vec in kernel_basis(m):
            str(vec)
        certify_columns(m)
        certify_columns(m, via_violator=True)
        diagonalize(m)
        rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
        outcome = solve(m, rhs)
        str(outcome.y if isinstance(outcome, UnsolvabilityCertificate) else outcome)
        if isinstance(outcome, UnsolvabilityCertificate):
            unsolvable_core(m, rhs)
            refuted += 1
        str(m.combine_rows(rhs))
        m.column(0).dot(m.column(m.num_cols - 1))
        g = support_graph(m)
        violator = hall_violator(g)
        if violator is not None:
            s = deficiency_string(g, violator)
            is_saturated(g, s)
            mu_finite(g, s)
        try:
            lemma_witness(m, gen.random_saturated_string(m, rng))
        except DependentColumnsError:
            pass
        state, rhs_cells = StreamState(spec), rhs.raw_cells()
        for i in range(m.num_rows):
            state.push(m.raw_row(i).items(), rhs_cells.get(i, spec.zero))
        if state.is_solvable:
            str(state.solution())
    return refuted


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_library_calls_never_box_rows(spec, monkeypatch):
    """Every library entry point computes on the raw rows of a parsed
    matrix; only a caller reading ``rows`` boxes them."""
    def boxed(self):
        raise AssertionError("rows were boxed")

    rng = random.Random(f"raw-only/{spec.modulus}")
    texts = _matrix_texts(spec, rng)
    monkeypatch.setattr(SparseMatrix, "_boxed", boxed)
    assert _exercise_library(spec, texts, rng)
    with pytest.raises(AssertionError, match="rows were boxed"):
        parse_matrix("field gf 5\n1 1\n0 0 1\n").rows


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_library_calls_never_box_vectors(spec, monkeypatch):
    """Every library entry point, the vectors it returns included, and
    their text computes on raw cells; only a caller reading ``entries``
    boxes them."""
    def boxed(self):
        raise AssertionError("entries were boxed")

    rng = random.Random(f"raw-only/{spec.modulus}")
    texts = _matrix_texts(spec, rng)
    monkeypatch.setattr(Vector, "_boxed", boxed)
    assert _exercise_library(spec, texts, rng)
    with pytest.raises(AssertionError, match="entries were boxed"):
        Vector.from_dense(spec, [1, 0, 2]).entries


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_library_calls_never_box_vertices(spec, monkeypatch):
    """``deficiency_string``, ``is_saturated``, ``mu_finite`` and
    ``lemma_witness`` compute on a string's raw vertices; only a caller
    reading ``entries`` boxes them."""
    def boxed(self):
        raise AssertionError("vertices were boxed")

    rng = random.Random(f"raw-only/{spec.modulus}")
    texts = _matrix_texts(spec, rng)
    strings = []
    for text in texts:
        m = parse_matrix(text)
        # A public string keeps the entries it was given; copy it raw.
        strings.append((m, SaturatedString._trusted(gen.random_saturated_string(m, rng)._raw)))
    monkeypatch.setattr(SaturatedString, "_boxed", boxed)
    assert _exercise_library(spec, texts, rng)
    violators = 0
    for m, s in strings:
        g = support_graph(m)
        violator = hall_violator(g)
        if violator is not None:
            violators += 1
            d = deficiency_string(g, violator)
            assert is_saturated(g, d) and mu_finite(g, d) < 0
            assert len(d) == len(str(d).split()) and d.prefix(1).row_range <= d.row_range
        try:
            pair = lemma_witness(m, s)
            assert pair.rows == s.row_range and pair.cols == s.col_range
        except DependentColumnsError:
            pass
        assert is_saturated(g, s) and mu_finite(g, s) >= 0
    assert violators
    with pytest.raises(AssertionError, match="vertices were boxed"):
        deficiency_string(_G, [0, 1]).entries


def _public(string: SaturatedString) -> SaturatedString:
    """The same vertices through the public constructor, from their text."""
    return SaturatedString(tuple(Vertex(t[0], int(t[1:])) for t in str(string).split()))


def test_raw_strings_match_their_public_twins():
    """A string built raw boxes, compares, hashes, prints and pickles as the
    same vertices given to the public constructor do."""
    rng = random.Random(2718)
    built = 0
    for g in gen.oracle_graphs():
        violator = hall_violator(g)
        if violator is None:
            continue
        raw = deficiency_string(g, violator)
        hood = sorted(g.neighbourhood(violator))
        twin = SaturatedString(tuple([Vertex.row(i) for i in hood]
                                     + [Vertex.col(j) for j in sorted(violator)]))
        prefix = raw.prefix(rng.randint(0, len(raw)))
        for s, public in ((raw, twin), (prefix, _public(prefix))):
            assert "entries" not in s.__dict__
            assert s == public and public == s and hash(s) == hash(public)
            assert str(s) == str(public) and len(s) == len(public)
            assert s.row_range == public.row_range and s.col_range == public.col_range
            again = pickle.loads(pickle.dumps(s))
            assert again == public and hash(again) == hash(public)
            view = s.entries
            assert type(view) is tuple and all(type(v) is Vertex for v in view)
            assert view == public.entries and list(s) == list(public)
            assert repr(s) == repr(public) and s.entries is view    # boxed once, then cached
            assert again.entries == view and str(again) == str(s)
            built += 1
    assert built > 200
