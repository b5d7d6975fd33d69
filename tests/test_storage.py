"""Raw storage inside ``SparseMatrix`` and ``Vector``.

Internal builders (``parse_matrix``, ``from_entries``, ``transpose``,
``submatrix``, and every vector the library returns) skip the public
constructors' checks, so everything they build must pass those checks
anyway.  The library computes on the raw cells: the boxed ``rows`` and
``entries`` views are built only when a caller asks for them.  One index
rule holds for every public constructor and ``checked`` factory: an index
is an int, never a float or a bool.
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
], ids=["vector-float", "vector-bool", "from_pairs-float", "matrix-float",
        "from_entries-float", "from_entries-bool", "sdr-bool", "sdr-float", "bijection-float",
        "matching-float", "witness-bool", "witness-float", "stream-float", "vertex-bool",
        "vertex-float", "graph-vertex-float", "graph-edge-float"])
def test_public_inputs_refuse_non_int_indices(build):
    """A float or bool equals and hashes like an int index, so without the
    check it passes every lookup and ends up inside the result."""
    with pytest.raises(ValueError):
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
