"""Raw row storage inside ``SparseMatrix``.

Internal builders (``parse_matrix``, ``from_entries``, ``transpose``,
``submatrix``) skip the public constructor's checks, so every matrix they
build must pass those checks anyway.  The library computes on the raw rows:
the boxed ``rows`` view is built only when a caller asks for it.
"""

import pickle
import random

import pytest
from hypothesis import given, settings

import gen
from test_parse_fuzz import matrix_texts
from thincert import (DependentColumnsError, FieldElement, FieldSpec, MatrixFormatError,
                      SparseMatrix, UnsolvabilityCertificate, Vector, certify_columns,
                      deficiency_string, diagonalize, hall_violator, is_saturated,
                      kernel_basis, lemma_witness, mu_finite, parse_matrix, rank,
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


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_library_calls_never_box_rows(spec, monkeypatch):
    """Every library entry point computes on the raw rows of a parsed
    matrix; only a caller reading ``rows`` boxes them."""
    def boxed(self):
        raise AssertionError("rows were boxed")

    monkeypatch.setattr(SparseMatrix, "_boxed_rows", boxed)
    rng = random.Random(f"raw-only/{spec.modulus}")
    refuted = 0
    for t in range(18):
        make = (gen.independent_cols_matrix, gen.dependent_cols_matrix,
                lambda spec, rng: gen.invertible_matrix(spec, rng, 10))[t % 3]
        m = parse_matrix(render_matrix(make(spec, rng)))
        rank(m)
        kernel_basis(m)
        certify_columns(m)
        certify_columns(m, via_violator=True)
        diagonalize(m)
        rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
        if isinstance(solve(m, rhs), UnsolvabilityCertificate):
            unsolvable_core(m, rhs)
            refuted += 1
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
    assert refuted
    with pytest.raises(AssertionError, match="rows were boxed"):
        m.rows
