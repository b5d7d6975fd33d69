"""Column certificates and two-sided diagonal rearrangement."""

import random

import pytest

import gen
import thincert.certify
from thincert import (Bijection, Dependence, FieldSpec, Matching, Sdr, SparseMatrix,
                      Vector, cantor_bernstein_merge, certify_columns, diagonalize,
                      hall_violator, kernel_basis, support_graph)
from thincert.elimination import Eliminator

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)

FIELDS = [GF2, GF5, QQ]


# --------------------------------------------------------------------------
# certificate validation

def test_sdr_checked_validation():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    ok = Sdr.checked(m, {0: 1, 1: 2})
    assert ok.assignment == {0: 1, 1: 2}
    with pytest.raises(ValueError):
        Sdr.checked(m, {0: 0})  # column 1 unassigned
    with pytest.raises(ValueError):
        Sdr.checked(m, {0: 1, 1: 1})  # row reused
    with pytest.raises(ValueError):
        Sdr.checked(m, {0: 2, 1: 2})  # zero entry and reuse
    with pytest.raises(ValueError):
        Sdr.checked(m, {0: 0, 1: 0})
    with pytest.raises(ValueError):
        Sdr.checked(m, {0: 0, 1: 5})


def test_dependence_checked_validation():
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    ok = Dependence.checked(m, Vector.from_dense(QQ, [1, -1]))
    assert ok.side == "col"
    with pytest.raises(ValueError):
        Dependence.checked(m, Vector.from_dense(QQ, [1, 1]))
    with pytest.raises(ValueError):
        Dependence.checked(m, Vector.zero(QQ, 2))
    with pytest.raises(ValueError):
        Dependence.checked(m, Vector.from_dense(QQ, [1, -1]), side="up")
    with pytest.raises(ValueError):
        Dependence.checked(m, Vector.from_dense(QQ, [1, -1, 0]))


def test_dependence_row_side():
    m = SparseMatrix.from_dense(QQ, [[1, 3], [2, 6]])
    dep = Dependence.checked(m, Vector.from_dense(QQ, [2, -1]), side="row")
    assert dep.side == "row"
    assert m.combine_rows(dep.vector).is_zero
    with pytest.raises(ValueError):
        Dependence.checked(m, Vector.from_dense(QQ, [2, -1]), side="col")


@pytest.mark.parametrize("spec", [GF5, QQ], ids=str)
def test_dependence_row_side_rejects_bad_vectors(spec, monkeypatch):
    """The row side checks y^T A = 0 on the matrix itself, with no transpose,
    and still rejects a vector that fails it or has the column count's
    length."""
    monkeypatch.setattr(SparseMatrix, "transpose", None)
    m = SparseMatrix.from_dense(spec, [[1, 3, 0], [2, 6, 0]])      # 2 x 3
    assert Dependence.checked(m, Vector.from_dense(spec, [2, -1]), side="row").side == "row"
    with pytest.raises(ValueError, match="fails to annihilate"):
        Dependence.checked(m, Vector.from_dense(spec, [1, -1]), side="row")
    with pytest.raises(ValueError, match="wrong length"):
        Dependence.checked(m, Vector.from_dense(spec, [2, -1, 0]), side="row")
    with pytest.raises(ValueError, match="wrong length"):
        Dependence.checked(m, Vector.from_dense(spec, [1]), side="row")


def test_bijection_checked_validation():
    m = SparseMatrix.from_dense(GF5, [[0, 1], [1, 0]])
    b = Bijection.checked(m, {0: 1, 1: 0})
    assert b.col_to_row == {0: 1, 1: 0}
    assert b.row_to_col == {1: 0, 0: 1}
    with pytest.raises(ValueError):
        Bijection.checked(m, {0: 0, 1: 1})  # hits zero entries
    with pytest.raises(ValueError):
        Bijection.checked(m, {0: 1, 1: 1})
    wide = SparseMatrix.from_dense(GF5, [[1, 1]])
    with pytest.raises(ValueError):
        Bijection.checked(wide, {0: 0, 1: 0})


# --------------------------------------------------------------------------
# certify_columns, worked examples

def test_certify_independent_worked_example():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    cert = certify_columns(m)
    assert isinstance(cert, Sdr)
    assert cert.assignment == {0: 0, 1: 1}


def test_certify_dependent_worked_example():
    m = SparseMatrix.from_dense(GF2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    cert = certify_columns(m)
    assert isinstance(cert, Dependence)
    assert str(cert.vector) == "1 1 1 1"


def test_certify_decides_by_kernel_not_matching():
    # the support graph has a perfect matching, yet the columns are dependent:
    # certification must go by the kernel
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    cert = certify_columns(m)
    assert isinstance(cert, Dependence)
    assert str(cert.vector) == "1 -1"


def test_certify_via_violator():
    m = SparseMatrix.from_dense(QQ, [[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    cert = certify_columns(m, via_violator=True)
    assert isinstance(cert, Dependence)
    violator = hall_violator(support_graph(m))
    assert violator is not None
    assert cert.vector.support <= violator
    assert m.mul_vector(cert.vector).is_zero


def test_certify_via_violator_without_violator_falls_back():
    # dependent columns but a column-covering matching exists
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    assert hall_violator(support_graph(m)) is None
    cert = certify_columns(m, via_violator=True)
    assert isinstance(cert, Dependence)
    assert m.mul_vector(cert.vector).is_zero


def test_certify_empty_matrix():
    cert = certify_columns(SparseMatrix.from_entries(QQ, 0, 0, {}))
    assert isinstance(cert, Sdr) and cert.assignment == {}
    cert = certify_columns(SparseMatrix.from_entries(QQ, 0, 2, {}))
    assert isinstance(cert, Dependence)


# --------------------------------------------------------------------------
# certify_columns, random dichotomy

def test_certify_random_independent():
    rng = random.Random(1111)
    for spec in FIELDS:
        for _ in range(12):
            m = gen.independent_cols_matrix(spec, rng, max_rows=12, max_cols=10)
            cert = certify_columns(m)
            assert isinstance(cert, Sdr)
            rows = list(cert.assignment.values())
            assert len(set(rows)) == m.num_cols
            assert all(m.entry(cert.assignment[j], j) for j in range(m.num_cols))


def test_certify_random_dependent():
    rng = random.Random(2222)
    for spec in FIELDS:
        for _ in range(12):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=12, max_cols=10)
            for flag in (False, True):
                cert = certify_columns(m, via_violator=flag)
                assert isinstance(cert, Dependence)
                assert not cert.vector.is_zero
                assert m.mul_vector(cert.vector).is_zero


# --------------------------------------------------------------------------
# diagonalize

def test_diagonalize_worked_example():
    m = SparseMatrix.from_dense(GF5, [[0, 1], [1, 0]])
    out = diagonalize(m)
    assert isinstance(out, Bijection)
    assert out.col_to_row == {0: 1, 1: 0}


def test_diagonalize_singular_reports_row_side():
    m = SparseMatrix.from_dense(GF2, [[1, 1], [1, 1]])
    out = diagonalize(m)
    assert isinstance(out, Dependence)
    assert out.side == "row"
    assert str(out.vector) == "1 1"


def test_diagonalize_rectangular_reports_a_dependence():
    tall = SparseMatrix.from_dense(QQ, [[1, 0], [0, 1], [1, 1]])
    out = diagonalize(tall)
    assert isinstance(out, Dependence) and out.side == "row"
    wide = tall.transpose()
    out = diagonalize(wide)
    assert isinstance(out, Dependence) and out.side == "col"


def two_injection_bijection(m):
    """The bijection built from both column certificates by the
    Cantor-Bernstein merge, the construction diagonalize must reproduce."""
    cols_cert = certify_columns(m)
    rows_cert = certify_columns(m.transpose())
    assert isinstance(cols_cert, Sdr) and isinstance(rows_cert, Sdr)
    graph = support_graph(m)
    m_cols = Matching.checked(graph, cols_cert.assignment.items())
    m_rows = Matching.checked(graph, ((j, i) for i, j in rows_cert.assignment.items()))
    return Bijection.checked(m, cantor_bernstein_merge(graph, m_cols, m_rows).col_to_row)


def first_dependence(m):
    """Row-side kernel vector first, then the column side."""
    row_kern = kernel_basis(m.transpose())
    if row_kern:
        return Dependence(row_kern[0], "row")
    return Dependence(kernel_basis(m)[0], "col")


def test_diagonalize_random_invertible():
    rng = random.Random(3333)
    for spec in (GF5, QQ):
        for _ in range(10):
            m = gen.invertible_matrix(spec, rng, max_n=10)
            out = diagonalize(m)
            assert isinstance(out, Bijection)
            n = m.num_cols
            assert sorted(out.col_to_row) == list(range(n))
            assert sorted(out.col_to_row.values()) == list(range(n))
            for j, i in out.col_to_row.items():
                assert m.entry(i, j)
                assert out.row_to_col[i] == j
            assert out == two_injection_bijection(m)


def test_diagonalize_random_singular():
    rng = random.Random(4444)
    for spec in (GF2, QQ):
        for _ in range(10):
            base = gen.dependent_cols_matrix(spec, rng, max_rows=9, max_cols=9)
            # pad to square so the shape does not give the answer away
            n = max(base.num_rows, base.num_cols)
            m = SparseMatrix.from_entries(
                spec, n, n, {(i, j): el for i, j, el in base.nonzeros()})
            out = diagonalize(m)
            assert isinstance(out, Dependence)
            target = m.transpose() if out.side == "row" else m
            assert target.mul_vector(out.vector).is_zero
            assert out == first_dependence(m)


def test_diagonalize_random_rectangular():
    rng = random.Random(5555)
    sides = set()
    for spec in (GF5, QQ):
        for _ in range(10):
            m = gen.independent_cols_matrix(spec, rng, max_rows=9, max_cols=8)
            if m.num_rows == m.num_cols:
                continue
            for shaped in (m, m.transpose()):
                out = diagonalize(shaped)
                assert out == first_dependence(shaped)
                sides.add(out.side)
    assert sides == {"row", "col"}


def test_one_verification_per_returned_vector(monkeypatch):
    """A dependence is found without building the whole kernel basis: the
    certificate's own check is the only product with the matrix, A v on
    the column side and y^T A on the row side."""
    products = []
    mul_vector, combine_rows = SparseMatrix.mul_vector, SparseMatrix.combine_rows
    monkeypatch.setattr(SparseMatrix, "mul_vector",
                        lambda self, v: products.append(v) or mul_vector(self, v))
    monkeypatch.setattr(SparseMatrix, "combine_rows",
                        lambda self, y: products.append(y) or combine_rows(self, y))
    rng = random.Random(6666)
    for spec in FIELDS:
        for _ in range(10):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=9, max_cols=9)
            calls = [lambda: certify_columns(m), lambda: certify_columns(m, via_violator=True),
                     lambda: diagonalize(m), lambda: diagonalize(m.transpose())]
            for call in calls:
                products.clear()
                out = call()
                assert isinstance(out, Dependence)
                assert products == [out.vector]


def square_hall(spec, rng, n, k):
    """An n x n matrix, rows and columns shuffled, whose first k columns
    live on only k - 1 rows (a bidiagonal block), so they violate Hall's
    condition; the other rows reach only the other columns."""
    entries = {}
    for i in range(k - 1):
        for j in (i, i + 1, rng.randrange(k, n)):
            entries[(i, j)] = gen.rand_nonzero(spec, rng)
    for i in range(k - 1, n):
        for j in {k + (i - k + 1) % (n - k), *rng.sample(range(k, n), 2)}:
            entries[(i, j)] = gen.rand_nonzero(spec, rng)
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return SparseMatrix.from_entries(spec, n, n, {(rows[i], cols[j]): v
                                                  for (i, j), v in entries.items()})


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_violator_first_eliminates_only_its_submatrix(spec, monkeypatch):
    """With a Hall violator, ``via_violator`` builds one Eliminator and feeds
    it the nonempty rows of the violator's submatrix, nothing else."""
    fed = []
    init, feed = Eliminator.__init__, Eliminator.feed
    monkeypatch.setattr(Eliminator, "__init__",
                        lambda self, *a, **kw: fed.append([]) or init(self, *a, **kw))
    monkeypatch.setattr(Eliminator, "feed",
                        lambda self, cells, rhs: fed[-1].append(dict(cells)) or feed(self, cells, rhs))
    key = lambda cells: sorted(cells.items())
    rng = random.Random(f"square-hall/{spec.modulus}")
    for _ in range(10):
        m = square_hall(spec, rng, rng.randint(8, 20), rng.randint(3, 5))
        graph = support_graph(m)
        violator = hall_violator(graph)
        sub = m.submatrix(sorted(graph.neighbourhood(violator)), sorted(violator))
        fed.clear()
        cert = certify_columns(m, via_violator=True)
        assert isinstance(cert, Dependence) and cert.vector.support <= violator
        assert len(fed) == 1
        assert sorted(fed[0], key=key) == sorted(
            (sub.raw_row(i) for i in range(sub.num_rows) if sub.rows[i]), key=key)
        assert len(fed[0]) < m.num_rows


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_one_matching_per_certificate(spec, monkeypatch):
    """A covered matrix gets its Sdr from a single maximum matching, with or
    without ``via_violator``, after one ``hall_violator`` with it; a violator
    is read off ``hall_violator``'s own search, with no canonical matching."""
    calls = []
    for name in ("max_matching", "hall_violator"):
        fn = getattr(thincert.certify, name)
        monkeypatch.setattr(thincert.certify, name,
                            lambda graph, fn=fn, name=name: calls.append(name) or fn(graph))
    rng = random.Random(f"one-matching/{spec.modulus}")
    for _ in range(10):
        m = gen.independent_cols_matrix(spec, rng, max_rows=12, max_cols=10)
        for via in (False, True):
            calls.clear()
            assert isinstance(certify_columns(m, via_violator=via), Sdr)
            assert calls == (["hall_violator", "max_matching"] if via else ["max_matching"])
        calls.clear()
        assert isinstance(certify_columns(square_hall(spec, rng, 10, 4), via_violator=True),
                          Dependence)
        assert calls == ["hall_violator"]
