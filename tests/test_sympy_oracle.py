"""Differential oracle: rank, kernel, solve and the reduced echelon form
against sympy's DomainMatrix.

``rank`` and ``kernel_basis`` eliminate without provenance; sympy's sparse
domain matrices give an independent computation over the same fields.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import gen
from thincert import (FieldSpec, SparseMatrix, UnsolvabilityCertificate, Vector,
                      kernel_basis, rank, solve)
from thincert.linalg import _feed_all

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

P = 1000003
FIELDS = [FieldSpec.rationals(), FieldSpec.gf(2), FieldSpec.gf(P), FieldSpec.gf(2**61 - 1)]


def to_sympy(spec, nrows, ncols, rows):
    dom = sympy.QQ if spec.modulus is None else sympy.GF(spec.modulus)
    conv = dom if spec.modulus is not None else (lambda v: dom(v.numerator, v.denominator))
    return DomainMatrix({i: {j: conv(v) for j, v in row.items()}
                         for i, row in enumerate(rows) if row}, (nrows, ncols), dom)


def from_sympy(spec, v):
    """Our raw value of a sympy domain element (GF(p) ones are symmetric)."""
    if spec.modulus is None:
        return Fraction(int(v.numerator), int(v.denominator))
    return int(v) % spec.modulus


def sparse_matrix_rows(spec, rng):
    """Sparse rows, a share of them combinations of earlier rows, so that
    both the row and the column kernel are often nontrivial."""
    nrows, ncols = rng.randint(1, 25), rng.randint(1, 25)
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            row = {}
            for _ in range(2):
                f = gen.rand_nonzero(spec, rng)
                for c, v in rows[rng.randrange(len(rows))].items():
                    row[c] = spec.add(row.get(c, spec.zero), spec.mul(f, v))
            row = {c: v for c, v in row.items() if v != 0}
        else:
            cols = rng.sample(range(ncols), rng.randint(0, min(4, ncols)))
            row = {c: gen.rand_nonzero(spec, rng) for c in cols}
        rows.append(row)
    return nrows, ncols, rows


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_rank_and_kernel_match_sympy(spec):
    rng = random.Random(f"sympy/{spec.modulus}")
    for _ in range(40):
        nrows, ncols, rows = sparse_matrix_rows(spec, rng)
        m = SparseMatrix.from_entries(
            spec, nrows, ncols, ((i, j, v) for i, row in enumerate(rows) for j, v in row.items()))
        dm = to_sympy(spec, nrows, ncols, rows)
        r = rank(m)
        assert r == dm.rank()
        basis = kernel_basis(m)
        nullity = dm.nullspace().shape[0]
        assert len(basis) == nullity == ncols - r
        if basis:
            # our basis spans sympy's kernel: stacking both adds no rank
            ours = [dict((i, el.value) for i, el in v.entries) for v in basis]
            stacked = to_sympy(spec, nullity, ncols, ours).vstack(dm.nullspace())
            assert stacked.rank() == nullity


def test_hilbert_matrices_match_sympy():
    """Dense rational systems whose elimination grows entries: the 10x10
    Hilbert matrix, and the same with an eleventh column that is a
    combination of the others, so the kernel is a line."""
    qq = FieldSpec.rationals()
    n = 10
    hilbert = [{j: Fraction(1, i + j + 1) for j in range(n)} for i in range(n)]
    b = [Fraction(i + 1, 7) for i in range(n)]
    m = SparseMatrix.from_entries(
        qq, n, n, ((i, j, v) for i, row in enumerate(hilbert) for j, v in row.items()))
    dm = to_sympy(qq, n, n, hilbert)
    assert rank(m) == dm.rank() == n
    assert kernel_basis(m) == []
    x = solve(m, Vector.from_dense(qq, b))
    expect = dm.lu_solve(DomainMatrix([[sympy.QQ(v.numerator, v.denominator)] for v in b],
                                      (n, 1), sympy.QQ))
    assert [el.value for el in x.to_dense()] == [
        Fraction(int(v.numerator), int(v.denominator)) for v in expect.to_Matrix()]

    wide = [{**row, n: 3 * row[2] - row[7] / 5} for row in hilbert]
    m = SparseMatrix.from_entries(
        qq, n, n + 1, ((i, j, v) for i, row in enumerate(wide) for j, v in row.items()))
    dm = to_sympy(qq, n, n + 1, wide)
    assert rank(m) == dm.rank() == n
    (vec,) = kernel_basis(m)
    (theirs,) = dm.nullspace().to_Matrix().tolist()
    lead = next(v for v in theirs if v != 0)
    assert [el.value for el in vec.to_dense()] == [
        Fraction(int((v / lead).p), int((v / lead).q)) for v in theirs]
    # column n is the only free one, so the solution is x padded with zero
    assert solve(m, Vector.from_dense(qq, b)) == Vector.from_pairs(qq, n + 1, x.entries)


def plain_back_reduction(spec, pivots):
    """Unit-lead reduced echelon rows from an eliminator's pivot rows, by
    ``FieldElement`` arithmetic (plain ``Fraction``s over Q)."""
    reduced = {}
    for c in sorted(pivots, reverse=True):
        cells = pivots[c].cells
        lead = spec.element(cells[c])
        row = {cc: spec.element(v) / lead for cc, v in cells.items()}
        for cc in [k for k in row if k != c and k in pivots]:
            factor = row.pop(cc)
            for c2, v2 in reduced[cc].items():
                if c2 != cc:
                    w = row.get(c2, spec.element(0)) - factor * v2
                    if w:
                        row[c2] = w
                    else:
                        row.pop(c2, None)
        reduced[c] = row
    return {c: {cc: el.value for cc, el in row.items()} for c, row in reduced.items()}


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_solve_and_reduced_pivots_match_sympy(spec):
    """Half the right-hand sides are ``A x0`` for a random ``x0``, half are
    random.  A consistent system must give the free-variables-zero solution
    read off sympy's rref of ``[A|b]``; an inconsistent one (rank of
    ``[A|b]`` above rank ``A``) must give a certificate.  The reduced
    echelon rows must equal sympy's rref of ``A`` and a plain back-reduction
    of the same pivot rows."""
    rng = random.Random(f"sympy-solve/{spec.modulus}")
    p = spec.modulus
    verdicts = Counter()
    for _ in range(60):
        nrows, ncols, rows = sparse_matrix_rows(spec, rng)
        m = SparseMatrix.from_entries(
            spec, nrows, ncols, ((i, j, v) for i, row in enumerate(rows) for j, v in row.items()))
        if rng.random() < 0.5:
            x0 = [gen.rand_scalar(spec, rng) for _ in range(ncols)]
            b = [sum((v * x0[j] for j, v in row.items()), start=spec.zero) for row in rows]
            b = [v % p if p is not None else v for v in b]
        else:
            b = [gen.rand_scalar(spec, rng) for _ in range(nrows)]
        dm = to_sympy(spec, nrows, ncols, rows)
        aug = to_sympy(spec, nrows, ncols + 1,
                       [{**row, ncols: bi} if bi else row for row, bi in zip(rows, b)])
        out = solve(m, Vector.from_dense(spec, b))
        if aug.rank() > dm.rank():
            assert isinstance(out, UnsolvabilityCertificate)
            verdicts["refuted"] += 1
        else:
            rref, pivots = aug.rref()
            table = rref.to_list()
            expect = [spec.zero] * ncols
            for k, c in enumerate(pivots):
                expect[c] = from_sympy(spec, table[k][ncols])
            assert [el.value for el in out.to_dense()] == expect
            verdicts["solved"] += 1

        elim, _ = _feed_all(m, None)
        reduced = elim.reduced_pivots()
        assert reduced == plain_back_reduction(spec, elim.pivots)
        rref, pivots = dm.rref()
        table = rref.to_list()
        assert reduced == {c: {j: from_sympy(spec, v) for j, v in enumerate(table[k]) if v}
                           for k, c in enumerate(pivots)}
    assert verdicts["refuted"] >= 10 and verdicts["solved"] >= 10
