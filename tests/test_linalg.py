"""Sparse exact linear algebra: rank, kernels, solving, refutation cores."""

import random
from fractions import Fraction

import pytest

import gen
from thincert import (FieldSpec, SparseMatrix, UnsolvabilityCertificate, Vector,
                      kernel_basis, rank, solve, unsolvable_core)
from thincert.elimination import Eliminator
from thincert.linalg import _feed_all, _first_kernel_vector

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF3 = FieldSpec.gf(3)
GF5 = FieldSpec.gf(5)

FIELDS = [GF2, GF5, QQ]


# --------------------------------------------------------------------------
# Vector basics

def test_vector_construction_and_access():
    v = Vector.from_dense(QQ, [0, 3, 0, Fraction(-1, 2)])
    assert v.length == 4
    assert v.support == frozenset({1, 3})
    assert v.get(0) == 0 and v.get(1) == 3
    assert str(v) == "0 3 0 -1/2"
    assert [str(e) for e in v.to_dense()] == ["0", "3", "0", "-1/2"]


def test_vector_from_pairs_drops_zeros_rejects_duplicates():
    v = Vector.from_pairs(QQ, 5, [(4, 2), (1, 0)])
    assert v.support == frozenset({4})
    with pytest.raises(ValueError):
        Vector.from_pairs(QQ, 5, [(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        Vector.from_pairs(QQ, 2, [(2, 1)])


def test_vector_dot_and_scale():
    a = Vector.from_dense(GF5, [1, 2, 3])
    b = Vector.from_dense(GF5, [4, 0, 1])
    assert a.dot(b) == 2  # 4 + 0 + 3 = 7 = 2 mod 5
    assert a.scaled(2).to_dense() == Vector.from_dense(GF5, [2, 4, 1]).to_dense()
    assert a.scaled(0).is_zero
    with pytest.raises(ValueError):
        a.dot(Vector.from_dense(GF5, [1, 2]))


# --------------------------------------------------------------------------
# SparseMatrix basics

def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(QQ, 2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseMatrix.from_entries(QQ, 2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix.from_dense(QQ, [[1, 2], [3]])


def test_vector_refuses_an_element_of_another_field():
    with pytest.raises(ValueError, match="entry from a different field"):
        Vector(GF5, 2, ((0, GF3.element(1)),))


def test_matrix_constructor_refuses_a_wrong_row_count():
    with pytest.raises(ValueError, match="row count does not match num_rows"):
        SparseMatrix(GF5, 2, 2, (((0, GF5.element(1)),),))


def test_products_refuse_a_mismatched_vector():
    m = SparseMatrix.from_dense(GF5, [[1, 2, 0], [0, 1, 1]])
    for bad in (Vector.from_dense(GF5, [1, 1]), Vector.from_dense(GF3, [1, 1, 1])):
        with pytest.raises(ValueError, match="does not match the matrix columns"):
            m.mul_vector(bad)
    for bad in (Vector.from_dense(GF5, [1, 1, 1]), Vector.from_dense(GF3, [1, 1])):
        with pytest.raises(ValueError, match="does not match the matrix rows"):
            m.combine_rows(bad)


def test_matrix_zero_entries_are_not_stored():
    m = SparseMatrix.from_entries(GF5, 2, 2, {(0, 0): 5, (1, 1): 3})
    assert m.nnz == 1
    assert m.entry(0, 0) == 0 and m.entry(1, 1) == 3


def test_transpose_is_involution():
    rng = random.Random(101)
    for spec in FIELDS:
        m = gen.independent_cols_matrix(spec, rng, max_rows=8, max_cols=6)
        t = m.transpose()
        assert t.num_rows == m.num_cols and t.num_cols == m.num_rows
        assert t.transpose() == m
        assert {(i, j, e) for i, j, e in m.nonzeros()} == \
               {(j, i, e) for i, j, e in t.nonzeros()}


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_mul_vector_and_combine_rows_against_dense(spec):
    """Over Q the entries mix denominators 1, 2 and 3, so each matrix row
    and each vector goes through its own common denominator."""
    rng = random.Random(f"dense/{spec.modulus}")
    p = spec.modulus

    def canonical(total):
        return total % p if p is not None else total

    for _ in range(30):
        m = gen.dependent_cols_matrix(spec, rng, max_rows=7, max_cols=7)
        x, x2 = (Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_cols)])
                 for _ in range(2))
        y = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
        dense = [[el.value for el in row] for row in m.to_dense()]
        xs, x2s, ys = ([el.value for el in v.to_dense()] for v in (x, x2, y))
        ax = [canonical(sum(dense[i][j] * xs[j] for j in range(m.num_cols)))
              for i in range(m.num_rows)]
        assert [e.value for e in m.mul_vector(x).to_dense()] == ax
        ya = [canonical(sum(dense[i][j] * ys[i] for i in range(m.num_rows)))
              for j in range(m.num_cols)]
        assert [e.value for e in m.combine_rows(y).to_dense()] == ya
        assert x.dot(x2).value == canonical(sum(a * b for a, b in zip(xs, x2s)))


def test_submatrix_reindexes_in_given_order():
    m = SparseMatrix.from_dense(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = m.submatrix([2, 0], [1])
    assert s.num_rows == 2 and s.num_cols == 1
    assert s.entry(0, 0) == 8 and s.entry(1, 0) == 2


def test_submatrix_and_raw_row_reject_out_of_range_ids():
    # A negative id must not wrap round to the last row, and a column id
    # out of range must not read as a zero column.
    m = SparseMatrix.from_dense(QQ, [[1, 2], [3, 4]])
    for rows, cols in (([-1], [0, 1]), ([2], [0]), ([0], [-1]), ([0], [2]), ([0, 5], [0])):
        with pytest.raises(IndexError):
            m.submatrix(rows, cols)
    for i in (-1, 2):
        with pytest.raises(IndexError):
            m.raw_row(i)
    with pytest.raises(ValueError):
        m.submatrix([0, 0], [0])
    with pytest.raises(ValueError):
        m.submatrix([0], [1, 1])


# --------------------------------------------------------------------------
# worked examples, frozen

def test_rank_and_kernel_worked_example_gf2():
    m = SparseMatrix.from_dense(GF2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert rank(m) == 3
    basis = kernel_basis(m)
    assert [str(v) for v in basis] == ["1 1 1 1"]


def test_trivial_kernel_worked_example():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    assert rank(m) == 2
    assert kernel_basis(m) == []


def test_solve_worked_example_unsolvable():
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    out = solve(m, Vector.from_dense(QQ, [0, 1]))
    assert isinstance(out, UnsolvabilityCertificate)
    assert str(out.y) == "1 -1"


def test_solve_worked_example_gf5():
    m = SparseMatrix.from_dense(GF5, [[2, 1], [1, 2]])
    out = solve(m, Vector.from_dense(GF5, [1, 2]))
    assert isinstance(out, Vector)
    assert str(out) == "0 1"


def test_unsolvable_core_worked_example():
    m = SparseMatrix.from_dense(QQ, [[1], [1], [1]])
    rhs = Vector.from_dense(QQ, [1, 1, 2])
    assert unsolvable_core(m, rhs) == frozenset({0, 2})


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_interleaved_empty_rows_keep_row_indices(spec):
    """Empty rows between the others do not shift the row indices of a
    refutation, and an empty row with a nonzero right-hand side refutes the
    system on its own."""
    m = SparseMatrix.from_dense(spec, [[0, 0], [1, 1], [0, 0], [0, 0], [1, 1], [0, 0], [0, 1]])
    assert rank(m) == 2
    clash = Vector.from_dense(spec, [0, 1, 0, 0, 0, 0, 0])
    out = solve(m, clash)
    assert isinstance(out, UnsolvabilityCertificate) and out.y.support == {1, 4}
    assert unsolvable_core(m, clash) == frozenset({1, 4})
    lone = Vector.from_dense(spec, [0, 1, 0, 1, 1, 0, 1])
    out = solve(m, lone)
    assert isinstance(out, UnsolvabilityCertificate) and out.y.support == {3}
    assert unsolvable_core(m, lone) == frozenset({3})
    consistent = Vector.from_dense(spec, [0, 1, 0, 0, 1, 0, 1])
    x = solve(m, consistent)
    assert isinstance(x, Vector) and m.mul_vector(x) == consistent


# --------------------------------------------------------------------------
# degenerate shapes

def test_empty_shapes():
    for spec in FIELDS:
        zero_by_zero = SparseMatrix.from_entries(spec, 0, 0, {})
        assert rank(zero_by_zero) == 0 and kernel_basis(zero_by_zero) == []
        tall = SparseMatrix.from_entries(spec, 3, 0, {})
        assert rank(tall) == 0 and kernel_basis(tall) == []
        wide = SparseMatrix.from_entries(spec, 0, 3, {})
        assert rank(wide) == 0
        basis = kernel_basis(wide)
        assert len(basis) == 3  # every column is free
        zero_rows = SparseMatrix.from_entries(spec, 2, 2, {})
        assert rank(zero_rows) == 0 and len(kernel_basis(zero_rows)) == 2


def test_solve_with_zero_sized_system():
    m = SparseMatrix.from_entries(QQ, 0, 2, {})
    out = solve(m, Vector.zero(QQ, 0))
    assert isinstance(out, Vector) and out.length == 2 and out.is_zero


# --------------------------------------------------------------------------
# properties against independent oracles

def test_rank_kernel_match_enumeration_oracle():
    rng = random.Random(303)
    for spec in (GF2, GF3):
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            entries = {}
            for i in range(r):
                for j in range(c):
                    v = rng.randrange(spec.modulus)
                    if v:
                        entries[(i, j)] = v
            m = SparseMatrix.from_entries(spec, r, c, entries)
            brute_rank, brute_kernel = gen.brute_rank_kernel(spec, m)
            assert rank(m) == brute_rank
            basis = kernel_basis(m)
            assert len(basis) == c - brute_rank
            for v in basis:
                assert tuple(e.value for e in v.to_dense()) in brute_kernel


def test_rank_of_transpose_equals_rank():
    rng = random.Random(404)
    for spec in FIELDS:
        for _ in range(15):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=10, max_cols=10)
            assert rank(m) == rank(m.transpose())


def test_rank_nullity_accounting():
    rng = random.Random(505)
    for spec in FIELDS:
        for make in (gen.independent_cols_matrix, gen.dependent_cols_matrix):
            for _ in range(10):
                m = make(spec, rng, max_rows=12, max_cols=10)
                assert rank(m) + len(kernel_basis(m)) == m.num_cols


def test_kernel_basis_vectors_are_normalized_and_annihilated():
    rng = random.Random(606)
    for spec in FIELDS:
        for _ in range(15):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=10, max_cols=10)
            basis = kernel_basis(m)
            assert basis
            for v in basis:
                assert m.mul_vector(v).is_zero
                assert v.get(min(v.support)) == 1
            assert len(set(basis)) == len(basis)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_first_kernel_vector_is_the_first_basis_vector(spec):
    rng = random.Random(f"first-kernel/{spec.modulus}")
    seen = set()
    for shape in ("wide", "square", "tall"):
        for _ in range(40):
            n = rng.randint(1, 10)
            k = rng.randint(1, 4)
            nrows, ncols = {"wide": (n, n + k), "square": (n, n), "tall": (n + k, n)}[shape]
            density = rng.choice([0.15, 0.3, 0.6])
            entries = {(i, j): gen.rand_nonzero(spec, rng)
                       for i in range(nrows) for j in range(ncols) if rng.random() < density}
            m = SparseMatrix.from_entries(spec, nrows, ncols, entries)
            basis = kernel_basis(m)
            assert _first_kernel_vector(m) == (basis[0] if basis else None)
            seen.add((shape, bool(basis)))
    assert seen == {(s, b) for s in ("wide", "square", "tall") for b in (True, False)} - {
        ("wide", False)}


def test_solve_results_verify_densely():
    rng = random.Random(707)
    for spec in FIELDS:
        for _ in range(25):
            m = gen.dependent_cols_matrix(spec, rng, max_rows=8, max_cols=8)
            rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng)
                                           for _ in range(m.num_rows)])
            out = solve(m, rhs)
            if isinstance(out, Vector):
                assert m.mul_vector(out).to_dense() == rhs.to_dense()
            else:
                assert m.combine_rows(out.y).is_zero
                assert out.y.dot(rhs) != 0


@pytest.mark.parametrize("spec", [GF5, QQ], ids=str)
def test_solve_rejects_a_wrong_solution(spec, monkeypatch):
    """The solution check compares every row, those with a zero right-hand
    side included, so a wrong ``Eliminator.solution`` still raises."""
    m = SparseMatrix.from_dense(spec, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    rhs = Vector.from_dense(spec, [1, 0, 3])
    assert solve(m, rhs) == Vector.from_dense(spec, [4, -3, 3])
    for wrong in ({0: 1, 2: 3},             # row 1 gives 3 where the rhs is zero
                  {0: 3, 1: -3, 2: 3},      # row 0 gives zero where the rhs is one
                  {}):
        monkeypatch.setattr(Eliminator, "solution", lambda self, x=wrong: {
            c: spec.coerce(v) for c, v in x.items()})
        with pytest.raises(AssertionError, match="solution failed verification"):
            solve(m, rhs)


def test_certificate_checked_rejects_bad_witness():
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    rhs = Vector.from_dense(QQ, [0, 1])
    with pytest.raises(ValueError):
        UnsolvabilityCertificate.checked(m, rhs, Vector.from_dense(QQ, [1, 0]))
    with pytest.raises(ValueError):
        UnsolvabilityCertificate.checked(m, rhs, Vector.from_dense(QQ, [1, 1]))


def test_certificate_checked_rejects_a_zero_or_orthogonal_y():
    m = SparseMatrix.from_dense(QQ, [[1, 1], [1, 1]])
    rhs = Vector.from_dense(QQ, [1, 1])
    with pytest.raises(ValueError, match="certificate vector is zero"):
        UnsolvabilityCertificate.checked(m, rhs, Vector.zero(QQ, 2))
    # y = (1, -1) annihilates the rows, and b as well
    with pytest.raises(ValueError, match="orthogonal to the right-hand side"):
        UnsolvabilityCertificate.checked(m, rhs, Vector.from_dense(QQ, [1, -1]))


def test_solve_refuses_a_mismatched_rhs():
    m = SparseMatrix.from_dense(GF5, [[1, 2], [0, 1]])
    with pytest.raises(ValueError, match="right-hand side from a different field"):
        solve(m, Vector.from_dense(GF3, [1, 1]))
    with pytest.raises(ValueError, match="right-hand side length does not match the rows"):
        solve(m, Vector.from_dense(GF5, [1, 1, 1]))


def test_kernel_basis_rejects_a_wrong_kernel_vector(monkeypatch):
    """Pivot rows that lose their free entries give e_free, which A does not
    annihilate: ``kernel_basis``'s own check must catch it."""
    m = SparseMatrix.from_dense(GF5, [[1, 2, 0], [0, 1, 1]])
    assert kernel_basis(m) == [Vector.from_dense(GF5, [1, 2, 3])]
    monkeypatch.setattr(Eliminator, "reduced_pivots",
                        lambda self: {c: {c: self.spec.one} for c in self.pivots})
    with pytest.raises(AssertionError, match="kernel vector failed verification"):
        kernel_basis(m)


def test_unsolvable_core_is_unsolvable_in_isolation():
    rng = random.Random(808)
    hits = 0
    while hits < 15:
        spec = rng.choice(FIELDS)
        m = gen.dependent_cols_matrix(spec, rng, max_rows=9, max_cols=6)
        rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng)
                                       for _ in range(m.num_rows)])
        out = solve(m, rhs)
        if isinstance(out, Vector):
            continue
        hits += 1
        core = sorted(unsolvable_core(m, rhs))
        sub = m.submatrix(core, range(m.num_cols))
        sub_rhs = Vector.from_dense(spec, [rhs.get(i) for i in core])
        assert isinstance(solve(sub, sub_rhs), UnsolvabilityCertificate)


def test_unsolvable_core_checks_the_certificate_without_eliminating(monkeypatch):
    # The core is the support of a certificate that comes from one
    # elimination of the transpose: a core costs one Eliminator, a refuted
    # solve two (its rows, then the transpose).
    built = []
    init = Eliminator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    rng = random.Random(810)
    hits = 0
    while hits < 15:
        spec = rng.choice(FIELDS)
        m = gen.dependent_cols_matrix(spec, rng, max_rows=9, max_cols=6)
        rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
        if isinstance(solve(m, rhs), Vector):
            continue
        hits += 1
        with monkeypatch.context() as mp:
            mp.setattr(Eliminator, "__init__", counting)
            built.clear()
            solve(m, rhs)
            solved = len(built)
            built.clear()
            unsolvable_core(m, rhs)
            assert len(built) == 1 < solved == 2


def test_unsolvable_core_checks_its_certificate_once(monkeypatch):
    # The certificate is checked once, against the whole system; rows outside
    # its support have coefficient zero, so no restriction is built and
    # checked again.  Two million columns make a restriction of the rows slow.
    calls = []
    checked = UnsolvabilityCertificate.checked.__func__
    submatrix = SparseMatrix.submatrix
    monkeypatch.setattr(UnsolvabilityCertificate, "checked", classmethod(
        lambda cls, *args: calls.append("checked") or checked(cls, *args)))
    monkeypatch.setattr(SparseMatrix, "submatrix",
                        lambda self, *args: calls.append("submatrix") or submatrix(self, *args))
    m = SparseMatrix.from_entries(GF5, 3, 2_000_000, {(0, 5): 1, (1, 5): 1})
    rhs = Vector.from_dense(GF5, [1, 2, 0])
    assert unsolvable_core(m, rhs) == frozenset({0, 1})
    assert calls == ["checked"]


def test_unsolvable_core_minimize_is_minimal():
    """Every core is irreducible, so ``minimize`` returns the same core: the
    greedy row-deletion pass it used to run, kept here as the oracle, finds
    each single-row deletion solvable."""
    rng = random.Random(909)
    for spec in FIELDS:
        hits = 0
        while hits < 12:
            m = gen.dependent_cols_matrix(spec, rng, max_rows=10, max_cols=6)
            rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng)
                                           for _ in range(m.num_rows)])
            if isinstance(solve(m, rhs), Vector):
                continue
            hits += 1
            core = sorted(unsolvable_core(m, rhs, minimize=True))
            assert core == sorted(unsolvable_core(m, rhs))
            for drop in range(len(core)):
                kept = [i for k, i in enumerate(core) if k != drop]
                sub = m.submatrix(kept, range(m.num_cols))
                sub_rhs = Vector.from_dense(spec, [rhs.get(i) for i in kept])
                assert isinstance(solve(sub, sub_rhs), Vector)


@pytest.fixture
def eliminators(monkeypatch):
    """Every Eliminator built, with the rows it was fed as (cells, rhs)."""
    made = []
    init, feed = Eliminator.__init__, Eliminator.feed

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append((self, []))

    def spy_feed(self, cells, rhs):
        next(fed for elim, fed in made if elim is self).append((dict(cells), rhs))
        return feed(self, cells, rhs)

    monkeypatch.setattr(Eliminator, "__init__", spy_init)
    monkeypatch.setattr(Eliminator, "feed", spy_feed)
    return made


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_solve_tracks_provenance_only_to_refute(spec, eliminators):
    """A solve builds no tracked Eliminator.  A consistent one builds one,
    fed sparsest row first; a refuted one builds a second over the
    transpose, fed its nonempty rows sparsest first and then b."""
    rng = random.Random(f"tracked/{spec.modulus}")
    kinds = set()
    for _ in range(30):
        m = gen.dependent_cols_matrix(spec, rng, max_rows=10, max_cols=8)
        rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
        eliminators.clear()
        refuted = isinstance(solve(m, rhs), UnsolvabilityCertificate)
        kinds.add(refuted)
        assert [elim.track for elim, _ in eliminators] == [False] * (1 + refuted)
        lengths = [len(cells) for cells, _ in eliminators[0][1]]
        assert lengths == sorted(lengths)
        if refuted:
            t = m.transpose()
            *fed, last = eliminators[1][1]
            assert fed == sorted([(t.raw_row(j), spec.zero) for j in range(t.num_rows)
                                  if t.raw_row(j)], key=lambda row: len(row[0]))
            assert last == (rhs.raw_cells(), spec.zero)
    assert kinds == {True, False}


def test_refuted_solve_feeds_only_rows_that_can_matter(monkeypatch):
    """Two million empty rows and one nonzero right-hand side, on the last
    row: a refuted ``solve`` feeds that one row, then b to an elimination of
    the empty transpose, and nothing else."""
    n = 2_000_000
    fed = []
    feed = Eliminator.feed
    monkeypatch.setattr(Eliminator, "feed", lambda self, cells, rhs: (
        fed.append((self, dict(cells), rhs)), feed(self, cells, rhs))[1])
    m = SparseMatrix.from_entries(GF5, n, 3, {})
    out = solve(m, Vector.from_pairs(GF5, n, [(n - 1, 3)]))
    assert [(cells, rhs) for _, cells, rhs in fed] == [({}, 3), ({n - 1: 3}, 0)]
    assert fed[0][0] is not fed[1][0] and not fed[0][0].track and not fed[1][0].track
    assert isinstance(out, UnsolvabilityCertificate)
    assert out.y == Vector.from_pairs(GF5, n, [(n - 1, 1)])


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_untracked_feed_order_matches_comprehension(spec, monkeypatch):
    """``_feed_all`` feeds the empty rows with a nonzero right-hand side,
    then the nonempty rows stably by length: the order of the comprehension
    over every row that it replaced.  A nonempty row is told by the identity
    of its stored cells, an empty one by its right-hand side."""
    fed = []
    monkeypatch.setattr(Eliminator, "feed", lambda self, cells, rhs: fed.append((id(cells), rhs)))
    rng = random.Random(f"feed-order/{spec.modulus}")
    empty_with_rhs = empty_without_rhs = 0
    for _ in range(40):
        r, c = rng.randint(1, 14), rng.randint(1, 6)
        entries = {(rng.randrange(r), rng.randrange(c)): gen.rand_nonzero(spec, rng)
                   for _ in range(rng.randint(0, 2 * r))}
        m = SparseMatrix.from_entries(spec, r, c, entries)
        rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) if rng.random() < 0.5
                                       else spec.zero for _ in range(r)])
        for b in (None, rhs):
            rhs_cells = b.raw_cells() if b is not None else {}
            rows = m.rows
            expected = sorted([i for i, row in enumerate(rows) if row or i in rhs_cells],
                              key=lambda i: len(rows[i]))
            fed.clear()
            _feed_all(m, b)
            assert fed == [(id(m._cells[i]), rhs_cells.get(i, spec.zero)) for i in expected]
            empty = [i for i, row in enumerate(rows) if not row]
            empty_with_rhs += sum(i in rhs_cells for i in empty)
            empty_without_rhs += sum(i not in rhs_cells for i in empty)
    assert empty_with_rhs >= 10 and empty_without_rhs >= 10


def reference_refutation(m: SparseMatrix, rhs: Vector) -> Vector | None:
    """The certificate of a tracked elimination fed every row in index
    order, empty ones included, normalized to a lowest-index one; None if
    every prefix is solvable."""
    spec, b = m.spec, rhs.raw_cells()
    elim = Eliminator(spec)
    for i in range(m.num_rows):
        combo = elim.feed(m.raw_row(i), b.get(i, spec.zero))
        if combo is not None:
            lead = spec.inv(combo[min(combo)])
            return Vector.from_pairs(spec, m.num_rows,
                                     ((k, spec.mul(lead, v)) for k, v in combo.items()))
    return None


def refutation_cases(spec: FieldSpec, rng: random.Random):
    """Seeded tall systems, each with repeated rows, in three kinds: random
    right-hand sides; an empty first row with a nonzero right-hand side; and
    a planted solution broken only on the last row, a repeat."""
    for trial in range(90):
        kind = trial % 3
        r, c = rng.randint(2, 10), rng.randint(1, 6)
        rows = [{j: gen.rand_nonzero(spec, rng)
                 for j in rng.sample(range(c), rng.randint(1, min(c, 3)))} for _ in range(r)]
        for _ in range(rng.randint(1, 2)):
            rows[rng.randrange(1, r)] = dict(rows[rng.randrange(r)])
        if kind == 0:
            b = [gen.rand_scalar(spec, rng) for _ in range(r)]
        else:
            x = [gen.rand_scalar(spec, rng) for _ in range(c)]
            b = [sum((v * x[j] for j, v in row.items()), spec.zero) for row in rows]
            if kind == 1:
                rows[0], b[0] = {}, gen.rand_nonzero(spec, rng)
            else:
                k = rng.randrange(r - 1)
                rows[-1], b[-1] = dict(rows[k]), b[k] + gen.rand_nonzero(spec, rng)
        m = SparseMatrix.from_entries(spec, r, c, [(i, j, v) for i, row in enumerate(rows)
                                                   for j, v in row.items()])
        yield kind, m, Vector.from_dense(spec, b)


@pytest.mark.parametrize("spec", [GF2, GF5, FieldSpec.gf(1000003), QQ], ids=str)
def test_refutations_match_a_tracked_elimination_in_row_order(spec):
    """``solve``'s certificate and ``unsolvable_core``'s core, read off the
    transpose, equal those of a tracked elimination of the rows in order."""
    rng = random.Random(f"transpose-refutation/{spec.modulus}")
    refuted = {0: 0, 1: 0, 2: 0}
    for kind, m, rhs in refutation_cases(spec, rng):
        ref = reference_refutation(m, rhs)
        out = solve(m, rhs)
        if ref is None:
            assert isinstance(out, Vector)
            with pytest.raises(ValueError):
                unsolvable_core(m, rhs)
            continue
        refuted[kind] += 1
        assert isinstance(out, UnsolvabilityCertificate) and out.y == ref
        assert unsolvable_core(m, rhs) == ref.support
        if kind == 1:
            assert ref.support == {0}
        if kind == 2:
            assert m.num_rows - 1 in ref.support
    assert refuted[0] >= 10 and refuted[1] == refuted[2] == 30
