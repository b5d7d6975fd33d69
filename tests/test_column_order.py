"""The fill-reducing column order against the index-order elimination.

``linalg`` eliminates its nonempty columns in ascending nonzero count and
rebuilds the canonical answers from the kernel.  The index-order versions of
``kernel_basis``, ``_first_kernel_vector``, ``solve`` and ``_refutation``
that it replaced are kept here, as they were, as the reference: every
answer must equal theirs.
"""

import random
from collections import Counter

import pytest

import gen
from thincert import (FieldSpec, SparseMatrix, UnsolvabilityCertificate, Vector,
                      kernel_basis, solve, unsolvable_core)
from thincert.elimination import Eliminator
from thincert.linalg import _feed_all, _first_kernel_vector

FIELDS = [FieldSpec.gf(2), FieldSpec.gf(5), FieldSpec.gf(1000003), FieldSpec.rationals()]
SHAPES = ("tall", "square", "wide")


# --------------------------------------------------------------------------
# the index-order reference

def ref_feed_all(m: SparseMatrix, rhs: Vector | None) -> tuple[Eliminator, bool]:
    """Rows sparsest first, in column-index order, until a contradiction."""
    spec = m.spec
    elim = Eliminator(spec, track=False)
    b = rhs.raw_cells() if rhs is not None else {}
    rows = [m.raw_row(i) for i in range(m.num_rows)]
    order = [i for i in b if not rows[i]] + sorted(
        [i for i in range(m.num_rows) if rows[i]], key=lambda i: len(rows[i]))
    for i in order:
        if elim.feed(rows[i], b.get(i, spec.zero)) is not None:
            return elim, True
    return elim, False


def normalized(spec: FieldSpec, length: int, cells: dict) -> Vector:
    lead = spec.inv(cells[min(cells)])
    return Vector.from_pairs(spec, length, ((i, spec.mul(lead, v)) for i, v in cells.items()))


def ref_kernel_basis(m: SparseMatrix) -> list[Vector]:
    spec = m.spec
    reduced = ref_feed_all(m, None)[0].reduced_pivots()
    basis = []
    for free in range(m.num_cols):
        if free in reduced:
            continue
        cells = {free: spec.one}
        for piv, row in reduced.items():
            if (v := row.get(free)) is not None:
                cells[piv] = spec.neg(v)
        basis.append(normalized(spec, m.num_cols, cells))
    return basis


def ref_first_kernel_vector(m: SparseMatrix) -> Vector | None:
    elim, _ = ref_feed_all(m, None)
    if elim.rank == m.num_cols:
        return None
    free = next(j for j in range(m.num_cols) if j not in elim.pivots)
    return normalized(m.spec, m.num_cols, elim.kernel_vector(free))


def ref_refutation(m: SparseMatrix, rhs: Vector) -> Vector | None:
    """A^T eliminated, b fed as one more row: y at b's lead, or None."""
    elim, _ = ref_feed_all(m.transpose(), None)
    before = elim.rank
    elim.feed(rhs.raw_cells(), m.spec.zero)
    if elim.rank == before:
        return None
    return normalized(m.spec, m.num_rows, elim.kernel_vector(next(reversed(elim.pivots))))


def ref_solve(m: SparseMatrix, rhs: Vector) -> Vector:
    """The free-variables-zero solution, or the refutation's y."""
    elim, refuted = ref_feed_all(m, rhs)
    if refuted:
        return ref_refutation(m, rhs)
    return Vector.from_pairs(m.spec, m.num_cols, elim.solution().items())


# --------------------------------------------------------------------------
# seeded systems

def random_matrix(spec: FieldSpec, rng: random.Random, shape: str) -> SparseMatrix:
    """Columns drawn one at a time: some empty, some a combination of two
    earlier ones, the rest random at one of three densities; then some rows
    are emptied, which keeps every column dependence."""
    n, k = rng.randint(1, 8), rng.randint(1, 4)
    nrows, ncols = {"tall": (n + k, n), "square": (n, n), "wide": (n, n + k)}[shape]
    density = rng.choice([0.2, 0.4, 0.7])
    cols: list[dict] = []
    for _ in range(ncols):
        roll = rng.random()
        if roll < 0.1:
            col = {}
        elif roll < 0.3 and cols:
            a, b = rng.choice(cols), rng.choice(cols)
            fa, fb = gen.rand_nonzero(spec, rng), gen.rand_nonzero(spec, rng)
            col = {i: fa * a.get(i, 0) + fb * b.get(i, 0) for i in {*a, *b}}
        else:
            col = {i: gen.rand_nonzero(spec, rng) for i in range(nrows) if rng.random() < density}
        cols.append(col)
    emptied = {i for i in range(nrows) if rng.random() < 0.1}
    return SparseMatrix.from_entries(spec, nrows, ncols, [
        (i, j, v) for j, col in enumerate(cols) for i, v in col.items() if i not in emptied])


def right_hand_sides(m: SparseMatrix, rng: random.Random) -> list[Vector]:
    """A x for a random x, a random b, and a random b nonzero on an empty
    row when there is one."""
    spec = m.spec
    x = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_cols)])
    random_b = [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)]
    out = [m.mul_vector(x), Vector.from_dense(spec, random_b)]
    empty = [i for i in range(m.num_rows) if not m.raw_row(i)]
    if empty:
        random_b[rng.choice(empty)] = gen.rand_nonzero(spec, rng)
        out.append(Vector.from_dense(spec, random_b))
    return out


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_column_order_answers_equal_the_index_order_ones(spec):
    """Kernel bases, first kernel vectors, solutions, refutations and cores
    equal the reference's, on every shape, kernel dimension and kind of
    right-hand side, empty rows and columns included."""
    rng = random.Random(f"column-order/{spec.modulus}")
    seen, verdicts = set(), Counter()
    for trial in range(240):
        shape = SHAPES[trial % 3]
        m = random_matrix(spec, rng, shape)
        basis = ref_kernel_basis(m)
        assert kernel_basis(m) == basis
        assert _first_kernel_vector(m) == ref_first_kernel_vector(m)
        seen.add((shape, min(len(basis), 2)))
        rows = [m.raw_row(i) for i in range(m.num_rows)]
        if not all(rows):
            verdicts["empty row"] += 1
        if len({j for row in rows for j in row}) < m.num_cols:
            verdicts["empty column"] += 1
        # The rebuild is needed where the relabelled elimination's free
        # columns are not the index-order ones.
        elim, label, _ = _feed_all(m, None)
        index_free = {j for j in range(m.num_cols) if j not in ref_feed_all(m, None)[0].pivots}
        if {j for j, g in label.items() if g not in elim.pivots} != index_free & label.keys():
            verdicts["free columns moved"] += 1
        for rhs in right_hand_sides(m, rng):
            ref = ref_solve(m, rhs)
            out = solve(m, rhs)
            if ref_feed_all(m, rhs)[1]:
                assert isinstance(out, UnsolvabilityCertificate) and out.y == ref
                assert unsolvable_core(m, rhs) == ref.support
                verdicts["refuted"] += 1
                if not rows[min(ref.support)] and len(ref.support) == 1:
                    verdicts["refuted on an empty row"] += 1
            else:
                assert out == ref and ref_refutation(m, rhs) is None
                verdicts["consistent"] += 1
    assert seen == {(s, d) for s in SHAPES for d in (0, 1, 2)} - {("wide", 0)}
    assert min(verdicts.values()) >= 10 and len(verdicts) == 6, verdicts
