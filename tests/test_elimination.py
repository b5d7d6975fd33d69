"""Incremental elimination: tracked and untracked runs, provenance, pivot order."""

import random
from fractions import Fraction
from math import gcd

import pytest

import gen
from thincert import (AllPrefixesSolvable, FieldSpec, SparseMatrix, StreamState, UnsolvableAt,
                      Vector, unsolvable_core)
from thincert.elimination import Eliminator

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)
GFP = FieldSpec.gf(1000003)
GF61 = FieldSpec.gf(2**61 - 1)      # residues near 2^61

FIELDS = [GF2, GF5, GFP, GF61, QQ]


def random_rows(spec, rng, nrows, ncols):
    """Sparse rows with right-hand sides; some rows repeat a combination of
    earlier ones, with the combined or a perturbed right-hand side, so that
    dependent rows and contradictions both occur."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            cells, rhs = {}, spec.zero
            for _ in range(rng.randint(2, 3)):
                f = gen.rand_nonzero(spec, rng)
                src, b = rows[rng.randrange(len(rows))]
                for c, v in src.items():
                    cells[c] = spec.add(cells.get(c, spec.zero), spec.mul(f, v))
                rhs = spec.add(rhs, spec.mul(f, b))
            cells = {c: v for c, v in cells.items() if v != 0}
            if rng.random() < 0.3:
                rhs = spec.add(rhs, spec.one)
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
            cells = {c: gen.rand_nonzero(spec, rng) for c in cols}
            rhs = gen.rand_scalar(spec, rng)
        rows.append((cells, rhs))
    return rows


def reference_feed(spec, pivots, k, cells, rhs, forward=False):
    """Row reduction by a scan for the lowest pivot column at every step,
    with pivot rows stored unscaled in ``pivots``; returns the refutation or
    None.  With ``forward`` the scan stops at the row's lowest column once it
    has no pivot, leaving pivot columns above it in the stored row; otherwise
    every pivot column is reduced away."""
    row = {c: v for c, v in cells.items() if v != 0}
    combo = {k: spec.one}
    while True:
        hit = min(row if forward else [c for c in row if c in pivots], default=None)
        if hit not in pivots:
            break
        prow, prhs, pcombo = pivots[hit]
        factor = spec.div(row.pop(hit), prow[hit])
        for c, v in prow.items():
            if c != hit:
                w = spec.sub(row.get(c, spec.zero), spec.mul(factor, v))
                if w == 0:
                    row.pop(c, None)
                else:
                    row[c] = w
        rhs = spec.sub(rhs, spec.mul(factor, prhs))
        for i, y in pcombo.items():
            w = spec.sub(combo.get(i, spec.zero), spec.mul(factor, y))
            if w == 0:
                combo.pop(i, None)
            else:
                combo[i] = w
    if row:
        pivots[min(row)] = (row, rhs, combo)
        return None
    return combo if rhs != 0 else None


def reference_solution(spec, pivots):
    """Back-substitution on the reference pivots, free variables zero."""
    x = {}
    for c in sorted(pivots, reverse=True):
        cells, rhs, _ = pivots[c]
        acc = rhs
        for cc, v in cells.items():
            if cc != c and cc in x:
                acc = spec.sub(acc, spec.mul(v, x[cc]))
        if acc != 0:
            x[c] = spec.div(acc, cells[c])
    return x


def reference_rref(spec, pivots):
    """The reduced echelon rows of the reference pivots, with unit leads."""
    reduced = {}
    for c in sorted(pivots, reverse=True):
        cells = pivots[c][0]
        row = scaled(spec, cells, spec.inv(cells[c]))
        for cc in [x for x in row if x != c and x in pivots]:
            factor = row.pop(cc)
            for c2, v2 in reduced[cc].items():
                if c2 != cc:
                    w = spec.sub(row.get(c2, spec.zero), spec.mul(factor, v2))
                    if w == 0:
                        row.pop(c2, None)
                    else:
                        row[c2] = w
        reduced[c] = row
    return reduced


def scaled(spec, cells, factor):
    return {c: spec.mul(factor, v) for c, v in cells.items()}


def unit_lead(spec, r, c):
    """A stored pivot row as (cells, rhs) scaled to a unit lead.

    Over GF(p) the row is stored with a unit lead and is returned as it is.
    Over Q it must be an integer row with a positive lead whose entries and
    right-hand side have no common factor; it is divided by that lead."""
    assert min(r.cells) == c
    if spec.is_prime_field:
        return r.cells, r.rhs
    values = [*r.cells.values(), r.rhs]
    assert all(type(v) is int for v in values)
    assert r.cells[c] > 0 and gcd(*values) == 1
    inv = Fraction(1, r.cells[c])
    return scaled(spec, r.cells, inv), spec.mul(inv, r.rhs)


def expanded(spec, elim, c, memo):
    """The combination of original rows that the stored pivot row at ``c``
    is: scale * (row ``own`` - sum of trail[cc] * pivot row cc)."""
    if c not in memo:
        r = elim.pivots[c]
        combo = {r.own: spec.one}
        for cc, b in r.combo.items():
            for i, y in expanded(spec, elim, cc, memo).items():
                combo[i] = spec.sub(combo.get(i, spec.zero), spec.mul(b, y))
        memo[c] = {i: spec.mul(r.scale, y) for i, y in combo.items() if y != 0}
    return memo[c]


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_tracked_and_untracked_agree(spec):
    rng = random.Random(f"agree/{spec.modulus}")
    for _ in range(25):
        ncols = rng.randint(1, 12)
        rows = random_rows(spec, rng, rng.randint(1, 18), ncols)
        tracked, untracked = Eliminator(spec), Eliminator(spec, track=False)
        for cells, rhs in rows:
            a = tracked.feed(cells, rhs)
            b = untracked.feed(cells, rhs)
            assert (a is None) == (b is None)
            if b is not None:
                assert b == {}
        assert tracked.rank == untracked.rank
        assert tracked.pivots.keys() == untracked.pivots.keys()
        for c, r in untracked.pivots.items():
            cells, rhs = unit_lead(spec, r, c)
            assert (cells, rhs) == unit_lead(spec, tracked.pivots[c], c)
            assert cells[c] == spec.one
            assert r.combo == {}
        assert tracked.reduced_pivots() == untracked.reduced_pivots()
        assert tracked.solution() == untracked.solution()


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_tracked_pivot_rows_equal_untracked(spec):
    """The trail never enters a row's reduction, so tracked and untracked
    eliminators store the very same pivot rows: over Q the per-step gcd sees
    the row and right-hand side alone."""
    rng = random.Random(f"same-rows/{spec.modulus}")
    for trial in range(30):
        ncols = rng.randint(1, 12)
        rows = (big_rows(rng, rng.randint(1, 14), ncols) if spec is QQ and trial % 2
                else random_rows(spec, rng, rng.randint(1, 18), ncols))
        tracked, untracked = Eliminator(spec), Eliminator(spec, track=False)
        for cells, rhs in rows:
            tracked.feed(cells, rhs)
            untracked.feed(cells, rhs)
        assert tracked.pivots.keys() == untracked.pivots.keys()
        for c, r in tracked.pivots.items():
            assert (r.cells, r.rhs) == (untracked.pivots[c].cells, untracked.pivots[c].rhs)
            assert untracked.pivots[c].combo == {}


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_matches_scan_reduction(spec):
    """The heap order and stored pivots (unit-lead over GF(p), primitive
    integer over Q) reproduce the scan-based reductions: the pivot columns,
    refutation combinations, solution and reduced echelon rows of the full
    reduction, and the pivot rows, up to their lead, of the forward one."""
    rng = random.Random(f"scan/{spec.modulus}")
    for _ in range(25):
        rows = random_rows(spec, rng, rng.randint(1, 18), rng.randint(1, 12))
        assert_matches_reference(spec, rows)


def assert_matches_reference(spec, rows):
    """The full reduction is the oracle for everything but the stored pivot
    rows and the combinations their trails expand to, which the forward
    reduction pins."""
    elim, ref, forward, memo = Eliminator(spec), {}, {}, {}
    for k, (cells, rhs) in enumerate(rows):
        refutation = reference_feed(spec, ref, k, cells, rhs)
        assert elim.feed(cells, rhs) == refutation
        assert reference_feed(spec, forward, k, cells, rhs, forward=True) == refutation
    assert elim.pivots.keys() == ref.keys() == forward.keys()
    for c, (cells, rhs, combo) in forward.items():
        inv = spec.inv(cells[c])
        r_cells, r_rhs = unit_lead(spec, elim.pivots[c], c)
        assert r_cells == scaled(spec, cells, inv)
        assert r_rhs == spec.mul(inv, rhs)
        r_inv = spec.inv(spec.coerce(elim.pivots[c].cells[c]))
        assert scaled(spec, expanded(spec, elim, c, memo), r_inv) == scaled(spec, combo, inv)
    x, rref = elim.solution(), elim.reduced_pivots()
    assert x == reference_solution(spec, ref)
    assert rref == reference_rref(spec, ref)
    if not spec.is_prime_field:
        assert all(type(v) is Fraction for row in [x, *rref.values()] for v in row.values())


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_entry_cancelled_mid_reduction_and_written_again(spec):
    """Row 2 holds a multiple of row 0 at columns 0 and 3, so its column 3
    cancels when pivot 0 is taken off (over GF(p) the unreduced entry is
    only congruent to zero); pivot 1 then writes column 3 again, and the row
    leads there.  Row 3 repeats row 2 with another right-hand side: its
    column 4 cancels too and reaches the top of the heap as zero, and the row
    vanishes with a refutation.  Rows 4 and 5 are the same multiple of row 0
    plus column 5 or column 2: the first leads at 5 once its cancelled
    column 3 is dropped, the second at 2 with that column cancelled above
    its lead, and both are stored without it."""
    rng = random.Random(f"refill/{spec.modulus}")
    for _ in range(10):
        nz = [gen.rand_nonzero(spec, rng) for _ in range(9)]
        row0, row1 = {0: nz[0], 3: nz[1]}, {1: nz[2], 3: nz[3], 4: nz[4]}
        row2 = {0: spec.mul(nz[5], nz[0]), 1: nz[6], 3: spec.mul(nz[5], nz[1])}
        row4 = {0: row2[0], 3: row2[3], 5: nz[7]}
        row5 = {0: row2[0], 2: nz[8], 3: row2[3]}
        rhs = [gen.rand_scalar(spec, rng) for _ in range(5)]
        rows = [(row0, rhs[0]), (row1, rhs[1]), (row2, rhs[2]),
                (row2, spec.add(rhs[2], spec.one)), (row4, rhs[3]), (row5, rhs[4])]
        assert_matches_reference(spec, rows)
        elim = Eliminator(spec)
        refuted = {2: spec.neg(spec.one), 3: spec.one}
        assert [elim.feed(cells, b) for cells, b in rows] == [None] * 3 + [refuted, None, None]
        assert {c: set(r.cells) for c, r in elim.pivots.items()} == {
            0: {0, 3}, 1: {1, 3, 4}, 3: {3, 4}, 5: {5}, 2: {2}}


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_stored_pivot_rows_are_canonical(spec):
    """Every stored pivot row holds canonical nonzero values only: over GF(p)
    residues in (0, p) with lead one, and a right-hand side in [0, p); over Q
    nonzero ints with a positive lead, sharing no factor with each other and
    the right-hand side."""
    rng = random.Random(f"canonical/{spec.modulus}")
    for trial in range(30):
        ncols = rng.randint(1, 12)
        rows = (big_rows(rng, rng.randint(1, 14), ncols) if spec is QQ and trial % 2
                else random_rows(spec, rng, rng.randint(1, 18), ncols))
        elim = Eliminator(spec, track=trial % 3 == 0)
        for cells, rhs in rows:
            elim.feed(cells, rhs)
        for c, r in elim.pivots.items():
            assert min(r.cells) == c
            values = [*r.cells.values(), r.rhs]
            assert all(type(v) is int for v in values)
            assert all(v != 0 for v in r.cells.values())
            if spec.is_prime_field:
                assert r.cells[c] == 1
                assert all(0 < v < spec.modulus for v in r.cells.values())
                assert 0 <= r.rhs < spec.modulus
            else:
                assert r.cells[c] > 0 and gcd(*values) == 1


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_refutation_combination_annihilates_rows(spec):
    rng = random.Random(f"refute/{spec.modulus}")
    refutations = 0
    for _ in range(40):
        rows = random_rows(spec, rng, rng.randint(2, 18), rng.randint(1, 10))
        elim = Eliminator(spec)
        for cells, rhs in rows:
            combo = elim.feed(cells, rhs)
            if combo is None:
                continue
            refutations += 1
            assert combo and all(v != 0 for v in combo.values())
            total, b = {}, spec.zero
            for i, y in combo.items():
                for c, v in rows[i][0].items():
                    total[c] = spec.add(total.get(c, spec.zero), spec.mul(y, v))
                b = spec.add(b, spec.mul(y, rows[i][1]))
            assert all(v == 0 for v in total.values())
            assert b != 0
    assert refutations > 0


@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("spec", [GF5, QQ], ids=str)
def test_feed_leaves_its_input_unchanged(spec, track):
    rng = random.Random(f"input/{spec.modulus}/{track}")
    elim = Eliminator(spec, track=track)
    for cells, rhs in random_rows(spec, rng, 30, 8):
        cells[rng.randrange(8)] = spec.zero      # explicit zeros are dropped, not deleted
        before = dict(cells)
        elim.feed(cells, rhs)
        assert cells == before


def big_fraction(rng, bits=40):
    return Fraction(rng.choice([-1, 1]) * (rng.getrandbits(bits) | 1),
                    rng.getrandbits(bits) | 1)


def big_rows(rng, nrows, ncols):
    """Rational rows with numerators and denominators of about 40 bits, some
    of them combinations of earlier rows with a kept or perturbed rhs."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            cells, rhs = {}, Fraction(0)
            for _ in range(2):
                f = big_fraction(rng)
                src, b = rows[rng.randrange(len(rows))]
                for c, v in src.items():
                    cells[c] = cells.get(c, 0) + f * v
                rhs += f * b
            cells = {c: v for c, v in cells.items() if v != 0}
            if rng.random() < 0.3:
                rhs += big_fraction(rng)
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
            cells = {c: big_fraction(rng) for c in cols}
            rhs = big_fraction(rng)
        rows.append((cells, rhs))
    return rows


def test_rational_large_entries_match_reference():
    rng = random.Random("big")
    negative_leads = refutations = 0
    for _ in range(20):
        rows = big_rows(rng, rng.randint(2, 14), rng.randint(1, 9))
        negative_leads += sum(1 for cells, _ in rows if cells and cells[min(cells)] < 0)
        assert_matches_reference(QQ, rows)
        elim = Eliminator(QQ, track=False)
        refutations += sum(elim.feed(cells, rhs) is not None for cells, rhs in rows)
    assert negative_leads > 10 and refutations > 0


def test_rational_rhs_alone_carries_a_denominator():
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = [({0: Fraction(-2), 1: Fraction(4)}, third),
            ({1: Fraction(3), 2: Fraction(-6)}, Fraction(0)),
            ({0: Fraction(1), 1: Fraction(-2)}, half),           # -1/2 times row 0, wrong rhs
            ({0: Fraction(-1), 2: Fraction(5)}, Fraction(5, 7))]
    assert_matches_reference(QQ, rows)
    elim = Eliminator(QQ)
    assert elim.feed(*rows[0]) is None
    assert elim.feed(*rows[1]) is None
    # 3 * row 0 clears the rhs denominator; the lead then turns positive,
    # so the stored row is -3 * row 0, with an empty trail
    piv = elim.pivots[0]
    assert (piv.cells, piv.rhs, piv.combo) == ({0: 6, 1: -12}, -1, {})
    assert (piv.own, piv.scale) == (0, -3)
    assert type(piv.scale) is Fraction
    refutation = elim.feed(*rows[2])
    assert refutation == {0: half, 2: Fraction(1)}
    assert all(type(y) is Fraction for y in refutation.values())
    assert elim.feed(*rows[3]) is None
    x = elim.solution()
    assert all(type(v) is Fraction for v in x.values())
    for cells, rhs in (rows[0], rows[1], rows[3]):
        assert sum(v * x.get(c, 0) for c, v in cells.items()) == rhs


@pytest.mark.parametrize("big", [False, True])
def test_rational_stream_latches_like_fraction_replay(big):
    """A Q ``StreamState`` latches at the prefix, and with the core, that a
    replay of the same rows through the Fraction reference gives."""
    rng = random.Random(f"stream/{big}")
    latched = 0
    for _ in range(30):
        nrows, ncols = rng.randint(2, 16), rng.randint(1, 8)
        rows = big_rows(rng, nrows, ncols) if big else random_rows(QQ, rng, nrows, ncols)
        st, ref, expect = StreamState(QQ), {}, AllPrefixesSolvable()
        for k, (cells, rhs) in enumerate(rows):
            st.push(cells.items(), rhs)
            combo = reference_feed(QQ, ref, k, cells, rhs)
            if combo is not None and expect == AllPrefixesSolvable():
                expect = UnsolvableAt(k + 1, frozenset(combo))
            assert st.status == expect
        latched += not st.is_solvable
    assert latched >= 5


def test_deep_trail_stream_latches_like_reference_replay():
    """A GF(1000003) stream of 2,400 rows on a triangular spine: row i meets
    columns i - 1 and i (and now and then a lower column), so pivot i's
    trail names pivot i - 1 and the expansion of a refutation runs down the
    whole spine.  Dependent rows with a kept right-hand side follow, and
    some with a perturbed one that meet the last column; the stream latches
    at the prefix, and with the core, that a replay through the reference
    reduction gives."""
    spec, rng = GFP, random.Random("deep-trail")
    n = 2000
    x0 = [gen.rand_scalar(spec, rng) for _ in range(n)]
    rows = []
    for i in range(n):
        cells = {i: gen.rand_nonzero(spec, rng)}
        if i:
            cells[i - 1] = gen.rand_nonzero(spec, rng)
        if i > 1 and rng.random() < 0.1:
            cells[rng.randrange(i - 1)] = gen.rand_nonzero(spec, rng)
        rows.append((cells, dot(spec, cells, x0)))
    for k in range(400):
        perturbed = k in (150, 151, 300)
        cols = rng.sample(range(n - 1), 3) + [n - 1] * perturbed
        cells = {c: gen.rand_nonzero(spec, rng) for c in cols}
        rhs = dot(spec, cells, x0)
        rows.append((cells, spec.add(rhs, spec.one) if perturbed else rhs))
    st, ref, expect = StreamState(spec), {}, AllPrefixesSolvable()
    for k, (cells, rhs) in enumerate(rows):
        st.push(cells.items(), rhs)
        if expect == AllPrefixesSolvable():
            combo = reference_feed(spec, ref, k, cells, rhs, forward=True)
            if combo is not None:
                expect = UnsolvableAt(k + 1, frozenset(combo))
        assert st.status == expect
    assert expect.prefix_len == n + 151 and len(expect.core) > n // 2


@pytest.mark.parametrize("spec", [GF2, GF5, GFP, QQ], ids=str)
def test_stream_core_equals_unsolvable_core_of_its_prefix(spec):
    """The core a stream latches with, expanded from its trails, is the
    support of ``unsolvable_core`` on the prefix it latched at, read off an
    elimination of the transpose instead."""
    rng = random.Random(f"core/{spec.modulus}")
    streams = [[(dict(pairs), rhs) for pairs, rhs in gen.random_stream(spec, rng)[1]]
               for _ in range(150)]
    if spec is QQ:
        streams += [big_rows(rng, rng.randint(2, 14), rng.randint(1, 9)) for _ in range(50)]
    latched = 0
    for rows in streams:
        st = StreamState(spec)
        for cells, rhs in rows:
            st.push(cells.items(), rhs)
            if not st.is_solvable:
                break
        if st.is_solvable:
            continue
        latched += 1
        n = st.num_rows
        m = SparseMatrix.from_entries(spec, n, st.num_cols, [
            (i, c, v) for i, (cells, _) in enumerate(rows[:n]) for c, v in cells.items()])
        b = Vector.from_pairs(spec, n, [(i, rhs) for i, (_, rhs) in enumerate(rows[:n])])
        assert st.status.core == unsolvable_core(m, b)
    assert latched >= 40


def test_rational_trail_stays_small():
    """On a seeded 300 x 300 rational system, about four entries a row with
    numerators in +-1..9 and some halves and thirds, pushed as a stream with
    a right-hand side it refutes at prefix 294, every multiplier and scale
    of every trail stays under 2,000 bits: one scale per row keeps each
    multiplier reduced, where one integer divisor per row reached 30,000."""
    n, rng = 300, random.Random(20261019)
    rows = [{j: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1] * 6 + [2, 3]))
             for j in sorted(rng.sample(range(n), 4))} for _ in range(n)]
    b = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    st = StreamState(QQ)
    for cells, rhs in zip(rows, b):
        st.push(cells.items(), rhs)
    assert st.status.prefix_len == 294

    def bits(v):
        return max(v.numerator.bit_length(), v.denominator.bit_length())

    pivots = st._elim.pivots.values()
    assert sum(len(r.combo) for r in pivots) > 5000
    assert max(bits(v) for r in pivots for v in (r.scale, *r.combo.values())) < 2000


def dot(spec, cells, x):
    acc = spec.zero
    for c, v in cells.items():
        acc = spec.add(acc, spec.mul(v, x[c]))
    return acc


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_results_do_not_depend_on_feed_order(spec):
    """Fed in the given order, sparsest first, reversed or shuffled, the same
    rows give the same pivot columns, reduced echelon rows and kernel
    vectors, and on a consistent system the same solution."""
    rng = random.Random(f"order/{spec.modulus}")
    consistent = 0
    for trial in range(40):
        ncols = rng.randint(1, 12)
        rows = random_rows(spec, rng, rng.randint(1, 18), ncols)
        if trial % 2:
            # right-hand sides of a hidden solution x0
            x0 = {c: gen.rand_scalar(spec, rng) for c in range(ncols)}
            rows = [(cells, dot(spec, cells, x0)) for cells, _ in rows]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        outcomes = []
        for fed in (rows, sorted(rows, key=lambda r: len(r[0])), rows[::-1], shuffled):
            elim = Eliminator(spec, track=False)
            refuted = [elim.feed(cells, rhs) is not None for cells, rhs in fed]
            free = [c for c in range(ncols) if c not in elim.pivots]
            outcomes.append((sorted(elim.pivots), elim.reduced_pivots(),
                             [elim.kernel_vector(c) for c in free],
                             None if any(refuted) else elim.solution()))
        assert all(out == outcomes[0] for out in outcomes[1:])
        consistent += outcomes[0][3] is not None
    assert consistent >= 20
