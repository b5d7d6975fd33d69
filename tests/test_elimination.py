"""Incremental elimination: tracked and untracked runs, provenance, pivot order."""

import random

import pytest

import gen
from thincert import FieldSpec
from thincert.elimination import Eliminator

QQ = FieldSpec.rationals()
GF5 = FieldSpec.gf(5)
GFP = FieldSpec.gf(1000003)

FIELDS = [GF5, GFP, QQ]


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


def reference_feed(spec, pivots, k, cells, rhs):
    """Row reduction by a scan for the lowest pivot column at every step,
    with pivot rows stored unscaled; returns (refutation or None, pivots)."""
    row = {c: v for c, v in cells.items() if v != 0}
    combo = {k: spec.one}
    while True:
        hits = [c for c in row if c in pivots]
        if not hits:
            break
        hit = min(hits)
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


def scaled(spec, cells, factor):
    return {c: spec.mul(factor, v) for c, v in cells.items()}


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
            assert r.cells == tracked.pivots[c].cells
            assert r.rhs == tracked.pivots[c].rhs
            assert r.cells[c] == spec.one and min(r.cells) == c
            assert r.combo == {}
        assert tracked.reduced_pivots() == untracked.reduced_pivots()
        assert tracked.solution() == untracked.solution()


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_matches_scan_reduction(spec):
    """The heap order and unit-lead pivots reproduce the scan-based reduction:
    the same pivot columns, the same pivot rows up to their lead, and the
    same refutation combinations."""
    rng = random.Random(f"scan/{spec.modulus}")
    for _ in range(25):
        rows = random_rows(spec, rng, rng.randint(1, 18), rng.randint(1, 12))
        elim, ref = Eliminator(spec), {}
        for k, (cells, rhs) in enumerate(rows):
            assert elim.feed(cells, rhs) == reference_feed(spec, ref, k, cells, rhs)
        assert elim.pivots.keys() == ref.keys()
        for c, (cells, rhs, combo) in ref.items():
            inv = spec.inv(cells[c])
            r = elim.pivots[c]
            assert r.cells == scaled(spec, cells, inv)
            assert r.rhs == spec.mul(inv, rhs)
            assert r.combo == scaled(spec, combo, inv)


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
