"""Incremental row feeding, prefix status, and refutation cores."""

import random
import tracemalloc
from fractions import Fraction

import pytest

import gen
from thincert import (AllPrefixesSolvable, FieldSpec, SparseMatrix, StreamState,
                      UnsolvabilityCertificate, UnsolvableAt, Vector, solve)
from thincert.elimination import Eliminator

QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF5 = FieldSpec.gf(5)


def test_worked_example_contradiction():
    st = StreamState(QQ)
    st.push([(0, 1), (1, 1)], 1)
    assert st.status == AllPrefixesSolvable()
    st.push([(0, 1), (1, 1)], 2)
    assert st.status == UnsolvableAt(prefix_len=2, core=frozenset({0, 1}))


def test_status_latches():
    st = StreamState(QQ)
    st.push([(0, 1)], 1).push([(0, 1)], 2)
    first = st.status
    assert first == UnsolvableAt(prefix_len=2, core=frozenset({0, 1}))
    st.push([(1, 1)], 3)  # a perfectly consistent later row
    assert st.status == first
    assert not st.is_solvable
    with pytest.raises(ValueError):
        st.solution()


def test_column_universe_grows():
    st = StreamState(GF5)
    assert st.num_cols == 0 and st.num_rows == 0
    st.push([(5, 2)], 1)
    assert st.num_cols == 6 and st.num_rows == 1
    st.push([(2, 1)], 0)
    assert st.num_cols == 6


def test_push_validation():
    st = StreamState(QQ)
    with pytest.raises(ValueError):
        st.push([(0, 1), (0, 2)], 0)
    with pytest.raises(ValueError):
        st.push([(-1, 1)], 0)
    with pytest.raises(ValueError):
        st.push([("0", 1)], 0)
    with pytest.raises(ValueError):
        st.push([(0, GF5.element(1))], 0)  # element of another field
    for col in (True, False):               # bool is an int, but not an index
        with pytest.raises(ValueError, match="bad column index"):
            st.push([(col, 1)], 0)
    assert st.num_cols == 0 and st.num_rows == 0


def test_zero_row_contradiction():
    st = StreamState(GF2)
    st.push([], 1)
    assert st.status == UnsolvableAt(prefix_len=1, core=frozenset({0}))


def test_zero_row_consistent():
    st = StreamState(GF2)
    st.push([], 0).push([(0, 1)], 1)
    assert st.is_solvable
    assert str(st.solution()) == "1"


def test_solution_worked_example():
    st = StreamState(GF2)
    st.push([(0, 1), (1, 1)], 1)
    assert str(st.solution()) == "1 0"


def test_empty_stream():
    st = StreamState(QQ)
    assert st.is_solvable
    assert st.solution().length == 0


def test_solution_satisfies_all_rows():
    rng = random.Random(1212)
    for spec in (GF2, GF5, QQ):
        for _ in range(10):
            ncols, rows = gen.random_stream(spec, rng, max_rows=25, max_cols=6)
            st = StreamState(spec)
            for pairs, rhs in rows:
                st.push(pairs, rhs)
                if not st.is_solvable:
                    break
            if st.is_solvable:
                x = st.solution()
                for pairs, rhs in rows[:st.num_rows]:
                    acc = spec.zero
                    for c, v in pairs:
                        acc = spec.add(acc, spec.mul(spec.coerce(v), x.get(c).value))
                    assert spec.coerce(acc) == spec.coerce(rhs)


def test_prefix_status_matches_dense_oracle():
    rng = random.Random(2323)
    for spec in (GF2, GF5, QQ):
        for _ in range(15):
            ncols, rows = gen.random_stream(spec, rng, max_rows=30, max_cols=6)
            st = StreamState(spec)
            oracle = gen.dense_prefix_statuses(spec, rows, ncols)
            for k, ((pairs, rhs), expect) in enumerate(zip(rows, oracle), start=1):
                st.push(pairs, rhs)
                assert st.is_solvable == expect, f"prefix {k} disagrees"
                if not expect:
                    assert isinstance(st.status, UnsolvableAt)
                    assert st.status.prefix_len <= k


def test_unsolvable_core_refutes_in_isolation():
    rng = random.Random(3434)
    hits = 0
    while hits < 12:
        spec = rng.choice([GF2, GF5, QQ])
        ncols, rows = gen.random_stream(spec, rng, max_rows=30, max_cols=5)
        st = StreamState(spec)
        for pairs, rhs in rows:
            st.push(pairs, rhs)
        if st.is_solvable:
            continue
        hits += 1
        status = st.status
        # the core indices point into the prefix that failed
        assert status.core and max(status.core) < status.prefix_len
        # batch-solve just the core rows: still unsolvable
        core = sorted(status.core)
        entries = {}
        rhs_vals = []
        for pos, i in enumerate(core):
            pairs, rhs = rows[i]
            for c, v in pairs:
                entries[(pos, c)] = v
            rhs_vals.append(rhs)
        m = SparseMatrix.from_entries(spec, len(core), ncols, entries)
        out = solve(m, Vector.from_dense(spec, rhs_vals))
        assert not isinstance(out, Vector)


@pytest.mark.parametrize("spec", [GF2, GF5, QQ], ids=str)
def test_tampered_core_combination_is_refused(spec, monkeypatch):
    # The latch's row combination is checked as a certificate of the core's
    # rows: doubling one coefficient breaks y^T A = 0, and the refusal of a
    # certificate the library built is an internal failure.
    feed = Eliminator.feed

    def tampered(self, cells, rhs):
        combo = feed(self, cells, rhs)
        return combo and {i: 2 * c if i == min(combo) else c for i, c in combo.items()}

    st = StreamState(spec)
    st.push([(0, 1), (1, 1)], 1)
    monkeypatch.setattr(Eliminator, "feed", tampered)
    with pytest.raises(AssertionError, match="self-check failed: certificate does not annihilate the rows"):
        st.push([(0, 1), (1, 1)], 0)
    assert st.is_solvable


def test_push_chains_and_counts():
    st = StreamState(QQ)
    out = st.push([(0, Fraction(1, 2))], Fraction(1, 4))
    assert out is st
    assert st.num_rows == 1
    assert st.solution().get(0) == Fraction(1, 2)


def test_latched_stream_memory_is_flat():
    # Nothing reads a row after the latch, so the stream stops storing them:
    # later rows are reduced and counted, and memory stays put.
    spec = FieldSpec.gf(1000003)
    rng = random.Random(24)
    st = StreamState(spec).push([], 1)

    def push(count):
        for _ in range(count):
            st.push([(c, rng.randrange(1, spec.modulus)) for c in rng.sample(range(8), 4)],
                    rng.randrange(spec.modulus))

    push(1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        push(2000)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert st.status == UnsolvableAt(prefix_len=1, core=frozenset({0}))
    assert st.num_rows == 3001 and st.num_cols == 8
    assert growth < 64 * 1024


@pytest.mark.parametrize("spec", [GF2, GF5, QQ], ids=str)
def test_latch_checks_the_whole_prefix_once(spec, monkeypatch):
    checks = []
    checked = UnsolvabilityCertificate.checked.__func__

    def spy(cls, matrix, rhs, y):
        checks.append((matrix.num_rows, rhs.length, y.support))
        return checked(cls, matrix, rhs, y)

    monkeypatch.setattr(UnsolvabilityCertificate, "checked", classmethod(spy))
    st = StreamState(spec)
    st.push([(2, 1)], 1).push([(0, 1), (1, 1)], 1).push([(0, 1), (1, 1)], 0)
    st.push([(0, 1), (1, 1)], 1).push([], 1)    # contradictions after the latch
    assert st.status == UnsolvableAt(prefix_len=3, core=frozenset({1, 2}))
    assert checks == [(3, 3, frozenset({1, 2}))]


@pytest.mark.parametrize("spec", [GF5, QQ], ids=str)
def test_stream_solution_check_rejects_a_wrong_solution(spec, monkeypatch):
    st = StreamState(spec).push([(0, 1), (1, 1)], 1).push([(1, 1)], 0)
    assert st.solution() == Vector.from_dense(spec, [1, 0])
    monkeypatch.setattr(Eliminator, "solution", lambda self: {1: spec.one})
    with pytest.raises(AssertionError, match="solution failed verification"):
        st.solution()
