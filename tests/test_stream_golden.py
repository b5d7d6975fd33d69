"""Byte-identity of refutations: one SHA-256 over streams and cores from ``gen``.

The digest covers the ``StreamState`` status after every push (and the
solution of a stream that stays solvable) and ``unsolvable_core`` (or the
solution, on a solvable system) over GF(2), GF(5), GF(1000003) and Q.  A
change to how rows are reduced that alters a refutation core, the prefix at
which a stream latches or a solution changes the digest.  Cores are written
sorted, so the text does not depend on the interpreter's hash seed.
"""

import hashlib
import random

import gen
from test_golden import canon
from thincert import FieldSpec, SparseMatrix, StreamState, Vector, solve, unsolvable_core

#: recorded from the implementation that reduced every pivot column of a row
GOLDEN = "6416b40a44983c05b3c68d95e318b1948b14cae0e1917b9ede9a9cabdb37d609"

FIELDS = (FieldSpec.gf(2), FieldSpec.gf(5), FieldSpec.gf(1000003), FieldSpec.rationals())


def core_or_solution(matrix, rhs):
    outcome = solve(matrix, rhs)
    return outcome if isinstance(outcome, Vector) else unsolvable_core(matrix, rhs)


def results():
    rng = random.Random(20261019)
    for spec in FIELDS:
        for _ in range(30):
            ncols, rows = gen.random_stream(spec, rng, max_rows=30, max_cols=12)
            st = StreamState(spec)
            for pairs, rhs in rows:
                yield st.push(pairs, rhs).status
            if st.is_solvable:
                yield st.solution()
            matrix = SparseMatrix.from_entries(
                spec, len(rows), ncols, ((i, c, v) for i, (pairs, _) in enumerate(rows)
                                         for c, v in pairs))
            yield core_or_solution(matrix, Vector.from_dense(spec, [b for _, b in rows]))
        for _ in range(12):
            m = gen.independent_cols_matrix(spec, rng, 24, 14)
            rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
            yield core_or_solution(m, rhs)


def digest() -> str:
    h = hashlib.sha256()
    for res in results():
        h.update(canon(res).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_stream_statuses_and_cores_are_byte_identical():
    assert digest() == GOLDEN
