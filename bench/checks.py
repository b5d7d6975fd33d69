"""Independent checks of thincert's answers against the planted truth.

Every verdict here is computed with the benchmark's own arithmetic
(``arith.Arith``) on the generated entries.  thincert results are only read
(their fields and class names), never asked to verify themselves.  Each
check returns None when the answer is right, or a one-line reason.
"""

from __future__ import annotations

from arith import Arith
from workloads import P, GraphOp, MatrixOp, Planted, Stream, WitnessOp


def _cells(vector) -> dict:
    return {i: el.value for i, el in vector.entries}


def _kind(result) -> str:
    return type(result).__name__


def _annihilates(pm: Planted, v: dict, side: str) -> bool:
    a = pm.arith
    if side == "col":
        return not a.mat_vec(pm.rows, v)
    return not a.vec_mat(v, pm.rows)


def _sdr(pm: Planted, assignment) -> str | None:
    if set(assignment) != set(range(pm.ncols)):
        return "Sdr does not cover every column"
    if len(set(assignment.values())) != len(assignment):
        return "Sdr reuses a row"
    for j, i in assignment.items():
        if not 0 <= i < pm.nrows or j not in pm.rows[i]:
            return f"Sdr uses a zero entry ({i}, {j})"
    return None


def _dependence(pm: Planted, result, side: str) -> str | None:
    if _kind(result) != "Dependence" or result.side != side:
        return f"expected a {side} Dependence, got {_kind(result)}"
    v = _cells(result.vector)
    length = pm.ncols if side == "col" else pm.nrows
    if not v or result.vector.length != length:
        return "kernel vector is zero or has the wrong length"
    if not _annihilates(pm, v, side):
        return f"{side} kernel vector does not annihilate"
    known = pm.col_kernel if side == "col" else pm.row_kernel
    nullity = (pm.ncols if side == "col" else pm.nrows) - pm.rank
    if nullity == 1 and known and not pm.arith.proportional(v, known[0]):
        return "kernel vector is not a multiple of the planted one"
    return None


def matrix_op(op: MatrixOp, result) -> str | None:
    pm, a, kind = op.planted, op.planted.arith, op.kind
    if kind in ("certify", "certify_violator"):
        if pm.rank == pm.ncols:
            if _kind(result) != "Sdr":
                return f"expected Sdr, got {_kind(result)}"
            return _sdr(pm, result.assignment)
        return _dependence(pm, result, "col")
    if kind == "diagonalize":
        if pm.rank < pm.nrows:
            return _dependence(pm, result, "row")
        if pm.rank < pm.ncols:
            return _dependence(pm, result, "col")
        if _kind(result) != "Bijection":
            return f"expected Bijection, got {_kind(result)}"
        fwd = dict(result.col_to_row)
        if sorted(fwd.values()) != list(range(pm.nrows)):
            return "Bijection does not hit every row once"
        return _sdr(pm, fwd)
    if kind == "solve":
        if _kind(result) != "Vector":
            return f"expected a solution, got {_kind(result)}"
        if a.mat_vec(pm.rows, _cells(result)) != op.rhs:
            return "solution does not multiply back to b"
        return None
    if kind == "solve_refute":
        if _kind(result) != "UnsolvabilityCertificate":
            return f"expected a refutation, got {_kind(result)}"
        y = _cells(result.y)
        if not y or a.vec_mat(y, pm.rows):
            return "refutation y is zero or y^T A != 0"
        if a.dot(y, op.rhs) == 0:
            return "refutation has y^T b = 0"
        return None
    if kind == "kernel":
        vecs = [_cells(v) for v in result]
        if len(vecs) != pm.ncols - pm.rank:
            return f"kernel basis has {len(vecs)} vectors, nullity is {pm.ncols - pm.rank}"
        if any(not v or a.mat_vec(pm.rows, v) for v in vecs):
            return "kernel basis vector is zero or does not annihilate"
        if a.rank(vecs) != len(vecs):
            return "kernel basis is dependent"
        return None
    if kind == "rank":
        return None if result == pm.rank else f"rank {result}, planted {pm.rank}"
    if kind in ("core", "core_min"):
        # the left kernel is one-dimensional, so every refuting combination
        # has the planted vector's support
        want = frozenset(pm.row_kernel[0])
        return None if result == want else f"core {sorted(result)}, planted {sorted(want)}"
    raise ValueError(kind)


def graph_op(op: GraphOp, result) -> str | None:
    violator, string, saturated, mu = result
    j0 = sorted(violator)
    hood = sorted({i for j in j0 for i in op.adj[j]})
    if not j0 or len(hood) >= len(j0):
        return "violator does not violate Hall's condition"
    want = [("r", i) for i in hood] + [("c", j) for j in j0]
    if [(v.side, v.index) for v in string.entries] != want:
        return "deficiency string is not N(J0) then J0"
    if saturated is not True:
        return "deficiency string reported unsaturated"
    if mu != len(hood) - len(j0):
        return f"mu {mu}, expected {len(hood) - len(j0)}"
    return None


def witness_op(op: WitnessOp, result) -> str | None:
    pm = op.planted
    listed_rows = {i for s, i in op.string if s == "r"}
    listed_cols = {j for s, j in op.string if s == "c"}
    if _kind(result) == "DependentColumnsError":
        if op.dependent is None:
            return "DependentColumnsError on independent columns"
        v = _cells(result.kernel_vector)
        if not v or not _annihilates(pm, v, "col"):
            return "dependent-column vector is zero or does not annihilate"
        if op.dependent not in v:
            return "dependent-column vector misses the planted column"
        return None
    if _kind(result) != "WitnessPair":
        return f"expected WitnessPair, got {_kind(result)}"
    if op.dependent is not None:
        return "WitnessPair although a dependent column is listed"
    if not (result.rows <= listed_rows and result.cols <= listed_cols):
        return "witness sets leave the string"
    mu = len(listed_rows) - len(listed_cols)
    cols = sorted(result.cols)
    sub = [{j: pm.rows[i][j] for j in cols if j in pm.rows[i]} for i in sorted(result.rows)]
    r = pm.arith.rank(sub)
    if mu != len(result.rows) - r:
        return f"mu {mu} != |I'| {len(result.rows)} - rank {r}"
    return None


def stream_status(stream: Stream, k: int, status, latched) -> str | None:
    """Status after pushing line ``k``; ``latched`` is the status seen at the latch."""
    if k < stream.latch:
        if _kind(status) != "AllPrefixesSolvable":
            return f"prefix {k + 1} reported unsolvable, planted solvable"
        return None
    if _kind(status) != "UnsolvableAt" or status.prefix_len != stream.latch + 1:
        return f"status {status!r} after line {k}, planted UnsolvableAt({stream.latch + 1})"
    if latched is not None and status != latched:
        return "latched status changed"
    return None


def stream_core(stream: Stream, core) -> str | None:
    if stream.latch not in core or not core <= set(range(stream.latch + 1)):
        return "core misses the contradicting row or reaches past it"
    if Arith(P).consistent([stream.rows[i] for i in sorted(core)]):
        return "core rows are consistent on their own"
    return None

