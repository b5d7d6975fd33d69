"""Seeded workload generators for the thincert benchmark.

Every input is built so that its truth is known by construction, never by
running thincert: full rank comes from a permuted product of triangular
factors, a dependency is planted as an explicit combination with a known
kernel vector, a refutable right-hand side is pushed off the column space
along a known left kernel vector, and a stream contradiction arrives only
after a triangular spine has saturated the rank.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from arith import Arith

P = 1_000_003

#: One line each; also printed with every run.
WHY = {
    "gfp_certify": "GF(p) certify/diagonalize/solve/kernel on sparse n=100-200: "
                   "elimination bookkeeping, provenance and repeated eliminations dominate",
    "q_solve": "rational rank/kernel/solve/core on n=40-80 (minimized cores n=20-30): "
               "Fraction gcd and coefficient growth dominate",
    "gfp_stream": "GF(p) rows of 200-column streams parsed and pushed one at a time "
                  "through a planted latch: the only caller that reads provenance",
    "graph_witness": "GF(2) Hall violators on 1000-2000-column graphs plus lemma_witness: "
                     "matching and strings dominate; deep staircases run once per run, untimed",
}


@dataclass
class Planted:
    """A matrix with its known rank and known kernel vectors.

    ``col_kernel`` / ``row_kernel`` hold explicit kernel vectors (as
    {index: value} dicts) when the construction knows them; they span the
    whole kernel whenever their count equals the nullity.
    """

    arith: Arith
    nrows: int
    ncols: int
    rows: list[dict]
    rank: int
    col_kernel: list[dict] = field(default_factory=list)
    row_kernel: list[dict] = field(default_factory=list)
    text: str = ""

    def render(self) -> None:
        head = "field rational" if self.arith.p is None else f"field gf {self.arith.p}"
        lines = [head, f"{self.nrows} {self.ncols}"]
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                lines.append(f"{i} {j} {row[j]}")
        self.text = "\n".join(lines) + "\n"


@dataclass
class MatrixOp:
    """One request: parse ``planted.text`` and make one library call."""

    kind: str
    planted: Planted
    rhs: dict | None = None          # row -> value, for solve-like ops


# --------------------------------------------------------------------------
# construction helpers (all in logical coordinates, permuted at the end)

def _distinct(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """min(k, hi - lo) distinct integers from [lo, hi); faster than
    ``rng.sample`` for the handful needed per row."""
    k = min(k, hi - lo)
    out: list[int] = []
    rand, width = rng.random, hi - lo
    while len(out) < k:
        x = lo + int(rand() * width)
        if x not in out:
            out.append(x)
    return out


def _combine(a: Arith, terms: list[tuple[object, dict]]) -> dict:
    out: dict = {}
    for c, row in terms:
        for j, v in row.items():
            w = a.add(out.get(j, a.zero), a.mul(c, v))
            if w == 0:
                out.pop(j, None)
            else:
                out[j] = w
    return out


def _full_rank(a: Arith, rng: random.Random, n: int, off: int = 0) -> list[dict]:
    """Rows of L U for n x n triangular factors with nonzero diagonals, so the
    rank is n for certain: L is unit lower triangular with one entry below
    the diagonal in about 60% of its rows, U upper triangular with two
    entries right of the diagonal.  Columns are shifted by ``off``."""
    upper = []
    for i in range(n):
        row = {off + i: a.rand_nonzero(rng)}
        for j in _distinct(rng, i + 1, n, 2):
            row[off + j] = a.rand_nonzero(rng)
        upper.append(row)
    rows = []
    for i in range(n):
        terms = [(a.one, upper[i])]
        if i and rng.random() < 0.6:
            terms.append((a.rand_nonzero(rng), upper[rng.randrange(i)]))
        rows.append(_combine(a, terms))
    return rows


def _transpose(rows: list[dict], ncols: int) -> list[dict]:
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _permuted(a: Arith, rng: random.Random, nrows: int, ncols: int, rows: list[dict],
              rank: int, col_kernel: list[dict], row_kernel: list[dict]) -> Planted:
    rp = list(range(nrows))
    cp = list(range(ncols))
    rng.shuffle(rp)
    rng.shuffle(cp)
    out = [dict() for _ in range(nrows)]
    for i, row in enumerate(rows):
        out[rp[i]] = {cp[j]: v for j, v in row.items()}
    pm = Planted(a, nrows, ncols, out, rank,
                 [{cp[j]: v for j, v in x.items()} for x in col_kernel],
                 [{rp[i]: v for i, v in y.items()} for y in row_kernel])
    pm.render()
    return pm


def _dependent_rows(a: Arith, rng: random.Random, base: list[dict],
                    k: int) -> tuple[list[dict], list[dict]]:
    """Append k rows, each a combination of two base rows; return rows and
    the left kernel vectors that the construction plants."""
    rows = list(base)
    kernel = []
    for _ in range(k):
        i1, i2 = rng.sample(range(len(base)), 2)
        c1, c2 = a.rand_nonzero(rng), a.rand_nonzero(rng)
        rows.append(_combine(a, [(c1, base[i1]), (c2, base[i2])]))
        kernel.append({len(rows) - 1: a.one, i1: a.neg(c1), i2: a.neg(c2)})
    return rows, kernel


def square_full(a: Arith, rng: random.Random, n: int) -> Planted:
    return _permuted(a, rng, n, n, _full_rank(a, rng, n), n, [], [])


def tall_full(a: Arith, rng: random.Random, n: int, k: int) -> Planted:
    """(n+k) x n with full column rank and k planted row dependencies."""
    rows, left = _dependent_rows(a, rng, _full_rank(a, rng, n), k)
    return _permuted(a, rng, n + k, n, rows, n, [], left)


def wide_full(a: Arith, rng: random.Random, n: int, k: int) -> Planted:
    """n x (n+k) with full row rank and k planted column dependencies."""
    cols, kern = _dependent_rows(a, rng, _transpose(_full_rank(a, rng, n), n), k)
    return _permuted(a, rng, n, n + k, _transpose(cols, n), n, kern, [])


def square_rowdep(a: Arith, rng: random.Random, n: int) -> Planted:
    """n x n of rank n-1: the last row is a combination of two others."""
    rows, left = _dependent_rows(a, rng, _full_rank(a, rng, n)[:n - 1], 1)
    return _permuted(a, rng, n, n, rows, n - 1, [], left)


def square_coldep(a: Arith, rng: random.Random, n: int) -> Planted:
    """n x n of rank n-1: one column is a combination of two others."""
    t = square_rowdep(a, rng, n)
    pm = Planted(a, n, n, _transpose(t.rows, n), n - 1, t.row_kernel, [])
    pm.render()
    return pm


def square_hall(a: Arith, rng: random.Random, n: int, k: int) -> Planted:
    """n x n of rank n-1 whose first k columns live on only k-1 rows.

    Block form [[X, Y], [0, Z]]: X is a (k-1) x k bidiagonal block of full
    row rank, Z an (n-k+1) x (n-k) block of full column rank, so the rank
    is exactly n-1 and the kernel is ker(X) padded with zeros.
    """
    rows: list[dict] = []
    for i in range(k - 1):
        row = {i: a.rand_nonzero(rng), i + 1: a.rand_nonzero(rng)}
        for j in _distinct(rng, k, n, 1):
            row[j] = a.rand_nonzero(rng)
        rows.append(row)
    z = _full_rank(a, rng, n - k, off=k)
    extra = {j: a.rand_nonzero(rng) for j in _distinct(rng, k, n, 3)}
    rows.extend(z + [extra])
    x = {0: a.one}
    for i in range(k - 1):
        x[i + 1] = a.neg(a.mul(a.mul(rows[i][i], x[i]), a.inv(rows[i][i + 1])))
    return _permuted(a, rng, n, n, rows, n - 1, [x], [])


def _consistent_rhs(a: Arith, rng: random.Random, pm: Planted) -> dict:
    x0 = {j: a.rand_nonzero(rng) for j in range(pm.ncols)}
    b = {}
    for i, row in enumerate(pm.rows):
        acc = a.zero
        for j, v in row.items():
            acc = a.add(acc, a.mul(v, x0[j]))
        if acc != 0:
            b[i] = acc
    return b


def _refutable_rhs(a: Arith, rng: random.Random, pm: Planted) -> dict:
    """A consistent rhs moved along a row that a planted left kernel vector uses."""
    b = _consistent_rhs(a, rng, pm)
    y = pm.row_kernel[0]
    i = max(y)
    b[i] = a.add(b.get(i, a.zero), a.rand_nonzero(rng))
    if b[i] == 0:
        del b[i]
    return b


# --------------------------------------------------------------------------
# matrix workloads

def _sizes(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """Evenly spread sizes with a small seeded jitter, so every seed sees the
    same size profile and only the structure changes."""
    step = (hi - lo) / max(count - 1, 1)
    return [max(lo, min(hi, round(lo + step * t) + rng.randint(-3, 3))) for t in range(count)]


def _build(a: Arith, rng: random.Random, shape: str, n: int) -> Planted:
    k = max(2, n // 20)
    if shape == "square":
        return square_full(a, rng, n)
    if shape == "tall":
        return tall_full(a, rng, n, k)
    if shape == "tall1":
        return tall_full(a, rng, n, 1)
    if shape == "wide":
        return wide_full(a, rng, n, k)
    if shape == "rowdep":
        return square_rowdep(a, rng, n)
    if shape == "coldep":
        return square_coldep(a, rng, n)
    if shape == "hall":
        return square_hall(a, rng, n, rng.randint(3, 5))
    raise ValueError(shape)


def _matrix_ops(a: Arith, rng: random.Random, plan: list[tuple[str, str]],
                lo: int, hi: int, copies: int) -> list[MatrixOp]:
    """``copies`` matrices per (shape, op) pair.  Sizes cover [lo, hi]
    evenly and each pair keeps its sizes under every seed, so the cost mix
    does not depend on the seed; only the structure does."""
    ops = []
    slots = copies * len(plan)
    for c in range(copies):
        for t, (shape, kind) in enumerate(plan):
            n = round(lo + (hi - lo) * (c * len(plan) + t) / (slots - 1))
            pm = _build(a, rng, shape, n)
            rhs = None
            if kind == "solve":
                rhs = _consistent_rhs(a, rng, pm)
            elif kind in ("solve_refute", "core", "core_min"):
                rhs = _refutable_rhs(a, rng, pm)
            ops.append(MatrixOp(kind, pm, rhs))
    rng.shuffle(ops)
    return ops


GFP_CERTIFY_PLAN = [
    ("square", "certify"), ("square", "certify_violator"), ("square", "diagonalize"),
    ("square", "solve"), ("square", "kernel"),
    ("tall", "certify"), ("tall", "diagonalize"), ("tall", "solve"),
    ("tall", "solve_refute"), ("tall", "kernel"),
    ("wide", "certify"), ("wide", "certify_violator"), ("wide", "diagonalize"),
    ("wide", "solve"), ("wide", "kernel"),
    ("coldep", "certify"), ("coldep", "diagonalize"), ("coldep", "kernel"),
    ("coldep", "solve"),
    ("rowdep", "certify"), ("rowdep", "diagonalize"), ("rowdep", "solve_refute"),
    ("hall", "certify_violator"), ("hall", "certify"), ("hall", "kernel"),
]

Q_SOLVE_PLAN = [
    ("square", "rank"), ("square", "kernel"), ("square", "solve"),
    ("tall1", "rank"), ("tall1", "solve_refute"), ("tall1", "core"),
    ("rowdep", "rank"), ("rowdep", "solve_refute"), ("rowdep", "core"),
    ("rowdep", "solve"),
    ("coldep", "rank"), ("coldep", "kernel"), ("coldep", "solve"),
    ("wide", "rank"), ("wide", "kernel"), ("wide", "solve"),
]


def gfp_certify(seed: int) -> list[MatrixOp]:
    rng = random.Random(f"gfp_certify/{seed}")
    return _matrix_ops(Arith(P), rng, GFP_CERTIFY_PLAN, 100, 200, copies=4)


def q_solve(seed: int) -> list[MatrixOp]:
    rng = random.Random(f"q_solve/{seed}")
    a = Arith(None)
    ops = _matrix_ops(a, rng, Q_SOLVE_PLAN, 40, 80, copies=8)
    # minimize=True costs seconds beyond n=30, so it runs on small systems only
    ops += _matrix_ops(a, rng, [("rowdep", "core_min"), ("tall1", "core_min")], 20, 30, copies=8)
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# streams

@dataclass
class Stream:
    """Text lines for one stream, and the planted latch point.

    Lines before ``latch`` are consistent with a hidden solution; line
    ``latch`` contradicts it after a triangular spine has saturated the
    rank, so prefix ``latch + 1`` is the first unsolvable one.
    """

    ncols: int
    lines: list[str]
    rows: list[tuple[dict, int]]
    latch: int


def _stream(a: Arith, rng: random.Random, ncols: int) -> Stream:
    x0 = [a.rand_nonzero(rng) for _ in range(ncols)]

    def entries(cols) -> dict:
        return {j: a.rand_nonzero(rng) for j in cols}

    def random_row() -> dict:
        return entries(_distinct(rng, 0, ncols, rng.randint(3, 5)))

    # spine row j has its lowest column at j, so the spine alone has rank ncols
    spine = [entries([j] + _distinct(rng, j + 1, ncols, rng.randint(2, 4)))
             for j in range(ncols)]
    before = spine + [random_row() for _ in range(ncols * 3 // 10)]
    rng.shuffle(before)

    def rhs_of(row: dict) -> int:
        acc = 0
        for j, v in row.items():
            acc = a.add(acc, a.mul(v, x0[j]))
        return acc

    rows = [(r, rhs_of(r)) for r in before]
    bad = random_row()
    rows.append((bad, a.add(rhs_of(bad), a.rand_nonzero(rng))))
    # "About as many rows again" after the latch; a few more than before it,
    # so the median push lies inside the post-latch mode, not on the edge.
    rows += [(random_row(), rng.randrange(a.p)) for _ in range(len(before) * 6 // 5)]
    perm = list(range(ncols))
    rng.shuffle(perm)
    rows = [({perm[j]: v for j, v in r.items()}, b) for r, b in rows]
    lines = [f"{b} ; " + " ".join(f"{j}:{v}" for j, v in sorted(r.items())) for r, b in rows]
    return Stream(ncols, lines, rows, len(before))


def gfp_stream(seed: int) -> list[Stream]:
    rng = random.Random(f"gfp_stream/{seed}")
    # One width for every stream: a run that stops part way through a pass
    # then sees the same kind of stream whichever ones it reached.  The cost
    # of a stream varies by a fifth or more with its random structure, so a
    # run needs many streams: the narrow end of 200-300 columns gives a run
    # of --seconds 20 about twenty of them.
    return [_stream(Arith(P), rng, 200) for _ in range(30)]


# --------------------------------------------------------------------------
# graphs and strings over GF(2)

@dataclass
class GraphOp:
    """hall_violator -> deficiency_string -> is_saturated / mu_finite."""

    kind: str            # "blocks" or "staircase"
    ncols: int
    nrows: int
    adj: dict            # column -> sorted tuple of rows
    text: str


@dataclass
class WitnessOp:
    """lemma_witness on a saturated string with nonnegative prefix weights.

    ``dependent`` is the column planted as the GF(2) sum of two listed
    columns, or None when every listed column is independent."""

    planted: Planted
    string: list[tuple[str, int]]
    dependent: int | None


def _gf2_text(nrows: int, ncols: int, adj: dict) -> str:
    entries = sorted((i, j) for j, rows in adj.items() for i in rows)
    return "\n".join(["field gf 2", f"{nrows} {ncols}"]
                     + [f"{i} {j} 1" for i, j in entries]) + "\n"


def _block_graph(rng: random.Random, ncols: int) -> GraphOp:
    """Disjoint random blocks of 20-60 columns, some with fewer rows than columns."""
    adj: dict = {}
    col = row = 0
    while col < ncols:
        bc = min(ncols - col, rng.randint(20, 60))
        br = max(1, bc + rng.randint(-3, 2))
        for j in range(bc):
            adj[col + j] = [row + i for i in _distinct(rng, 0, br, 2 + (rng.random() < 0.5))]
        col += bc
        row += br
    if row >= col:      # keep the graph wide so a violator always exists
        adj[col] = [0]
        col += 1
    cp = list(range(col))
    rp = list(range(row))
    rng.shuffle(cp)
    rng.shuffle(rp)
    adj = {cp[j]: tuple(sorted(rp[i] for i in rows)) for j, rows in adj.items()}
    return GraphOp("blocks", col, row, adj, _gf2_text(row, col, adj))


def _staircase(rng: random.Random, ncols: int) -> GraphOp:
    """Column j meets rows j-1 and j, so every augmenting path found while
    scanning columns in index order runs back through all earlier columns;
    a few extra columns make the graph wide."""
    adj = {j: tuple(sorted({max(j - 1, 0), j})) for j in range(ncols)}
    for t in range(rng.randint(3, 6)):
        adj[ncols + t] = tuple(sorted(_distinct(rng, 0, ncols, 2)))
    return GraphOp("staircase", len(adj), ncols, adj, _gf2_text(ncols, len(adj), adj))


def _witness(rng: random.Random, n: int, plant_dependent: bool) -> WitnessOp:
    """A random n x n GF(2) matrix (three entries per column) and a saturated
    string over it whose running weight never goes negative.

    Only columns independent of those already listed join the string, so
    the replay yields a WitnessPair, unless ``plant_dependent``: then one
    more column, the sum of two listed ones, is added to the matrix and
    listed once its support is.
    """
    masks = [sum(1 << i for i in _distinct(rng, 0, n, 3)) for _ in range(n)]
    basis: dict[int, int] = {}       # top bit -> reduced mask

    def independent(mask: int) -> bool:
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = mask
                return True
            mask ^= basis[top]
        return False

    rows = list(range(n))
    rng.shuffle(rows)
    listed_rows = 0
    listed: list[int] = []
    string: list[tuple[str, int]] = []
    pending = set(range(n))
    dependent = None
    weight = 0
    while rows:
        ready = sorted(j for j in pending if masks[j] & ~listed_rows == 0)
        if ready and weight > 0 and rng.random() < 0.4:
            j = rng.choice(ready)
            pending.discard(j)
            if dependent == j or independent(masks[j]):
                string.append(("c", j))
                listed.append(j)
                weight -= 1
                if plant_dependent and dependent is None and len(listed) >= 10:
                    j1, j2 = rng.sample(listed, 2)
                    dependent = len(masks)
                    masks.append(masks[j1] ^ masks[j2])
                    pending.add(dependent)
            continue
        i = rows.pop()
        string.append(("r", i))
        listed_rows |= 1 << i
        weight += 1
    if dependent is not None and ("c", dependent) not in string:
        string.append(("c", dependent))
    cols = [{i: 1 for i in range(n) if m >> i & 1} for m in masks]
    pm = Planted(Arith(2), n, len(masks), _transpose(cols, n), -1)
    pm.render()
    return WitnessOp(pm, string, dependent)


def graph_witness(seed: int) -> list:
    rng = random.Random(f"graph_witness/{seed}")
    ops: list = [_block_graph(rng, n) for n in _sizes(rng, 1000, 2000, 48)]
    # Deeper than the default recursion limit: these fail until max_matching
    # stops recursing.  The runner takes them out of the timed loop and runs
    # each once per run as a probe, so that failure shows on every run.
    ops += [_staircase(rng, n) for n in (1200, 1600)]
    for t, n in enumerate(_sizes(rng, 90, 110, 36)):
        ops.append(_witness(rng, n, plant_dependent=t % 2 == 1))
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "gfp_certify": gfp_certify,
    "q_solve": q_solve,
    "gfp_stream": gfp_stream,
    "graph_witness": graph_witness,
}
