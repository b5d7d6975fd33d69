"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's code paths: brute-force
vector enumeration for rank and kernel, recursive search for matchings,
subset enumeration for covering defects, and a dense list-based eliminator
for stream prefixes.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from thincert import (FieldSpec, Matching, OmegaBlock, OrdinalString,
                      SaturatedString, SparseMatrix, SupportGraph, Vertex,
                      kernel_basis, rank, support_graph)

# --------------------------------------------------------------------------
# scalars

def rand_nonzero(spec: FieldSpec, rng: random.Random):
    if spec.is_prime_field:
        return rng.randrange(1, spec.modulus)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def rand_scalar(spec: FieldSpec, rng: random.Random):
    if spec.is_prime_field:
        return rng.randrange(spec.modulus)
    return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))


# --------------------------------------------------------------------------
# matrices

def independent_cols_matrix(spec: FieldSpec, rng: random.Random,
                            max_rows: int = 30, max_cols: int = 30,
                            extra: float = 2.0) -> SparseMatrix:
    """Random sparse matrix rejected until its column kernel is trivial.

    A planted injection of columns into rows makes acceptance likely.
    """
    while True:
        c = rng.randint(1, max_cols)
        r = rng.randint(c, max_rows)
        planted = rng.sample(range(r), c)
        entries = {(planted[j], j): rand_nonzero(spec, rng) for j in range(c)}
        for _ in range(int(extra * c)):
            pos = (rng.randrange(r), rng.randrange(c))
            if pos not in entries:
                entries[pos] = rand_nonzero(spec, rng)
        matrix = SparseMatrix.from_entries(spec, r, c, entries)
        if not kernel_basis(matrix):
            return matrix


def dependent_cols_matrix(spec: FieldSpec, rng: random.Random,
                          max_rows: int = 30, max_cols: int = 30) -> SparseMatrix:
    """Random matrix with a guaranteed nontrivial column kernel."""
    kind = rng.randrange(3)
    if kind == 0:
        # more columns than rows
        c = rng.randint(2, max_cols)
        r = rng.randint(1, min(max_rows, c - 1))
        entries = {}
        for j in range(c):
            entries[(rng.randrange(r), j)] = rand_nonzero(spec, rng)
        for _ in range(c):
            pos = (rng.randrange(r), rng.randrange(c))
            if pos not in entries:
                entries[pos] = rand_nonzero(spec, rng)
        return SparseMatrix.from_entries(spec, r, c, entries)
    base = independent_cols_matrix(spec, rng, max_rows, max_cols - 1, extra=1.5)
    entries = {(i, j): el for i, j, el in base.nonzeros()}
    if kind == 1:
        # append a scalar multiple of an existing column
        j0 = rng.randrange(base.num_cols)
        factor = spec.element(rand_nonzero(spec, rng))
        for i, el in base.column(j0).entries:
            entries[(i, base.num_cols)] = factor * el
    # kind == 2 appends a zero column: no extra entries at index num_cols
    return SparseMatrix.from_entries(spec, base.num_rows, base.num_cols + 1, entries)


def invertible_matrix(spec: FieldSpec, rng: random.Random, max_n: int = 20,
                      extra: float = 2.0) -> SparseMatrix:
    while True:
        n = rng.randint(1, max_n)
        perm = list(range(n))
        rng.shuffle(perm)
        entries = {(perm[j], j): rand_nonzero(spec, rng) for j in range(n)}
        for _ in range(int(extra * n)):
            pos = (rng.randrange(n), rng.randrange(n))
            if pos not in entries:
                entries[pos] = rand_nonzero(spec, rng)
        matrix = SparseMatrix.from_entries(spec, n, n, entries)
        if rank(matrix) == n:
            return matrix


# --------------------------------------------------------------------------
# brute-force rank and kernel by vector enumeration (prime fields only)

def brute_rank_kernel(spec: FieldSpec, matrix: SparseMatrix) -> tuple[int, set[tuple[int, ...]]]:
    p = spec.modulus
    rows = [matrix.raw_row(i) for i in range(matrix.num_rows)]
    kernel = set()
    for lam in itertools.product(range(p), repeat=matrix.num_cols):
        if all(sum(v * lam[j] for j, v in row.items()) % p == 0 for row in rows):
            kernel.add(lam)
    nullity = 0
    while p ** nullity < len(kernel):
        nullity += 1
    assert p ** nullity == len(kernel), "kernel size is not a power of p"
    return matrix.num_cols - nullity, kernel


def gf2_matrix_from_masks(masks: list[int], num_cols: int) -> SparseMatrix:
    entries = {}
    for i, mask in enumerate(masks):
        for j in range(num_cols):
            if mask >> j & 1:
                entries[(i, j)] = 1
    return SparseMatrix.from_entries(FieldSpec.gf(2), len(masks), num_cols, entries)


def gf2_brute_rank_kernel(masks: list[int], num_cols: int) -> tuple[int, set[int]]:
    """Bit-level enumeration oracle for GF(2): kernel as a set of column masks."""
    kernel = set()
    for lam in range(1 << num_cols):
        if all((mask & lam).bit_count() % 2 == 0 for mask in masks):
            kernel.add(lam)
    nullity = len(kernel).bit_length() - 1
    assert 1 << nullity == len(kernel)
    return num_cols - nullity, kernel


# --------------------------------------------------------------------------
# bipartite graphs

def random_graph(rng: random.Random, total_cap: int = 7) -> SupportGraph:
    while True:
        s = rng.randint(0, min(total_cap, 5))
        t = rng.randint(0, min(total_cap - s, 5))
        if s or t:
            break
    density = rng.choice([0.2, 0.4, 0.6, 0.8])
    edges = [(j, i) for j in range(s) for i in range(t) if rng.random() < density]
    return SupportGraph(range(s), range(t), edges)


def random_bipartite(rng: random.Random) -> SupportGraph:
    nc, nr = rng.randint(0, 30), rng.randint(0, 30)
    density = rng.choice([0.03, 0.08, 0.15, 0.3])
    return SupportGraph(range(nc), range(nr),
                        [(j, i) for j in range(nc) for i in range(nr) if rng.random() < density])


def oracle_graphs() -> list[SupportGraph]:
    """350 fixed graphs: random ones, two perfect coverings, and the support
    graphs of planted column injections and dependences."""
    rng = random.Random(2211)
    out = [random_graph(rng) for _ in range(100)]
    out += [random_bipartite(rng) for _ in range(200)]
    out += [two_coverings_instance(rng)[0] for _ in range(20)]
    for spec in (FieldSpec.gf(2), FieldSpec.gf(5), FieldSpec.rationals()):
        for _ in range(5):
            out.append(support_graph(independent_cols_matrix(spec, rng, 15, 15)))
            out.append(support_graph(dependent_cols_matrix(spec, rng, 15, 15)))
    return out


def brute_max_matching_size(graph: SupportGraph) -> int:
    cols = list(graph.left)

    def best(k: int, used_rows: set[int]) -> int:
        if k == len(cols):
            return 0
        result = best(k + 1, used_rows)
        for i in graph.neighbours(cols[k]):
            if i not in used_rows:
                used_rows.add(i)
                result = max(result, 1 + best(k + 1, used_rows))
                used_rows.remove(i)
        return result

    return best(0, set())


def max_defect(graph: SupportGraph) -> int:
    """max over column subsets of |J0| - |N(J0)|, the empty set contributing 0."""
    best = 0
    cols = list(graph.left)
    for size in range(1, len(cols) + 1):
        for j0 in itertools.combinations(cols, size):
            best = max(best, size - len(graph.neighbourhood(j0)))
    return best


def min_mu_saturated(graph: SupportGraph) -> int:
    """Exhaustive minimum of the running weight over all saturated strings.

    Distinct orderings of the same (rows listed, cols listed) state carry the
    same running value, so the search deduplicates on the state; every state
    visited is realized by at least one saturated string by construction.
    """
    best = 0
    seen: set[tuple[frozenset, frozenset]] = set()

    def dfs(used_r: frozenset[int], used_c: frozenset[int], value: int) -> None:
        nonlocal best
        key = (used_r, used_c)
        if key in seen:
            return
        seen.add(key)
        best = min(best, value)
        for i in graph.right:
            if i not in used_r:
                dfs(used_r | {i}, used_c, value + 1)
        for j in graph.left:
            if j not in used_c and set(graph.neighbours(j)) <= used_r:
                dfs(used_r, used_c | {j}, value - 1)

    dfs(frozenset(), frozenset(), 0)
    return best


def two_coverings_instance(rng: random.Random) -> tuple[SupportGraph, Matching, Matching]:
    """A graph with two explicitly distinct coverings: one covering the columns,
    one covering the rows (both perfect here, built from alternating cycles)."""
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
    shared = rng.randint(0, 2)
    edges, s_pairs, t_pairs = [], [], []
    base = 0
    for size in sizes:
        cols = list(range(base, base + size))
        rows = list(range(base, base + size))
        for k in range(size):
            a = (cols[k], rows[k])
            b = (cols[k], rows[(k - 1) % size])
            edges += [a, b]
            s_pairs.append(a)
            t_pairs.append(b)
        base += size
    for _ in range(shared):
        edges.append((base, base))
        s_pairs.append((base, base))
        t_pairs.append((base, base))
        base += 1
    # noise edges outside both matchings
    for _ in range(rng.randint(0, 3)):
        j, i = rng.randrange(base), rng.randrange(base)
        edges.append((j, i))
    graph = SupportGraph(range(base), range(base), edges)
    return graph, Matching.checked(graph, s_pairs), Matching.checked(graph, t_pairs)


# --------------------------------------------------------------------------
# saturated strings

def random_saturated_string(matrix: SparseMatrix, rng: random.Random,
                            stop: float = 0.12) -> SaturatedString:
    """Random saturated string whose running weight never goes negative.

    Columns become eligible once their whole neighbourhood is listed, and are
    only taken while the running value is positive.
    """
    graph = support_graph(matrix)
    entries: list[Vertex] = []
    used_r: set[int] = set()
    used_c: set[int] = set()
    value = 0
    while True:
        if entries and rng.random() < stop:
            break
        rows_avail = [i for i in graph.right if i not in used_r]
        cols_avail = []
        if value >= 1:
            cols_avail = [j for j in graph.left
                          if j not in used_c and set(graph.neighbours(j)) <= used_r]
        if cols_avail and (not rows_avail or rng.random() < 0.5):
            j = rng.choice(cols_avail)
            used_c.add(j)
            entries.append(Vertex.col(j))
            value -= 1
        elif rows_avail:
            i = rng.choice(rows_avail)
            used_r.add(i)
            entries.append(Vertex.row(i))
            value += 1
        else:
            break
    return SaturatedString(tuple(entries))


# --------------------------------------------------------------------------
# ordinal strings

def _weight(v: Vertex) -> int:
    return 1 if v.is_row else -1


def simulate_mu(string: OrdinalString, periods: int = 60):
    """Prefix-simulation oracle for the limit value of an ordinal string.

    Each block's pattern is actually repeated; the minimum over one late
    repetition window settles the liminf, and the direction in which the
    window minima move detects divergence.  Infinite values persist.
    """
    value = 0
    for block in string.blocks:
        if value in (math.inf, -math.inf):
            continue
        for v in block.preamble:
            value += _weight(v)
        window_mins = []
        for _ in range(periods):
            wmin = math.inf
            for v in block.pattern:
                value += _weight(v)
                wmin = min(wmin, value)
            window_mins.append(wmin)
        if window_mins[-1] < window_mins[0]:
            value = -math.inf
        elif window_mins[-1] > window_mins[0]:
            value = math.inf
        else:
            value = window_mins[-1]
    if value not in (math.inf, -math.inf):
        for v in string.tail:
            value += _weight(v)
    return value


def _vertex_run(rng: random.Random, length: int, bias: float = 0.5) -> tuple[Vertex, ...]:
    out = []
    for k in range(length):
        side = Vertex.row if rng.random() < bias else Vertex.col
        out.append(side(k))
    return tuple(out)


def _pattern_with_drift(rng: random.Random, drift: int) -> tuple[Vertex, ...]:
    rows = cols = rng.randint(0, 2)
    if drift > 0:
        rows += rng.randint(1, 2)
    elif drift < 0:
        cols += rng.randint(1, 2)
    if rows + cols == 0:
        rows = cols = 1
    mixed = [Vertex.row(k) for k in range(rows)] + [Vertex.col(k) for k in range(cols)]
    return tuple(rng.sample(mixed, len(mixed)))


def random_ordinal_string(rng: random.Random, drift: int | None = None) -> OrdinalString:
    """Random eventually-periodic string.

    With `drift` given (-1, 0, or +1) the result is a single block whose
    pattern has net weight of that sign; otherwise blocks and drifts are
    uniformly random.
    """
    if drift is not None:
        block = OmegaBlock(pattern=_pattern_with_drift(rng, drift),
                           preamble=_vertex_run(rng, rng.randint(0, 3)))
        return OrdinalString((block,), _vertex_run(rng, rng.randint(0, 3)))
    blocks = tuple(
        OmegaBlock(pattern=_vertex_run(rng, rng.randint(1, 4)),
                   preamble=_vertex_run(rng, rng.randint(0, 3)))
        for _ in range(rng.randint(1, 3)))
    return OrdinalString(blocks, _vertex_run(rng, rng.randint(0, 3)))


# --------------------------------------------------------------------------
# streams

def random_stream(spec: FieldSpec, rng: random.Random, max_rows: int = 50,
                  max_cols: int = 8) -> tuple[int, list[tuple[list[tuple[int, object]], object]]]:
    """(num_cols, rows) where each row is (sparse pairs, rhs raw value)."""
    n = rng.randint(1, max_rows)
    ncols = rng.randint(1, max_cols)
    consistent = rng.random() < 0.5
    target = [rand_scalar(spec, rng) for _ in range(ncols)]
    rows = []
    for _ in range(n):
        k = rng.randint(1, min(3, ncols))
        cols = sorted(rng.sample(range(ncols), k))
        pairs = [(c, rand_nonzero(spec, rng)) for c in cols]
        if consistent:
            rhs = spec.zero
            for c, v in pairs:
                rhs = spec.add(rhs, spec.mul(v, target[c]))
        else:
            rhs = rand_scalar(spec, rng)
        rows.append((pairs, rhs))
    return ncols, rows


def dense_prefix_statuses(spec: FieldSpec, rows, ncols: int):
    """Independent dense incremental eliminator; yields prefix solvability.

    Unsolvability latches: a refuted prefix stays refuted under more rows.
    """
    pivots: list[tuple[int, list, object]] = []
    bad = False
    for pairs, rhs in rows:
        if not bad:
            vec = [spec.zero] * ncols
            for c, v in pairs:
                vec[c] = spec.add(vec[c], v)
            b = rhs
            for pc, pvec, pb in pivots:
                if vec[pc] != 0:
                    f = spec.div(vec[pc], pvec[pc])
                    for c in range(ncols):
                        if pvec[c] != 0:
                            vec[c] = spec.sub(vec[c], spec.mul(f, pvec[c]))
                    b = spec.sub(b, spec.mul(f, pb))
            lead = next((c for c, v in enumerate(vec) if v != 0), None)
            if lead is None:
                if b != 0:
                    bad = True
            else:
                pivots.append((lead, vec, b))
        yield not bad
