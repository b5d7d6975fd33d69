"""Bipartite support graphs, matchings, and covering-failure witnesses.

The left side of a support graph holds column indices and the right side
holds row indices; an edge means the matrix entry is nonzero.  Matching
search is deterministic: columns are scanned in index order over sorted
adjacency lists, so equal inputs give equal matchings everywhere.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import invert
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .field import _is_index
from .linalg import SparseMatrix, _self_check

if TYPE_CHECKING:
    from .strings import SaturatedString

__all__ = [
    "Vertex",
    "SupportGraph",
    "Matching",
    "support_graph",
    "max_matching",
    "hall_violator",
    "deficiency_string",
    "cantor_bernstein_merge",
]


def _raw_vertex(side: object, index: object) -> int:
    """The raw form of the vertex ``(side, index)``, one int: row i is ``i``
    and column j is ``~j``.  Refuses, with ``ValueError``, what ``Vertex``
    refuses: a side other than ``r`` or ``c``, and an index that is not a
    nonnegative int."""
    if side not in ("r", "c"):
        raise ValueError(f"vertex side must be 'r' or 'c', got {side!r}")
    if not (type(index) is int or _is_index(index)):     # fast common case
        raise ValueError(f"vertex index {index!r} is not an int")
    if index < 0:
        raise ValueError("vertex index must be nonnegative")
    return index if side == "r" else ~index


class Vertex(NamedTuple("Vertex", [("side", str), ("index", int)])):
    """A side-tagged vertex: ``c`` for a column (left), ``r`` for a row (right)."""

    __slots__ = ()

    def __new__(cls, side: str, index: int) -> "Vertex":
        _raw_vertex(side, index)
        return tuple.__new__(cls, (side, index))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Vertex":
        # ``NamedTuple``'s own ``_make``, which ``_replace`` calls, builds
        # through ``tuple.__new__`` and would skip the check.
        return cls(*iterable)

    @classmethod
    def col(cls, j: int) -> "Vertex":
        return cls("c", j)

    @classmethod
    def row(cls, i: int) -> "Vertex":
        return cls("r", i)

    @property
    def is_col(self) -> bool:
        return self.side == "c"

    @property
    def is_row(self) -> bool:
        return self.side == "r"

    def __str__(self) -> str:
        return f"{self.side}{self.index}"


class SupportGraph:
    """Bipartite graph with column vertices on the left, row vertices on the right."""

    __slots__ = ("left", "right", "adj", "radj")

    def __init__(self, left: Iterable[int], right: Iterable[int],
                 edges: Iterable[tuple[int, int]]):
        cols = set(left)
        rows: dict[int, set[int]] = {i: set() for i in sorted(set(right))}
        if not all(map(_is_index, chain(cols, rows))):
            raise ValueError("vertex indices must be ints")
        for j, i in edges:
            if not (_is_index(j) and j in cols):
                raise ValueError(f"edge endpoint c{j} is not a left vertex")
            if not (_is_index(i) and i in rows):
                raise ValueError(f"edge endpoint r{i} is not a right vertex")
            rows[i].add(j)
        self._index(sorted(cols), {i: tuple(sorted(s)) for i, s in rows.items()})

    def _index(self, left: Iterable[int], radj: dict[int, tuple[int, ...]]) -> None:
        """Index sorted columns and rows; rows ascend, each a sorted tuple of
        columns.  Every column without an edge shares one empty tuple."""
        hits: defaultdict[int, list[int]] = defaultdict(list)
        for i, js in radj.items():
            for j in js:
                hits[j].append(i)
        adj: dict[int, tuple[int, ...]] = dict.fromkeys(left, ())
        adj.update(zip(hits, map(tuple, hits.values())))
        self.left = tuple(adj)
        self.right = tuple(radj)
        self.adj = adj
        self.radj = radj

    def neighbours(self, col: int) -> tuple[int, ...]:
        return self.adj[col]

    def co_neighbours(self, row: int) -> tuple[int, ...]:
        return self.radj[row]

    def neighbourhood(self, cols: Iterable[int]) -> frozenset[int]:
        # One C-level pass: a column without edges adds its shared empty tuple.
        return frozenset(chain.from_iterable(map(self.adj.__getitem__, cols)))

    def has_edge(self, col: int, row: int) -> bool:
        return row in self.adj.get(col, ())

    def has_vertex(self, v: Vertex) -> bool:
        return v.index in (self.adj if v.is_col else self.radj)


@dataclass(frozen=True)
class Matching:
    """A set of (column, row) edges with every vertex used at most once."""

    pairs: frozenset[tuple[int, int]]

    @classmethod
    def checked(cls, graph: SupportGraph, pairs: Iterable[tuple[int, int]]) -> "Matching":
        ps = frozenset(pairs)
        adj, cols_seen, rows_seen = graph.adj, set(), set()
        for j, i in ps:
            if i not in adj.get(j, ()) or not (type(j) is int is type(i)  # fast common case
                                               or _is_index(j) and _is_index(i)):
                raise ValueError(f"(c{j}, r{i}) is not an edge")
            if j in cols_seen or i in rows_seen:
                raise ValueError(f"vertex reused at (c{j}, r{i})")
            cols_seen.add(j)
            rows_seen.add(i)
        return cls(ps)

    @cached_property
    def col_to_row(self) -> dict[int, int]:
        return {j: i for j, i in sorted(self.pairs)}

    @cached_property
    def row_to_col(self) -> dict[int, int]:
        return {i: j for j, i in sorted(self.pairs)}

    @property
    def size(self) -> int:
        return len(self.pairs)

    def covers_cols(self, graph: SupportGraph) -> bool:
        return all(j in self.col_to_row for j in graph.left)

    def covers_rows(self, graph: SupportGraph) -> bool:
        return all(i in self.row_to_col for i in graph.right)

    def is_perfect(self, graph: SupportGraph) -> bool:
        return self.covers_cols(graph) and self.covers_rows(graph)


def support_graph(matrix: SparseMatrix) -> SupportGraph:
    """The bipartite graph whose edges are the nonzero positions of the matrix."""
    graph = SupportGraph.__new__(SupportGraph)
    graph._index(range(matrix.num_cols),
                 {i: tuple(row) for i, row in enumerate(matrix._cells)})
    return graph


def max_matching(graph: SupportGraph) -> Matching:
    """Maximum matching by augmenting paths, columns tried in index order."""
    match_row: dict[int, int] = {}   # row -> col
    _augment(graph.adj, graph.left, match_row)
    return _self_check(Matching.checked, graph, ((j, i) for i, j in match_row.items()))


def _augment(adj: dict[int, tuple[int, ...]], roots: Iterable[int],
             match_row: dict[int, int]) -> set[int]:
    """Grow the matching ``match_row`` (row -> col) by one augmenting-path
    search from each unmatched root, in the given order, and return the
    dead rows.

    Each search is a depth-first search on an explicit stack, so no path
    length hits the recursion limit: rows are tried in sorted order, and a
    row's owner is searched before the next row is tried.  Rows reached by
    a failed search are dead (matched to columns whose neighbours are all
    dead), so no augmenting path enters them and later searches skip them.
    Dead rows therefore keep their owners, and a failed root stays
    unmatched: once every root is searched, the dead rows are exactly the
    rows reachable by alternating paths from the unmatched roots.
    """
    dead: set[int] = set()
    for root in roots:
        rows = adj[root]
        if not rows:            # no search can match a column without edges
            continue
        if rows[0] not in match_row:    # the search's first step
            match_row[rows[0]] = root
            continue
        banned: set[int] = set()
        col, todo = root, iter(rows)
        stack: list[tuple[int, Iterator[int], int]] = []   # (col, rows left, row tried)
        while True:
            for row in todo:
                if row not in banned and row not in dead:
                    break
            else:
                if not stack:
                    dead |= banned
                    break
                col, todo, _ = stack.pop()
                continue
            banned.add(row)
            owner = match_row.get(row)
            if owner is None:
                match_row[row] = col
                for c, _, r in stack:
                    match_row[r] = c
                break
            stack.append((col, todo, row))
            col, todo = owner, iter(adj[owner])
    return dead


def hall_violator(graph: SupportGraph) -> frozenset[int] | None:
    """A set of columns J0 with |N(J0)| < |J0|, or None if a matching covers all columns.

    J0 is the set of columns reachable by alternating paths from the columns
    a maximum matching leaves unmatched.  That set is the same for every
    maximum matching (Dulmage-Mendelsohn), so the matching here starts
    greedily, each column in index order taking its lowest free row, and
    augmenting paths are searched only from the columns left over.  The
    rows their failed searches reach are N(J0), and J0 is the unmatched
    columns with the owners of those rows.
    """
    adj = graph.adj
    match_row: dict[int, int] = {}   # row -> col
    left_over = []
    for j in graph.left:
        for i in adj[j]:
            if i not in match_row:
                match_row[i] = j
                break
        else:
            left_over.append(j)
    dead = _augment(adj, left_over, match_row)
    _self_check(Matching.checked, graph, zip(match_row.values(), match_row))
    exposed = set(left_over).difference(match_row.values())
    if not exposed:
        return None
    violator = frozenset(chain(exposed, map(match_row.__getitem__, dead)))
    if not len(graph.neighbourhood(violator)) < len(violator):
        raise AssertionError("failed augmenting searches produced a non-violating set")
    return violator


def deficiency_string(graph: SupportGraph, violator: Iterable[int]) -> "SaturatedString":
    """The saturated string listing N(J0) in index order, then J0 in index order.

    Its value under the one-step weighting is |N(J0)| - |J0|, which is
    negative by the violator property.
    """
    from .strings import SaturatedString  # import here to avoid a module cycle

    cols = set(violator)
    if not cols:
        raise ValueError("violator set must be nonempty")
    adj = graph.adj
    # A float or a bool equal to a column would pass the lookup below.
    if not all(type(j) is int or _is_index(j) for j in cols):
        raise ValueError("violator columns must be ints")
    if not cols <= adj.keys():
        raise ValueError(f"c{min(cols - adj.keys())} is not a left vertex")
    j0 = sorted(cols)
    hood = sorted(graph.neighbourhood(j0))
    if not len(hood) < len(j0):
        raise ValueError("given set does not violate the covering condition")
    # Both lists are sorted, distinct int vertices of the graph, so only the
    # sign of each list's least index is left of the constructors' checks.
    if j0[0] < 0 or (hood and hood[0] < 0):
        raise ValueError("vertex index must be nonnegative")
    return SaturatedString._trusted((*hood, *map(invert, j0)))


def cantor_bernstein_merge(graph: SupportGraph, cols_cover: Matching,
                           rows_cover: Matching) -> Matching:
    """Merge a column-covering and a row-covering matching into a perfect one.

    The union of the two matchings is decomposed into connected components;
    every component must be a shared edge or an alternating cycle (coverage
    on both sides forces this at finite scale), and the column-side matching
    restricted to the component covers it, so those edges are selected.
    """
    if not cols_cover.covers_cols(graph):
        raise ValueError("first matching does not cover the columns")
    if not rows_cover.covers_rows(graph):
        raise ValueError("second matching does not cover the rows")
    s_col = cols_cover.col_to_row
    t_row = rows_cover.row_to_col
    chosen: set[tuple[int, int]] = set()
    seen_cols: set[int] = set()
    for start in graph.left:
        if start in seen_cols:
            continue
        # Walk col -(cols_cover)-> row -(rows_cover)-> col until the start
        # column comes back around.  Coverage makes every step total, and
        # matchings are injective, so the walk can only close at the start.
        col = start
        while True:
            seen_cols.add(col)
            row = s_col[col]
            chosen.add((col, row))
            nxt = t_row.get(row)
            if nxt is None:
                raise AssertionError("row-covering matching lost a row mid-walk")
            col = nxt
            if col == start:
                break
            if col in seen_cols:
                raise AssertionError("matching union walk re-entered a closed component")
    merged = Matching.checked(graph, chosen)
    if not merged.is_perfect(graph):
        raise AssertionError("merged matching is not perfect")
    if not merged.pairs <= (cols_cover.pairs | rows_cover.pairs):
        raise AssertionError("merged matching used a foreign edge")
    return merged
