"""Support graphs, matchings, covering failures, and the two-sided merge."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from thincert import (FieldSpec, Matching, SaturatedString, SparseMatrix, SupportGraph,
                      Vertex, cantor_bernstein_merge, deficiency_string, hall_violator,
                      is_saturated, max_matching, mu_finite, parse_matrix, support_graph)
from thincert import bigraph

GF2 = FieldSpec.gf(2)
QQ = FieldSpec.rationals()
FIELDS = [GF2, FieldSpec.gf(5), QQ]


# --------------------------------------------------------------------------
# vertices and graph structure

def test_vertex_basics():
    c = Vertex.col(3)
    r = Vertex.row(0)
    assert c.is_col and not c.is_row
    assert str(c) == "c3" and str(r) == "r0"
    assert Vertex.col(1) == Vertex.col(1) != Vertex.row(1)
    with pytest.raises(ValueError, match=re.escape("vertex side must be 'r' or 'c', got 'x'")):
        Vertex("x", 0)
    with pytest.raises(ValueError, match="^vertex index must be nonnegative$"):
        Vertex.col(-1)
    # a (side, index) tuple: same repr, order and hash as that tuple
    assert repr(c) == "Vertex(side='c', index=3)" and Vertex("r", 0) == r
    assert Vertex.col(2) == ("c", 2) and tuple(Vertex.row(4)) == ("r", 4)
    rng = random.Random(99)
    vs = [Vertex(rng.choice("rc"), rng.randrange(12)) for _ in range(60)]
    assert [tuple(v) for v in sorted(vs)] == sorted((v.side, v.index) for v in vs)
    assert all(hash(v) == hash((v.side, v.index)) for v in vs)
    assert len(set(vs)) == len({(v.side, v.index) for v in vs})


def test_graph_membership_validation():
    with pytest.raises(ValueError, match=r"^edge endpoint c1 is not a left vertex$"):
        SupportGraph([0], [0], [(1, 0)])
    with pytest.raises(ValueError, match=r"^edge endpoint r5 is not a right vertex$"):
        SupportGraph([0], [0], [(0, 5)])


def test_graph_from_matrix():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    g = support_graph(m)
    assert g.left == (0, 1) and g.right == (0, 1, 2)
    assert g.neighbours(0) == (0, 1)
    assert g.neighbours(1) == (1, 2)
    assert g.co_neighbours(1) == (0, 1)
    assert g.neighbourhood([0, 1]) == frozenset({0, 1, 2})
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert not g.has_edge(2, 0) and not g.has_edge(-1, 0)   # unknown columns
    assert g.has_vertex(Vertex.col(1)) and not g.has_vertex(Vertex.row(3))


def test_support_graph_equals_the_edge_constructor():
    # support_graph indexes the matrix rows directly; SupportGraph(left,
    # right, edges) validates, dedupes and sorts: both must give one graph.
    rng = random.Random(777)
    shapes = [(0, 0), (0, 5), (5, 0)]
    shapes += [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(200 - len(shapes))]
    for k, (nr, nc) in enumerate(shapes):
        spec = FIELDS[k % len(FIELDS)]
        density = rng.choice([0.0, 0.1, 0.3, 0.7])
        entries = {(i, j): gen.rand_nonzero(spec, rng)
                   for i in range(nr) for j in range(nc) if rng.random() < density}
        g = support_graph(SparseMatrix.from_entries(spec, nr, nc, entries))
        edges = [(j, i) for i, j in entries] * 2
        rng.shuffle(edges)
        ref = SupportGraph(range(nc), range(nr), edges)
        assert (g.left, g.right, g.adj, g.radj) == (ref.left, ref.right, ref.adj, ref.radj)
        assert g.adj == {j: tuple(i for i in range(nr) if (i, j) in entries) for j in range(nc)}
        assert g.radj == {i: tuple(j for j in range(nc) if (i, j) in entries) for i in range(nr)}
        for j, i in edges[:5]:
            assert g.has_edge(j, i)


# --------------------------------------------------------------------------
# matchings

def test_matching_checked_validation():
    g = SupportGraph([0, 1], [0, 1], [(0, 0), (0, 1), (1, 1)])
    ok = Matching.checked(g, [(0, 0), (1, 1)])
    assert ok.size == 2 and ok.is_perfect(g)
    with pytest.raises(ValueError, match=re.escape("(c1, r0) is not an edge")):
        Matching.checked(g, [(1, 0)])
    with pytest.raises(ValueError, match=re.escape("(c5, r0) is not an edge")):
        Matching.checked(g, [(5, 0)])  # unknown column
    with pytest.raises(ValueError) as exc:
        Matching.checked(g, [(0, 1), (1, 1)])  # row used twice
    assert str(exc.value) in ("vertex reused at (c0, r1)", "vertex reused at (c1, r1)")
    with pytest.raises(ValueError) as exc:
        Matching.checked(g, [(0, 0), (0, 1)])  # column used twice
    assert str(exc.value) in ("vertex reused at (c0, r0)", "vertex reused at (c0, r1)")


def test_max_matching_worked_example():
    m = SparseMatrix.from_dense(QQ, [[1, 0], [1, 1], [0, 1]])
    match = max_matching(support_graph(m))
    assert match.col_to_row == {0: 0, 1: 1}


def test_max_matching_is_deterministic():
    rng = random.Random(111)
    for _ in range(30):
        g = gen.random_graph(rng)
        assert max_matching(g).pairs == max_matching(g).pairs


def test_max_matching_size_matches_brute_force():
    rng = random.Random(222)
    for _ in range(150):
        g = gen.random_graph(rng)
        assert max_matching(g).size == gen.brute_max_matching_size(g)


def _recursive_max_matching(graph):
    """Reference: the augmenting-path search written recursively."""
    match_row = {}

    def augment(col, banned):
        for row in graph.adj[col]:
            if row in banned:
                continue
            banned.add(row)
            owner = match_row.get(row)
            if owner is None or augment(owner, banned):
                match_row[row] = col
                return True
        return False

    for col in graph.left:
        augment(col, set())
    return frozenset((j, i) for i, j in match_row.items())


def _wide_block_graph(rng, ncols):
    """Random blocks of columns over slightly fewer or more rows, shuffled."""
    edges, col, row = [], 0, 0
    while col < ncols:
        bc = min(ncols - col, rng.randint(3, 12))
        br = max(1, bc + rng.randint(-3, 2))
        for j in range(bc):
            for i in rng.sample(range(br), min(br, rng.randint(1, 3))):
                edges.append((col + j, row + i))
        col, row = col + bc, row + br
    cp, rp = list(range(col)), list(range(row))
    rng.shuffle(cp)
    rng.shuffle(rp)
    return SupportGraph(range(col), range(row), [(cp[j], rp[i]) for j, i in edges])


def test_max_matching_follows_the_recursive_search():
    rng = random.Random(333)
    graphs = [gen.random_graph(rng) for _ in range(200)]
    graphs += [_wide_block_graph(rng, rng.randint(20, 120)) for _ in range(60)]
    for g in graphs:
        assert max_matching(g).pairs == _recursive_max_matching(g)


def test_max_matching_on_a_deep_staircase():
    # Column j meets rows j-1 and j: the search from column j runs down
    # through every earlier column before it takes row j, so the path is far
    # deeper than the recursion limit.
    n = 3000
    g = SupportGraph(range(n), range(n),
                     [(j, i) for j in range(n) for i in {max(j - 1, 0), j}])
    assert max_matching(g).col_to_row == {j: j for j in range(n)}


def test_isolated_columns_share_one_empty_adjacency():
    # A dimension-only file of 100,000 columns with one entry: no list is
    # built for an isolated column, and no search is set up for it.
    n = 100_000
    g = support_graph(parse_matrix(f"field gf 5\n3 {n}\n0 5 1\n"))
    isolated = [g.adj[j] for j in g.left if j != 5]
    assert len(isolated) == n - 1 and isolated[0] == ()
    assert all(rows is isolated[0] for rows in isolated)
    assert g.adj[5] == (0,) and g.radj == {0: (5,), 1: (), 2: ()}
    assert max_matching(g).pairs == frozenset({(5, 0)})
    assert hall_violator(g) == frozenset(range(n)) - {5}


def test_hall_violator_dichotomy():
    rng = random.Random(333)
    saw_violator = saw_covering = False
    for _ in range(200):
        g = gen.random_graph(rng)
        violator = hall_violator(g)
        if violator is None:
            saw_covering = True
            assert max_matching(g).covers_cols(g)
        else:
            saw_violator = True
            assert violator and set(violator) <= set(g.left)
            assert len(g.neighbourhood(violator)) < len(violator)
    assert saw_violator and saw_covering


def test_max_defect_equals_uncovered_columns():
    # max over J0 of |J0| - |N(J0)| equals the number of unmatched columns
    rng = random.Random(444)
    for _ in range(120):
        g = gen.random_graph(rng)
        assert gen.max_defect(g) == len(g.left) - max_matching(g).size


def reference_hall_violator(graph):
    """The alternating-reachability violator, read through the sorted
    ``Matching.col_to_row``/``row_to_col`` views."""
    m = max_matching(graph)
    col_to_row = m.col_to_row
    row_to_col = m.row_to_col
    exposed = [j for j in graph.left if j not in col_to_row]
    if not exposed:
        return None
    reach_cols = set(exposed)
    reach_rows = set()
    frontier = list(exposed)
    while frontier:
        col = frontier.pop()
        for row in graph.adj[col]:
            if row in reach_rows:
                continue
            reach_rows.add(row)
            back = row_to_col.get(row)
            if back is not None and back not in reach_cols:
                reach_cols.add(back)
                frontier.append(back)
    violator = frozenset(reach_cols)
    if not len(graph.neighbourhood(violator)) < len(violator):
        raise AssertionError("alternating reachability produced a non-violating set")
    return violator


def reference_deficiency_string(graph, violator):
    j0 = sorted(set(violator))
    if not j0:
        raise ValueError("violator set must be nonempty")
    for j in j0:
        if j not in graph.adj:
            raise ValueError(f"c{j} is not a left vertex")
    hood = sorted(graph.neighbourhood(j0))
    if not len(hood) < len(j0):
        raise ValueError("given set does not violate the covering condition")
    entries = tuple([Vertex.row(i) for i in hood] + [Vertex.col(j) for j in j0])
    return SaturatedString(entries)


def test_violators_and_strings_equal_the_reference():
    saw = 0
    for g in gen.oracle_graphs():
        violator = hall_violator(g)
        assert violator == reference_hall_violator(g)
        if violator is None:
            continue
        saw += 1
        s = deficiency_string(g, violator)
        want = reference_deficiency_string(g, violator)
        assert s == want and repr(s) == repr(want)
        assert all(type(v) is Vertex for v in s)
    assert saw > 100


@st.composite
def bipartite_graphs(draw):
    """Random edges, a staircase over the first columns, and isolated columns."""
    nr = draw(st.integers(0, 25))
    stair = draw(st.integers(0, nr))
    extra = draw(st.integers(0, 12))
    isolated = draw(st.integers(0, 4))
    edges = [(j, i) for j in range(stair) for i in {max(j - 1, 0), j}]
    if nr and extra:
        pairs = st.tuples(st.integers(stair, stair + extra - 1), st.integers(0, nr - 1))
        edges += draw(st.lists(pairs, max_size=60))
    cols = list(range(stair + extra + isolated))
    draw(st.randoms(use_true_random=False)).shuffle(cols)
    return SupportGraph(range(len(cols)), range(nr), [(cols[j], i) for j, i in edges])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(bipartite_graphs())
def test_seeded_violator_on_staircases_and_isolated_columns(g):
    # Alternating reachability from the exposed columns gives the same set
    # for every maximum matching, so the greedy seed cannot change it.
    violator = hall_violator(g)
    assert violator == reference_hall_violator(g)
    if violator is not None:
        s = deficiency_string(g, violator)
        assert s == SaturatedString(tuple(Vertex(side, i) for side, i in s))
        assert is_saturated(g, s) and mu_finite(g, s) < 0


def augmenting_searches(graph):
    """(match_row, dead rows) of both searches: ``max_matching``'s from every
    column in index order, then ``hall_violator``'s from the columns its
    greedy seed leaves over."""
    out = []
    augment = bigraph._augment

    def spy(adj, roots, match_row):
        dead = augment(adj, roots, match_row)
        out.append((match_row, dead))
        return dead

    bigraph._augment = spy
    try:
        max_matching(graph)
        hall_violator(graph)
    finally:
        bigraph._augment = augment
    assert len(out) == 2
    return out


def assert_dead_rows_are_the_violator_hood(graph):
    # The rows the failed searches reach are N(J0), and J0 is the unmatched
    # columns with those rows' owners, whichever maximum matching is grown.
    j0 = reference_hall_violator(graph)
    for match_row, dead in augmenting_searches(graph):
        exposed = set(graph.left).difference(match_row.values())
        assert dead == (graph.neighbourhood(j0) if j0 else set())
        assert (frozenset(exposed.union(map(match_row.__getitem__, dead))) or None) == j0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(bipartite_graphs())
def test_dead_rows_are_the_violator_hood_on_staircases(g):
    assert_dead_rows_are_the_violator_hood(g)


def test_dead_rows_are_the_violator_hood_on_oracle_graphs():
    for g in gen.oracle_graphs():
        assert_dead_rows_are_the_violator_hood(g)


def test_hall_violator_checks_its_matching_once(monkeypatch):
    # The seeded matching is verified like max_matching's: one check per call.
    calls = []
    checked = Matching.checked.__func__

    def counting(cls, graph, pairs):
        calls.append(graph)
        return checked(cls, graph, pairs)

    monkeypatch.setattr(Matching, "checked", classmethod(counting))
    rng = random.Random(446)
    for _ in range(30):
        g = gen.random_bipartite(rng)
        calls.clear()
        hall_violator(g)
        assert calls == [g]


def test_matching_views_are_sorted():
    rng = random.Random(445)
    for _ in range(50):
        m = max_matching(gen.random_bipartite(rng))
        assert list(m.col_to_row.items()) == sorted(m.pairs)
        assert list(m.row_to_col) == [i for _, i in sorted(m.pairs)]


# --------------------------------------------------------------------------
# deficiency strings

def test_deficiency_string_worked_example():
    # both columns hit only row 0
    m = SparseMatrix.from_dense(GF2, [[1, 1], [0, 0]])
    g = support_graph(m)
    violator = hall_violator(g)
    assert violator == frozenset({0, 1})
    s = deficiency_string(g, violator)
    assert str(s) == "r0 c0 c1"
    assert mu_finite(g, s) == -1


def test_deficiency_string_orders_rows_then_cols_sorted():
    g = SupportGraph(range(3), range(4), [(0, 2), (1, 2), (2, 0), (1, 0)])
    violator = hall_violator(g)
    assert violator is not None
    s = deficiency_string(g, violator)
    rows = [v.index for v in s if v.is_row]
    cols = [v.index for v in s if v.is_col]
    assert rows == sorted(rows) and cols == sorted(cols)
    assert str(s).index("r") < str(s).index("c")
    assert mu_finite(g, s) == len(rows) - len(cols) < 0


def test_deficiency_string_rejects_negative_indices():
    # SupportGraph takes any integer labels; a string vertex must not be negative.
    g = SupportGraph([-2, -1], [-3], [(-2, -3), (-1, -3)])
    assert hall_violator(g) == frozenset({-2, -1})
    with pytest.raises(ValueError, match="vertex index must be nonnegative"):
        deficiency_string(g, [-2, -1])
    g = SupportGraph([0, 1], [-3], [(0, -3), (1, -3)])
    with pytest.raises(ValueError, match="vertex index must be nonnegative"):
        deficiency_string(g, [0, 1])


def test_deficiency_string_rejects_unknown_columns():
    g = SupportGraph([0, 1], [0], [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="c5 is not a left vertex"):
        deficiency_string(g, [0, 1, 5])


def test_deficiency_string_rejects_non_violators():
    g = SupportGraph([0], [0], [(0, 0)])
    with pytest.raises(ValueError):
        deficiency_string(g, [0])  # {0} is matchable, not a violator
    with pytest.raises(ValueError):
        deficiency_string(g, [])


def test_deficiency_string_negative_on_random_violators():
    rng = random.Random(555)
    hits = 0
    while hits < 40:
        g = gen.random_graph(rng)
        violator = hall_violator(g)
        if violator is None:
            continue
        hits += 1
        s = deficiency_string(g, violator)
        assert mu_finite(g, s) < 0


# --------------------------------------------------------------------------
# Cantor-Bernstein merge of two coverings

def test_merge_worked_example():
    # 2-cycle: two columns, two rows, all four edges present
    g = SupportGraph([0, 1], [0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
    cols_cover = Matching.checked(g, [(0, 0), (1, 1)])
    rows_cover = Matching.checked(g, [(0, 1), (1, 0)])
    merged = cantor_bernstein_merge(g, cols_cover, rows_cover)
    assert merged.pairs == cols_cover.pairs


def test_merge_keeps_shared_edges():
    g = SupportGraph([0, 1], [0, 1], [(0, 0), (1, 0), (1, 1)])
    shared = Matching.checked(g, [(0, 0), (1, 1)])
    merged = cantor_bernstein_merge(g, shared, shared)
    assert merged.pairs == shared.pairs


def test_merge_requires_coverings():
    g = SupportGraph([0, 1], [0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
    partial = Matching.checked(g, [(0, 0)])
    full = Matching.checked(g, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        cantor_bernstein_merge(g, partial, full)
    with pytest.raises(ValueError):
        cantor_bernstein_merge(g, full, partial)


def test_merge_on_random_two_covering_instances():
    rng = random.Random(666)
    for _ in range(60):
        g, cols_cover, rows_cover = gen.two_coverings_instance(rng)
        merged = cantor_bernstein_merge(g, cols_cover, rows_cover)
        assert merged.covers_cols(g) and merged.covers_rows(g)
        # every merged edge comes from one of the two inputs
        assert merged.pairs <= cols_cover.pairs | rows_cover.pairs
        # a fresh check against the graph
        Matching.checked(g, merged.pairs)
