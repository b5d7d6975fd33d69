"""Differential oracle: matching size and Hall violators against networkx.

networkx's Hopcroft-Karp matching shares no code with thincert's
augmenting-path search, and the violator's neighbourhood is read back from
the networkx graph, not from ``SupportGraph``.
"""

import pytest

import gen
from thincert import hall_violator, max_matching

nx = pytest.importorskip("networkx")
from networkx.algorithms import bipartite  # noqa: E402


def to_networkx(g):
    """The graph with ("c", j) and ("r", i) nodes, and its column nodes."""
    cols = [("c", j) for j in g.left]
    nxg = nx.Graph()
    nxg.add_nodes_from(cols)
    nxg.add_nodes_from(("r", i) for i in g.right)
    nxg.add_edges_from((("c", j), ("r", i)) for j in g.left for i in g.adj[j])
    return nxg, cols


def test_matching_size_and_violators_agree_with_networkx():
    saw_violator = saw_covering = False
    for g in gen.oracle_graphs():
        nxg, cols = to_networkx(g)
        mate = bipartite.maximum_matching(nxg, top_nodes=cols)
        size = sum(1 for c in cols if c in mate)
        assert max_matching(g).size == size
        violator = hall_violator(g)
        assert (violator is None) == (size == len(cols))
        if violator is None:
            saw_covering = True
            continue
        saw_violator = True
        assert violator <= set(g.left)
        hood = set().union(*(nxg[("c", j)] for j in violator))
        assert len(hood) < len(violator)
        # the alternating-reachability set attains the deficiency (Konig)
        assert len(violator) - len(hood) == len(cols) - size
    assert saw_violator and saw_covering
