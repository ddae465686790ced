"""Least-vertex component labels against a breadth-first oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from bcclab.unionfind import component_roots
from oracles import component_minima


def descending_chain(size):
    """(k - 1, k) for k from the top down: each link hangs the chain's
    root under the next smaller vertex, so size - 1 ends at depth size - 1."""
    return [(k - 1, k) for k in range(size - 1, 0, -1)]


def star_at_largest(size):
    return [(size - 1, k) for k in range(size - 1)]


@st.composite
def graphs(draw, max_size=64):
    size = draw(st.integers(0, max_size))
    if size == 0:
        return size, []
    vertex = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * size))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=4))]  # self-loops
    if pairs:  # repeated and reversed pairs
        again = draw(st.lists(st.sampled_from(pairs), max_size=8))
        pairs += again + [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=8))]
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):  # a long path first, then walks from its deep end
        k = draw(st.integers(1, size))
        pairs = descending_chain(k) + star_at_largest(k) + pairs
    return size, pairs


class TestComponentRoots:
    @settings(max_examples=300)
    @given(graphs())
    def test_matches_the_bfs_oracle(self, graph):
        size, pairs = graph
        assert component_roots(size, pairs) == component_minima(size, pairs)

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 2000])
    def test_descending_chain_then_star(self, size):
        pairs = descending_chain(size) + star_at_largest(size)
        assert component_roots(size, pairs) == [0] * size

    @pytest.mark.parametrize("size", [2, 3, 64, 2000])
    def test_descending_chain(self, size):
        # no find walks during the links: the settle pass alone labels the path
        assert component_roots(size, descending_chain(size)) == [0] * size

    def test_empty_and_edgeless(self):
        assert component_roots(0, []) == []
        assert component_roots(5, iter(())) == [0, 1, 2, 3, 4]

    def test_labels_are_least_vertices(self):
        assert component_roots(6, [(4, 1), (5, 3), (3, 5), (2, 2)]) == [0, 1, 2, 3, 1, 3]
