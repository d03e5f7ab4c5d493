import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gnesolve as gs
from gnesolve.errors import StructuralError, ValidationError
from gnesolve.graphs import build_incidence
from conftest import edge_flow_for


def test_three_node_path_incidence():
    graph = build_incidence(3, [(0, 1), (1, 2)])
    expected = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    assert np.array_equal(graph.incidence, expected)
    # edge 0 leaves node 0 and enters node 1, in the order it was given
    assert graph.edges == ((0, 1), (1, 2))
    assert graph.incidence[0, 0] == -1.0 and graph.incidence[1, 0] == 1.0


def test_column_sums_vanish():
    graph = build_incidence(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert np.array_equal(graph.incidence.sum(axis=0), np.zeros(5))


def test_disconnected_rejected():
    with pytest.raises(ValidationError, match="disconnected"):
        build_incidence(4, [(0, 1), (2, 3)])


def test_self_loop_and_duplicate_rejected():
    with pytest.raises(ValidationError):
        build_incidence(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        build_incidence(3, [(0, 1), (1, 0), (1, 2)])


@pytest.mark.parametrize("n_nodes, edges, error, message", [
    (1, [], ValidationError, "a communication graph needs at least 2 nodes"),
    (3, [(0, 1), (1, 3)], StructuralError,
     "edge (1, 3) references a missing node"),
], ids=["one-node", "missing-node"])
def test_malformed_graph_is_refused(n_nodes, edges, error, message):
    with pytest.raises(error) as err:
        build_incidence(n_nodes, edges)
    assert str(err.value) == message


def test_edge_differences_examples():
    graph = build_incidence(3, [(0, 1), (1, 2)])
    consensus = np.ones((3, 1))
    assert np.array_equal(graph.edge_differences(consensus), np.zeros((2, 1)))
    values = np.array([[0.0], [1.0], [3.0]])
    assert np.array_equal(graph.edge_differences(values),
                          np.array([[1.0], [2.0]]))
    vec = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]])
    assert np.array_equal(graph.edge_differences(vec),
                          np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_node_aggregate_examples():
    graph = build_incidence(3, [(0, 1), (1, 2)])
    z = np.ones((2, 1))
    assert np.array_equal(graph.node_aggregate(z),
                          np.array([[-1.0], [0.0], [1.0]]))
    assert np.array_equal(graph.node_aggregate(np.zeros((2, 1))),
                          np.zeros((3, 1)))


def test_aggregate_sums_to_zero():
    graph = build_incidence(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=(4, 3))
        assert np.allclose(graph.node_aggregate(z).sum(axis=0), 0.0,
                           atol=1e-12)


def test_dimension_mismatch():
    graph = build_incidence(3, [(0, 1), (1, 2)])
    with pytest.raises(StructuralError):
        graph.node_aggregate(np.zeros((3, 1)))
    with pytest.raises(StructuralError):
        graph.edge_differences(np.zeros((2, 1)))


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    # random spanning tree plus a few extra edges
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.append((parent, node))
    seen = {frozenset(e) for e in edges}
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=4))
    for i, j in extras:
        if i != j and frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            edges.append((i, j))
    return n, edges


@given(connected_graphs(), st.integers(0, 2 ** 30))
@settings(max_examples=100, deadline=None)
def test_adjointness_of_incidence_maps(graph_spec, seed):
    n, edges = graph_spec
    graph = build_incidence(n, edges)
    rng = np.random.default_rng(seed)
    m = 2
    z = rng.normal(size=(graph.n_edges, m))
    lam = rng.normal(size=(n, m))
    lhs = float(np.sum(graph.node_aggregate(z) * lam))
    rhs = float(np.sum(z * graph.edge_differences(lam)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_edge_differences_zero_iff_consensus():
    graph = build_incidence(4, [(0, 1), (1, 2), (2, 3)])
    consensus = np.tile(np.array([2.0, -1.0]), (4, 1))
    assert np.allclose(graph.edge_differences(consensus), 0.0)
    not_consensus = consensus.copy()
    not_consensus[2, 0] += 1e-3
    assert np.linalg.norm(graph.edge_differences(not_consensus)) > 1e-4


def test_edge_flow_tracks_targets():
    graph = build_incidence(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rng = np.random.default_rng(1)
    target = rng.normal(size=(4, 2))
    target -= target.mean(axis=0)   # must sum to zero to be reachable
    Z = edge_flow_for(graph, target)
    assert np.allclose(graph.node_aggregate(Z), target, atol=1e-10)


def test_path_graph_shape():
    graph = gs.path_graph(15)
    assert graph.n_nodes == 15 and graph.n_edges == 14
