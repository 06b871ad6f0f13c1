"""Unit tests for repro.core.scheme (BroadcastScheme)."""

import numpy as np
import pytest

from repro import BroadcastScheme, Instance, InvalidSchemeError


@pytest.fixture
def inst():
    return Instance(6.0, (5.0, 5.0), (4.0, 1.0, 1.0))


class TestMutation:
    def test_set_and_read_rate(self):
        s = BroadcastScheme(3)
        s.set_rate(0, 1, 2.5)
        assert s.rate(0, 1) == 2.5
        assert s.rate(1, 0) == 0.0

    def test_tiny_rate_drops_edge(self):
        s = BroadcastScheme(3)
        s.set_rate(0, 1, 1e-12)
        assert s.num_edges == 0
        assert s.outdegree(0) == 0

    def test_add_rate_accumulates(self):
        s = BroadcastScheme(3)
        s.add_rate(0, 1, 1.0)
        s.add_rate(0, 1, 2.0)
        assert s.rate(0, 1) == 3.0

    def test_add_rate_negative_removes(self):
        s = BroadcastScheme(3)
        s.set_rate(0, 1, 2.0)
        s.add_rate(0, 1, -2.0)
        assert s.rate(0, 1) == 0.0
        assert s.outdegree(0) == 0

    def test_add_rate_cannot_go_negative(self):
        s = BroadcastScheme(3)
        s.set_rate(0, 1, 1.0)
        with pytest.raises(InvalidSchemeError):
            s.add_rate(0, 1, -2.0)

    def test_self_loop_rejected(self):
        s = BroadcastScheme(3)
        with pytest.raises(InvalidSchemeError):
            s.set_rate(1, 1, 1.0)

    def test_out_of_range_rejected(self):
        s = BroadcastScheme(3)
        with pytest.raises(InvalidSchemeError):
            s.set_rate(0, 3, 1.0)

    def test_negative_rate_rejected(self):
        s = BroadcastScheme(3)
        with pytest.raises(InvalidSchemeError):
            s.set_rate(0, 1, -1.0)

    def test_remove_edge(self):
        s = BroadcastScheme(3)
        s.set_rate(0, 1, 1.0)
        s.remove_edge(0, 1)
        assert s.num_edges == 0


class TestQueries:
    def test_rates_and_degrees(self):
        s = BroadcastScheme.from_edges(
            4, [(0, 1, 2.0), (0, 2, 1.0), (1, 3, 3.0), (2, 3, 1.0)]
        )
        assert s.out_rate(0) == pytest.approx(3.0)
        assert s.in_rate(3) == pytest.approx(4.0)
        assert s.outdegree(0) == 2
        assert s.indegree(3) == 2
        assert s.outdegrees() == [2, 1, 1, 0]
        assert s.in_rates() == pytest.approx([0.0, 2.0, 1.0, 4.0])

    def test_matrix_roundtrip(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 2.0), (1, 2, 1.5)])
        mat = s.as_matrix()
        assert mat[0, 1] == 2.0
        back = BroadcastScheme.from_matrix(mat)
        assert sorted(back.edges()) == sorted(s.edges())

    def test_from_matrix_requires_square(self):
        with pytest.raises(InvalidSchemeError):
            BroadcastScheme.from_matrix(np.zeros((2, 3)))

    def test_copy_is_independent(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0)])
        dup = s.copy()
        dup.set_rate(0, 2, 1.0)
        assert s.num_edges == 1
        assert dup.num_edges == 2

    def test_edge_arrays_follow_edges_order(self):
        s = BroadcastScheme.from_edges(
            4, [(2, 3, 1.0), (0, 2, 1.0), (0, 1, 2.0), (1, 3, 3.0)]
        )
        src, dst, rate = s.edge_arrays()
        assert (src.dtype, dst.dtype, rate.dtype) == (
            np.int64, np.int64, np.float64
        )
        assert list(zip(src.tolist(), dst.tolist(), rate.tolist())) == list(
            s.edges()
        )
        empty = BroadcastScheme(3).edge_arrays()
        assert [a.shape for a in empty] == [(0,), (0,), (0,)]

    def test_successors_view_is_a_copy(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0)])
        view = s.successors(0)
        view[2] = 99.0
        assert s.rate(0, 2) == 0.0


class TestStructure:
    def test_acyclic_chain(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert s.is_acyclic()
        order = s.topological_order()
        assert order.index(0) < order.index(1) < order.index(2)

    def test_cycle_detected(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 0.5)])
        assert not s.is_acyclic()
        assert s.topological_order() is None

    def test_isolated_nodes_in_topo_order(self):
        s = BroadcastScheme.from_edges(4, [(0, 1, 1.0)])
        assert sorted(s.topological_order()) == [0, 1, 2, 3]

    def test_empty_scheme_is_acyclic(self):
        assert BroadcastScheme(5).is_acyclic()


class TestValidation:
    def test_valid_scheme_passes(self, inst):
        s = BroadcastScheme.from_edges(6, [(0, 3, 4.0), (3, 1, 4.0)])
        s.validate(inst)  # no exception

    def test_bandwidth_violation(self, inst):
        s = BroadcastScheme.from_edges(6, [(0, 1, 7.0)])
        with pytest.raises(InvalidSchemeError, match="bandwidth"):
            s.validate(inst)

    def test_firewall_violation(self, inst):
        s = BroadcastScheme.from_edges(6, [(3, 4, 0.5)])
        with pytest.raises(InvalidSchemeError, match="firewall"):
            s.validate(inst)

    def test_guarded_to_open_is_fine(self, inst):
        s = BroadcastScheme.from_edges(6, [(3, 1, 2.0)])
        s.validate(inst)

    def test_node_count_mismatch(self, inst):
        s = BroadcastScheme(4)
        with pytest.raises(InvalidSchemeError, match="nodes"):
            s.validate(inst)

    def test_require_acyclic(self, inst):
        s = BroadcastScheme.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        s.validate(inst)  # fine without the flag
        with pytest.raises(InvalidSchemeError, match="acyclic"):
            s.validate(inst, require_acyclic=True)


class TestDegreeBounds:
    def test_within_bound_reports_nothing(self, inst):
        # source degree 2, bound ceil(6/4)+1 = 3
        s = BroadcastScheme.from_edges(6, [(0, 1, 2.0), (0, 2, 2.0)])
        assert s.check_degree_bounds(inst, 4.0, 1) == []

    def test_violation_reported(self, inst):
        s = BroadcastScheme.from_edges(
            6, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0)]
        )
        # bound for the source at T=4 with d=1: ceil(6/4)+1 = 3 < 5
        report = s.check_degree_bounds(inst, 4.0, 1, nodes=[0])
        assert report == [(0, 5, 3)]

    def test_floor_applies(self, inst):
        s = BroadcastScheme.from_edges(6, [(5, 1, 0.5), (5, 2, 0.5)])
        # node 5: b=1, T=4 -> ceil = 1, +0 = 1, but floor 4 allows degree 2
        assert s.check_degree_bounds(inst, 4.0, 0, nodes=[5], floor=4) == []


class TestRelabel:
    def test_relabel_moves_edges(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 1.0)])
        out = s.relabel([2, 0, 1])
        assert out.rate(2, 0) == 1.0

    def test_relabel_requires_bijection(self):
        s = BroadcastScheme(3)
        with pytest.raises(InvalidSchemeError):
            s.relabel([0, 0, 1])
