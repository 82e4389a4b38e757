"""PartitionState transitions and invariants."""

import numpy as np
import pytest

from repro.graph import BucketListGraph, CSRGraph
from repro.partition import UNASSIGNED, PartitionState
from repro.utils import PartitionError


def _state(partition, vwgt, k=2):
    """A state over an edgeless graph whose vertex weights are ``vwgt``."""
    csr = CSRGraph.from_edges(
        len(vwgt), np.empty((0, 2)), vertex_weights=np.asarray(vwgt)
    )
    graph = BucketListGraph.from_csr(csr, capacity_factor=1.0)
    return PartitionState(graph, np.asarray(partition), k=k, epsilon=0.03)


@pytest.fixture
def state():
    return _state([0, 0, 1, 1, UNASSIGNED], [1, 2, 3, 4, 5])


class TestConstruction:
    def test_weights_computed(self, state):
        assert state.part_weights.tolist() == [3, 7]

    def test_pseudo_label_is_k(self, state):
        assert state.pseudo_label == 2

    def test_unassigned_excluded(self, state):
        assert state.total_weight() == 10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            _state(np.zeros(3), np.ones(4))

    def test_pseudo_weight_initialized(self):
        state = _state([0, 2, 2], [1, 5, 7])
        assert state.pseudo_weight == 12


class TestMoves:
    def test_move_between_partitions(self, state):
        state.move(0, 1)
        assert state.part_weights.tolist() == [2, 8]
        assert state.partition[0] == 1

    def test_move_to_pseudo(self, state):
        state.move(3, state.pseudo_label)
        assert state.pseudo_weight == 4
        assert state.part_weights.tolist() == [3, 3]
        assert state.total_weight() == 10

    def test_move_from_pseudo(self, state):
        state.move(3, state.pseudo_label)
        state.move(3, 0)
        assert state.pseudo_weight == 0
        assert state.part_weights.tolist() == [7, 3]

    def test_move_to_unassigned(self, state):
        state.move(2, UNASSIGNED)
        assert state.part_weights.tolist() == [3, 4]
        assert state.total_weight() == 7

    def test_move_same_is_noop(self, state):
        state.move(0, 0)
        assert state.part_weights.tolist() == [3, 7]

    def test_move_invalid_target(self, state):
        with pytest.raises(PartitionError):
            state.move(0, 5)

    def test_move_many(self, state):
        state.move_many(np.array([0, 1]), 1)
        assert state.part_weights.tolist() == [0, 10]

    def test_move_unassigned_to_pseudo(self, state):
        state.move(4, state.pseudo_label)
        assert state.pseudo_weight == 5
        assert state.total_weight() == 15


class TestWeightsAndBalance:
    def test_set_vertex_weight(self, state):
        state.set_vertex_weight(0, 10)
        assert state.part_weights[0] == 12

    def test_set_weight_of_pseudo_vertex(self, state):
        state.move(0, state.pseudo_label)
        state.set_vertex_weight(0, 4)
        assert state.pseudo_weight == 4

    def test_w_pmax_tracks_total(self, state):
        before = state.w_pmax()
        state.move(3, UNASSIGNED)
        assert state.w_pmax() < before

    def test_balanced(self):
        state = _state([0, 1], [1, 1])
        assert state.balanced()

    def test_unbalanced(self):
        state = _state([0, 0, 0, 0, 0, 1], np.ones(6, dtype=int))
        # W_pmax = ceil(1.03 * 6 / 2) = 4 < 5.
        assert not state.balanced()


class TestValidate:
    def test_valid_passes(self, state):
        state.validate()

    def test_detects_stale_weights(self, state):
        state.part_weights[0] += 1
        with pytest.raises(PartitionError):
            state.validate()

    def test_detects_stale_pseudo(self, state):
        state.partition[0] = state.pseudo_label
        with pytest.raises(PartitionError):
            state.validate()

    def test_detects_out_of_range_label(self, state):
        state.partition[0] = 9
        with pytest.raises(PartitionError):
            state.validate()

    def test_active_mask_enforced(self, state):
        active = np.array([True, True, True, True, True])
        with pytest.raises(PartitionError):
            state.validate(active_mask=active)  # vertex 4 is UNASSIGNED

    def test_copy_independent(self, state):
        clone = state.copy()
        clone.move(0, 1)
        assert state.partition[0] == 0
        state.validate()
        clone.validate()
