"""Tests for partial edge-status assignments."""

import numpy as np
import pytest

from repro.errors import StatusError
from repro.graph.statuses import ABSENT, FREE, PRESENT, EdgeStatuses


def test_default_all_free(fig1_graph):
    st = EdgeStatuses(fig1_graph)
    assert st.n_free == 8
    assert st.free_edges().tolist() == list(range(8))
    assert st.determined_edges().size == 0
    assert st.pinned_probability() == 1.0


def test_pin_and_queries(fig1_graph):
    st = EdgeStatuses(fig1_graph).pin([0, 3], [PRESENT, ABSENT])
    assert st.n_free == 6
    assert not st.is_free(0)
    assert not st.is_free(3)
    assert st.is_free(1)
    assert st.present_mask().tolist() == [True] + [False] * 7
    assert 0 not in st.free_edges()


def test_pinned_probability_matches_eq7(fig1_graph):
    # pin edge 0 (p=0.7) PRESENT and edge 2 (p=0.3) ABSENT
    st = EdgeStatuses(fig1_graph).pin([0, 2], [PRESENT, ABSENT])
    assert st.pinned_probability() == pytest.approx(0.7 * (1 - 0.3))


def test_repin_rejected(fig1_graph):
    st = EdgeStatuses(fig1_graph).pin([0], [PRESENT])
    with pytest.raises(StatusError):
        st.pin([0], [ABSENT])


def test_pin_validates_values(fig1_graph):
    with pytest.raises(StatusError):
        EdgeStatuses(fig1_graph).pin([0], [5])
    with pytest.raises(StatusError):
        EdgeStatuses(fig1_graph).pin([0, 1], [PRESENT])  # length mismatch


def test_child_does_not_mutate_parent(fig1_graph):
    parent = EdgeStatuses(fig1_graph).pin([0], [PRESENT])
    child = parent.child([1], [ABSENT])
    assert parent.is_free(1)
    assert not child.is_free(1)
    assert not child.is_free(0)  # inherits parent's pin


def test_release(fig1_graph):
    st = EdgeStatuses(fig1_graph).pin([0, 1], [PRESENT, ABSENT])
    st.release([1])
    assert st.is_free(1)
    assert not st.is_free(0)


def test_copy_independent(fig1_graph):
    st = EdgeStatuses(fig1_graph)
    cp = st.copy()
    cp.pin([0], [PRESENT])
    assert st.is_free(0)


def test_invalid_vector_shapes(fig1_graph):
    with pytest.raises(StatusError):
        EdgeStatuses(fig1_graph, np.zeros(3, dtype=np.int8))
    with pytest.raises(StatusError):
        EdgeStatuses(fig1_graph, np.full(8, 7, dtype=np.int8))


def test_every_out_of_range_int8_status_rejected(fig1_graph):
    # The validation is a min/max range check; sweep the whole int8 range so
    # it keeps exactly the verdict of a membership test.
    for value in range(-128, 128):
        vector = np.full(8, FREE, dtype=np.int8)
        vector[5] = value
        if value in (FREE, ABSENT, PRESENT):
            assert EdgeStatuses(fig1_graph, vector).values[5] == value
        else:
            with pytest.raises(StatusError):
                EdgeStatuses(fig1_graph, vector)
        pinned = np.array([ABSENT, value], dtype=np.int8)
        if value in (ABSENT, PRESENT):
            assert EdgeStatuses(fig1_graph).pin([0, 1], pinned).values[1] == value
        else:
            with pytest.raises(StatusError):
                EdgeStatuses(fig1_graph).pin([0, 1], pinned)


def test_equality(fig1_graph):
    a = EdgeStatuses(fig1_graph).pin([2], [PRESENT])
    b = EdgeStatuses(fig1_graph).pin([2], [PRESENT])
    c = EdgeStatuses(fig1_graph)
    assert a == b
    assert a != c


def test_repr_counts_pins(fig1_graph):
    st = EdgeStatuses(fig1_graph).pin([0, 1, 2], [1, 0, 1])
    assert "3/8" in repr(st)
