"""Tests for possible-world sampling."""

import inspect

import numpy as np
import pytest

from repro.errors import EstimatorError
from repro.graph.statuses import ABSENT, PRESENT, EdgeStatuses
from repro.graph.world import (
    PossibleWorld,
    iter_edge_masks,
    iter_mask_blocks,
    sample_edge_masks,
    sample_first_present,
    sample_world,
)


def test_sample_respects_pins(fig1_graph, rng):
    st = EdgeStatuses(fig1_graph).pin([0, 4], [PRESENT, ABSENT])
    masks = sample_edge_masks(st, 200, rng)
    assert masks.shape == (200, 8)
    assert masks[:, 0].all()
    assert not masks[:, 4].any()


def test_sample_marginals_match_probabilities(fig1_graph):
    masks = sample_edge_masks(EdgeStatuses(fig1_graph), 20_000, rng=7)
    freq = masks.mean(axis=0)
    assert np.allclose(freq, fig1_graph.prob, atol=0.02)


def test_extreme_probabilities_deterministic():
    from repro.graph.uncertain import UncertainGraph

    g = UncertainGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 1.0)])
    masks = sample_edge_masks(EdgeStatuses(g), 50, rng=3)
    assert not masks[:, 0].any()
    assert masks[:, 1].all()


def test_iter_matches_batch_distribution(fig1_graph):
    st = EdgeStatuses(fig1_graph).pin([2], [PRESENT])
    out = list(iter_edge_masks(st, 37, rng=11, chunk_budget=40))
    assert len(out) == 37
    assert all(mask[2] for mask in out)
    assert all(mask.shape == (8,) for mask in out)


def test_iter_zero_worlds(fig1_graph):
    assert list(iter_edge_masks(EdgeStatuses(fig1_graph), 0, rng=0)) == []


def test_iter_masks_are_independent_copies(fig1_graph):
    masks = list(iter_edge_masks(EdgeStatuses(fig1_graph), 3, rng=0))
    masks[0][:] = True
    assert not masks[1].all() or not masks[2].all() or True  # no aliasing crash
    assert masks[0] is not masks[1]


def test_sample_world_wrapper(fig1_graph):
    world = sample_world(fig1_graph, rng=5)
    assert isinstance(world, PossibleWorld)
    assert world.edge_mask.shape == (8,)
    assert 0.0 < world.probability() < 1.0
    nxg = world.to_networkx()
    assert nxg.number_of_edges() == world.n_present_edges


def test_sample_world_rejects_foreign_statuses(fig1_graph, small_star):
    with pytest.raises(EstimatorError):
        sample_world(fig1_graph, statuses=EdgeStatuses(small_star))


def test_negative_world_count_rejected(fig1_graph):
    statuses = EdgeStatuses(fig1_graph)
    with pytest.raises(EstimatorError):
        sample_edge_masks(statuses, -1)
    # The block feed stays a generator (callers wrap it as one), so the
    # rejection comes with the first block rather than at the call.
    assert inspect.isgeneratorfunction(iter_mask_blocks)
    for n_worlds in (-1, -5):
        with pytest.raises(EstimatorError):
            list(iter_mask_blocks(statuses, n_worlds, rng=0))
        with pytest.raises(EstimatorError):
            list(iter_edge_masks(statuses.child([0], [PRESENT]), n_worlds, rng=0))


def _reference_blocks(statuses, n_worlds, gen, chunk_budget):
    """The plain definition of the pinned block stream.

    Each block broadcasts the PRESENT pins and scatters
    ``gen.random((take, n_free)) < prob[free]`` into the free columns.
    """
    graph = statuses.graph
    free = statuses.free_edges()
    base = statuses.present_mask()
    chunk = max(1, min(n_worlds, chunk_budget // max(free.size, 1)))
    out, produced = [], 0
    while produced < n_worlds:
        take = min(chunk, n_worlds - produced)
        block = np.broadcast_to(base, (take, graph.n_edges)).copy()
        if free.size:
            block[:, free] = gen.random((take, free.size)) < graph.prob[free]
        out.append(block)
        produced += take
    return out


def _pinned(graph, n_pinned, seed, spread=True):
    """Statuses with ``n_pinned`` random (or, unspread, leading) pins."""
    gen = np.random.default_rng(seed)
    if spread:
        edges = np.sort(gen.choice(graph.n_edges, size=n_pinned, replace=False))
    else:
        edges = np.arange(n_pinned)
    return EdgeStatuses(graph).pin(edges, gen.integers(0, 2, size=n_pinned))


def _stream_graphs():
    from repro.graph.generators import erdos_renyi, paper_running_example

    return [
        paper_running_example(),
        erdos_renyi(60, 400, rng=3, directed=False),
        erdos_renyi(60, 400, rng=4, directed=True),
    ]


@pytest.mark.parametrize("graph", _stream_graphs(), ids=["fig1", "undirected", "directed"])
def test_pinned_blocks_match_reference_stream(graph):
    m = graph.n_edges
    budget = 64 * m
    pin_counts = sorted({0, 1, 3, min(20, m - 1), m - 1, m})
    rows = [1, 2, 3, 4, 5, 8, 16, 30, 63, 64, 65, "chunk"]
    for n_pinned in pin_counts:
        for spread in (True, False):
            statuses = _pinned(graph, n_pinned, seed=n_pinned, spread=spread)
            for n_worlds in rows:
                if n_worlds == "chunk":
                    n_worlds = max(1, budget // max(statuses.n_free, 1))
                got_gen = np.random.default_rng(7)
                ref_gen = np.random.default_rng(7)
                got = list(iter_mask_blocks(statuses, n_worlds, got_gen, budget))
                ref = _reference_blocks(statuses, n_worlds, ref_gen, budget)
                assert len(got) == len(ref)
                for g, r in zip(got, ref):
                    assert g.dtype == np.bool_ and g.flags.c_contiguous
                    np.testing.assert_array_equal(g, r)
                assert got_gen.random() == ref_gen.random()


@pytest.mark.parametrize("graph", _stream_graphs(), ids=["fig1", "undirected", "directed"])
def test_pinned_blocks_span_several_chunks(graph):
    # A small budget splits one leaf over blocks of different heights.
    for n_pinned in (1, 5, graph.n_edges - 1):
        statuses = _pinned(graph, n_pinned, seed=11)
        budget = 3 * statuses.n_free + 1
        got_gen, ref_gen = np.random.default_rng(3), np.random.default_rng(3)
        got = list(iter_mask_blocks(statuses, 47, got_gen, chunk_budget=budget))
        ref = _reference_blocks(statuses, 47, ref_gen, budget)
        assert [b.shape[0] for b in got] == [b.shape[0] for b in ref]
        assert len(got) > 1
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)
        assert got_gen.random() == ref_gen.random()


@pytest.mark.parametrize("graph", _stream_graphs()[1:], ids=["undirected", "directed"])
def test_pinned_blocks_full_default_chunk(graph):
    # One block of the default budget's full height, then a short remainder.
    from repro.graph import world

    for n_pinned in (3, 60):
        statuses = _pinned(graph, n_pinned, seed=5)
        chunk = world._DEFAULT_CHUNK_BUDGET // statuses.n_free
        got_gen, ref_gen = np.random.default_rng(4), np.random.default_rng(4)
        got = list(iter_mask_blocks(statuses, chunk + 5, got_gen))
        ref = _reference_blocks(statuses, chunk + 5, ref_gen, world._DEFAULT_CHUNK_BUDGET)
        assert [b.shape[0] for b in got] == [chunk, 5]
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)
        assert got_gen.random() == ref_gen.random()


@pytest.mark.parametrize("n_pinned", [0, 1, 4, 7, 8])
def test_sample_edge_masks_is_one_reference_block(fig1_graph, n_pinned):
    statuses = _pinned(fig1_graph, n_pinned, seed=2)
    for n_worlds in (0, 1, 5):
        got_gen, ref_gen = np.random.default_rng(9), np.random.default_rng(9)
        got = sample_edge_masks(statuses, n_worlds, got_gen)
        ref = _reference_blocks(statuses, n_worlds, ref_gen, 1 << 30)
        expected = ref[0] if ref else np.zeros((0, fig1_graph.n_edges), dtype=bool)
        np.testing.assert_array_equal(got, expected)
        assert got.shape == (n_worlds, fig1_graph.n_edges)
        assert got_gen.random() == ref_gen.random()


def test_sample_first_present_distribution():
    probs = np.array([0.3, 0.5, 0.9])
    draws = sample_first_present(probs, 40_000, rng=13)
    # Eq. (21): P[0]=0.3, P[1]=0.7*0.5, P[2]=0.7*0.5*0.9, normalised.
    weights = np.array([0.3, 0.7 * 0.5, 0.7 * 0.5 * 0.9])
    expected = weights / weights.sum()
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.allclose(freq, expected, atol=0.01)


def test_sample_first_present_guards():
    with pytest.raises(EstimatorError):
        sample_first_present(np.array([]), 5)
    with pytest.raises(EstimatorError):
        sample_first_present(np.array([0.0, 0.0]), 5)


def test_sample_first_present_certain_edge():
    draws = sample_first_present(np.array([1.0, 0.5]), 100, rng=1)
    assert (draws == 0).all()
