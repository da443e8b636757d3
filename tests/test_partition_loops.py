"""Partitioner kernels against their scalar loop oracles.

The greedy matching tail of heavy-edge matching, greedy graph growing
and ``rebalance`` run on Python lists and whole-array NumPy.  They must
reproduce the scalar loops in :mod:`tests.oracles.partition_loops` bit
for bit: equal match arrays and labels, and the random generator left
in the same state.  The generated graphs reach the cases a rewrite
could get wrong by accident: exact constraint-spread ties, non-unit
edge weights inside the 1e-12 tie window, int32/float32 storage, self
loops, disconnected graphs, zero-total constraint columns and the
``target_frac`` extremes 0 and 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import coarsen
from repro.graph.coarsen import _matching_fallback, heavy_edge_matching
from repro.graph.csr import CSRGraph
from repro.graph.initial import greedy_graph_growing
from repro.graph.refine import rebalance
from tests.oracles.partition_loops import (
    greedy_graph_growing_ref,
    matching_fallback_ref,
    rebalance_ref,
)

#: Edge weights with near-ties inside the 1e-12 window of the matching.
EDGE_W = [1.0, 1.0 + 4e-13, 1.0 - 4e-13, 2.0, 0.5, 3.25]
#: Vertex weights that make exact constraint-spread ties common.
VERT_W = [0.0, 1.0, 1.0, 2.0, 0.5]


def build_graph(n, edges, ew, vw, narrow: bool) -> CSRGraph:
    """CSR graph from undirected ``edges`` in insertion order; a self
    loop ``(v, v)`` appears once in row ``v``."""
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in zip(edges, ew):
        rows[u].append((v, w))
        if u != v:
            rows[v].append((u, w))
    xadj = np.zeros(n + 1, dtype=np.int64)
    xadj[1:] = np.cumsum([len(r) for r in rows])
    adjncy = np.array([u for r in rows for u, _ in r], dtype=np.int64)
    adjwgt = np.array([w for r in rows for _, w in r], dtype=np.float64)
    vwgt = np.asarray(vw, dtype=np.float64).reshape(n, -1)
    if narrow:
        adjncy = adjncy.astype(np.int32)
        adjwgt = adjwgt.astype(np.float32)
        vwgt = vwgt.astype(np.float32)
    return CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)


@st.composite
def graphs(draw, max_n: int = 24) -> CSRGraph:
    """A small random graph: possibly disconnected, with self loops,
    1-4 constraints (optionally one all-zero column), near-tie edge
    weights and optionally int32/float32 storage."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ncon = draw(st.integers(min_value=1, max_value=4))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    seen: set[tuple[int, int]] = set()
    edges = []
    for u, v in pairs:
        if (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    uniform = draw(st.booleans())
    ew = [1.0] * len(edges) if uniform else draw(
        st.lists(
            st.sampled_from(EDGE_W), min_size=len(edges), max_size=len(edges)
        )
    )
    vw = np.array(
        draw(
            st.lists(
                st.sampled_from(VERT_W), min_size=n * ncon, max_size=n * ncon
            )
        )
    ).reshape(n, ncon)
    if ncon > 1 and draw(st.booleans()):
        vw[:, draw(st.integers(min_value=0, max_value=ncon - 1))] = 0.0
    return build_graph(n, edges, ew, vw, draw(st.booleans()))


seeds = st.integers(min_value=0, max_value=2**32 - 1)
fracs = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)


def same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------
def live_edges(g: CSRGraph, match: np.ndarray, multi: bool):
    """The compacted edge arrays the proposal rounds hand over: edges
    whose two endpoints are unmatched, with the spread computed by the
    row-wise reduction."""
    src = g.edge_sources()
    keep = (match[src] == src) & (match[g.adjncy] == g.adjncy)
    e_src, e_dst = src[keep], g.adjncy[keep]
    e_w = g.adjwgt.astype(np.float64)[keep]
    e_spread = None
    if multi:
        vw = g.vwgt.astype(np.float64)
        combined = vw[e_src] + vw[e_dst]
        e_spread = combined.max(axis=1) - combined.min(axis=1)
    return e_src, e_dst, e_w, e_spread


@given(g=graphs(), seed=seeds, data=st.data())
@settings(max_examples=150, deadline=None)
def test_matching_fallback_matches_loop(g, seed, data):
    # Pre-match a random set of disjoint edges, as proposal rounds do.
    n = g.num_vertices
    match = np.arange(n, dtype=np.int64)
    src = g.edge_sources()
    for i in data.draw(st.lists(st.integers(0, max(0, len(src) - 1)))):
        if i >= len(src):
            break
        u, v = int(src[i]), int(g.adjncy[i])
        if u != v and match[u] == u and match[v] == v:
            match[u], match[v] = v, u
    multi = g.ncon > 1 and data.draw(st.booleans())
    e_src, e_dst, e_w, e_spread = live_edges(g, match, multi)

    want, got = match.copy(), match.copy()
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    matching_fallback_ref(g, want, np.unique(e_src), rng_ref, multi)
    _matching_fallback(got, e_src, e_dst, e_w, e_spread, rng)
    np.testing.assert_array_equal(got, want)
    assert same_stream(rng, rng_ref)
    assert np.array_equal(got[got], np.arange(n))


def _ref_fallback(g: CSRGraph):
    """Adapter running the oracle loop in place of the list kernel."""

    def fallback(match, e_src, e_dst, e_w, e_spread, rng):
        matching_fallback_ref(
            g, match, np.unique(e_src), rng, e_spread is not None
        )

    return fallback


def grid_graph(side: int, ncon: int, seed: int, narrow: bool) -> CSRGraph:
    """A side x side grid with random near-tie edge weights and 0/1
    constraint indicators: large enough for the proposal rounds to run
    before the greedy tail."""
    rng = np.random.default_rng(seed)
    idx = np.arange(side * side).reshape(side, side)
    edges = list(zip(idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    edges += list(zip(idx[:-1, :].ravel(), idx[1:, :].ravel()))
    ew = rng.choice(EDGE_W, len(edges))
    vw = np.zeros((side * side, ncon))
    vw[np.arange(side * side), rng.integers(0, ncon, side * side)] = 1.0
    return build_graph(side * side, edges, ew, vw, narrow)


@pytest.mark.parametrize("ncon", [1, 3])
@pytest.mark.parametrize("narrow", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heavy_edge_matching_tail_matches_loop(monkeypatch, ncon, narrow, seed):
    g = grid_graph(40, ncon, seed, narrow)
    assert len(g.adjncy) > 2048  # proposal rounds run first
    got = heavy_edge_matching(g, rng := np.random.default_rng(seed))
    monkeypatch.setattr(coarsen, "_matching_fallback", _ref_fallback(g))
    want = heavy_edge_matching(g, rng_ref := np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)
    assert same_stream(rng, rng_ref)


@given(g=graphs(), seed=seeds, balance=st.booleans())
@settings(max_examples=100, deadline=None)
def test_heavy_edge_matching_small_graphs_match_loop(g, seed, balance):
    # Below the greedy cutoff the whole matching is the greedy tail.
    got = heavy_edge_matching(
        g, rng := np.random.default_rng(seed), balance_constraints=balance
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coarsen, "_matching_fallback", _ref_fallback(g))
        want = heavy_edge_matching(
            g, rng_ref := np.random.default_rng(seed), balance_constraints=balance
        )
    np.testing.assert_array_equal(got, want)
    assert same_stream(rng, rng_ref)


def test_matching_skips_self_loops():
    # Vertex 0's heaviest edge is its self loop; visited first, it must
    # take neighbour 1, which leaves 2 unmatched.
    g = build_graph(
        3, [(0, 0), (0, 1), (1, 2)], [3.25, 1.0, 2.0], np.ones(3), False
    )
    seen = set()
    for seed in range(12):
        got = heavy_edge_matching(g, rng := np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coarsen, "_matching_fallback", _ref_fallback(g))
            want = heavy_edge_matching(g, rng_ref := np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)
        assert same_stream(rng, rng_ref)
        seen.add(tuple(got))
    assert (1, 0, 2) in seen


# ----------------------------------------------------------------------
# Greedy graph growing
# ----------------------------------------------------------------------
@given(g=graphs(), frac=fracs, seed=seeds, data=st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_graph_growing_matches_loop(g, frac, seed, data):
    sv = data.draw(
        st.one_of(st.none(), st.integers(0, g.num_vertices - 1))
    )
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = greedy_graph_growing_ref(g, frac, rng_ref, seed_vertex=sv)
    got = greedy_graph_growing(g, frac, rng, seed_vertex=sv)
    assert got.dtype == want.dtype == np.int32
    np.testing.assert_array_equal(got, want)
    assert same_stream(rng, rng_ref)


def test_greedy_graph_growing_jumps_across_components():
    # Two disjoint paths: filling part 0 to 3/4 must jump components.
    edges = [(i, i + 1) for i in range(9)] + [(i, i + 1) for i in range(10, 19)]
    g = build_graph(20, edges, [1.0] * len(edges), np.ones(20), False)
    for seed in range(5):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = greedy_graph_growing_ref(g, 0.75, rng_ref)
        got = greedy_graph_growing(g, 0.75, rng)
        np.testing.assert_array_equal(got, want)
        assert same_stream(rng, rng_ref)
        assert np.count_nonzero(got == 0) == 15


# ----------------------------------------------------------------------
# Rebalance
# ----------------------------------------------------------------------
@given(
    g=graphs(),
    frac=fracs,
    tol=st.sampled_from([1.0, 1.05, 1.3]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_rebalance_matches_loop(g, frac, tol, data):
    n = g.num_vertices
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))
    part = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        dtype=dtype,
    )
    max_moves = data.draw(st.one_of(st.none(), st.integers(0, n)))
    kw = dict(target_frac=frac, imbalance_tol=tol, max_moves=max_moves)
    want = rebalance_ref(g, part.copy(), **kw)
    got_in = part.copy()
    got = rebalance(g, got_in, **kw)
    assert got is got_in
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("heavy", [10, 12])
def test_rebalance_balanced_input_is_untouched(heavy):
    # 12 of 20 unit weights against a target of 10 is a ratio of
    # exactly 1.2: at the tolerance counts as balanced.
    edges = [(i, i + 1) for i in range(19)]
    g = build_graph(20, edges, [1.0] * 19, np.ones(20), False)
    part = np.ones(20, dtype=np.int32)
    part[:heavy] = 0
    want = rebalance_ref(g, part.copy(), imbalance_tol=1.2)
    got = rebalance(g, part.copy(), imbalance_tol=1.2)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, part)


def test_rebalance_max_moves_zero_moves_nothing():
    g = grid_graph(10, 1, 0, False)
    part = np.zeros(g.num_vertices, dtype=np.int32)  # all in part 0
    assert np.array_equal(rebalance(g, part.copy(), max_moves=0), part)
    moved = rebalance(g, part.copy(), max_moves=3)
    np.testing.assert_array_equal(
        moved, rebalance_ref(g, part.copy(), max_moves=3)
    )
    assert np.count_nonzero(moved) == 3


@pytest.mark.parametrize("frac", [0.0, 1.0])
def test_rebalance_zero_target_drains_part(frac):
    # A zero target gives the infinite ratio: the part must empty out.
    g = grid_graph(8, 3, 1, True)
    part = np.random.default_rng(0).integers(0, 2, g.num_vertices).astype(np.int32)
    want = rebalance_ref(g, part.copy(), target_frac=frac)
    got = rebalance(g, part.copy(), target_frac=frac)
    np.testing.assert_array_equal(got, want)
    full = 1 if frac == 0.0 else 0
    assert np.all(got == full)
