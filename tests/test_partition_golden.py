"""Golden label digests of the SC_OC and MC_TL partitioners.

The digests below are SHA-256 hashes of the int64 label arrays that
``sc_oc_partition`` / ``mc_tl_partition`` return on small cylinder
meshes (temporal levels from quadtree depth, 4 levels).  They pin the
partitioner's output bit for bit: a change that claims identical labels
(a faster kernel, a refactor) must leave every digest here unchanged.
A change that moves labels on purpose must bump the affected stage
versions and re-record the digests in the same commit.

The last case runs on a narrowed graph: int32 ``adjncy``, float32
MC_TL weights and float32 non-unit edge weights, so the float64
promotion in matching, growing and rebalancing stays covered.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.partition import partition_graph
from repro.mesh.dual import mesh_to_dual_graph
from repro.mesh.generators import cylinder_mesh
from repro.partitioning.strategies import (
    _level_indicator_matrix,
    mc_tl_partition,
    sc_oc_partition,
)
from repro.temporal import levels_from_depth

STRATEGIES = {"sc_oc": sc_oc_partition, "mc_tl": mc_tl_partition}

#: (strategy, mesh scale, domains, seed) -> SHA-256 of the labels.
GOLDEN = {
    ("sc_oc", 6, 8, 0): "af7aee6880ce46fd51443077720f92f5151596184ac3d2236a4453bc4c694b8c",
    ("mc_tl", 6, 8, 0): "1a0d07d18df3dc000a97f77c824bc08d7fad3d661f0212f2c6b3a6a656f59647",
    ("sc_oc", 6, 8, 1): "7583cbe4f3b4cea8f7a3519ee83609fd7d17f0ef227b9584a09145c8ebc9cbaa",
    ("mc_tl", 6, 8, 1): "a1f99357a4edfb72b93b1f7d8a8e3ac7f0dcfb6a4abcdf64db3cd613dd8f3b04",
    ("sc_oc", 6, 8, 2): "8976a9bb9d100b316f2532484abba0fc1da7f50fca1ea8d9e6a83dd8837ad534",
    ("mc_tl", 6, 8, 2): "0bbc03d85de6970dbc69eca89187285fb5f79a6feae6aee8385f117d8d6ecf63",
    ("sc_oc", 7, 16, 0): "1fc9620d385f0b54c2a6068708e09bae428941d2edde5c4b25920360bde4476b",
    ("mc_tl", 7, 16, 0): "6dd84e41a2e5793c75f69eabdb31fbe950530c7a94e71eed858ad2437ee8ffc8",
    ("sc_oc", 7, 16, 1): "4862fa2b7ea9bf76dfee4ea22b441920d8d2ef76720225876f995b18a09a623a",
    ("mc_tl", 7, 16, 1): "b4b6f8be0e5172e6b8d0c62c48da476d81ced165a4833327237245df7071d44f",
    ("sc_oc", 7, 16, 2): "a8d82c7fed576df78661d5a7de67fa0797f07f27a8783e47ffbd1dd84db8ae90",
    ("mc_tl", 7, 16, 2): "dcf995059549662d2a6d408f8c864f1a0d469fbc083342b0325b835548c31104",
    ("sc_oc", 8, 64, 0): "102d401c84e4099764f0290b30910192aab03ae0e5c83ff9f92ec38cd012ed3f",
    ("mc_tl", 8, 64, 0): "172b9ac0a7c3a580eb9feadfa9648a5c2f1be7e8b2f02a883d4b4e1d3f2d3eeb",
    ("sc_oc", 8, 64, 1): "0c73f574d10bdc1e67dbd0c28c99225181bcdc08ab57870b6dfb76e052227fde",
    ("mc_tl", 8, 64, 1): "905ceed6060857f4b96c1f7e183e068c77b5c7e739cd5116e1a27d6782fd1ab7",
    ("sc_oc", 8, 64, 2): "13c0d06dc350a8656613bcead63235a96e90229218bf502289c7a55a9673b942",
    ("mc_tl", 8, 64, 2): "a30a402d2bea1fa51ac14e2f6fa17682f9fa18e490fbbaacd38f045dcf056aeb",
}

#: Narrowed MC_TL graph of the scale-7 cylinder, 16 parts: seed -> digest.
GOLDEN_NARROW = {
    0: "72a51854b6d068a11b0f4e0321c70b62350223fdb4e0a5f0a95e943890b02e66",
    1: "49475e6301e8d3f1f579a110707d2764d64f557c744ce620c7949769842c6275",
}


def label_digest(part: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(part, dtype=np.int64).tobytes()
    ).hexdigest()


_MESHES: dict[int, tuple] = {}


def cylinder(scale: int):
    if scale not in _MESHES:
        mesh = cylinder_mesh(max_depth=scale)
        _MESHES[scale] = (mesh, levels_from_depth(mesh, num_levels=4))
    return _MESHES[scale]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_strategy_labels_match_golden(case):
    name, scale, domains, seed = case
    mesh, tau = cylinder(scale)
    with warnings.catch_warnings():
        # Some MC_TL cases degrade to the "relaxed" rung; that is part
        # of the pinned behaviour, not a failure here.
        warnings.simplefilter("ignore")
        part = STRATEGIES[name](mesh, tau, domains, seed=seed)
    assert label_digest(part) == GOLDEN[case]


def test_int32_dual_matches_wide_golden():
    mesh, tau = cylinder(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        part = mc_tl_partition(mesh, tau, 16, seed=0, index_dtype="int32")
    assert label_digest(part) == GOLDEN[("mc_tl", 7, 16, 0)]


@pytest.mark.parametrize("seed", sorted(GOLDEN_NARROW))
def test_narrowed_weighted_graph_matches_golden(seed):
    mesh, tau = cylinder(7)
    g = mesh_to_dual_graph(mesh)
    w = (1 + (g.edge_sources() + g.adjncy) % 4).astype(np.float32)
    narrow = CSRGraph(
        g.xadj,
        g.adjncy.astype(np.int32),
        vwgt=_level_indicator_matrix(tau).astype(np.float32),
        adjwgt=w,
    )
    assert narrow.adjncy.dtype == np.int32
    assert narrow.vwgt.dtype == narrow.adjwgt.dtype == np.float32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        part = partition_graph(narrow, 16, seed=seed).part
    assert label_digest(part) == GOLDEN_NARROW[seed]
