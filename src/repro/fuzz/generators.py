"""Seeded adversarial input generators.

Each generator derives a pathological graph or mesh from a
:class:`numpy.random.Generator`, so a fuzzing seed reproduces its whole
case deterministically.  The catalogue deliberately targets the inputs
the paper's meshes never exercise: disconnected dual graphs, star/path
topologies, duplicate coordinates, one-cell-per-level skew, empty
temporal-level classes and heavy-tailed weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..graph.csr import CSRGraph, graph_from_edges
from ..mesh.generators import uniform_mesh
from ..mesh.structures import Mesh

__all__ = [
    "GraphCase",
    "MeshCase",
    "GRAPH_GENERATORS",
    "MESH_GENERATORS",
    "make_graph_case",
    "make_mesh_case",
]


@dataclass
class GraphCase:
    """A pathological graph plus the part counts to try on it."""

    name: str
    graph: CSRGraph
    nparts: tuple[int, ...]


@dataclass
class MeshCase:
    """A pathological mesh + temporal levels plus domain counts."""

    name: str
    mesh: Mesh
    tau: np.ndarray
    num_domains: tuple[int, ...]


# ----------------------------------------------------------------------
# graph cases
# ----------------------------------------------------------------------
def _random_vwgt(rng: np.random.Generator, n: int) -> np.ndarray | None:
    """Random vertex weights: none, unit, heavy-tailed, or
    multi-constraint indicator-ish columns."""
    style = rng.integers(4)
    if style == 0:
        return None
    if style == 1:
        return rng.integers(1, 10, size=n).astype(np.float64)
    if style == 2:
        # Heavy-tailed (Pareto): a few vertices dominate the total.
        return np.ceil(rng.pareto(1.1, size=n) + 1.0)
    ncon = int(rng.integers(2, 5))
    lev = rng.integers(0, ncon, size=n)
    out = np.zeros((n, ncon), dtype=np.float64)
    out[np.arange(n), lev] = 1.0
    return out


def _grid_graph(rng: np.random.Generator) -> GraphCase:
    nx = int(rng.integers(3, 12))
    ny = int(rng.integers(3, 12))
    idx = np.arange(nx * ny).reshape(nx, ny)
    edges = [
        (int(idx[i, j]), int(idx[i + 1, j]))
        for i in range(nx - 1)
        for j in range(ny)
    ] + [
        (int(idx[i, j]), int(idx[i, j + 1]))
        for i in range(nx)
        for j in range(ny - 1)
    ]
    g = graph_from_edges(nx * ny, edges, vwgt=_random_vwgt(rng, nx * ny))
    return GraphCase("grid", g, (2, int(rng.integers(3, 9))))


def _disconnected_graph(rng: np.random.Generator) -> GraphCase:
    ncomp = int(rng.integers(2, 6))
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(ncomp):
        size = int(rng.integers(1, 15))
        edges.extend((n + i, n + i + 1) for i in range(size - 1))
        n += size
    g = graph_from_edges(n, edges, vwgt=_random_vwgt(rng, n))
    kmax = max(2, min(n, ncomp + 2))
    return GraphCase("disconnected", g, (2, kmax))


def _star_graph(rng: np.random.Generator) -> GraphCase:
    nleaves = int(rng.integers(3, 40))
    n = nleaves + 1
    edges = [(0, i) for i in range(1, n)]
    ewgt = None
    if rng.integers(2):
        ewgt = np.ceil(rng.pareto(1.0, size=nleaves) + 1.0)
    g = graph_from_edges(n, edges, vwgt=_random_vwgt(rng, n), ewgt=ewgt)
    return GraphCase("star", g, (2, min(4, n)))


def _path_graph(rng: np.random.Generator) -> GraphCase:
    n = int(rng.integers(2, 60))
    edges = [(i, i + 1) for i in range(n - 1)]
    g = graph_from_edges(n, edges, vwgt=_random_vwgt(rng, n))
    return GraphCase("path", g, (2, min(5, n)))


def _isolated_vertices(rng: np.random.Generator) -> GraphCase:
    """A clique plus fully isolated vertices (degree 0)."""
    k = int(rng.integers(3, 8))
    iso = int(rng.integers(1, 6))
    n = k + iso
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    g = graph_from_edges(n, edges, vwgt=_random_vwgt(rng, n))
    return GraphCase("isolated", g, (2, min(n, k)))


def _zero_column(rng: np.random.Generator) -> GraphCase:
    n = int(rng.integers(4, 30))
    edges = [(i, i + 1) for i in range(n - 1)]
    ncon = int(rng.integers(2, 4))
    vwgt = np.ones((n, ncon), dtype=np.float64)
    vwgt[:, int(rng.integers(ncon))] = 0.0  # an empty level class
    g = graph_from_edges(n, edges, vwgt=vwgt)
    return GraphCase("zero-column", g, (2, min(4, n)))


def _single_vertex(rng: np.random.Generator) -> GraphCase:
    g = graph_from_edges(1, [], vwgt=_random_vwgt(rng, 1))
    return GraphCase("single-vertex", g, (1, 2))


GRAPH_GENERATORS = (
    _grid_graph,
    _disconnected_graph,
    _star_graph,
    _path_graph,
    _isolated_vertices,
    _zero_column,
    _single_vertex,
)


def make_graph_case(rng: np.random.Generator) -> GraphCase:
    """Draw one pathological graph case."""
    gen = GRAPH_GENERATORS[int(rng.integers(len(GRAPH_GENERATORS)))]
    return gen(rng)


# ----------------------------------------------------------------------
# mesh cases
# ----------------------------------------------------------------------
def _base_mesh(rng: np.random.Generator) -> Mesh:
    return uniform_mesh(depth=int(rng.integers(2, 5)))


def _skewed_tau(rng: np.random.Generator) -> MeshCase:
    """One-cell-per-level skew: levels 1..L each own exactly one cell,
    level 0 owns the rest — the hardest MC_TL balance case."""
    mesh = _base_mesh(rng)
    n = mesh.num_cells
    nlev = int(rng.integers(2, min(6, n)))
    tau = np.zeros(n, dtype=np.int32)
    tau[rng.choice(n, size=nlev - 1, replace=False)] = np.arange(
        1, nlev, dtype=np.int32
    )
    return MeshCase("skewed-tau", mesh, tau, (2, 4))


def _uniform_tau(rng: np.random.Generator) -> MeshCase:
    """All cells on one temporal level: MC_TL degenerates to a single
    constraint column."""
    mesh = _base_mesh(rng)
    tau = np.full(mesh.num_cells, int(rng.integers(3)), dtype=np.int32)
    return MeshCase("uniform-tau", mesh, tau, (2, 4))


def _duplicate_coords(rng: np.random.Generator) -> MeshCase:
    """Many cells collapse onto identical coordinates (degenerate
    geometry for the SFC/RCB strategies and the SFC fallback)."""
    mesh = _base_mesh(rng)
    n = mesh.num_cells
    centers = mesh.cell_centers.copy()
    dup = rng.choice(n, size=max(2, n // 2), replace=False)
    centers[dup] = centers[dup[0]]
    mesh = replace(mesh, cell_centers=centers)
    tau = rng.integers(0, 3, size=n).astype(np.int32)
    return MeshCase("duplicate-coords", mesh, tau, (2, 4))


def _disconnected_mesh(rng: np.random.Generator) -> MeshCase:
    """Two meshes glued into one array with no connecting faces — the
    dual graph is disconnected."""
    m1 = _base_mesh(rng)
    m2 = _base_mesh(rng)
    shift = np.array([10.0, 0.0])
    n1 = m1.num_cells
    fc2 = m2.face_cells.copy()
    fc2[fc2 >= 0] += n1
    mesh = Mesh(
        cell_centers=np.vstack([m1.cell_centers, m2.cell_centers + shift]),
        cell_volumes=np.concatenate([m1.cell_volumes, m2.cell_volumes]),
        cell_depth=np.concatenate([m1.cell_depth, m2.cell_depth]),
        face_cells=np.vstack([m1.face_cells, fc2]),
        face_area=np.concatenate([m1.face_area, m2.face_area]),
        face_normal=np.vstack([m1.face_normal, m2.face_normal]),
        face_center=np.vstack([m1.face_center, m2.face_center + shift]),
    )
    tau = rng.integers(0, 3, size=mesh.num_cells).astype(np.int32)
    return MeshCase("disconnected-mesh", mesh, tau, (2, 4))


def _single_cell_mesh(rng: np.random.Generator) -> MeshCase:
    """One square cell with four boundary faces."""
    mesh = Mesh(
        cell_centers=np.array([[0.5, 0.5]]),
        cell_volumes=np.array([1.0]),
        cell_depth=np.zeros(1, dtype=np.int64),
        face_cells=np.array([[0, -1]] * 4, dtype=np.int64),
        face_area=np.ones(4),
        face_normal=np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        ),
        face_center=np.array(
            [[1.0, 0.5], [0.0, 0.5], [0.5, 1.0], [0.5, 0.0]]
        ),
    )
    tau = np.zeros(1, dtype=np.int32)
    return MeshCase("single-cell", mesh, tau, (1, 2))


MESH_GENERATORS = (
    _skewed_tau,
    _uniform_tau,
    _duplicate_coords,
    _disconnected_mesh,
    _single_cell_mesh,
)


def make_mesh_case(rng: np.random.Generator) -> MeshCase:
    """Draw one pathological mesh case."""
    gen = MESH_GENERATORS[int(rng.integers(len(MESH_GENERATORS)))]
    return gen(rng)
