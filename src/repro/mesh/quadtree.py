"""Adaptive quadtree mesh generation.

The paper's meshes are graded unstructured finite-volume meshes whose
cell volumes span several octaves — exactly the structure a 2:1
balanced adaptive quadtree produces.  A *sizing function* ``h(x, y)``
prescribes the desired cell edge length at every point; leaves are
split until they satisfy it, then a 2:1 balance pass limits the depth
jump between edge-neighbours to one (which is also what gives the
paper's meshes their gradual temporal-level transitions).

Cells are the quadtree leaves.  Faces are extracted between
edge-adjacent leaves (one face for equal-depth neighbours, two for a
coarse-fine interface) plus domain-boundary faces, giving a complete
finite-volume mesh ready for :mod:`repro.solver`.  The tree is built
by the chunked NumPy passes of :mod:`repro.mesh.chunked`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chunked import build_quadtree_arrays
from .structures import Mesh

__all__ = ["build_quadtree_mesh"]

SizingFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def build_quadtree_mesh(
    sizing: SizingFn,
    *,
    max_depth: int,
    min_depth: int = 2,
    origin: tuple[float, float] = (0.0, 0.0),
    extent: float = 1.0,
    chunk_cells: int | None = None,
) -> Mesh:
    """Build a 2:1-balanced quadtree finite-volume mesh.

    Parameters
    ----------
    sizing:
        Vectorizable function mapping coordinates to the desired cell
        edge length at that point.  A leaf of edge ``s`` is split while
        ``s > sizing(center)`` (and ``depth < max_depth``).
    max_depth / min_depth:
        Depth bounds; ``max_depth`` caps the finest resolution, hence
        also the number of distinct cell sizes ``max_depth - min_depth
        + 1``.  At most :data:`~repro.mesh.chunked.QUAD_ARRAY_MAX_DEPTH`
        (24); deeper requests raise :class:`ValueError`.
    origin, extent:
        The square domain ``[ox, ox+extent] × [oy, oy+extent]``.
    chunk_cells:
        Cells per vectorized pass of the chunked build (bounds its
        transient memory; irrelevant to the result).

    Returns
    -------
    :class:`~repro.mesh.structures.Mesh` with cells sorted by Morton
    (z-curve) order of their quadtree coordinates, which keeps
    spatially close cells close in memory.
    """
    return build_quadtree_arrays(
        sizing,
        max_depth=max_depth,
        min_depth=min_depth,
        origin=origin,
        extent=extent,
        chunk_cells=chunk_cells,
    )
