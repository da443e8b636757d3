"""Synthetic replicas of the paper's three Airbus meshes.

The originals (Table I of the paper) are production CFD meshes that
cannot be redistributed:

============== ========== ======== ====================================
mesh           cells      τ-levels geometry
============== ========== ======== ====================================
CYLINDER       6 400 505  4        fine annulus around a central piece,
                                   coarsening toward the far field
CUBE             151 817  4        three non-contiguous fine hotspots
                                   ("worst case" for partitioning)
PPRIME_NOZZLE 12 594 374  3        nozzle exit + elongated jet plume
============== ========== ======== ====================================

Each generator reproduces the *geometry class* (where refinement
concentrates) and — at its default depth — the paper's per-τ cell
distribution shape: very few fine cells concentrated around the
feature, a heavy tail of coarse far-field cells.  Band radii were
derived from Table I's cell fractions via ``area_k ∝ frac_k · 4^k``.
``max_depth`` scales the total cell count (laptop-scale defaults:
2·10⁴–3·10⁴ cells).  For distribution-exact scheduling studies use
:func:`repro.temporal.levels.assign_levels_by_fraction`.
"""

from __future__ import annotations

import numpy as np

from .quadtree import build_quadtree_mesh
from .structures import Mesh

__all__ = [
    "cylinder_mesh",
    "cube_mesh",
    "pprime_nozzle_mesh",
    "uniform_mesh",
    "MESH_FACTORIES",
    "PAPER_CELL_FRACTIONS",
    "PAPER_CELL_COUNTS",
]

#: Table I "%Cells" rows (per τ, ascending) of the original meshes.
PAPER_CELL_FRACTIONS = {
    "cylinder": np.array([0.008, 0.043, 0.326, 0.623]),
    "cube": np.array([0.020, 0.155, 0.003, 0.822]),
    "pprime_nozzle": np.array([0.119, 0.322, 0.559]),
}

#: Table I total cell counts of the original meshes.
PAPER_CELL_COUNTS = {
    "cylinder": 6_400_505,
    "cube": 151_817,
    "pprime_nozzle": 12_594_374,
}


def cylinder_mesh(
    *,
    max_depth: int = 10,
    chunk_cells: int | None = None,
) -> Mesh:
    """CYLINDER replica: radial grading around a central piece.

    The finest cells form a thin annulus at radius ``r_core`` (the
    machinery piece that is "the nerve center of the phenomenon");
    concentric bands of doubling cell size follow, giving four temporal
    levels with distribution ≈ (1.5 / 6 / 32 / 61)% of cells for
    τ=0..3 at the default depth (paper: 0.8 / 4.3 / 32.6 / 62.3).
    """
    h = 1.0 / (1 << max_depth)
    cx = cy = 0.5
    r_core = 0.02
    ring = 1.5 * h          # fine ring half-thickness (≈3 cells thick)
    t1 = r_core + 16.0 * h  # τ=1 band outer radius
    r2 = 0.193              # τ=2 band outer radius (from Table I areas)

    def sizing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.hypot(x - cx, y - cy)
        return np.where(
            np.abs(r - r_core) <= ring,
            h,
            np.where(
                r < r_core,
                4.0 * h,  # solid-body interior: keep moderately coarse
                np.where(r <= t1, 2.0 * h, np.where(r <= r2, 4.0 * h, 8.0 * h)),
            ),
        )

    return build_quadtree_mesh(
        sizing,
        max_depth=max_depth,
        min_depth=max_depth - 3,
        chunk_cells=chunk_cells,
    )


def cube_mesh(
    *,
    max_depth: int = 10,
    chunk_cells: int | None = None,
) -> Mesh:
    """CUBE replica: three non-contiguous fine hotspots.

    The paper calls this mesh the worst case: its τ=0 cells are split
    over three disjoint regions, which defeats partitioners trying to
    keep domains contiguous while balancing levels.  The sizing jumps
    straight from 2h to 8h past the hotspot halo, so the τ=2 class only
    exists as the thin transition shell forced by 2:1 balance —
    reproducing the paper's striking 0.3 % τ=2 share.
    """
    h = 1.0 / (1 << max_depth)
    hotspots = np.array([[0.2, 0.25], [0.75, 0.3], [0.45, 0.8]])
    r0 = 0.008  # fine core radius
    r1 = 0.036  # τ=1 halo radius

    def sizing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = np.full(np.broadcast(x, y).shape, np.inf)
        for hx, hy in hotspots:
            d = np.minimum(d, np.hypot(x - hx, y - hy))
        return np.where(d <= r0, h, np.where(d <= r1, 2.0 * h, 8.0 * h))

    return build_quadtree_mesh(
        sizing,
        max_depth=max_depth,
        min_depth=max_depth - 3,
        chunk_cells=chunk_cells,
    )


def pprime_nozzle_mesh(
    *,
    max_depth: int = 9,
    chunk_cells: int | None = None,
) -> Mesh:
    """PPRIME_NOZZLE replica: nozzle exit plus an elongated jet plume.

    Three temporal levels; the fine region is a long streamwise plume
    (the resolved jet) rather than a compact annulus, so fine cells are
    comparatively numerous — ≈ (12 / 32 / 56)% of cells for τ=0..2,
    matching the paper's 11.9 / 32.2 / 55.9.  All bands are 2D areas,
    so this distribution is essentially depth-independent.
    """
    h = 1.0 / (1 << max_depth)
    ax, ay, bx = 0.18, 0.5, 0.68
    w0 = 0.0115  # fine plume half-width
    w1 = 0.103   # τ=1 sheath half-width

    def sizing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.clip((x - ax) / (bx - ax), 0.0, 1.0)
        px = ax + t * (bx - ax)
        d = np.hypot(x - px, y - ay)
        return np.where(d <= w0, h, np.where(d <= w1, 2.0 * h, 4.0 * h))

    return build_quadtree_mesh(
        sizing,
        max_depth=max_depth,
        min_depth=max_depth - 2,
        chunk_cells=chunk_cells,
    )


def uniform_mesh(
    *,
    depth: int | None = None,
    max_depth: int = 5,
    chunk_cells: int | None = None,
) -> Mesh:
    """Uniform (single temporal level) mesh — baseline and test helper.

    ``depth`` and ``max_depth`` are synonyms (the former wins if both
    are given); the alias keeps the factory signature-compatible with
    the graded generators.
    """
    d = max_depth if depth is None else depth
    h = 1.0 / (1 << d)

    def sizing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full(np.broadcast(x, y).shape, h)

    return build_quadtree_mesh(
        sizing, max_depth=d, min_depth=d, chunk_cells=chunk_cells,
    )


#: Name → factory map used by the CLI and the experiment harnesses.
MESH_FACTORIES = {
    "cylinder": cylinder_mesh,
    "cube": cube_mesh,
    "pprime_nozzle": pprime_nozzle_mesh,
    "uniform": uniform_mesh,
}
