"""Adaptive 3D octree mesh generation.

The paper's production meshes are 3D; the 2D quadtree replicas
reproduce their τ-distributions but not their 3D connectivity (a 3D
cell has up to 6+ neighbours, and level-class surface/volume ratios
scale differently).  This module provides the 3D analogue of
:mod:`repro.mesh.quadtree`: a 2:1-balanced octree whose leaves are the
cells, with faces extracted between adjacent leaves (up to four fine
faces per coarse side) and on the domain boundary.

The resulting :class:`~repro.mesh.structures.Mesh` reuses the 2D
container (cell centres carry the first two coordinates; the full 3D
centres are returned separately) — everything downstream of the dual
graph (partitioning, task generation, FLUSIM) is dimension-agnostic,
which is exactly what the 3D experiments exercise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chunked import OCT_ARRAY_MAX_DEPTH, build_octree_arrays
from .structures import Mesh

__all__ = ["build_octree_mesh", "octree_cylinder_mesh"]

Sizing3D = Callable[[float, float, float], float]

# Face directions: +x, +y, +z (emitted from the lower cell), with the
# in-face child offsets used at refined interfaces.
_DIRS = (
    ((1, 0, 0), ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))),
    ((0, 1, 0), ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1))),
    ((0, 0, 1), ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))),
)


def _refine(
    sizing: Sizing3D, max_depth: int, min_depth: int
) -> dict[tuple[int, int, int, int], None]:
    leaves: dict[tuple[int, int, int, int], None] = {(0, 0, 0, 0): None}
    queue = [(0, 0, 0, 0)]
    while queue:
        d, i, j, k = queue.pop()
        if (d, i, j, k) not in leaves:
            continue
        size = 1.0 / (1 << d)
        cx, cy, cz = (i + 0.5) * size, (j + 0.5) * size, (k + 0.5) * size
        if d < max_depth and (d < min_depth or size > sizing(cx, cy, cz)):
            del leaves[(d, i, j, k)]
            for di in (0, 1):
                for dj in (0, 1):
                    for dk in (0, 1):
                        child = (d + 1, 2 * i + di, 2 * j + dj, 2 * k + dk)
                        leaves[child] = None
                        queue.append(child)
    return leaves


def _leaf_containing(leaves, d, i, j, k):
    while d >= 0:
        if (d, i, j, k) in leaves:
            return (d, i, j, k)
        d, i, j, k = d - 1, i >> 1, j >> 1, k >> 1
    return None


def _balance(leaves: dict[tuple[int, int, int, int], None]) -> None:
    work = sorted(leaves, key=lambda t: -t[0])
    while work:
        d, i, j, k = work.pop()
        if (d, i, j, k) not in leaves:
            continue
        side = 1 << d
        for di, dj, dk in (
            (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
        ):
            ni, nj, nk = i + di, j + dj, k + dk
            if not (0 <= ni < side and 0 <= nj < side and 0 <= nk < side):
                continue
            nb = _leaf_containing(leaves, d, ni, nj, nk)
            if nb is None:
                continue
            nd, nii, njj, nkk = nb
            if nd < d - 1:
                del leaves[nb]
                children = []
                for ci in (0, 1):
                    for cj in (0, 1):
                        for ck in (0, 1):
                            c = (
                                nd + 1,
                                2 * nii + ci,
                                2 * njj + cj,
                                2 * nkk + ck,
                            )
                            leaves[c] = None
                            children.append(c)
                work.extend(children)
                work.append((d, i, j, k))
                break


def _build_octree_dict(
    sizing: Sizing3D, max_depth: int, min_depth: int
) -> tuple[Mesh, np.ndarray]:
    """Dict/tuple octree build for trees deeper than the packed keys of
    :func:`~repro.mesh.chunked.build_octree_arrays` allow; bit-identical
    to that build wherever both apply."""
    leaves = _refine(sizing, max_depth, min_depth)
    _balance(leaves)

    keys = sorted(leaves)  # lexicographic (depth, i, j, k) — deterministic
    index = {kk: idx for idx, kk in enumerate(keys)}
    depth = np.array([kk[0] for kk in keys], dtype=np.int32)
    size = 1.0 / (1 << depth).astype(np.float64)
    coords = np.array([kk[1:] for kk in keys], dtype=np.float64)
    centers3 = (coords + 0.5) * size[:, None]
    volumes = size**3

    f_cells: list[tuple[int, int]] = []
    f_area: list[float] = []
    f_normal: list[tuple[float, float]] = []
    f_center: list[tuple[float, float]] = []

    def emit(a, b, area, axis, fc3):
        f_cells.append((a, b))
        f_area.append(area)
        # Project the 3D axis normal onto (x, y); z-faces are stored
        # with a +x tag purely for container compatibility (the unit
        # check only applies to genuinely 2D meshes; here we renorm).
        nx, ny = (1.0, 0.0) if axis in (0, 2) else (0.0, 1.0)
        f_normal.append((nx, ny))
        f_center.append((fc3[0], fc3[1]))

    for idx, (d, i, j, k) in enumerate(keys):
        s = 1.0 / (1 << d)
        side = 1 << d
        base = np.array([i, j, k], dtype=np.int64)
        for axis, ((dx, dy, dz), child_offsets) in enumerate(_DIRS):
            # Low-side boundary face.
            if base[axis] == 0:
                flo = (base + 0.5) * s
                flo[axis] -= 0.5 * s
                emit(idx, -1, s * s, axis, flo)
            # High side: boundary, equal/coarser neighbour, or four
            # refined child faces.
            npos = base + (dx, dy, dz)
            fc3 = (base + 0.5) * s
            fc3[axis] += 0.5 * s
            if npos[axis] == side:
                emit(idx, -1, s * s, axis, fc3)
                continue
            nb = _leaf_containing(leaves, d, int(npos[0]), int(npos[1]), int(npos[2]))
            if nb is not None:
                emit(idx, index[nb], s * s, axis, fc3)
            else:
                cbase = 2 * npos
                for off in child_offsets:
                    child = (
                        d + 1,
                        int(cbase[0] + off[0]),
                        int(cbase[1] + off[1]),
                        int(cbase[2] + off[2]),
                    )
                    cc = (np.array(child[1:]) + 0.5) / (1 << (d + 1))
                    fcc = cc.copy()
                    fcc[axis] -= 0.5 / (1 << (d + 1))
                    emit(idx, index[child], (s / 2) ** 2, axis, fcc)

    mesh = Mesh(
        cell_centers=centers3[:, :2].copy(),
        cell_volumes=volumes,
        cell_depth=depth,
        face_cells=np.array(f_cells, dtype=np.int64).reshape(-1, 2),
        face_area=np.array(f_area, dtype=np.float64),
        face_normal=np.array(f_normal, dtype=np.float64).reshape(-1, 2),
        face_center=np.array(f_center, dtype=np.float64).reshape(-1, 2),
    )
    return mesh, centers3


def build_octree_mesh(
    sizing: Sizing3D,
    *,
    max_depth: int,
    min_depth: int = 2,
    chunk_cells: int | None = None,
) -> tuple[Mesh, np.ndarray]:
    """Build a 2:1-balanced octree finite-volume mesh on the unit
    cube.

    Trees up to :data:`~repro.mesh.chunked.OCT_ARRAY_MAX_DEPTH` (16)
    are built by the chunked NumPy passes of :mod:`repro.mesh.chunked`
    (``chunk_cells`` bounds their transient memory); deeper ones by a
    dict/tuple build whose result is bit-identical where both apply.
    Scalar-only sizing callables are handled via a per-point fallback.

    Returns ``(mesh, centers3d)``: the dimension-agnostic
    :class:`Mesh` (cell volumes are true 3D volumes, face areas true
    face areas; ``cell_centers``/``face_normal`` carry the x/y
    components) plus the full ``(n, 3)`` cell centres.
    """
    if max_depth > OCT_ARRAY_MAX_DEPTH:
        return _build_octree_dict(sizing, max_depth, min_depth)
    return build_octree_arrays(
        sizing,
        max_depth=max_depth,
        min_depth=min_depth,
        chunk_cells=chunk_cells,
    )


def octree_cylinder_mesh(
    *,
    max_depth: int = 7,
    min_depth: int = 4,
    chunk_cells: int | None = None,
) -> tuple[Mesh, np.ndarray]:
    """3D CYLINDER-like case: a thin fine shell around a vertical axis
    segment at the cube's centre, coarsening radially — the 3D
    analogue of :func:`repro.mesh.generators.cylinder_mesh`, with the
    paper-style coarse-majority τ-distribution."""
    h = 1.0 / (1 << max_depth)
    r_core = 0.03

    def sizing(x: float, y: float, z: float) -> float:
        r = float(np.hypot(x - 0.5, y - 0.5))
        in_height = 0.45 <= z <= 0.55
        if in_height and abs(r - r_core) <= 0.75 * h:
            return h
        if in_height and r <= r_core + 5.0 * h:
            return 2.0 * h
        if r <= 0.15 and 0.4 <= z <= 0.6:
            return 4.0 * h
        return 8.0 * h

    return build_octree_mesh(
        sizing,
        max_depth=max_depth,
        min_depth=min_depth,
        chunk_cells=chunk_cells,
    )
