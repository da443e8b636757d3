"""Output checks of the benchmark, run outside the timed region.

Every check returns a list of failure messages (empty when the output
is correct), so one corrupted output never hides another and the tests
can feed each check a deliberately corrupted value.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "MESH_FIELDS",
    "digest",
    "mesh_digests",
    "cut_faces",
    "check_labels",
    "check_dag",
    "check_trace",
    "check_same",
]

#: The array fields of :class:`repro.mesh.structures.Mesh`.
MESH_FIELDS = (
    "cell_centers",
    "cell_volumes",
    "cell_depth",
    "face_cells",
    "face_area",
    "face_normal",
    "face_center",
)

#: A real partition of a replica mesh cuts a few percent of the
#: interior faces; labels that cut half of them are not a partition
#: (a shuffled labelling cuts nearly all of them).
MAX_CUT_FRAC = 0.5


def digest(a: np.ndarray) -> str:
    """SHA-256 over dtype, shape and bytes: equal digests mean
    bit-identical arrays."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.data)
    return h.hexdigest()


def mesh_digests(mesh, tau: np.ndarray) -> dict[str, str]:
    out = {f: digest(getattr(mesh, f)) for f in MESH_FIELDS}
    out["tau"] = digest(tau)
    return out


def cut_faces(mesh, domain: np.ndarray) -> tuple[int, int]:
    """``(cut interior faces, interior faces)`` of a labelling."""
    a, b = mesh.face_cells[:, 0], mesh.face_cells[:, 1]
    interior = b >= 0
    cut = domain[a[interior]] != domain[b[interior]]
    return int(cut.sum()), int(interior.sum())


def check_labels(
    what: str, mesh, domain: np.ndarray, num_domains: int
) -> list[str]:
    """Labels cover exactly ``0..D-1`` and form a plausible partition."""
    out = []
    if domain.shape != (mesh.num_cells,):
        return [f"{what}: {domain.shape} labels for {mesh.num_cells} cells"]
    present = np.unique(domain)
    if not np.array_equal(present, np.arange(num_domains)):
        out.append(
            f"{what}: labels cover {len(present)} values, "
            f"expected 0..{num_domains - 1}"
        )
    cut, interior = cut_faces(mesh, domain)
    if cut > MAX_CUT_FRAC * interior:
        out.append(
            f"{what}: {cut} of {interior} interior faces cut "
            f"(> {MAX_CUT_FRAC:.0%}); labels are not a partition"
        )
    return out


def check_dag(
    what: str, dag, mesh, tau: np.ndarray, scheme: str, iterations: int
) -> list[str]:
    from repro.taskgraph import verify_dag

    return [
        f"{what}: {v}"
        for v in verify_dag(
            dag, mesh, tau, scheme=scheme, iterations=iterations
        )
    ]


def check_trace(what: str, trace, dag, makespan: float) -> list[str]:
    """The trace is a valid schedule of ``dag`` and the reported
    makespan is the trace's."""
    out = []
    try:
        trace.validate_against(dag)
    except ValueError as exc:
        out.append(f"{what}: invalid schedule: {exc}")
    if makespan != trace.makespan:
        out.append(
            f"{what}: metrics makespan {makespan} != trace {trace.makespan}"
        )
    return out


def check_same(what: str, got: dict, want: dict) -> list[str]:
    """Entries of ``got`` equal those of ``want`` (same seed, same
    outputs)."""
    return [
        f"{what}: {k} differs"
        for k in sorted(set(got) | set(want))
        if got.get(k) != want.get(k)
    ]
