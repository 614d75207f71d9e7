"""Triangle meshes: OBJ I/O, normalization, surface sampling, edge-graph geodesics,
and bidirectional Chamfer evaluation.

Chamfer convention used everywhere in this package: the mean over A of squared
nearest-neighbor distance into B, plus the mean over B of squared nearest-neighbor
distance into A. Reported numbers elsewhere multiply this by 1e3.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra
from scipy.spatial import cKDTree

from .errors import MeshError

log = logging.getLogger(__name__)

# faces with less 3D area than this are dropped on load
_DEGENERATE_AREA = 1e-14


@dataclass
class TriMesh:
    """Indexed triangle surface.

    `uv` is filled by the parameterization stage with per-vertex disk coordinates;
    it is None for freshly loaded meshes.
    """

    vertices: np.ndarray
    faces: np.ndarray
    uv: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int32)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must have shape (F, 3)")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def load_mesh(path) -> TriMesh:
    """Parse an ASCII OBJ (v/f lines; polygons fan-triangulated; vt/vn ignored)."""
    verts: list[list[float]] = []
    tris: list[tuple[int, int, int]] = []
    tri_lines: list[int] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshError(f"{path}:{ln}: vertex line needs 3 coordinates")
                try:
                    verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as e:
                    raise MeshError(f"{path}:{ln}: bad vertex coordinate: {e}") from None
            elif tag == "f":
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError:
                        raise MeshError(f"{path}:{ln}: bad face index '{tok}'") from None
                    # OBJ: negative indices count back from the vertices seen so far
                    idx.append(len(verts) + i if i < 0 else i - 1)
                if len(idx) < 3:
                    raise MeshError(f"{path}:{ln}: face needs at least 3 vertices")
                for k in range(1, len(idx) - 1):
                    tris.append((idx[0], idx[k], idx[k + 1]))
                    tri_lines.append(ln)
            # every other tag (vt, vn, usemtl, o, g, s, ...) is ignored
    if not verts or not tris:
        raise MeshError(f"{path}: empty mesh (no vertices or no faces)")
    v = np.asarray(verts, dtype=np.float64)
    f = np.asarray(tris, dtype=np.int64)
    bad = (f < 0) | (f >= len(v))
    if bad.any():
        ln = tri_lines[int(np.flatnonzero(bad.any(axis=1))[0])]
        raise MeshError(f"{path}:{ln}: face index out of range (have {len(v)} vertices)")

    areas = _areas_of(v, f)
    keep = areas > _DEGENERATE_AREA
    if not keep.all():
        log.warning("%s: dropped %d degenerate face(s)", path, int((~keep).sum()))
        f = f[keep]
    if len(f) == 0:
        raise MeshError(f"{path}: all faces are degenerate")

    mesh = TriMesh(v, f)
    _warn_non_manifold(mesh, str(path))
    log.info("%s: %d vertices, %d faces", path, mesh.n_vertices, mesh.n_faces)
    return mesh


def export_mesh(mesh: TriMesh, path) -> None:
    """Write an ASCII OBJ; vertex order is preserved so round trips are stable."""
    if mesh.n_vertices == 0 or mesh.n_faces == 0:
        raise MeshError("refusing to export an empty mesh")
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.12g} {y:.12g} {z:.12g}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def normalize_unit_sphere(mesh: TriMesh) -> TriMesh:
    """Center the bounding box at the origin and scale the max vertex norm to 1."""
    v = mesh.vertices
    if len(v) == 0:
        raise MeshError("empty mesh")
    center = 0.5 * (v.min(axis=0) + v.max(axis=0))
    shifted = v - center
    radius = float(np.linalg.norm(shifted, axis=1).max())
    if radius < 1e-12:
        raise MeshError("degenerate scale: all vertices coincide")
    return TriMesh(shifted / radius, mesh.faces.copy())


def mesh_extent(mesh: TriMesh) -> float:
    """Maximum extent along any coordinate axis."""
    v = mesh.vertices
    return float((v.max(axis=0) - v.min(axis=0)).max())


def _areas_of(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    p = v[f]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)


def face_areas(mesh: TriMesh) -> np.ndarray:
    return _areas_of(mesh.vertices, mesh.faces)


def mesh_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges of a triangle list: (edges (E,2), edge_of (F,3)).

    Each edge row holds (low, high) vertex ids, and the rows are sorted. Entry
    edge_of[f, k] is the row of face f's edge from corner k to corner k + 1 (mod 3).
    """
    f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    g = np.roll(f, -1, axis=1)
    n = int(f.max()) + 1 if f.size else 1
    keys, edge_of = np.unique(np.minimum(f, g) * n + np.maximum(f, g), return_inverse=True)
    return np.stack([keys // n, keys % n], axis=1), edge_of.reshape(-1, 3)


def _warn_non_manifold(mesh: TriMesh, name: str) -> None:
    counts = np.bincount(mesh_edges(mesh.faces)[1].ravel())
    if (counts > 2).any():
        log.warning("%s: non-manifold mesh (%d edge(s) shared by >2 faces)", name, int((counts > 2).sum()))


def edge_graph(mesh: TriMesh) -> csr_matrix:
    """Symmetric sparse adjacency with Euclidean edge lengths as weights."""
    e, _ = mesh_edges(mesh.faces)
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    n = mesh.n_vertices
    return csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    )


def vertex_geodesics(mesh: TriMesh, source: int, graph: csr_matrix | None = None,
                     limit: float = np.inf) -> np.ndarray:
    """Dijkstra distances over the edge graph from `source`; unreached vertices get +inf.

    This is the edge-graph approximation of geodesic distance: it never underestimates
    the true polyhedral geodesic and is exact on the graph itself.
    """
    if not 0 <= source < mesh.n_vertices:
        raise MeshError(f"source vertex {source} out of range")
    g = edge_graph(mesh) if graph is None else graph
    return _dijkstra(g, directed=False, indices=source, limit=limit)


def sample_faces(area_cum: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Area-uniform draw of n surface points as (faces (n,), barycentric (n,3)), given the
    cumulative face areas; deterministic per seed."""
    rng = np.random.default_rng(seed)
    faces = np.searchsorted(area_cum, rng.random(n) * area_cum[-1], side="right")
    faces = np.minimum(faces, len(area_cum) - 1)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    return faces, np.stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2], axis=1)


def sample_surface_arrays(mesh: TriMesh, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Area-uniform surface samples as arrays: (positions (n,3), faces (n,), barycentric (n,3))."""
    if n < 1:
        raise ValueError("need at least one sample")
    cum = np.cumsum(face_areas(mesh))
    if cum[-1] <= 0:
        raise MeshError("mesh has zero total area")
    faces, bary = sample_faces(cum, n, seed)
    pos = np.einsum("nk,nkd->nd", bary, mesh.vertices[mesh.faces[faces]])
    return pos, faces, bary


def _nn_squared(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each row of a to its nearest row of b."""
    d, _ = cKDTree(b).query(a, workers=1)
    return d * d


def chamfer_distance(a, b) -> float:
    """Bidirectional Chamfer distance between two point sets (see module docstring)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance of an empty point set")
    return float(_nn_squared(a, b).mean() + _nn_squared(b, a).mean())
