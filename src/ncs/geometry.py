"""Triangle meshes: OBJ I/O, normalization, surface sampling, edge-graph geodesics,
and bidirectional Chamfer evaluation.

Chamfer convention used everywhere in this package: the mean over A of squared
nearest-neighbor distance into B, plus the mean over B of squared nearest-neighbor
distance into A. Reported numbers elsewhere multiply this by 1e3.

The nearest-neighbor search is exact. Each point set gets one KD-tree with
sliding-midpoint splits and boxes that are not shrunk to the data (Maneewongvatana
and Mount 1999), which keeps the search fast when the two sets lie far apart.
Each set queries the other's tree in its own tree's leaf order, so consecutive
queries are neighbours. The distances go back to sample order before each mean, so
the summation order, and the result, are those of queries in sample order.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import MeshError

log = logging.getLogger(__name__)

# faces with less 3D area than this are dropped on load
_DEGENERATE_AREA = 1e-14
# rows per formatted block in export_mesh: about a MB of text at a time
_EXPORT_CHUNK_ROWS = 16384
# points per leaf of a Chamfer KD-tree
_CHAMFER_LEAFSIZE = 32


@dataclass
class TriMesh:
    """Indexed triangle surface."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        # int32 faces are range-checked as they are; anything else in int64, since
        # the int32 cast would wrap an index of 2**32 or more into range
        faces = self.faces
        if not (isinstance(faces, np.ndarray) and faces.dtype == np.int32):
            try:
                faces = np.asarray(faces, dtype=np.int64)
            except OverflowError:
                raise MeshError("face index out of range") from None
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (V, 3)")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must have shape (F, 3)")
        if faces.size and (faces.min() < 0 or faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")
        self.faces = np.ascontiguousarray(faces, dtype=np.int32)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def load_mesh(path) -> TriMesh:
    """Parse an ASCII OBJ (v/f lines; polygons fan-triangulated; other records ignored).

    The whole file is split into tokens at once and read as arrays; each kind of
    number is converted in one batch, which follows Python's `float` and `int`.
    Only a batch that fails is read again token by token, to name the first bad one.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # every "\n" becomes a token of its own: the first non-space character the text
    # lacks, from \x01 on (NumPy would read "\x00" as ""). Text mode has already
    # folded \r\n and \r into \n, so lines count as `for line in file` counts them
    # (splitlines() would also break at \x0b, \x0c, \x85, ...)
    mark = next(c for c in map(chr, range(1, 0x110000)) if not c.isspace() and c not in text)
    tok = np.array(text.replace("\n", f" {mark} ").split(), dtype=object)
    brk = tok == mark
    start = np.flatnonzero(~brk & np.concatenate([[True], brk[:-1]]))  # non-blank lines
    ends = np.flatnonzero(brk)
    n_brk = np.searchsorted(ends, start)  # line breaks before each line
    count = np.append(ends, len(tok))[n_brk] - start
    line_no = n_brk + 1
    tag = tok[start]  # comments and every other tag (vt, vn, usemtl, o, g, s, ...) fall through
    is_v, is_f = tag == "v", tag == "f"
    errors = []  # (line, rank, message): on one line, a bad token (rank 0) is named first
    short = np.flatnonzero((is_v | is_f) & (count < 4))
    if len(short):  # nothing after the first short line is read
        last = short[0]
        errors.append((line_no[last], 1, "vertex line needs 3 coordinates" if is_v[last]
                       else "face needs at least 3 vertices"))
        is_v[last:], is_f[last + 1:] = False, False
    n_idx = count[is_f] - 1  # vertex tokens per `f` line
    toks = tok[_ranges(start[is_f] + 1, n_idx)]
    heads = np.array([t.partition("/")[0] for t in toks], dtype=object) if "/" in text else toks
    xyz, bad_xyz = _parse_tokens(tok[(start[is_v][:, None] + np.arange(1, 4)).ravel()], np.float64)
    idx, bad_idx = _parse_tokens(heads, np.int64)
    if bad_xyz:
        errors.append((line_no[is_v][bad_xyz[0] // 3], 0, f"bad vertex coordinate: {bad_xyz[1]}"))
    if bad_idx:
        line = np.searchsorted(np.cumsum(n_idx), bad_idx[0], side="right")
        errors.append((line_no[is_f][line], 0, f"bad face index '{toks[bad_idx[0]]}'"))
    if errors:
        ln, _, msg = min(errors)
        raise MeshError(f"{path}:{ln}: {msg}")
    if not is_v.any() or not is_f.any():
        raise MeshError(f"{path}: empty mesh (no vertices or no faces)")

    v = xyz.reshape(-1, 3)
    # OBJ: negative indices count back from the vertices seen so far
    idx = np.where(idx < 0, np.repeat(np.cumsum(is_v)[is_f], n_idx) + idx, idx - 1)
    # fan rule: the triangles of a face line are its tokens (0, j, j + 1), j >= 1
    first, n_tri = np.cumsum(n_idx) - n_idx, n_idx - 2
    f = np.stack([np.repeat(idx[first], n_tri), idx[_ranges(first + 1, n_tri)],
                  idx[_ranges(first + 2, n_tri)]], axis=1)
    bad = (f < 0) | (f >= len(v))
    if bad.any():
        ln = np.repeat(line_no[is_f], n_tri)[np.flatnonzero(bad.any(axis=1))[0]]
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


def _ranges(first: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges first[i], ..., first[i] + n[i] - 1, concatenated."""
    off = np.repeat(first - np.cumsum(n) + n, n)
    return off + np.arange(len(off))


def _group_by(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR grouping of keys in [0, n): (indptr (n+1,), order), where
    order[indptr[k]:indptr[k + 1]] are the positions of key k, ascending."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n))])
    return indptr, np.argsort(keys, kind="stable")


def _parse_tokens(tokens: np.ndarray, dtype) -> tuple[np.ndarray | None, tuple[int, ValueError] | None]:
    """(array, None), or (None, (position, error)) for the first token Python rejects."""
    try:
        return tokens.astype(dtype), None
    except (ValueError, OverflowError):
        pass
    convert = float if dtype == np.float64 else int
    values = []
    for k, tok in enumerate(tokens):
        try:
            values.append(convert(tok))
        except ValueError as e:
            return None, (k, e)
    # only integers beyond int64 are left; clipped, they are still out of range
    limit = 1 << 62
    return np.array([min(max(x, -limit), limit) for x in values], dtype=dtype), None


def export_mesh(mesh: TriMesh, path) -> None:
    """Write an ASCII OBJ; vertex order is preserved so round trips are stable.

    Rows are formatted a chunk at a time by one %-format each; face indices become
    1-based a chunk at a time, in int64. The file is written beside `path` and
    renamed into place, so a failed export leaves no partial file.
    """
    if mesh.n_vertices == 0 or mesh.n_faces == 0:
        raise MeshError("refusing to export an empty mesh")
    records = (("v %.12g %.12g %.12g\n", mesh.vertices, lambda c: c),
               ("f %d %d %d\n", mesh.faces, lambda c: c.astype(np.int64) + 1))
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for fmt, rows, convert in records:
                for s in range(0, len(rows), _EXPORT_CHUNK_ROWS):
                    chunk = convert(rows[s:s + _EXPORT_CHUNK_ROWS])
                    fh.write(fmt * len(chunk) % tuple(chunk.ravel().tolist()))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def _chamfer_tree(p: np.ndarray) -> cKDTree:
    """Sliding-midpoint KD-tree whose boxes are not shrunk to the data."""
    return cKDTree(p, leafsize=_CHAMFER_LEAFSIZE, balanced_tree=False, compact_nodes=False)


def _nn_squared(q: np.ndarray, own_tree: cKDTree, other_tree: cKDTree, workers: int = 1) -> np.ndarray:
    """Squared distance from each row of q to its nearest point of other_tree.

    own_tree is the tree built on q: the rows are queried in its leaf order, so
    consecutive queries are neighbours, and scattered back to the order of q.
    """
    order = own_tree.indices
    d = np.empty(len(q))
    d[order], _ = other_tree.query(q[order], workers=workers)
    return d * d


def chamfer_distance(a, b, workers: int = 1) -> float:
    """Bidirectional Chamfer distance between two point sets (see module docstring).

    workers threads share each query; the result does not depend on their number.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance of an empty point set")
    ta, tb = _chamfer_tree(a), _chamfer_tree(b)
    return float(_nn_squared(a, ta, tb, workers).mean() + _nn_squared(b, tb, ta, workers).mean())
