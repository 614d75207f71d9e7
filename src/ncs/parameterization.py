"""Disk embeddings of triangle meshes: convex-combination (mean-value weight)
parameterization with an arc-length circular boundary, point location, piecewise
linear lifts, and per-triangle distortion measures.

A chart maps a disk-topology (sub)mesh into the closed unit disk: the single
boundary loop lands exactly on the unit circle and interior positions solve a
sparse linear system with positive weights, which keeps every 2D triangle
positively oriented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import NumericError, OutOfChartError, TopologyError
from .geometry import TriMesh, _ranges, mesh_edges

# barycentric tolerance for point-in-triangle acceptance at shared edges
_BARY_TOL = 1e-9
# convex-combination weights are clamped here to stay an M-matrix on obtuse meshes
_WEIGHT_CLAMP = 1e-8
# target relative residual of the interior solve
_SOLVE_TOL = 1e-10
# points per batch of point location
_LOCATE_CHUNK = 4096


@dataclass
class ChartPoint:
    """A located 2D point: uv plus the containing triangle and barycentric weights."""

    uv: np.ndarray
    tri: int
    bary: np.ndarray


class DiskChart:
    """2D embedding of a (sub)mesh into the unit disk, with lift and locate support.

    `orig_vertex_ids` / `orig_face_ids` map submesh indices back to the parent mesh;
    they are None for charts built over a whole mesh (identity mapping).
    """

    def __init__(self, points3d, faces, uv, boundary,
                 orig_vertex_ids=None, orig_face_ids=None):
        self.points3d = np.ascontiguousarray(points3d, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int32)
        self.uv = np.ascontiguousarray(uv, dtype=np.float64)
        self.boundary = np.ascontiguousarray(boundary, dtype=np.int64)
        self.orig_vertex_ids = None if orig_vertex_ids is None else np.asarray(orig_vertex_ids, dtype=np.int64)
        self.orig_face_ids = None if orig_face_ids is None else np.asarray(orig_face_ids, dtype=np.int64)
        self._grid = None
        self._bary_inv = None
        self._bary_origin = None

    @property
    def n_vertices(self) -> int:
        return len(self.uv)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_of_orig(self, orig_face_id: int):
        """Local face index for a parent-mesh face id, or None if not in this chart."""
        if self.orig_face_ids is None:
            return int(orig_face_id) if 0 <= orig_face_id < self.n_faces else None
        hit = np.flatnonzero(self.orig_face_ids == orig_face_id)
        return int(hit[0]) if len(hit) else None

    def signed_areas(self) -> np.ndarray:
        q = self.uv[self.faces]
        e1 = q[:, 1] - q[:, 0]
        e2 = q[:, 2] - q[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    def validate(self) -> None:
        norms = np.linalg.norm(self.uv, axis=1)
        if norms.max() > 1.0 + 1e-9:
            raise NumericError(f"chart leaves the unit disk (max norm {norms.max():.2e})")
        bn = np.abs(np.linalg.norm(self.uv[self.boundary], axis=1) - 1.0)
        if bn.max() > 1e-9:
            raise NumericError("boundary loop is not on the unit circle")
        if (self.signed_areas() <= 0).any():
            raise NumericError(f"{int((self.signed_areas() <= 0).sum())} flipped/degenerate 2D triangle(s)")

    # ------------------------------------------------------------------
    # point location
    # ------------------------------------------------------------------

    def _ensure_locate(self):
        if self._grid is not None:
            return
        q = self.uv[self.faces]  # (F,3,2)
        origin = q[:, 0]
        e1 = q[:, 1] - q[:, 0]
        e2 = q[:, 2] - q[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        inv = np.empty((len(q), 2, 2))
        inv[:, 0, 0] = e2[:, 1] / det
        inv[:, 0, 1] = -e2[:, 0] / det
        inv[:, 1, 0] = -e1[:, 1] / det
        inv[:, 1, 1] = e1[:, 0] / det
        self._bary_origin = origin
        self._bary_inv = inv
        self._grid = _LocateGrid(q)

    def locate(self, q) -> tuple[int, np.ndarray] | None:
        """Containing triangle and barycentric weights of a 2D point, or None."""
        tri, bary = self.locate_many(np.reshape(q, (1, 2)))
        return None if tri[0] < 0 else (int(tri[0]), bary[0])

    def locate_many(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Containing triangle (N,) and barycentric weights (N,3) of N 2D points.

        Points outside the chart get triangle -1 and zero weights. A point on a
        shared edge gets the lowest-numbered face that accepts it.
        """
        self._ensure_locate()
        q = np.asarray(q, dtype=np.float64).reshape(-1, 2)
        tri = np.full(len(q), -1, dtype=np.int64)
        bary = np.zeros((len(q), 3))
        grid = self._grid
        # chunks bound the (point, candidate face) arrays to a few MB
        for s in range(0, len(q), _LOCATE_CHUNK):
            qc = q[s:s + _LOCATE_CHUNK]
            cell = grid.cells(qc)
            starts = grid.starts[cell]
            counts = grid.starts[cell + 1] - starts
            pt = np.repeat(np.arange(len(qc)), counts)
            fid = grid.face_ids[_ranges(starts, counts)]
            d = qc[pt] - self._bary_origin[fid]
            m = self._bary_inv[fid]
            b1 = m[:, 0, 0] * d[:, 0] + m[:, 0, 1] * d[:, 1]
            b2 = m[:, 1, 0] * d[:, 0] + m[:, 1, 1] * d[:, 1]
            b0 = 1.0 - b1 - b2
            hit = np.flatnonzero((b0 >= -_BARY_TOL) & (b1 >= -_BARY_TOL) & (b2 >= -_BARY_TOL))
            # candidates run in ascending face order per point: keep each point's first hit
            first = hit[np.diff(pt[hit], prepend=-1) != 0]
            rows = s + pt[first]
            tri[rows] = fid[first]
            bary[rows] = np.stack([b0[first], b1[first], b2[first]], axis=1)
        return tri, bary


class _LocateGrid:
    """Uniform 2D bucket grid over the chart's bounding box, as CSR arrays: bucket
    b holds faces face_ids[starts[b]:starts[b + 1]] in ascending order, and bucket
    res * res, for points outside the grid, is empty."""

    def __init__(self, tri_uv: np.ndarray):
        nf = len(tri_uv)
        self.res = int(min(max(4, np.ceil(np.sqrt(nf))), 256))
        lo = tri_uv.reshape(-1, 2).min(axis=0) - 1e-9
        hi = tri_uv.reshape(-1, 2).max(axis=0) + 1e-9
        self.lo = lo
        self.inv_cell = self.res / np.maximum(hi - lo, 1e-12)
        mins = tri_uv.min(axis=1)
        maxs = tri_uv.max(axis=1)
        i0 = np.clip(((mins - lo) * self.inv_cell).astype(int), 0, self.res - 1)
        i1 = np.clip(((maxs - lo) * self.inv_cell).astype(int), 0, self.res - 1)
        nx = i1[:, 0] - i0[:, 0] + 1
        counts = nx * (i1[:, 1] - i0[:, 1] + 1)
        fid = np.repeat(np.arange(nf), counts)
        k = _ranges(np.zeros_like(counts), counts)
        cell = (i0[fid, 1] + k // nx[fid]) * self.res + i0[fid, 0] + k % nx[fid]
        order = np.argsort(cell, kind="stable")
        self.face_ids = fid[order]
        self.starts = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=self.res * self.res + 1))])

    def cells(self, q: np.ndarray) -> np.ndarray:
        """Bucket index of each point (N,2); the empty bucket res * res outside the grid."""
        c = (q - self.lo) * self.inv_cell
        ok = ((c >= 0.0) & (c < self.res)).all(axis=1)
        g = np.where(ok[:, None], c, 0.0).astype(np.int64)
        return np.where(ok, g[:, 1] * self.res + g[:, 0], self.res * self.res)


# ---------------------------------------------------------------------------
# topology helpers
# ---------------------------------------------------------------------------

def check_disk_topology(faces: np.ndarray, n_vertices: int) -> np.ndarray:
    """Verify single-boundary disk topology; returns the ordered boundary loop.

    The loop follows the faces' winding and starts at the smallest boundary
    vertex. Raises TopologyError naming the first violation, checked in this
    order: no faces, an isolated vertex, disconnected (faces sharing only a
    vertex count as connected), closed, a non-manifold boundary, multiple
    boundary loops, or positive genus. A boundary is non-manifold when a vertex
    starts two boundary edges, or when the walk along it revisits a vertex or
    reaches a vertex that starts no boundary edge.
    """
    if len(faces) == 0:
        raise TopologyError("no faces")
    faces = np.asarray(faces, dtype=np.int64)
    if len(np.unique(faces)) != n_vertices:
        raise TopologyError("isolated vertex: not every vertex belongs to a face")
    edges, edge_of = mesh_edges(faces)
    n_comp, _ = connected_components(_vertex_graph(edges[:, 0], edges[:, 1], n_vertices), directed=False)
    if n_comp > 1:
        raise TopologyError(f"submesh is not edge-connected ({n_comp} components)")

    # a directed face edge a->b is a boundary edge when no face has b->a; up and
    # down mark the edges that some face runs from low to high id, or back
    g = np.roll(faces, -1, axis=1)
    up = np.bincount(edge_of[faces < g], minlength=len(edges)) > 0
    down = np.bincount(edge_of[faces > g], minlength=len(edges)) > 0
    b = np.flatnonzero(up != down)
    src = np.where(up[b], edges[b, 0], edges[b, 1])
    dst = np.where(up[b], edges[b, 1], edges[b, 0])
    if len(src) == 0:
        raise TopologyError("closed surface (no boundary): not a disk")
    if len(np.unique(src)) < len(src):
        raise TopologyError("non-manifold boundary (branching boundary vertex)")
    revisit = "boundary walk revisited a vertex (non-manifold)"
    dead_end = "non-manifold boundary (boundary vertex with no outgoing boundary edge)"
    nxt = np.full(n_vertices, -1, dtype=np.int64)
    nxt[src] = dst
    start = int(src.min())
    loop = [start]
    seen = np.zeros(n_vertices, dtype=bool)
    seen[start] = True
    cur = int(nxt[start])
    while cur != start:
        if seen[cur]:
            raise TopologyError(revisit)
        seen[cur] = True
        loop.append(cur)
        cur = int(nxt[cur])
        if cur < 0:
            raise TopologyError(dead_end)
    if len(loop) < len(src):
        # the other boundary edges form more loops if every boundary vertex ends
        # one boundary edge and starts one; a walk over them would otherwise
        # revisit a vertex that ends two, or stop at a vertex that starts none
        if len(np.unique(dst)) < len(dst):
            raise TopologyError(revisit)
        if (nxt[dst] < 0).any():
            raise TopologyError(dead_end)
        _, label = connected_components(_vertex_graph(src, dst, n_vertices), directed=False)
        raise TopologyError(f"multiple boundary loops ({len(np.unique(label[src]))}): not a disk")
    euler = n_vertices - len(edges) + len(faces)
    if euler != 1:
        raise TopologyError(f"genus > 0 (Euler characteristic {euler}): not a disk")
    return np.asarray(loop, dtype=np.int64)


def _vertex_graph(a: np.ndarray, b: np.ndarray, n: int) -> csr_matrix:
    """Unweighted sparse graph on n vertices with the edges a[i]-b[i]."""
    return csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def _mean_value_weights(verts: np.ndarray, faces: np.ndarray, n: int) -> csr_matrix:
    """Sparse symmetric-pattern matrix of mean-value edge weights (clamped positive)."""
    p = verts[faces]  # (F,3,3)
    rows, cols, vals = [], [], []
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        u = p[:, k1] - p[:, k]
        w = p[:, k2] - p[:, k]
        cross = np.linalg.norm(np.cross(u, w), axis=1)
        dot = np.einsum("ij,ij->i", u, w)
        ang = np.arctan2(cross, dot)
        t = np.tan(0.5 * ang)
        # the corner angle at k feeds the weights of both edges leaving k
        rows.append(faces[:, k])
        cols.append(faces[:, k1])
        vals.append(t)
        rows.append(faces[:, k])
        cols.append(faces[:, k2])
        vals.append(t)
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    t = np.concatenate(vals)
    acc = csr_matrix((t, (i, j)), shape=(n, n))  # duplicate entries sum
    acc.sum_duplicates()
    coo = acc.tocoo()
    lengths = np.linalg.norm(verts[coo.row] - verts[coo.col], axis=1)
    wdata = np.maximum(coo.data / np.maximum(lengths, 1e-300), _WEIGHT_CLAMP)
    return csr_matrix((wdata, (coo.row, coo.col)), shape=(n, n))


def _solve_interior(w: csr_matrix, interior: np.ndarray, boundary_uv: np.ndarray,
                    boundary_idx: np.ndarray, n: int) -> np.ndarray:
    """Solve the convex-combination system for interior uv: one sparse LU
    factorisation serves both right-hand sides."""
    idx_of = np.full(n, -1, dtype=np.int64)
    idx_of[interior] = np.arange(len(interior))
    coo = w.tocoo()
    on_int = idx_of[coo.row] >= 0
    row_i = idx_of[coo.row[on_int]]
    col = coo.col[on_int]
    val = coo.data[on_int]
    diag = np.zeros(len(interior))
    np.add.at(diag, row_i, val)

    col_is_int = idx_of[col] >= 0
    a_rows = np.concatenate([row_i[col_is_int], np.arange(len(interior))])
    a_cols = np.concatenate([idx_of[col[col_is_int]], np.arange(len(interior))])
    a_vals = np.concatenate([-val[col_is_int], diag])
    a = csc_matrix((a_vals, (a_rows, a_cols)), shape=(len(interior), len(interior)))

    uv_full = np.zeros((n, 2))
    uv_full[boundary_idx] = boundary_uv
    rhs = np.zeros((len(interior), 2))
    bmask = ~col_is_int
    np.add.at(rhs, row_i[bmask], val[bmask, None] * uv_full[col[bmask]])

    # the pattern is symmetric and the matrix a row-diagonally-dominant M-matrix,
    # so a symmetric fill-reducing order factorises stably without pivoting
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise NumericError(f"interior parameterization system is singular ({exc})") from None
    sol = lu.solve(rhs)
    residual = np.linalg.norm(a @ sol - rhs, axis=0)
    if not np.isfinite(sol).all() or (residual > _SOLVE_TOL * np.linalg.norm(rhs, axis=0)).any():
        raise NumericError("interior parameterization system did not solve to tolerance")
    return sol


def embed_disk(mesh_or_verts, faces=None, orig_vertex_ids=None, orig_face_ids=None) -> DiskChart:
    """Embed a disk-topology (sub)mesh into the unit disk.

    Boundary vertices go onto the unit circle at cumulative 3D arc length; interior
    vertices solve the mean-value convex-combination system. Raises TopologyError
    for non-disk input and NumericError if the chart would be invalid.
    """
    if isinstance(mesh_or_verts, TriMesh):
        verts = mesh_or_verts.vertices
        faces = mesh_or_verts.faces
    else:
        verts = np.asarray(mesh_or_verts, dtype=np.float64)
        faces = np.asarray(faces)
    faces = np.asarray(faces, dtype=np.int64)
    n = len(verts)
    loop = check_disk_topology(faces, n)

    edge_vec = verts[np.roll(loop, -1)] - verts[loop]
    seglen = np.linalg.norm(edge_vec, axis=1)
    total = seglen.sum()
    if total <= 0:
        raise NumericError("boundary loop has zero length")
    arc = np.concatenate([[0.0], np.cumsum(seglen[:-1])])
    theta = 2.0 * np.pi * arc / total
    boundary_uv = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    uv = np.zeros((n, 2))
    uv[loop] = boundary_uv
    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[loop] = True
    interior = np.flatnonzero(~on_boundary)
    if len(interior):
        w = _mean_value_weights(verts, faces, n)
        uv[interior] = _solve_interior(w, interior, boundary_uv, loop, n)

    chart = DiskChart(verts, faces, uv, loop, orig_vertex_ids, orig_face_ids)
    areas = chart.signed_areas()
    if (areas < 0).all():
        # input winding was clockwise; mirror the chart
        chart.uv[:, 1] *= -1.0
        chart.boundary = chart.boundary[::-1].copy()
    chart.validate()
    return chart


# ---------------------------------------------------------------------------
# lifts and chart-to-chart transport
# ---------------------------------------------------------------------------

def chart_lift(chart: DiskChart, q) -> np.ndarray:
    """Map a 2D point (or a pre-located ChartPoint) to its 3D position."""
    if isinstance(q, ChartPoint):
        cp = q
    else:
        loc = chart.locate(q)
        if loc is None:
            raise OutOfChartError(f"point {np.asarray(q)} is outside the chart image")
        cp = ChartPoint(np.asarray(q, dtype=np.float64), loc[0], loc[1])
    tri = chart.faces[cp.tri]
    return cp.bary @ chart.points3d[tri]


def global_to_local(global_chart: DiskChart, patch_chart: DiskChart, q) -> ChartPoint | None:
    """Re-express a global 2D point in a patch chart via shared barycentric data.

    Returns None when the containing global face is not part of the patch
    (the caller-visible "not in patch" signal, not an error).
    """
    loc = global_chart.locate(np.asarray(q, dtype=np.float64))
    if loc is None:
        raise OutOfChartError(f"point {np.asarray(q)} is outside the global chart")
    tri, bary = loc
    orig = tri if global_chart.orig_face_ids is None else int(global_chart.orig_face_ids[tri])
    pf = patch_chart.face_of_orig(orig)
    if pf is None:
        return None
    uv_local = bary @ patch_chart.uv[patch_chart.faces[pf]]
    return ChartPoint(uv_local, pf, bary)


def chart_distortion(chart: DiskChart) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle (scale, conformal) distortion of the 2D->3D map.

    scale = sigma1*sigma2 (area ratio), conformal = sigma1/sigma2; degenerate 2D
    triangles get +inf in both.
    """
    q = chart.uv[chart.faces]
    p = chart.points3d[chart.faces]
    e2 = np.stack([q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]], axis=2)  # (F,2,2)
    e3 = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # (F,3,2)
    det2 = e2[:, 0, 0] * e2[:, 1, 1] - e2[:, 0, 1] * e2[:, 1, 0]
    ok = np.abs(det2) > 1e-300
    inv = np.zeros_like(e2)
    d = np.where(ok, det2, 1.0)
    inv[:, 0, 0] = e2[:, 1, 1] / d
    inv[:, 0, 1] = -e2[:, 0, 1] / d
    inv[:, 1, 0] = -e2[:, 1, 0] / d
    inv[:, 1, 1] = e2[:, 0, 0] / d
    m = np.einsum("fij,fjk->fik", e3, inv)  # (F,3,2)
    g = np.einsum("fji,fjk->fik", m, m)  # (F,2,2) = M^T M
    tr = g[:, 0, 0] + g[:, 1, 1]
    dt = np.maximum(g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0], 0.0)
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * dt, 0.0))
    s1 = np.sqrt(np.maximum(0.5 * (tr + disc), 0.0))
    s2 = np.sqrt(np.maximum(0.5 * (tr - disc), 0.0))
    scale = np.where(ok, s1 * s2, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        conformal = np.where(ok & (s2 > 0), s1 / np.maximum(s2, 1e-300), np.inf)
    return scale, conformal
