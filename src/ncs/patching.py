"""Overlapping geodesic patches with per-patch disk charts and boundary-distance blending.

Patches are grown around randomly chosen centers out to a geodesic radius (a
fraction of the mesh's maximum axis extent), marked forbidden for later center
picks with a given probability, and each gets its own disk chart. Blending
weights come from the 2D distance to the patch chart's boundary polygon: positive
inside a patch, zero on its rim, normalized over all covering patches, and uniform
over them where every one gives zero (the sum is <= 0).

All weight queries take one batched path. `face_pairs` turns samples given as
(parent face, barycentric weights) into (sample, patch, local uv, weight) pair
arrays through the per-face pair table `PatchSet.face_pair_table`;
`pairs_for_points` locates global 2D points first, and `blend_weights` is its
one-point view. Distances come from each chart's inward edge lines, kept per
patch and unpadded (`PatchSet.line_pack`), and are exact because the chart
polygons are convex; `boundary_signed_distance` is the polygon reference they are
tested against. `pair_boundary_distances` sorts the pairs by patch once and
evaluates each patch's rows against its lines in blocks of `_BLOCK_ROWS` rows, so
the (rows, lines) block stays in the L2 cache instead of streaming through memory.

A PatchSet is built from its patches alone. Its `face_cover` and `vertex_cover`
are CSR pairs (indptr, patch ids), one stable group-by each of the charts'
`orig_face_ids` and the patches' `vertex_ids`: element k is held by the patches
ids[indptr[k]:indptr[k + 1]], ascending, and np.diff(indptr) counts them.
Extraction reads the mesh's connectivity as arrays: the `edge_graph` CSR for
geodesic balls and one-rings, CSR incident faces, and a sparse face adjacency
built from `geometry.mesh_edges` for the component search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _dijkstra

from .errors import CoverageError, MeshError, OutOfChartError, TopologyError
from .geometry import TriMesh, _group_by, _ranges, edge_graph, mesh_edges, mesh_extent
from .parameterization import DiskChart, chart_distortion, embed_disk

_MAX_SHRINKS = 3
# rows per blend-distance GEMM block: (128, 300 lines) of float64 is about 300 KB
_BLOCK_ROWS = 128


@dataclass
class Patch:
    """One surface patch: members within the geodesic radius of the center, plus chart."""

    index: int
    center: int
    vertex_ids: np.ndarray  # parent-mesh vertex ids, sorted
    chart: DiskChart
    forbade: np.ndarray  # vertices this patch newly marked forbidden


@dataclass
class PatchSet:
    """All patches plus coverage bookkeeping.

    Every mesh face (hence every vertex) is covered by at least one patch.
    """

    patches: list[Patch]
    radius_frac: float
    forbid_prob: float
    radius: float
    seed: int
    n_vertices: int
    n_faces: int
    # per face / vertex, CSR (indptr (n+1,), patch ids): element k is held by the
    # patches ids[indptr[k]:indptr[k + 1]], ascending
    face_cover: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    vertex_cover: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _face_uv: np.ndarray = field(init=False, repr=False, compare=False)
    _uncovered_faces: np.ndarray = field(init=False, repr=False, compare=False)
    _line_pack: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        charts = [p.chart for p in self.patches]
        self.face_cover, rows = _cover([c.orig_face_ids for c in charts], self.n_faces)
        self.vertex_cover = _cover([p.vertex_ids for p in self.patches], self.n_vertices)[0]
        # the face grouping's permutation orders the charts' corner uv like face_cover
        self._face_uv = np.concatenate([np.empty((0, 3, 2)), *(c.uv[c.faces] for c in charts)])[rows]
        self._uncovered_faces = np.flatnonzero(np.diff(self.face_cover[0]) == 0)
        self._line_pack = []
        for c in charts:
            poly = c.uv[c.boundary]
            area2 = np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1])
            pts = poly if area2 > 0 else poly[::-1]
            d = np.roll(pts, -1, axis=0) - pts
            ln = np.maximum(np.linalg.norm(d, axis=1), 1e-300)
            # inward (left) normal of a counterclockwise polygon edge
            w = np.stack([-d[:, 1] / ln, d[:, 0] / ln])
            self._line_pack.append((w, w[0] * pts[:, 0] + w[1] * pts[:, 1]))

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    def mean_overlap(self) -> float:
        return float(np.mean(np.diff(self.vertex_cover[0])))

    def overlap_histogram(self) -> dict[int, int]:
        counts = np.diff(self.vertex_cover[0])
        return {int(k): int((counts == k).sum()) for k in np.unique(counts)}

    def line_pack(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Inward edge lines of each patch's boundary polygon, one unpadded entry per
        patch: (w (2, E), c (E,)) with E = len(chart.boundary). For a point x inside
        the polygon the distance to it is min over the lines of x @ w - c.

        Boundary vertices sit on the unit circle in angular order, so the polygon is
        convex and the nearest boundary feature of an interior point is always the
        perpendicular foot on an edge; the edge-line distance is then exact.
        """
        return self._line_pack

    def face_pair_table(self):
        """Per-face (patch, corner uv) pairs as CSR arrays (offsets (F+1,), patch (T,),
        uv (T,3,2)): face f's pairs are rows offsets[f]:offsets[f + 1], in face_cover
        order, and uv holds the patch-chart uv of the face's three corners. The
        offsets and patch ids are face_cover's own arrays."""
        if len(self._uncovered_faces):
            raise CoverageError(f"face {self._uncovered_faces[0]} is covered by no patch")
        return (*self.face_cover, self._face_uv)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _cover(members: list[np.ndarray], n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """((indptr, owners), order): the CSR cover of ids [0, n) by the member lists,
    owners ascending, and the permutation that groups the concatenated members."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *members])
    owner = np.repeat(np.arange(len(members)), [len(m) for m in members])
    indptr, order = _group_by(ids, n)
    return (indptr, owner[order]), order


def _face_adjacency(edge_of: np.ndarray) -> csr_matrix:
    """Face-face adjacency over shared edges, from mesh_edges' edge_of (F,3)."""
    nf = len(edge_of)
    incidence = csr_matrix((np.ones(3 * nf), (np.repeat(np.arange(nf), 3), edge_of.ravel())))
    adj = incidence @ incidence.T
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def _component_faces(seed_faces: np.ndarray, keep: np.ndarray, adj: csr_matrix) -> np.ndarray:
    """Faces edge-connected to the seeds within the keep mask."""
    kept = np.flatnonzero(keep)
    _, label = connected_components(adj[kept][:, kept], directed=False)
    seeds = np.searchsorted(kept, seed_faces[keep[seed_faces]])
    return kept[np.isin(label, label[seeds])]


def extract_patches(mesh: TriMesh, radius_frac: float, forbid_prob: float, seed: int = 0) -> PatchSet:
    """Decompose the surface into overlapping patches, each with a disk chart.

    Centers are drawn uniformly from eligible (uncovered, non-forbidden) vertices;
    each patch collects vertices within `radius_frac * max_extent` geodesic distance
    (always including the center's one-ring), keeps the center's edge-connected face
    component, and shrinks toward the one-ring fan if the submesh is not a disk.
    After all vertices are covered, any face still inside no patch seeds an extra
    patch at one of its corners, so face coverage is complete too.
    """
    if not radius_frac > 0:  # NaN fails too
        raise ValueError("radius fraction must be positive")
    if not 0.0 <= forbid_prob <= 1.0:
        raise ValueError("forbid probability must be in [0, 1]")
    nv, nf = mesh.n_vertices, mesh.n_faces
    if nf == 0:
        raise MeshError("mesh has no faces")
    used = np.zeros(nv, dtype=bool)
    used[np.unique(mesh.faces)] = True
    if not used.all():
        raise MeshError(f"{int((~used).sum())} isolated vertex/vertices: cannot cover with patches")

    graph = edge_graph(mesh)
    radius = radius_frac * mesh_extent(mesh)
    inc_ptr, order = _group_by(mesh.faces.ravel(), nv)
    inc_faces = order // 3
    adj = _face_adjacency(mesh_edges(mesh.faces)[1])
    rng = np.random.default_rng(seed)

    covered = np.zeros(nv, dtype=bool)
    forbidden = np.zeros(nv, dtype=bool)
    face_covered = np.zeros(nf, dtype=bool)
    patches: list[Patch] = []

    def chart_of(fids: np.ndarray) -> DiskChart:
        """Disk chart of the parent-mesh faces fids; TopologyError if not a disk."""
        vids, local = np.unique(mesh.faces[fids], return_inverse=True)
        return embed_disk(mesh.vertices[vids], local.reshape(-1, 3), orig_vertex_ids=vids, orig_face_ids=fids)

    def grow(center: int) -> DiskChart:
        """Chart of the center's patch, halving the radius while it is not a disk."""
        r = radius
        fan = inc_faces[inc_ptr[center]:inc_ptr[center + 1]]
        for _ in range(_MAX_SHRINKS + 1):
            dist = _dijkstra(graph, directed=False, indices=center, limit=r)
            in_ball = np.isfinite(dist) & (dist <= r)
            in_ball[graph.indices[graph.indptr[center]:graph.indptr[center + 1]]] = True
            in_ball[center] = True
            fmask = in_ball[mesh.faces].all(axis=1)
            try:
                return chart_of(_component_faces(fan, fmask, adj))
            except TopologyError:
                r *= 0.5
        # fallback: the center's face fan, a disk for any manifold vertex
        return chart_of(fan)

    while True:
        eligible = np.flatnonzero(~covered & ~forbidden)
        if len(eligible) == 0 and not covered.all():
            eligible = np.flatnonzero(~covered)
        if len(eligible) == 0:
            open_faces = np.flatnonzero(~face_covered)
            if len(open_faces) == 0:
                break
            eligible = np.unique(mesh.faces[open_faces])
        center = int(eligible[rng.integers(len(eligible))])

        chart = grow(center)
        vids = chart.orig_vertex_ids
        covered[vids] = True
        face_covered[chart.orig_face_ids] = True
        draw = rng.random(len(vids)) < forbid_prob
        newly = vids[draw & ~forbidden[vids]]
        forbidden[newly] = True
        patches.append(Patch(index=len(patches), center=center, vertex_ids=vids, chart=chart, forbade=newly))

    return PatchSet(
        patches=patches,
        radius_frac=float(radius_frac),
        forbid_prob=float(forbid_prob),
        radius=float(radius),
        seed=int(seed),
        n_vertices=nv,
        n_faces=nf,
    )


# ---------------------------------------------------------------------------
# boundary distance and blending
# ---------------------------------------------------------------------------

def _dist_to_segments(pts: np.ndarray, a: np.ndarray, d: np.ndarray, len2: np.ndarray) -> np.ndarray:
    """Min distance of pts (M,2) to segments a + t*d per row; a/d are (M,E,2)."""
    diff = pts[:, None, :] - a
    t = np.einsum("med,med->me", diff, d) / len2
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[..., None] * d
    delta = pts[:, None, :] - proj
    return np.sqrt(np.einsum("med,med->me", delta, delta).min(axis=1))


def _point_in_polygon(poly: np.ndarray, q: np.ndarray) -> bool:
    """Even-odd crossing test."""
    x, y = q
    inside = False
    px = poly[:, 0]
    py = poly[:, 1]
    j = len(poly) - 1
    for i in range(len(poly)):
        if (py[i] > y) != (py[j] > y):
            xint = px[i] + (y - py[i]) * (px[j] - px[i]) / (py[j] - py[i])
            if x < xint:
                inside = not inside
        j = i
    return inside


def boundary_signed_distance(chart: DiskChart, uv) -> float:
    """Distance in chart 2D coordinates to the boundary polygon: negative inside,
    positive outside, zero on the boundary."""
    uv = np.asarray(uv, dtype=np.float64)
    poly = chart.uv[chart.boundary]
    a = poly
    d = np.roll(poly, -1, axis=0) - poly
    len2 = np.maximum(np.einsum("ed,ed->e", d, d), 1e-300)
    dist = float(_dist_to_segments(uv[None], a[None], d[None], len2[None])[0])
    if dist == 0.0:
        return 0.0
    return -dist if _point_in_polygon(poly, uv) else dist


def pair_boundary_distances(patchset: PatchSet, pair_patch: np.ndarray, pair_uv: np.ndarray) -> np.ndarray:
    """Distance to the owning patch's boundary polygon for many (patch, uv) pairs.

    The uv points are assumed to lie inside their patch charts (true for any point
    carried over from a member face), so this equals the magnitude of the signed
    boundary distance: each polygon is convex, hence the min over edge lines.

    The pairs are sorted by patch once, and each patch's rows are evaluated in
    blocks of _BLOCK_ROWS, so that the (rows, lines) distance block stays in cache.
    """
    pack = patchset.line_pack()
    pair_patch = np.asarray(pair_patch, dtype=np.int64)
    if len(pair_patch) and not 0 <= pair_patch.min() <= pair_patch.max() < len(pack):
        raise IndexError(f"patch id out of range [0, {len(pack)})")
    bounds, order = _group_by(pair_patch, len(pack))
    uv = np.asarray(pair_uv, dtype=np.float64).reshape(-1, 2)[order]
    res = np.empty(len(order))
    for (w, c), lo, hi in zip(pack, bounds[:-1].tolist(), bounds[1:].tolist()):
        s = lo
        while s < hi:
            # NumPy sends a one-row product through GEMV, which rounds differently
            # from GEMM: fold a one-row tail into its block, and run a patch's lone
            # row as two, so a distance does not depend on how the pairs are split
            e = hi if s + _BLOCK_ROWS >= hi - 1 else s + _BLOCK_ROWS
            d = (uv[s:e] if e - s > 1 else uv[[s, s]]) @ w
            d -= c
            res[s:e] = d.min(axis=1)[:e - s]
            s = e
    out = np.empty_like(res)
    out[order] = res
    return np.maximum(out, 0.0)


def normalize_pair_weights(raw: np.ndarray, pair_sample: np.ndarray, n_samples: int) -> np.ndarray:
    """Per-sample weight normalization with the uniform all-boundary fallback."""
    sums = np.bincount(pair_sample, weights=raw, minlength=n_samples)
    counts = np.bincount(pair_sample, minlength=n_samples)
    if (counts == 0).any():
        raise CoverageError("sample with no covering patch")
    s = sums[pair_sample]
    fallback = s <= 0.0
    w = np.where(fallback, 1.0 / counts[pair_sample], raw / np.where(s > 0, s, 1.0))
    return w


def face_pairs(patchset: PatchSet, faces: np.ndarray, bary: np.ndarray):
    """Pair arrays (sample id, patch id, local uv, normalized weight) for samples
    given as parent-mesh faces (N,) and barycentric weights (N,3).

    Pairs are grouped by sample in ascending order, each group in face_cover order.
    """
    offsets, table_patch, table_uv = patchset.face_pair_table()
    faces = np.asarray(faces, dtype=np.int64)
    counts = offsets[faces + 1] - offsets[faces]
    pair_sample = np.repeat(np.arange(len(faces)), counts)
    flat = _ranges(offsets[faces], counts)
    pair_patch = table_patch[flat]
    pair_uv = np.einsum("mk,mkd->md", bary[pair_sample], table_uv[flat])
    raw = pair_boundary_distances(patchset, pair_patch, pair_uv)
    pair_w = normalize_pair_weights(raw, pair_sample, len(faces))
    return pair_sample, pair_patch, pair_uv, pair_w


def pairs_for_points(patchset: PatchSet, global_chart: DiskChart, q):
    """face_pairs for global 2D points (N,2), or one point (2,); raises
    OutOfChartError if any point lies outside the global chart."""
    q = np.asarray(q, dtype=np.float64).reshape(-1, 2)
    tri, bary = global_chart.locate_many(q)
    if (tri < 0).any():
        raise OutOfChartError(f"point {q[np.argmax(tri < 0)]} is outside the global chart")
    faces = tri if global_chart.orig_face_ids is None else global_chart.orig_face_ids[tri]
    return face_pairs(patchset, faces, bary)


def blend_weights(patchset: PatchSet, global_chart: DiskChart, q) -> list[tuple[int, float]]:
    """Normalized blending weights [(patch, weight)] of the patches covering a global
    2D point, with zero-weight patches omitted (pairs_for_points keeps them)."""
    _, pair_patch, _, pair_w = pairs_for_points(patchset, global_chart, q)
    return [(int(p), float(w)) for p, w in zip(pair_patch, pair_w) if w > 0.0]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def patch_rows(patchset: PatchSet) -> list[dict]:
    """Per-patch diagnostic rows for the patches CSV."""
    cover_counts = np.diff(patchset.vertex_cover[0])
    rows = []
    for p in patchset.patches:
        scale, conformal = chart_distortion(p.chart)
        flips = int((p.chart.signed_areas() <= 0).sum())
        rows.append({
            "patch": p.index,
            "center": p.center,
            "vertices": len(p.vertex_ids),
            "faces": p.chart.n_faces,
            "flips": flips,
            "max_scale_distortion": float(np.max(scale)),
            "max_conformal_distortion": float(np.max(conformal)),
            "mean_overlap": float(cover_counts[p.vertex_ids].mean()),
        })
    return rows
