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
one-point view. Distances come from each chart's inward edge lines
(`PatchSet.line_pack`), exact because the chart polygons are convex;
`boundary_signed_distance` is the polygon reference they are tested against.

A PatchSet is built from its patches alone: it derives `face_cover` and
`vertex_cover` (the patches holding each face and vertex, in ascending patch
order) from each chart's `orig_face_ids` and each patch's `vertex_ids`.
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
from .geometry import TriMesh, _ranges, edge_graph, mesh_edges, mesh_extent
from .parameterization import DiskChart, chart_distortion, embed_disk

_MAX_SHRINKS = 3


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
    # per face / vertex: the ascending indices of the patches that hold it
    face_cover: list[np.ndarray] = field(init=False, repr=False, compare=False)
    vertex_cover: list[np.ndarray] = field(init=False, repr=False, compare=False)
    _line_pack: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _face_pairs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.face_cover = _cover([p.chart.orig_face_ids for p in self.patches], self.n_faces)
        self.vertex_cover = _cover([p.vertex_ids for p in self.patches], self.n_vertices)

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    def mean_overlap(self) -> float:
        return float(np.mean([len(c) for c in self.vertex_cover]))

    def overlap_histogram(self) -> dict[int, int]:
        counts = np.array([len(c) for c in self.vertex_cover])
        return {int(k): int((counts == k).sum()) for k in np.unique(counts)}

    def line_pack(self):
        """Padded inward edge-line data (nx, ny, c) per patch: for a point inside a
        patch's boundary polygon the distance to the polygon is min_e nx*x+ny*y-c.

        Boundary vertices sit on the unit circle in angular order, so the polygon is
        convex and the nearest boundary feature of an interior point is always the
        perpendicular foot on an edge; the edge-line distance is then exact.
        """
        if self._line_pack is None:
            polys = [p.chart.uv[p.chart.boundary] for p in self.patches]
            emax = max(len(b) for b in polys)
            n = len(polys)
            nx = np.zeros((n, emax))
            ny = np.zeros((n, emax))
            c = np.full((n, emax), -1e9)  # padded lines read as "very far inside"
            for i, poly in enumerate(polys):
                area2 = np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1])
                pts = poly if area2 > 0 else poly[::-1]
                d = np.roll(pts, -1, axis=0) - pts
                ln = np.maximum(np.linalg.norm(d, axis=1), 1e-300)
                # inward (left) normal of a counterclockwise polygon edge
                nxi = -d[:, 1] / ln
                nyi = d[:, 0] / ln
                nx[i, : len(pts)] = nxi
                ny[i, : len(pts)] = nyi
                c[i, : len(pts)] = nxi * pts[:, 0] + nyi * pts[:, 1]
            self._line_pack = (nx, ny, c)
        return self._line_pack

    def face_pair_table(self):
        """Per-face (patch, corner uv) pairs as CSR arrays (offsets (F+1,), patch (T,),
        uv (T,3,2)): face f's pairs are rows offsets[f]:offsets[f + 1], in face_cover
        order, and uv holds the patch-chart uv of the face's three corners."""
        if self._face_pairs is None:
            counts = np.array([len(c) for c in self.face_cover], dtype=np.int64)
            if (counts == 0).any():
                raise CoverageError(f"face {int(np.argmin(counts))} is covered by no patch")
            offsets = np.concatenate([[0], np.cumsum(counts)])
            pair_patch = np.concatenate(self.face_cover)
            pair_face = np.repeat(np.arange(self.n_faces), counts)
            # every patch face as one sorted key (orig face, patch) -> its corner uv
            charts = [p.chart for p in self.patches]
            keys = np.concatenate([c.orig_face_ids * self.n_patches + i for i, c in enumerate(charts)])
            corner_uv = np.concatenate([c.uv[c.faces] for c in charts])
            order = np.argsort(keys)
            keys = keys[order]
            want = pair_face * self.n_patches + pair_patch
            pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            if (keys[pos] != want).any():
                raise CoverageError("face_cover lists a patch that does not contain the face")
            self._face_pairs = (offsets, pair_patch, corner_uv[order[pos]])
        return self._face_pairs


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _group_by(keys: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr (n+1,), grouped values): row k holds the values whose key
    is k, in input order."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=n))])
    return indptr, values[np.argsort(keys, kind="stable")]


def _cover(members: list[np.ndarray], n: int) -> list[np.ndarray]:
    """For each element id in [0, n), the ascending indices of the member lists
    that hold it."""
    ids = np.concatenate([np.empty(0, dtype=np.int64), *members])
    owner = np.repeat(np.arange(len(members)), [len(m) for m in members])
    indptr, grouped = _group_by(ids, owner, n)
    # slicing: np.split costs three times as much for many short rows
    return [grouped[a:b] for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


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
    inc_ptr, inc_faces = _group_by(mesh.faces.ravel(), np.repeat(np.arange(nf), 3), nv)
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

    pset = PatchSet(
        patches=patches,
        radius_frac=float(radius_frac),
        forbid_prob=float(forbid_prob),
        radius=float(radius),
        seed=int(seed),
        n_vertices=nv,
        n_faces=nf,
    )
    if any(len(c) == 0 for c in pset.vertex_cover):
        raise CoverageError("internal: some vertex remained uncovered")
    return pset


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
    """
    nx, ny, c = patchset.line_pack()
    pair_uv = np.asarray(pair_uv, dtype=np.float64)
    pair_patch = np.asarray(pair_patch)
    out = np.empty(len(pair_patch))
    order = np.argsort(pair_patch, kind="stable")
    sorted_p = pair_patch[order]
    group_starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_p)) + 1, [len(sorted_p)]])
    for g in range(len(group_starts) - 1):
        rows = order[group_starts[g]:group_starts[g + 1]]
        pid = int(sorted_p[group_starts[g]])
        d = pair_uv[rows] @ np.stack([nx[pid], ny[pid]]) - c[pid]
        out[rows] = d.min(axis=1)
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
    cover_counts = np.array([len(c) for c in patchset.vertex_cover])
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
