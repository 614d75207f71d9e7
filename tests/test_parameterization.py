import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from conftest import cover_of, dense_interior_uv, interior_system
from ncs import parameterization as par
from ncs import synth
from ncs.errors import NumericError, OutOfChartError, TopologyError
from ncs.geometry import TriMesh, normalize_unit_sphere
from ncs.parameterization import (ChartPoint, DiskChart, chart_distortion, chart_lift,
                                  check_disk_topology, embed_disk, global_to_local)


def annulus_mesh(n=12):
    """Ring strip with two boundary loops (not a disk)."""
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    inner = np.stack([0.5 * np.cos(t), 0.5 * np.sin(t), np.zeros(n)], axis=1)
    outer = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)
    v = np.concatenate([inner, outer])
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append((i, n + i, n + j))
        faces.append((i, n + j, j))
    return TriMesh(v, np.asarray(faces))


def torus_minus_face(n=4):
    """n x n torus grid with one face removed: one boundary loop, genus 1."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u, w = 2 * np.pi * i.ravel() / n, 2 * np.pi * j.ravel() / n
    v = np.stack([(2 + np.cos(w)) * np.cos(u), (2 + np.cos(w)) * np.sin(u), np.sin(w)], axis=1)
    vid = lambda a, b: (a % n) * n + b % n
    faces = []
    for a in range(n):
        for b in range(n):
            faces.append((vid(a, b), vid(a + 1, b), vid(a + 1, b + 1)))
            faces.append((vid(a, b), vid(a + 1, b + 1), vid(a, b + 1)))
    return v, np.asarray(faces[1:])


SQUARE = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
# each case: embed_disk's arguments and the full TopologyError message
TOPOLOGY_CASES = {
    "closed": (lambda: (synth.icosphere(1),), "closed surface (no boundary): not a disk"),
    "annulus": (lambda: (annulus_mesh(),), "multiple boundary loops (2): not a disk"),
    "disconnected": (lambda: (np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 0], [6, 5, 0], [5, 6, 0]]),
                              np.array([[0, 1, 2], [3, 4, 5]])),
                     "submesh is not edge-connected (2 components)"),
    "no_faces": (lambda: (SQUARE, np.zeros((0, 3), dtype=np.int64)), "no faces"),
    "isolated_vertex": (lambda: (SQUARE, np.array([[0, 1, 2]])),
                        "isolated vertex: not every vertex belongs to a face"),
    # two triangles sharing only vertex 0: connected, but 0 starts two boundary edges
    "bowtie": (lambda: (np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]]),
                        np.array([[0, 1, 2], [0, 3, 4]])),
               "non-manifold boundary (branching boundary vertex)"),
    "torus_minus_face": (torus_minus_face, "genus > 0 (Euler characteristic -1): not a disk"),
    # face (1,2,3) listed twice with opposite winding: the walk 0 -> 1 finds no
    # boundary edge leaving 1
    "doubled_face": (lambda: (SQUARE, np.array([[0, 1, 2], [1, 3, 2], [1, 2, 3]])),
                     "non-manifold boundary (boundary vertex with no outgoing boundary edge)"),
    # edge 1-4 shared by three faces: the walk from 0 comes back to 4
    "three_faces_on_edge": (lambda: (np.random.default_rng(0).normal(size=(5, 3)),
                                     np.array([[1, 4, 0], [2, 4, 3], [3, 4, 1], [2, 1, 4]])),
                            "boundary walk revisited a vertex (non-manifold)"),
}


class TestTopology:
    @pytest.mark.parametrize("case", list(TOPOLOGY_CASES))
    def test_rejected_with_message(self, case):
        make, message = TOPOLOGY_CASES[case]
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            embed_disk(*make())

    def test_disk_boundary_loop(self):
        mesh = synth.plane(4)
        loop = check_disk_topology(mesh.faces.astype(np.int64), mesh.n_vertices)
        assert len(loop) == 12  # perimeter of a 4x4 grid


class TestEmbedDisk:
    def test_symmetric_interior_maps_to_origin(self):
        # square pyramid: 4 boundary vertices at equal arc length, apex interior
        v = np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 0.7]])
        f = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
        chart = embed_disk(v, f)
        apex_uv = chart.uv[4]
        np.testing.assert_allclose(apex_uv, [0, 0], atol=1e-12)
        assert np.abs(np.linalg.norm(chart.uv[chart.boundary], axis=1) - 1).max() < 1e-12

    def test_planar_grid_injective(self):
        mesh = normalize_unit_sphere(synth.plane(10))
        chart = embed_disk(mesh)
        areas = chart.signed_areas()
        assert (areas > 0).all()
        scale, conformal = chart_distortion(chart)
        assert np.isfinite(conformal).all()

    def test_corpus_zero_flips(self):
        for mesh in (synth.bumpy_plane(24), synth.saddle(20)):
            chart = embed_disk(normalize_unit_sphere(mesh))
            assert (chart.signed_areas() > 0).all()

    def test_clockwise_input_mirrored(self):
        mesh = synth.plane(5)
        flipped = TriMesh(mesh.vertices, mesh.faces[:, ::-1].copy())
        chart = embed_disk(flipped)
        assert (chart.signed_areas() > 0).all()


class TestSolveInterior:
    def test_matches_dense_solve(self, bumpy16):
        _, chart, patchset, _ = bumpy16
        for c in (chart, patchset.patches[0].chart):
            interior, uv = dense_interior_uv(c)
            sol = par._solve_interior(*interior_system(c))
            np.testing.assert_allclose(sol, uv, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c.uv[interior], uv, rtol=0, atol=1e-12)

    def test_repeat_calls_same_bytes(self, bumpy16):
        args = interior_system(bumpy16[1])
        assert par._solve_interior(*args).tobytes() == par._solve_interior(*args).tobytes()

    def test_singular_system_raises_numeric_error(self):
        # boundary square 0-3 around interior vertex 4; interior vertex 5 is a
        # neighbour of 4 but has an empty weight row of its own
        rows = [4, 4, 4, 4, 4, 0, 1, 2, 3]
        cols = [0, 1, 2, 3, 5, 4, 4, 4, 4]
        w = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(6, 6))
        t = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
        boundary_uv = np.stack([np.cos(t), np.sin(t)], axis=1)
        with pytest.raises(NumericError, match="singular"):
            par._solve_interior(w, np.array([4, 5]), boundary_uv, np.arange(4), 6)

    def test_uv_bytes_independent_of_blas_threads(self):
        # BLAS reads its thread count when NumPy loads, so each count gets its own
        # interpreter; bumpy_plane(200) is large enough for BLAS to thread
        code = ("import hashlib; from ncs import geometry, parameterization, synth; "
                "mesh = geometry.normalize_unit_sphere(synth.bumpy_plane(200)); "
                "print(hashlib.sha256(parameterization.embed_disk(mesh).uv.tobytes()).hexdigest())")
        env = dict(os.environ, PYTHONPATH=str(Path(par.__file__).resolve().parents[1]))
        digests = {subprocess.run([sys.executable, "-c", code], env=dict(env, OPENBLAS_NUM_THREADS=n),
                                  capture_output=True, text=True, check=True).stdout
                   for n in ("1", "2")}
        assert len(digests) == 1


@pytest.fixture(scope="module")
def chart():
    return embed_disk(normalize_unit_sphere(synth.saddle(8)))


class TestChartLift:
    def test_vertex_lift(self, chart):
        for vid in (0, 17, 40):
            np.testing.assert_allclose(chart_lift(chart, chart.uv[vid]),
                                       chart.points3d[vid], atol=1e-9)

    def test_centroid_lift(self, chart):
        tri = chart.faces[10]
        q = chart.uv[tri].mean(axis=0)
        np.testing.assert_allclose(chart_lift(chart, q), chart.points3d[tri].mean(axis=0), atol=1e-9)

    def test_shared_edge_agreement(self, chart):
        # evaluate the same edge midpoint with both adjacent triangles' barycentric data
        edges = {}
        for fid, f in enumerate(chart.faces):
            for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                edges.setdefault((min(a, b), max(a, b)), []).append(fid)
        shared = next((k, v) for k, v in edges.items() if len(v) == 2)
        (va, vb), (f1, f2) = shared
        q = 0.5 * (chart.uv[va] + chart.uv[vb])
        lifts = []
        for fid in (f1, f2):
            tri = chart.faces[fid]
            bary = np.zeros(3)
            bary[list(tri).index(va)] = 0.5
            bary[list(tri).index(vb)] = 0.5
            lifts.append(chart_lift(chart, ChartPoint(q, fid, bary)))
        assert np.abs(lifts[0] - lifts[1]).max() < 1e-9

    def test_outside_error(self, chart):
        with pytest.raises(OutOfChartError):
            chart_lift(chart, np.array([2.0, 2.0]))

    def test_lipschitz_bound(self, chart):
        scale, conformal = chart_distortion(chart)
        # sigma1 = sqrt(scale * conformal)
        sigma1_max = float(np.sqrt(scale * conformal).max())
        rng = np.random.default_rng(0)
        pts = []
        while len(pts) < 40:
            q = rng.uniform(-0.7, 0.7, size=2)
            if chart.locate(q) is not None:
                pts.append(q)
        for i in range(0, 38, 2):
            a, b = pts[i], pts[i + 1]
            la, lb = chart_lift(chart, a), chart_lift(chart, b)
            assert np.linalg.norm(la - lb) <= sigma1_max * np.linalg.norm(a - b) * (1 + 1e-9)


def _locate_reference(chart, q):
    """First face in index order whose barycentric weights accept q, scanning every
    face: the bucket-grid-free reference for DiskChart.locate_many."""
    t = chart.uv[chart.faces]
    e1 = t[:, 1] - t[:, 0]
    e2 = t[:, 2] - t[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = q - t[:, 0]
    b1 = (e2[:, 1] / det) * d[:, 0] + (-e2[:, 0] / det) * d[:, 1]
    b2 = (-e1[:, 1] / det) * d[:, 0] + (e1[:, 0] / det) * d[:, 1]
    b0 = 1.0 - b1 - b2
    ok = np.flatnonzero((b0 >= -1e-9) & (b1 >= -1e-9) & (b2 >= -1e-9))
    if len(ok) == 0:
        return -1, np.zeros(3)
    f = ok[0]
    return f, np.array([b0[f], b1[f], b2[f]])


class TestLocateMany:
    def test_matches_reference_and_locate(self, bumpy16):
        _, chart, _, _ = bumpy16
        corners = chart.uv[chart.faces]
        xs = np.linspace(-1.05, 1.05, 23)
        q = np.concatenate([
            np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2),
            chart.uv,  # vertices: shared by up to six faces
            0.5 * (corners[:, 0] + corners[:, 1]),  # edge midpoints
            [[3.0, 0.0], [0.0, -1.5], [1.0, 1.0]],  # outside the disk
        ])
        tri, bary = chart.locate_many(q)
        assert (tri >= 0).any() and (tri < 0).any()
        for i, qi in enumerate(q):
            f, b = _locate_reference(chart, qi)
            assert tri[i] == f
            assert np.array_equal(bary[i], b)
            loc = chart.locate(qi)
            if f < 0:
                assert loc is None
            else:
                assert loc[0] == f and np.array_equal(loc[1], b)

    def test_chunks_do_not_change_results(self, bumpy16, monkeypatch):
        _, chart, _, _ = bumpy16
        q = np.random.default_rng(0).uniform(-1.0, 1.0, size=(500, 2))
        tri, bary = chart.locate_many(q)
        monkeypatch.setattr(par, "_LOCATE_CHUNK", 7)
        tri7, bary7 = chart.locate_many(q)
        assert np.array_equal(tri, tri7) and np.array_equal(bary, bary7)


@pytest.fixture(scope="module")
def setup(bumpy16):
    mesh, chart, patchset, _ = bumpy16
    return mesh, chart, patchset.patches[0]


class TestGlobalToLocal:
    def test_shared_vertex(self, setup):
        mesh, chart, patch = setup
        # pick a vertex interior to the patch (member of a patch face)
        vid = int(patch.chart.orig_vertex_ids[len(patch.chart.orig_vertex_ids) // 2])
        cp = global_to_local(chart, patch.chart, chart.uv[vid])
        if cp is not None:  # located global face must belong to the patch
            lifted = chart_lift(patch.chart, cp)
            np.testing.assert_allclose(lifted, mesh.vertices[vid], atol=1e-9)

    def test_face_of_orig(self, setup):
        mesh, _, patch = setup
        ids = patch.chart.orig_face_ids
        assert [patch.chart.face_of_orig(o) for o in ids] == list(range(len(ids)))
        assert patch.chart.face_of_orig(mesh.n_faces) is None

    def test_centroid_of_shared_triangle(self, setup):
        mesh, chart, patch = setup
        orig_f = int(patch.chart.orig_face_ids[0])
        tri = mesh.faces[orig_f]
        q = chart.uv[tri].mean(axis=0)
        cp = global_to_local(chart, patch.chart, q)
        assert cp is not None
        local_tri = patch.chart.faces[cp.tri]
        np.testing.assert_allclose(cp.uv, cp.bary @ patch.chart.uv[local_tri], atol=1e-12)

    def test_lift_agreement_exact(self, bumpy16):
        mesh, chart, patchset, _ = bumpy16
        rng = np.random.default_rng(5)
        checked = 0
        tries = 0
        while checked < 1000 and tries < 20000:
            tries += 1
            q = rng.uniform(-1, 1, size=2)
            loc = chart.locate(q)
            if loc is None:
                continue
            for pid in cover_of(patchset.face_cover, loc[0]):
                cp = global_to_local(chart, patchset.patches[pid].chart, q)
                assert cp is not None
                a = chart_lift(chart, ChartPoint(q, loc[0], loc[1]))
                b = chart_lift(patchset.patches[pid].chart, cp)
                assert np.array_equal(a, b)  # identical barycentric data: bitwise equal
                checked += 1
        assert checked >= 1000

    def test_not_in_patch_signal(self, bumpy16):
        mesh, chart, patchset, _ = bumpy16
        patch = patchset.patches[0]
        outside = [f for f in range(mesh.n_faces) if patch.chart.face_of_orig(f) is None]
        tri = mesh.faces[outside[0]]
        q = chart.uv[tri].mean(axis=0)
        assert global_to_local(chart, patch.chart, q) is None


class TestDistortion:
    def test_isometric_identity(self):
        # chart whose 2D coordinates equal its planar 3D coordinates
        mesh = synth.plane(5)
        uv = mesh.vertices[:, :2] * 0.9
        pts = np.concatenate([uv, np.zeros((len(uv), 1))], axis=1)
        chart = DiskChart(pts, mesh.faces, uv, np.array([0]))
        scale, conformal = chart_distortion(chart)
        np.testing.assert_allclose(scale, 1.0, atol=1e-9)
        np.testing.assert_allclose(conformal, 1.0, atol=1e-9)

    def test_uniform_shrink(self):
        mesh = synth.plane(4)
        uv = mesh.vertices[:, :2] * 0.5  # 2x shrink in 2D = 2x stretch of the lift
        chart = DiskChart(mesh.vertices, mesh.faces, uv, np.array([0]))
        scale, conformal = chart_distortion(chart)
        np.testing.assert_allclose(scale, 4.0, atol=1e-9)
        np.testing.assert_allclose(conformal, 1.0, atol=1e-9)

    def test_anisotropic_stretch(self):
        mesh = synth.plane(4)
        uv = mesh.vertices[:, :2].copy()
        uv[:, 0] *= 0.5  # the 2D->3D map becomes diag(2, 1)
        chart = DiskChart(mesh.vertices, mesh.faces, uv, np.array([0]))
        scale, conformal = chart_distortion(chart)
        np.testing.assert_allclose(conformal, 2.0, atol=1e-9)
        np.testing.assert_allclose(scale, 2.0, atol=1e-9)

    def test_degenerate_flag(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        uv = np.array([[0.0, 0], [1, 0], [2, 0]])  # collapsed in 2D
        chart = DiskChart(pts, np.array([[0, 1, 2]]), uv, np.array([0]))
        scale, conformal = chart_distortion(chart)
        assert np.isinf(scale[0]) and np.isinf(conformal[0])
