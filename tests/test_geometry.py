import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ncs import synth
from ncs.errors import MeshError
from ncs.geometry import (TriMesh, chamfer_distance, edge_graph, export_mesh, face_areas,
                          load_mesh, normalize_unit_sphere,
                          sample_surface_arrays, vertex_geodesics)


def write(tmp_path, text, name="m.obj"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadMesh:
    def test_single_triangle(self, tmp_path):
        p = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        m = load_mesh(p)
        assert m.n_vertices == 3 and m.n_faces == 1

    def test_quad_fan_rule(self, tmp_path):
        p = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        m = load_mesh(p)
        assert m.n_faces == 2
        assert m.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_index_out_of_range(self, tmp_path):
        p = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n")
        with pytest.raises(MeshError, match=":4"):
            load_mesh(p)

    def test_empty_mesh(self, tmp_path):
        with pytest.raises(MeshError, match="empty"):
            load_mesh(write(tmp_path, "v 0 0 0\n"))

    def test_ignores_texcoords_and_normals(self, tmp_path):
        p = write(tmp_path, "v 0 0 0\nvt 0 0\nvn 0 0 1\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/1/1 3/1/1\n")
        m = load_mesh(p)
        assert m.n_vertices == 3 and m.n_faces == 1

    def test_negative_indices(self, tmp_path):
        p = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        assert load_mesh(p).faces.tolist() == [[0, 1, 2]]

    def test_drops_degenerate_faces(self, tmp_path):
        p = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n")
        assert load_mesh(p).n_faces == 1


class TestNormalize:
    def test_two_points(self):
        m = TriMesh(np.array([[0.0, 0, 0], [2.0, 0, 0]]), np.empty((0, 3), dtype=np.int64))
        out = normalize_unit_sphere(m)
        np.testing.assert_allclose(out.vertices, [[-1, 0, 0], [1, 0, 0]], atol=1e-12)

    def test_idempotent(self):
        m = normalize_unit_sphere(synth.saddle(12))
        again = normalize_unit_sphere(m)
        assert np.abs(again.vertices - m.vertices).max() < 1e-7

    def test_cube_corners(self):
        corners = np.array([[sx, sy, sz] for sx in (-3, 3) for sy in (-3, 3) for sz in (-3, 3)], float)
        m = TriMesh(corners, np.array([[0, 1, 2]]))
        out = normalize_unit_sphere(m)
        norms = np.linalg.norm(out.vertices, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)  # every corner ends on the sphere

    def test_degenerate(self):
        m = TriMesh(np.zeros((4, 3)), np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="degenerate"):
            normalize_unit_sphere(m)


class TestGeodesics:
    def test_collinear_path(self):
        m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), np.array([[0, 1, 2]]))
        d = vertex_geodesics(m, 0)
        np.testing.assert_allclose(d, [0, 1, 2])

    def test_source_distance_zero(self, bumpy16):
        mesh = bumpy16[0]
        assert vertex_geodesics(mesh, 5)[5] == 0.0

    def test_square_diagonal(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        m = TriMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))
        d = vertex_geodesics(m, 0)
        assert d[2] == pytest.approx(np.sqrt(2))  # diagonal beats the two unit edges

    def test_matches_floyd_warshall(self):
        mesh = normalize_unit_sphere(synth.saddle(5))  # 25 vertices
        g = edge_graph(mesh).toarray()
        n = len(g)
        dist = np.where(g > 0, g, np.inf)
        np.fill_diagonal(dist, 0.0)
        for k in range(n):
            dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
        for src in range(0, n, 3):
            np.testing.assert_allclose(vertex_geodesics(mesh, src), dist[src], atol=1e-12)

    def test_unreachable_inf(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5.0, 5, 0], [6, 5, 0], [5, 6, 0]])
        m = TriMesh(v, np.array([[0, 1, 2], [3, 4, 5]]))
        d = vertex_geodesics(m, 0)
        assert np.isinf(d[3])


class TestSampling:
    def test_single_triangle_inside(self):
        m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        pos, faces, bary = sample_surface_arrays(m, 1, seed=0)
        assert faces[0] == 0
        assert (bary[0] >= 0).all() and bary[0].sum() == pytest.approx(1.0)
        np.testing.assert_allclose(pos[0], bary[0] @ m.vertices, atol=1e-12)

    def test_area_weighting_binomial(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [-1, 0, 0], [0, -6, 0]])
        m = TriMesh(v, np.array([[0, 1, 2], [0, 3, 4]]))  # areas 1 and 3
        _, faces, _ = sample_surface_arrays(m, 40000, seed=2)
        count0 = int((faces == 0).sum())
        sigma = np.sqrt(40000 * 0.25 * 0.75)
        assert abs(count0 - 10000) < 3 * sigma

    def test_determinism(self, bumpy16):
        mesh = bumpy16[0]
        a = sample_surface_arrays(mesh, 500, seed=9)
        b = sample_surface_arrays(mesh, 500, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_chi_square_area_fractions(self, bumpy16):
        mesh = bumpy16[0]
        n = 100_000
        _, faces, _ = sample_surface_arrays(mesh, n, seed=4)
        areas = face_areas(mesh)
        expected = areas / areas.sum() * n
        observed = np.bincount(faces, minlength=mesh.n_faces)
        keep = expected >= 5
        stat = float((((observed - expected) ** 2) / expected)[keep].sum())
        dof = int(keep.sum()) - 1
        assert stat < chi2.ppf(0.999, dof)


class TestChamfer:
    def test_self_zero(self):
        a = np.random.default_rng(0).normal(size=(50, 3))
        assert chamfer_distance(a, a) == 0.0

    def test_single_pair(self):
        assert chamfer_distance([[0, 0, 0]], [[0.1, 0, 0]]) == pytest.approx(0.02)

    def test_two_point_means(self):
        a = [[0, 0, 0], [1, 0, 0]]
        b = [[0, 0, 0]]
        assert chamfer_distance(a, b) == pytest.approx(0.5)  # mean(0,1) + 0

    def test_translation_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(40, 3)) * 10  # well separated vs the shift below
        t = np.array([1e-3, 0, 0])
        assert chamfer_distance(a, a + t) == pytest.approx(2 * 1e-6, rel=1e-9)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            chamfer_distance(np.empty((0, 3)), [[0, 0, 0]])

    def test_kdtree_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2500, 3))
        b = rng.normal(size=(120, 3))
        from ncs.geometry import _nn_squared
        from scipy.spatial.distance import cdist
        np.testing.assert_allclose(_nn_squared(a, b), cdist(a, b, "sqeuclidean").min(axis=1), rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 1000))
    def test_symmetric_nonnegative(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(na, 3))
        b = rng.normal(size=(nb, 3))
        d1 = chamfer_distance(a, b)
        d2 = chamfer_distance(b, a)
        assert d1 == pytest.approx(d2)
        assert d1 >= 0


class TestExport:
    def test_round_trip_single_triangle(self, tmp_path):
        m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        export_mesh(m, tmp_path / "t.obj")
        r = load_mesh(tmp_path / "t.obj")
        np.testing.assert_allclose(r.vertices, m.vertices, atol=1e-12)
        assert np.array_equal(r.faces, m.faces)

    def test_empty_error(self, tmp_path):
        m = TriMesh(np.zeros((3, 3)), np.empty((0, 3), dtype=np.int64))
        with pytest.raises(MeshError):
            export_mesh(m, tmp_path / "e.obj")

    def test_large_round_trip(self, tmp_path):
        mesh = normalize_unit_sphere(synth.bumpy_plane(32))  # ~1000 vertices
        export_mesh(mesh, tmp_path / "big.obj")
        r = load_mesh(tmp_path / "big.obj")
        assert np.abs(r.vertices - mesh.vertices).max() < 1e-6
        assert np.array_equal(r.faces, mesh.faces)  # vertex order preserved


def test_non_manifold_warning(tmp_path, caplog):
    import logging
    # three faces sharing one edge
    obj = tmp_path / "nm.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 0 -1 0\n"
                   "f 1 2 3\nf 1 2 4\nf 1 2 5\n")
    with caplog.at_level(logging.WARNING):
        m = load_mesh(obj)
    assert m.n_faces == 3  # non-fatal
    assert any("non-manifold" in r.message for r in caplog.records)
