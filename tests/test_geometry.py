import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.stats import chi2

from ncs import synth
from ncs.errors import MeshError
from ncs.geometry import (TriMesh, _chamfer_tree, _nn_squared, chamfer_distance, edge_graph,
                          export_mesh, face_areas, load_mesh, normalize_unit_sphere,
                          sample_surface_arrays)
from ncs.patching import _dijkstra


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


class TestTriMesh:
    # 2**32 and 2**32 + 1 would wrap to 0 and 1 in an int32 cast before the check
    @pytest.mark.parametrize("bad", [2**32, 2**32 + 1, 2**63 - 1, 2**64, 3, -1])
    def test_face_index_out_of_range(self, bad):
        with pytest.raises(MeshError, match="^face index out of range$"):
            TriMesh(np.eye(3), [[bad, 1, 2]])


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


def edge_geodesics(mesh, source):
    """Edge-graph Dijkstra distances from `source`, as `extract_patches` computes them."""
    return _dijkstra(edge_graph(mesh), directed=False, indices=source)


class TestGeodesics:
    def test_collinear_path(self):
        m = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), np.array([[0, 1, 2]]))
        d = edge_geodesics(m, 0)
        np.testing.assert_allclose(d, [0, 1, 2])

    def test_source_distance_zero(self, bumpy16):
        mesh = bumpy16[0]
        assert edge_geodesics(mesh, 5)[5] == 0.0

    def test_square_diagonal(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        m = TriMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))
        d = edge_geodesics(m, 0)
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
            np.testing.assert_allclose(edge_geodesics(mesh, src), dist[src], atol=1e-12)

    def test_unreachable_inf(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5.0, 5, 0], [6, 5, 0], [5, 6, 0]])
        m = TriMesh(v, np.array([[0, 1, 2], [3, 4, 5]]))
        d = edge_geodesics(m, 0)
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

    @staticmethod
    def _check_both_ways(a, b):
        """Each direction's per-point squared distances equal the brute-force minimum."""
        ta, tb = _chamfer_tree(a), _chamfer_tree(b)
        np.testing.assert_allclose(_nn_squared(a, ta, tb), cdist(a, b, "sqeuclidean").min(axis=1),
                                   rtol=1e-12)
        np.testing.assert_allclose(_nn_squared(b, tb, ta), cdist(b, a, "sqeuclidean").min(axis=1),
                                   rtol=1e-12)

    def test_kdtree_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2500, 3))
        b = rng.normal(size=(120, 3))
        self._check_both_ways(a, b)

    @pytest.mark.parametrize("n", [1, 31, 32, 33])
    def test_sets_around_one_leaf(self, n):
        rng = np.random.default_rng(n)
        self._check_both_ways(rng.normal(size=(n, 3)), rng.normal(size=(200, 3)))

    def test_exact_ties(self):
        # every cell centre is equally far from its cell's 8 grid points
        grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        centres = grid[(grid < 5).all(axis=1)] + 0.5
        self._check_both_ways(centres, grid)
        ta, tg = _chamfer_tree(centres), _chamfer_tree(grid)
        d = _nn_squared(centres, ta, tg)
        assert (d == d[0]).all() and d[0] == pytest.approx(0.75, rel=1e-15)

    def test_duplicate_points(self):
        rng = np.random.default_rng(5)
        b = np.repeat(rng.normal(size=(40, 3)), 3, axis=0)
        a = np.concatenate([b[::7], rng.normal(size=(300, 3))])
        self._check_both_ways(a, b)

    def test_flat_grid_from_above(self):
        xy = np.stack(np.meshgrid(np.linspace(-1, 1, 50), np.linspace(-1, 1, 50)), axis=-1).reshape(-1, 2)
        flat = np.column_stack([xy, np.zeros(len(xy))])
        above = np.column_stack([np.random.default_rng(6).uniform(-1, 1, size=(500, 2)),
                                 np.full(500, 0.5)])
        self._check_both_ways(above, flat)

    @pytest.mark.parametrize("shift", [1e-3, 0.3], ids=["near", "far"])
    def test_same_float_as_sample_order_queries(self, shift):
        mesh = synth.bumpy_plane(64)
        a, _, _ = sample_surface_arrays(mesh, 20_000, 1)
        b, _, _ = sample_surface_arrays(mesh, 20_000, 2)
        b[:, 2] += shift
        da, _ = cKDTree(b).query(a)
        db, _ = cKDTree(a).query(b)
        want = float((da * da).mean() + (db * db).mean())
        assert chamfer_distance(a, b) == want
        assert chamfer_distance(a, b, workers=2) == want

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


# --- OBJ I/O against the line-by-line reader and writer it replaced --------------

def _oracle_obj_bytes(mesh):
    """The per-row f-string OBJ writer that export_mesh replaced."""
    lines = [f"v {x:.12g} {y:.12g} {z:.12g}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _oracle_load(path):
    """The line-by-line OBJ parser that load_mesh replaced: (vertices, faces)."""
    from ncs.geometry import _DEGENERATE_AREA, _areas_of
    verts, tris, tri_lines = [], [], []
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
                    idx.append(len(verts) + i if i < 0 else i - 1)
                if len(idx) < 3:
                    raise MeshError(f"{path}:{ln}: face needs at least 3 vertices")
                for k in range(1, len(idx) - 1):
                    tris.append((idx[0], idx[k], idx[k + 1]))
                    tri_lines.append(ln)
    if not verts or not tris:
        raise MeshError(f"{path}: empty mesh (no vertices or no faces)")
    v = np.asarray(verts, dtype=np.float64)
    f = np.asarray(tris, dtype=np.int64)
    bad = (f < 0) | (f >= len(v))
    if bad.any():
        ln = tri_lines[int(np.flatnonzero(bad.any(axis=1))[0])]
        raise MeshError(f"{path}:{ln}: face index out of range (have {len(v)} vertices)")
    f = f[_areas_of(v, f) > _DEGENERATE_AREA]
    if len(f) == 0:
        raise MeshError(f"{path}: all faces are degenerate")
    return v, f


def _assert_same_arrays(path):
    v, f = _oracle_load(path)
    m = load_mesh(path)
    assert np.array_equal(m.vertices.view(np.int64), v.view(np.int64))  # bit for bit, nan too
    assert np.array_equal(m.faces, f)
    return m


class TestExportBytes:
    def test_float32_derived_vertices(self, tmp_path):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(1000, 3)).astype(np.float32).astype(np.float64)
        m = TriMesh(v, rng.integers(0, 1000, size=(2000, 3)))
        export_mesh(m, tmp_path / "r.obj")
        assert (tmp_path / "r.obj").read_bytes() == _oracle_obj_bytes(m)

    def test_special_values(self, tmp_path):
        specials = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1e-300,
                    -1e-300, np.nan, np.inf, -np.inf, 0.1, 123456789012345.6, 1.0]
        m = TriMesh(np.array(specials * 3).reshape(-1, 3), [[0, 1, 2], [13, 12, 11]])
        export_mesh(m, tmp_path / "s.obj")
        assert (tmp_path / "s.obj").read_bytes() == _oracle_obj_bytes(m)

    def test_large_face_ids(self, tmp_path):
        m = TriMesh(np.eye(3), [[0, 1, 2]])
        # set after construction: a mesh with 2**31 vertices does not fit in a test
        m.faces = np.array([[715827883, 2**31 - 2, 1_000_000_000], [0, 1, 2]], dtype=np.int32)
        export_mesh(m, tmp_path / "l.obj")
        assert (tmp_path / "l.obj").read_bytes() == _oracle_obj_bytes(m)
        m.faces = np.array([[2**31 - 1, 0, 1]], dtype=np.int32)  # one past int32 once 1-based
        export_mesh(m, tmp_path / "l.obj")
        assert (tmp_path / "l.obj").read_bytes().endswith(b"\nf 2147483648 1 2\n")

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, tmp_path, delta):
        from ncs.geometry import _EXPORT_CHUNK_ROWS
        n = _EXPORT_CHUNK_ROWS + delta
        rng = np.random.default_rng(n)
        m = TriMesh(rng.random((n, 3)), rng.integers(0, n, size=(n, 3)))
        export_mesh(m, tmp_path / "c.obj")
        assert (tmp_path / "c.obj").read_bytes() == _oracle_obj_bytes(m)

    def test_failed_export_leaves_old_file(self, tmp_path, monkeypatch):
        import builtins

        from ncs import geometry
        path = tmp_path / "keep.obj"
        path.write_bytes(b"earlier\n")
        calls = []

        class FailingFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, s):
                calls.append(len(s))
                if len(calls) == 2:
                    raise OSError("disk full")
                return self.fh.write(s)

        monkeypatch.setattr(geometry, "open", lambda *a, **k: FailingFile(builtins.open(*a, **k)),
                            raising=False)
        monkeypatch.setattr(geometry, "_EXPORT_CHUNK_ROWS", 2)
        with pytest.raises(OSError, match="disk full"):
            export_mesh(synth.bumpy_plane(4), path)
        assert len(calls) == 2
        assert path.read_bytes() == b"earlier\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError, match="No such file or directory"):
            export_mesh(synth.bumpy_plane(4), tmp_path / "no_dir" / "x.obj")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(range(8)), min_size=1, max_size=12),
           st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=30),
           st.floats(-0.2, 0.2))
    def test_round_trip(self, tmp_path_factory, tri_ids, extra, shift):
        # a 3x3 lattice carries the faces (8 triangles, none degenerate); the extra
        # vertices, on no face, take any float value
        grid = np.array([[i, j, shift * i * j] for i in range(3) for j in range(3)], float)
        cells = [(a, a + 1, a + 4) for a in (0, 1, 3, 4)] + [(a, a + 4, a + 3) for a in (0, 1, 3, 4)]
        extra = extra[:len(extra) // 3 * 3]
        m = TriMesh(np.concatenate([grid.ravel(), extra]).reshape(-1, 3), [cells[k] for k in tri_ids])
        path = tmp_path_factory.mktemp("rt") / "m.obj"
        export_mesh(m, path)
        r = load_mesh(path)
        assert np.array_equal(r.faces, m.faces)
        expect = np.array([float("%.12g" % x) for x in m.vertices.ravel()]).reshape(-1, 3)
        assert np.array_equal(r.vertices, expect, equal_nan=True)


class TestLoadParity:
    QUAD = b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"

    @pytest.mark.parametrize("text", [
        QUAD + b"f 1 2 3 4\n",
        QUAD + b"v 2 0.5 0\nv 0.5 2 0.1\nf 1 2 5 3 6 4\nf 4 3 2\n",
        QUAD + b"f 1/1/1 2/2/2 3/3/3\nf 1//1 3//3 4//4\nf 1/4 3/3 4/2\n",
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 1 1 0\nf -3 -1 -2\nv 2 2 1\nf 1 -1 -2\n",
        b"# header\n\n   \nv 0 0 0\r\nv 1 0 0\r\n# mid\rv 0 1 0\r\n\tf\t1 2\t3 \r\n",
        b"v 0 0 0\rv 1 0 0\rv 0 1 0\rf 1 2 3\r",
        b"o obj\ng grp\ns 1\nusemtl m\nmtllib a.mtl\nv 0 0 0\nvt 0 0\nvn 0 0 1\nv 1 0 0\n"
        b"v 0 1 0\nvp 0.5\nl 1 2\nf 1/1/1 2/1/1 3/1/1\n",
        b"v 0 0 0 1\nv 1 0 0 1 0.5 0.5 0.5\nv 0 1 0 0.2 0.3 0.4\nf 1 2 3\n",
        b"v 1_0 +.5 -0\nv \xd9\xa1\xd9\xa2 1e-3 0\nv 0 \xef\xbc\x91 1E1\nf 1 2 3\n",
        b"v nan 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv inf -inf -nan\nf 2 3 4\n",
        b"v 0 0 0\x0cv 9 9 9\nv 1 0 0\xc2\x85\nv 0 1 0\xe2\x80\xa8x\nf 1 2 3\n",
        b"#\xff\xfe bad utf-8\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n",
        b"# \x00 \x01 f 1 2 9\nv 0 0 0 \x02\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    ], ids=["quad", "ngons", "slashes", "negative", "comments_crlf_tabs", "lone_cr",
            "other_records", "extra_components", "number_forms", "nan_inf", "other_breaks",
            "bad_utf8_degenerate", "control_chars"])
    def test_same_arrays(self, tmp_path, text):
        p = tmp_path / "p.obj"
        p.write_bytes(text)
        _assert_same_arrays(p)

    @pytest.mark.parametrize("text, line, message", [
        ("v 0 0 0\nv 1 0\n", 2, "vertex line needs 3 coordinates"),
        ("v 0 0 0\nv 1 x 0\n", 2, "bad vertex coordinate: could not convert string to float: 'x'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2/1 3a\n", 4, "bad face index '3a'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 /2/3 3\n", 4, "bad face index '/2/3'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", 4, "face needs at least 3 vertices"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2", 4, "face needs at least 3 vertices"),  # no final \n
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 4\n", 5,
         "face index out of range (have 3 vertices)"),
        ("v 0 0 0\nv 1 0 0\nf -3 1 2\nv 0 1 0\n", 3, "face index out of range (have 3 vertices)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", 4, "face index out of range (have 3 vertices)"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9223372036854775808\n", 4,
         "face index out of range (have 3 vertices)"),
        # the first bad line wins, whatever kind of error comes later
        ("v 0 0 y\nv 1 0 0\nv 0 1 0\nf 1 x\n", 1,
         "bad vertex coordinate: could not convert string to float: 'y'"),
        ("v 0 0 0\nf 1 q 3\nv z 0 0\n", 2, "bad face index 'q'"),
        ("v 0 0 0\nf 1 x\n", 2, "bad face index 'x'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf x 2 3\n", 5, "bad face index 'x'"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 7\nf 1 2\n", 5, "face needs at least 3 vertices"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 7\nv 1 2\n", 5, "vertex line needs 3 coordinates"),
        ("v 0 0 0\nf 1 2 3\nv 1 y 0\nf 1\n", 3,
         "bad vertex coordinate: could not convert string to float: 'y'"),
        # U+2028 would end a line for splitlines(), not for a file's lines
        ("# a\u2028b\r\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", 5,
         "face index out of range (have 3 vertices)"),
    ])
    def test_same_error(self, tmp_path, text, line, message):
        p = tmp_path / "e.obj"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(MeshError) as old:
            _oracle_load(p)
        with pytest.raises(MeshError) as new:
            load_mesh(p)
        assert str(new.value) == str(old.value) == f"{p}:{line}: {message}"

    @pytest.mark.parametrize("text", ["", "\n\n", "# nothing\n", "v 0 0 0\nv 1 0 0\n", "f 1 2 3\n",
                                      "v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n"])
    def test_same_whole_file_error(self, tmp_path, text):
        p = tmp_path / "w.obj"
        p.write_text(text)
        with pytest.raises(MeshError) as old:
            _oracle_load(p)
        with pytest.raises(MeshError) as new:
            load_mesh(p)
        assert str(new.value) == str(old.value)

    @staticmethod
    def _lines(num, idx, least):
        return st.lists(st.tuples(
            st.one_of(st.tuples(st.just("v"), st.lists(st.sampled_from(num), min_size=least, max_size=5)),
                      st.tuples(st.just("f"), st.lists(st.sampled_from(idx), min_size=least, max_size=5)),
                      st.tuples(st.sampled_from(["#", "", "vt", "o", "fx"]), st.lists(st.sampled_from(num), max_size=3))),
            st.sampled_from([" ", "\t", "  ", "\x0c", " \u2028 "]),
            st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=16)

    _NUM = ["0", "1", "-1", "0.5", "2", "-3e-1", "1_0", "+.5", "-0"]
    _IDX = ["1", "2", "3", "4", "-1", "-2", "-3", "1/1", "2//2", "3/3/3"]

    # well-formed files, and files with bad numbers, bad indices and short lines
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_lines(_NUM, _IDX, 3),
                     _lines(_NUM + ["nan", "x", "1e999"], _IDX + ["0", "9", "x", "/1"], 2)))
    def test_random_files(self, tmp_path_factory, lines):
        text = "".join(tag + sep + sep.join(toks) + end for (tag, toks), sep, end in lines)
        p = tmp_path_factory.mktemp("fz") / "z.obj"
        p.write_bytes(text.encode("utf-8"))
        try:
            v, f = _oracle_load(p)
        except MeshError as old:
            with pytest.raises(MeshError) as new:
                load_mesh(p)
            assert str(new.value) == str(old)
        else:
            m = load_mesh(p)
            assert np.array_equal(m.vertices.view(np.int64), v.view(np.int64))
            assert np.array_equal(m.faces, f)

    def test_index_beyond_int64_is_out_of_range(self, tmp_path):
        # the line parser overflowed converting its index list; the batch clips such
        # indices, and they stay out of range
        p = write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 -99999999999999999999\n"
                            "f 99999999999999999999 1 2\n")
        with pytest.raises(MeshError, match=r":5: face index out of range"):
            load_mesh(p)

    @pytest.mark.parametrize("n", [2, 64])
    def test_bumpy_plane(self, tmp_path, n):
        m = synth.bumpy_plane(n)
        export_mesh(m, tmp_path / "b.obj")
        r = _assert_same_arrays(tmp_path / "b.obj")
        assert np.array_equal(r.faces, m.faces)
