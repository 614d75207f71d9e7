import hashlib
from collections import Counter

import numpy as np
import pytest

from conftest import cover_of, dense_interior_uv
from ncs import synth
from ncs.errors import MeshError, OutOfChartError
from ncs.geometry import TriMesh, normalize_unit_sphere, sample_faces
from ncs.parameterization import DiskChart, embed_disk
from ncs.patching import (_BLOCK_ROWS, blend_weights, boundary_signed_distance, extract_patches,
                          face_pairs, normalize_pair_weights, pair_boundary_distances,
                          pairs_for_points, patch_rows)

# frozen after the first run; extraction must reproduce it exactly (determinism)
SPHERE_GOLDEN_PATCH_COUNT = 345
# frozen: sha256 of discrete_digest (everything but uv) for these extractions,
# recorded with the per-element Python cover and topology loops that the array code
# replaced, and kept when the covers became CSR arrays; any drift in the bytes,
# including the order within a face's cover, fails.
# uv moves by rounding with the solver, so it is checked against a dense solve
PATCHSET_GOLDEN_DIGESTS = {
    "saddle16": (lambda: synth.saddle(16), 0.3, 0.5, 7,
                 "dcf64455328c03cca7ada37f48e9d00fdc43344ad90f89e223532c088931cc93"),
    "bumpy20": (lambda: synth.bumpy_plane(20), 0.3, 1.0, 2,
                "86a1827049e26544733ea5c41d3ce12ebf0b85382887b74f44941aa17999e5d5"),
}


def discrete_digest(ps):
    """sha256 over each patch's center, vertex ids, chart faces, orig face ids,
    boundary and forbids, then each face's and each vertex's slice of the CSR
    covers; every array length-prefixed."""
    h = hashlib.sha256()

    def put(a, dtype):
        a = np.ascontiguousarray(a, dtype=dtype)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())

    for p in ps.patches:
        put([p.center], np.int64)
        put(p.vertex_ids, np.int64)
        put(p.chart.faces, np.int64)
        put(p.chart.orig_face_ids, np.int64)
        put(p.chart.boundary, np.int64)
        put(p.forbade, np.int64)
    for cover in (ps.face_cover, ps.vertex_cover):
        for k in range(len(cover[0]) - 1):
            put(cover_of(cover, k), np.int64)
    return h.hexdigest()


def regular_ngon_chart(n):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ring = np.stack([np.cos(t), np.sin(t)], axis=1)
    uv = np.concatenate([ring, [[0.0, 0.0]]])
    pts = np.concatenate([uv, np.zeros((n + 1, 1))], axis=1)
    faces = np.array([[i, (i + 1) % n, n] for i in range(n)])
    return DiskChart(pts, faces, uv, np.arange(n))


class TestExtraction:
    def test_tiny_mesh_single_patch(self):
        mesh = normalize_unit_sphere(synth.plane(4))
        ps = extract_patches(mesh, 3.0, 0.0, seed=0)
        assert ps.n_patches == 1
        assert (np.diff(ps.vertex_cover[0]) >= 1).all()

    def test_eta_one_coverage_and_disjoint_forbids(self):
        mesh = normalize_unit_sphere(synth.bumpy_plane(20))
        ps = extract_patches(mesh, 0.3, 1.0, seed=2)
        assert (np.diff(ps.vertex_cover[0]) >= 1).all()
        assert (np.diff(ps.face_cover[0]) >= 1).all()
        seen = set()
        for p in ps.patches:
            forb = set(p.forbade.tolist())
            assert not (forb & seen)
            seen |= forb

    def test_full_coverage_of_faces(self, bumpy16):
        mesh, _, patchset, _ = bumpy16
        assert (np.diff(patchset.face_cover[0]) >= 1).all()

    def test_determinism_bit_reproducible(self):
        mesh = normalize_unit_sphere(synth.saddle(16))
        a = extract_patches(mesh, 0.3, 0.5, seed=7)
        b = extract_patches(mesh, 0.3, 0.5, seed=7)
        assert a.n_patches == b.n_patches
        for pa, pb in zip(a.patches, b.patches):
            assert pa.center == pb.center
            assert np.array_equal(pa.vertex_ids, pb.vertex_ids)
            assert np.array_equal(pa.chart.uv, pb.chart.uv)
            assert np.array_equal(pa.forbade, pb.forbade)

    def test_sphere_golden_patch_count(self):
        mesh = normalize_unit_sphere(synth.icosphere(3))
        assert mesh.n_vertices == 642
        ps = extract_patches(mesh, 0.04, 0.5, seed=11)
        again = extract_patches(mesh, 0.04, 0.5, seed=11)
        assert ps.n_patches == again.n_patches
        assert ps.n_patches == SPHERE_GOLDEN_PATCH_COUNT
        # every patch chart is flip-free
        for p in ps.patches:
            assert (p.chart.signed_areas() > 0).all()

    @pytest.mark.parametrize("case", list(PATCHSET_GOLDEN_DIGESTS))
    def test_golden_digest(self, case):
        make, radius, forbid, seed, digest = PATCHSET_GOLDEN_DIGESTS[case]
        ps = extract_patches(normalize_unit_sphere(make()), radius, forbid, seed=seed)
        assert discrete_digest(ps) == digest
        for p in ps.patches:
            interior, uv = dense_interior_uv(p.chart)
            np.testing.assert_allclose(p.chart.uv[interior], uv, rtol=0, atol=1e-12)

    def test_isolated_vertex_error(self):
        v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]])
        mesh = TriMesh(v, np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="isolated"):
            extract_patches(mesh, 0.5, 0.5, seed=0)

    def test_bad_params(self, bumpy16):
        mesh = bumpy16[0]
        with pytest.raises(ValueError):
            extract_patches(mesh, -0.1, 0.5)
        with pytest.raises(ValueError):
            extract_patches(mesh, 0.2, 1.5)
        with pytest.raises(ValueError, match="radius"):
            extract_patches(mesh, float("nan"), 0.5)


class TestBoundaryDistance:
    def test_center_of_polygon(self):
        chart = regular_ngon_chart(16)
        d = boundary_signed_distance(chart, (0.0, 0.0))
        assert d == pytest.approx(-np.cos(np.pi / 16))  # apothem of the inscribed 16-gon

    def test_dense_polygon_approximates_circle(self):
        chart = regular_ngon_chart(512)
        assert boundary_signed_distance(chart, (0.0, 0.0)) == pytest.approx(-1.0, abs=1e-4)
        assert boundary_signed_distance(chart, (0.5, 0.0)) == pytest.approx(-0.5, abs=1e-4)

    def test_boundary_vertex_zero(self):
        chart = regular_ngon_chart(12)
        assert boundary_signed_distance(chart, chart.uv[3]) == 0.0

    def test_outside_positive(self):
        chart = regular_ngon_chart(12)
        assert boundary_signed_distance(chart, (2.0, 0.0)) > 0

    def test_continuity_across_boundary(self):
        chart = regular_ngon_chart(32)
        xs = np.linspace(0.8, 1.2, 200)
        vals = [boundary_signed_distance(chart, (x, 0.0)) for x in xs]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 2.5 * (xs[1] - xs[0])  # 1-Lipschitz up to polygon corners

    def test_line_pack_matches_signed_distance(self, bumpy16):
        _, _, patchset, _ = bumpy16
        rng = np.random.default_rng(0)
        for pid, patch in enumerate(patchset.patches):
            tri = patch.chart.faces[rng.integers(patch.chart.n_faces)]
            bary = rng.dirichlet(np.ones(3))
            uv = bary @ patch.chart.uv[tri]
            line = pair_boundary_distances(patchset, np.array([pid]), uv[None])[0]
            exact = -boundary_signed_distance(patch.chart, uv)
            assert line == pytest.approx(exact, abs=1e-12)


def member_points(chart, n, rng):
    """n random points in random member faces of a chart, in chart uv."""
    tri = chart.faces[rng.integers(chart.n_faces, size=n)]
    return np.einsum("mk,mkd->md", rng.dirichlet(np.ones(3), n), chart.uv[tri])


def per_patch_gemm_distances(patchset, pair_patch, pair_uv):
    """Reference: all of a patch's pairs against its lines in one GEMM."""
    out = np.empty(len(pair_patch))
    for pid, (w, c) in enumerate(patchset.line_pack()):
        rows = np.flatnonzero(pair_patch == pid)
        if len(rows):
            out[rows] = (pair_uv[rows] @ w - c).min(axis=1)
    return np.maximum(out, 0.0)


class TestBlockedDistances:
    """pair_boundary_distances evaluates each patch's rows in blocks of _BLOCK_ROWS."""

    @staticmethod
    def check(patchset, pair_patch, pair_uv):
        got = pair_boundary_distances(patchset, pair_patch, pair_uv)
        # chart uv lies in the unit disk, so every term is at most 1 in magnitude and
        # 2 ulp there bounds GEMM rounding differences between row tilings
        ref = per_patch_gemm_distances(patchset, pair_patch, pair_uv)
        np.testing.assert_allclose(got, ref, rtol=0, atol=2 * np.spacing(1.0))
        for pid, uv, d in zip(pair_patch, pair_uv, got):
            exact = -boundary_signed_distance(patchset.patches[pid].chart, uv)
            assert abs(d - exact) <= 1e-12

    def test_many_pairs_per_patch_shuffled(self, bumpy16):
        _, _, patchset, _ = bumpy16
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 3 * _BLOCK_ROWS, size=patchset.n_patches)
        pair_patch = np.repeat(np.arange(patchset.n_patches), counts)
        pair_uv = np.concatenate([member_points(p.chart, k, rng) for p, k in zip(patchset.patches, counts)])
        perm = rng.permutation(len(pair_patch))
        self.check(patchset, pair_patch[perm], pair_uv[perm])

    @pytest.mark.parametrize("rows", [3 * _BLOCK_ROWS + 37, 3 * _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS],
                             ids=["ragged_tail", "one_row_tail", "block_multiple"])
    def test_block_boundaries(self, bumpy16, rows):
        _, _, patchset, _ = bumpy16
        rng = np.random.default_rng(rows)
        pid = patchset.n_patches // 2
        others = rng.integers(patchset.n_patches, size=20)
        others = others[others != pid]
        pair_patch = np.concatenate([np.full(rows, pid), others])
        pair_uv = np.concatenate([member_points(patchset.patches[pid].chart, rows, rng),
                                  [member_points(patchset.patches[o].chart, 1, rng)[0] for o in others]])
        perm = rng.permutation(len(pair_patch))
        self.check(patchset, pair_patch[perm], pair_uv[perm])

    def test_lines_unpadded(self, bumpy16):
        _, _, patchset, _ = bumpy16
        pack = patchset.line_pack()
        assert len(pack) == patchset.n_patches
        for (w, c), patch in zip(pack, patchset.patches):
            e = len(patch.chart.boundary)
            assert w.shape == (2, e) and c.shape == (e,)
            np.testing.assert_allclose(np.hypot(w[0], w[1]), 1.0, rtol=1e-12)
            # every line is an edge of a polygon inscribed in the unit circle: no sentinel
            assert np.all(np.abs(c) <= 1.0 + 1e-12)

    def test_empty_input(self, bumpy16):
        _, chart, patchset, _ = bumpy16
        d = pair_boundary_distances(patchset, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        assert d.dtype == np.float64 and d.shape == (0,)
        for sample, patch, uv, w in (face_pairs(patchset, np.zeros(0, dtype=np.int64), np.zeros((0, 3))),
                                     pairs_for_points(patchset, chart, np.zeros((0, 2)))):
            assert sample.shape == patch.shape == w.shape == (0,) and uv.shape == (0, 2)
            assert sample.dtype == patch.dtype == np.int64
            assert uv.dtype == w.dtype == np.float64

    def test_patch_id_out_of_range(self, bumpy16):
        _, _, patchset, _ = bumpy16
        with pytest.raises(IndexError):
            pair_boundary_distances(patchset, np.array([patchset.n_patches]), np.zeros((1, 2)))


class TestSplitInvariance:
    """Evaluation builds its pairs a chunk of samples at a time, so a distance, and
    so every pair array, must not depend on how the samples are split."""

    @staticmethod
    def pieces(n, rng):
        # lone rows first (each piece holds one row of one patch), then ragged pieces
        # in which many patches keep a single row
        cuts = np.concatenate([np.arange(60), np.sort(rng.choice(np.arange(61, n), 40, replace=False)), [n]])
        return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))

    def test_distances_any_split(self, bumpy16):
        _, _, patchset, ctx = bumpy16
        rng = np.random.default_rng(8)
        _, pair_patch, pair_uv, _ = face_pairs(patchset, *sample_faces(ctx.area_cum, 1500, 8))
        whole = pair_boundary_distances(patchset, pair_patch, pair_uv)
        parts = [pair_boundary_distances(patchset, pair_patch[a:b], pair_uv[a:b])
                 for a, b in self.pieces(len(pair_patch), rng)]
        assert np.array_equal(np.concatenate(parts), whole)
        for pid, uv, d in zip(pair_patch[:200], pair_uv[:200], whole[:200]):
            assert abs(d + boundary_signed_distance(patchset.patches[pid].chart, uv)) <= 1e-12

    def test_face_pairs_any_split(self, bumpy16):
        _, _, patchset, ctx = bumpy16
        faces, bary = sample_faces(ctx.area_cum, 1500, 9)
        whole = face_pairs(patchset, faces, bary)
        pieces = self.pieces(len(faces), np.random.default_rng(9))
        parts = [face_pairs(patchset, faces[a:b], bary[a:b]) for a, b in pieces]
        # sample ids are local to their piece
        assert np.array_equal(np.concatenate([p[0] + a for p, (a, _) in zip(parts, pieces)]), whole[0])
        for k in (1, 2, 3):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), whole[k]), k


class TestBlendWeights:
    def test_single_patch_weight_one(self):
        mesh = normalize_unit_sphere(synth.plane(5))
        ps = extract_patches(mesh, 3.0, 0.0, seed=0)
        chart = embed_disk(mesh)
        out = blend_weights(ps, chart, (0.05, 0.05))
        assert out == [(0, 1.0)]

    def test_symmetric_overlap_half_half(self, two_strip):
        mesh, chart, patchset, n = two_strip
        # center of the overlap band, mid row: equidistant inside both strips
        vid = 4 * n + (n // 2)
        q = chart.uv[vid]
        out = dict(blend_weights(patchset, chart, q))
        assert set(out) == {0, 1}
        assert out[0] == pytest.approx(out[1], abs=1e-9)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)

    def test_all_boundary_fallback_uniform(self, two_strip):
        mesh, chart, patchset, n = two_strip
        # bottom-row vertex inside the overlap: on the rim of both strip charts
        vid = 4 * n + 0
        out = blend_weights(patchset, chart, chart.uv[vid])
        assert sorted(pid for pid, _ in out) == [0, 1]
        for _, w in out:
            assert w == pytest.approx(0.5, abs=1e-9)

    def test_partition_of_unity(self, bumpy16):
        mesh, chart, patchset, _ = bumpy16
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 500:
            q = rng.uniform(-1, 1, size=2)
            try:
                out = blend_weights(patchset, chart, q)
            except OutOfChartError:
                continue
            assert abs(sum(w for _, w in out) - 1.0) < 1e-9
            checked += 1

    def test_every_vertex_covered(self, bumpy16):
        mesh, chart, patchset, _ = bumpy16
        for vid in range(mesh.n_vertices):
            out = blend_weights(patchset, chart, chart.uv[vid])
            assert len(out) >= 1

    def test_weight_vanishes_at_patch_exit(self, bumpy16):
        mesh, chart, patchset, _ = bumpy16
        patch = patchset.patches[0]
        inside = mesh.faces[patch.chart.orig_face_ids[0]]
        q0 = chart.uv[inside].mean(axis=0)
        outside_faces = [f for f in range(mesh.n_faces) if patch.chart.face_of_orig(f) is None]
        q1 = chart.uv[mesh.faces[outside_faces[0]]].mean(axis=0)
        ts = np.linspace(0, 1, 400)
        prev_w = None
        last_seen = None
        for t in ts:
            q = (1 - t) * q0 + t * q1
            try:
                w = dict(blend_weights(patchset, chart, q)).get(0, 0.0)
            except OutOfChartError:
                continue
            if w > 0:
                last_seen = w
            prev_w = w
        assert last_seen is not None

    def test_matches_vertex_batch(self, bumpy16):
        # blend_weights and vertex_batch share one weight rule. At a vertex on the rim
        # of every covering patch all distances are 0 up to float fuzz, and the two
        # paths' barycentric weights differ in the last bits, so there the fuzz
        # decides between uniform and one-patch weights; only validity is checked.
        from ncs.training import vertex_batch
        mesh, chart, patchset, ctx = bumpy16
        vb = vertex_batch(ctx)
        rim = [set(p.vertex_ids[p.chart.boundary].tolist()) for p in patchset.patches]
        n_rim = 0
        for vid in range(mesh.n_vertices):
            rows = vb.pair_sample == vid
            batched = {int(p): float(w) for p, w in zip(vb.pair_patch[rows], vb.pair_w[rows]) if w > 0}
            point = dict(blend_weights(patchset, chart, chart.uv[vid]))
            cover = set(cover_of(patchset.vertex_cover, vid).tolist())
            if all(vid in rim[pid] for pid in cover):
                n_rim += 1
                for w in (point, batched):
                    assert set(w) <= cover and sum(w.values()) == pytest.approx(1.0, abs=1e-6)
                continue
            for pid in set(point) | set(batched):
                assert point.get(pid, 0.0) == pytest.approx(batched.get(pid, 0.0), abs=1e-6), vid
        assert 0 < n_rim < mesh.n_vertices // 4

    def test_normalize_pair_weights_fallback(self):
        raw = np.array([0.0, 0.0, 0.2, 0.3])
        seg = np.array([0, 0, 1, 1])
        w = normalize_pair_weights(raw, seg, 2)
        np.testing.assert_allclose(w, [0.5, 0.5, 0.4, 0.6])


class TestContinuity:
    def test_weights_lipschitz_within_face(self, bumpy16):
        mesh, chart, patchset, _ = bumpy16
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.integers(mesh.n_faces)
            tri = mesh.faces[f]
            a = rng.dirichlet(np.ones(3)) @ chart.uv[tri]
            b = rng.dirichlet(np.ones(3)) @ chart.uv[tri]
            step = 1e-3
            ts = np.arange(0.0, 1.0 + step, step)
            prev = None
            seglen = np.linalg.norm(b - a)
            for t in ts:
                w = dict(blend_weights(patchset, chart, (1 - t) * a + t * b))
                if prev is not None:
                    keys = set(w) | set(prev)
                    jump = max(abs(w.get(k, 0.0) - prev.get(k, 0.0)) for k in keys)
                    # weights are smooth within a face: change is O(step)
                    assert jump < 100.0 * step * max(seglen, 1e-9) + 1e-9
                prev = w


class TestDiagnostics:
    def test_patch_rows(self, bumpy16):
        _, _, patchset, _ = bumpy16
        rows = patch_rows(patchset)
        assert len(rows) == patchset.n_patches
        for r in rows:
            assert r["flips"] == 0
            assert r["max_scale_distortion"] > 0
            assert r["max_conformal_distortion"] >= 1

    def test_more_patches_less_distortion(self):
        mesh = normalize_unit_sphere(synth.saddle(24, c=0.8))
        coarse = extract_patches(mesh, 0.8, 0.5, seed=5)
        fine = extract_patches(mesh, 0.25, 0.5, seed=5)
        assert fine.n_patches > coarse.n_patches
        worst = lambda ps: max(r["max_scale_distortion"] for r in patch_rows(ps))
        assert worst(fine) < worst(coarse)

    def test_overlap_histogram(self, bumpy16):
        _, _, patchset, _ = bumpy16
        hist = patchset.overlap_histogram()
        assert sum(hist.values()) == patchset.n_vertices
        assert patchset.mean_overlap() >= 1.0
        # against a count made from the patches' vertex lists alone
        counts = np.bincount(np.concatenate([p.vertex_ids for p in patchset.patches]),
                             minlength=patchset.n_vertices)
        assert hist == dict(Counter(counts.tolist()))
        assert patchset.mean_overlap() == counts.mean()
        for row, p in zip(patch_rows(patchset), patchset.patches, strict=True):
            assert row["mean_overlap"] == counts[p.vertex_ids].mean()


class TestCovers:
    @pytest.mark.parametrize("case", ["bumpy16", "two_strip"])
    def test_face_pair_table_matches_charts(self, case, request):
        # each pair's uv is its patch chart's corner uv of that face, and the table's
        # offsets and patch ids are the face cover, which lists exactly the patches
        # whose charts hold the face, ascending
        ps = request.getfixturevalue(case)[2]
        offsets, pair_patch, pair_uv = ps.face_pair_table()
        assert np.array_equal(offsets, ps.face_cover[0])
        assert np.array_equal(pair_patch, ps.face_cover[1])
        holders = [[] for _ in range(ps.n_faces)]
        for i, p in enumerate(ps.patches):
            for f in p.chart.orig_face_ids.tolist():
                holders[f].append(i)
        for f in range(ps.n_faces):
            assert cover_of(ps.face_cover, f).tolist() == holders[f]
            for r in range(offsets[f], offsets[f + 1]):
                chart = ps.patches[pair_patch[r]].chart
                assert np.array_equal(pair_uv[r], chart.uv[chart.faces[chart.face_of_orig(f)]])

    def test_manual_vertex_cover(self, two_strip):
        mesh, _, ps, n = two_strip
        col = np.arange(mesh.n_vertices) // n
        want = [[0] * (c <= 5) + [1] * (c >= 3) for c in col.tolist()]
        assert [cover_of(ps.vertex_cover, v).tolist() for v in range(mesh.n_vertices)] == want
