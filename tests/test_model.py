import dataclasses

import numpy as np
import pytest

from ncs import autodiff as ad, synth
from ncs import model as mo
from ncs import training as tr
from ncs.errors import AlignmentError, FrameDegenerateError
from ncs.geometry import normalize_unit_sphere, sample_faces
from ncs.parameterization import embed_disk
from ncs.patching import face_pairs

REFERENCE_100K = mo.ArchConfig()  # defaults: coarse 128-64-64, code 8x4x4, 8 ch, 5 blocks, fine 16-16


def identity_embedding_params(patchset=None, n_patches=2):
    """Coarse branch = exact identity embedding (q_u, q_v, 0): a single linear layer."""
    cfg = mo.ArchConfig(coarse_widths=(), code_shape=(2, 2, 2), cnn_channels=2,
                        cnn_blocks=1, fine_widths=(4,))
    n = patchset.n_patches if patchset is not None else n_patches
    coarse = [(ad.param(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.float32)),
               ad.param(np.zeros(3, dtype=np.float32)))]
    codes = ad.param(np.zeros((n, 2, 2, 2), dtype=np.float32))
    z = lambda *s: ad.param(np.zeros(s, dtype=np.float32))
    cnn = [(z(2, 2, 3, 3), z(2), z(2, 2, 3, 3), z(2))]
    fine = [(z(2, 4), z(4)), (z(4, 3), z(3))]
    return mo.ModelParams(cfg, coarse, codes, cnn, fine)


class TestArchConfig:
    def test_reference_param_counts(self):
        assert REFERENCE_100K.coarse_param_count() == 12995
        assert REFERENCE_100K.fine_param_count() == 467
        assert REFERENCE_100K.cnn_param_count() == 5840

    def test_code_count_formula(self):
        assert REFERENCE_100K.code_param_count(731) == 93568

    def test_grid_size(self):
        assert REFERENCE_100K.grid_size() == (128, 128)  # 4 * 2^5

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            mo.ArchConfig(code_shape=(6, 6, 6), cnn_channels=8)

    @pytest.mark.parametrize("channels, code", [(0, (0, 2, 2)), (2, (2, 0, 2)), (2, (2, 2, -1))])
    def test_empty_code_or_cnn_rejected(self, channels, code):
        with pytest.raises(ValueError, match="channels|code"):
            mo.ArchConfig(code_shape=code, cnn_channels=channels)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mo.ArchConfig(mode="sideways")


class TestBuildModel:
    def test_exact_accounting(self, bumpy16, small_arch):
        _, _, patchset, _ = bumpy16
        params = mo.build_model(small_arch, patchset, seed=0)
        counts = params.param_counts()
        assert counts["coarse"] == small_arch.coarse_param_count()
        assert counts["fine"] == small_arch.fine_param_count()
        assert counts["cnn"] == small_arch.cnn_param_count()
        assert counts["code"] == small_arch.code_param_count(patchset.n_patches)
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    def test_zero_patches_error(self, bumpy16):
        _, _, patchset, _ = bumpy16
        empty = dataclasses.replace(patchset, patches=[]) if dataclasses.is_dataclass(patchset) else None
        import copy
        ps = copy.copy(patchset)
        ps.patches = []
        with pytest.raises(ValueError):
            mo.build_model(mo.ArchConfig(), ps, seed=0)

    def test_fine_output_layer_zeroed(self, bumpy16, small_arch):
        _, _, patchset, _ = bumpy16
        params = mo.build_model(small_arch, patchset, seed=0)
        w, b = params.fine[-1]
        assert not w.data.any() and not b.data.any()

    def test_deterministic_init(self, bumpy16, small_arch):
        _, _, patchset, _ = bumpy16
        a = mo.build_model(small_arch, patchset, seed=4)
        b = mo.build_model(small_arch, patchset, seed=4)
        for ta, tb in zip(a.all_tensors(), b.all_tensors()):
            assert np.array_equal(ta.data, tb.data)


class TestCoarse:
    def test_zero_final_layer_outputs_bias(self, bumpy16, small_arch):
        _, _, patchset, _ = bumpy16
        params = mo.build_model(small_arch, patchset, seed=0)
        w, b = params.coarse[-1]
        w.data[:] = 0
        b.data[:] = np.array([0.1, -0.2, 0.3], dtype=np.float32)
        out = mo.coarse_forward(params, (0.3, 0.4))
        np.testing.assert_allclose(out, [0.1, -0.2, 0.3], atol=1e-7)

    def test_determinism(self, fitted_small):
        q = (0.21, -0.4)
        assert np.array_equal(mo.coarse_forward(fitted_small, q), mo.coarse_forward(fitted_small, q))

    def test_identity_jacobian(self):
        params = identity_embedding_params()
        j = mo.coarse_jacobian(params, (0.2, 0.1))
        np.testing.assert_allclose(j, [[1, 0], [0, 1], [0, 0]], atol=0)

    def test_constant_map_zero_jacobian(self):
        params = identity_embedding_params()
        params.coarse[0][0].data[:] = 0
        j = mo.coarse_jacobian(params, (0.2, 0.1))
        assert not j.any()

    def test_jacobian_matches_finite_differences(self, fitted_small):
        # 64-bit copy of the coarse branch so central differences are clean
        p64 = mo.ModelParams(
            fitted_small.config,
            [(ad.param(w.data.astype(np.float64)), ad.param(b.data.astype(np.float64)))
             for w, b in fitted_small.coarse],
            fitted_small.codes, fitted_small.cnn, fitted_small.fine)
        rng = np.random.default_rng(2)
        eps = 1e-5
        for _ in range(5):
            q = rng.uniform(-0.5, 0.5, size=2)
            j = mo.coarse_jacobian(p64, q)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = eps
                fd = (mo.coarse_forward(p64, q + e) - mo.coarse_forward(p64, q - e)) / (2 * eps)
                rel = np.abs(fd - j[:, axis]).max() / max(np.abs(j[:, axis]).max(), 1e-3)
                assert rel < 1e-4


class TestFrames:
    def test_identity_frame(self):
        params = identity_embedding_params()
        f = mo.local_frame(params, (0.0, 0.0))
        expect = np.stack([[0, 0, 1], [1, 0, 0], [0, 1, 0]], axis=1)
        np.testing.assert_allclose(f, expect, atol=1e-12)

    def test_orthonormal_on_fitted(self, fitted_small):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = rng.uniform(-0.6, 0.6, size=2)
            f = mo.local_frame(fitted_small, q)
            assert np.abs(f.T @ f - np.eye(3)).max() < 1e-4
            assert np.linalg.det(f) > 0

    def test_rotation_equivariance(self, fitted_small):
        from scipy.spatial.transform import Rotation
        r = Rotation.from_rotvec([0.3, -0.5, 0.8]).as_matrix()
        rotated = mo.ModelParams(
            fitted_small.config,
            [(w, b) for w, b in fitted_small.coarse[:-1]]
            + [(ad.param((fitted_small.coarse[-1][0].data @ r.astype(np.float32))),
                ad.param((fitted_small.coarse[-1][1].data @ r.astype(np.float32))))],
            fitted_small.codes, fitted_small.cnn, fitted_small.fine)
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.uniform(-0.5, 0.5, size=2)
            fa = mo.local_frame(fitted_small, q)
            fb = mo.local_frame(rotated, q)
            # rotating the coarse map by R rotates the frame columns by R^T here
            # because x @ (W R) = (x @ W) R applies R on the right of row vectors
            np.testing.assert_allclose(fb, r.T @ fa, atol=2e-4)

    def test_frame_fallback_reuses_previous_valid_row(self):
        rng = np.random.default_rng(4)
        ju, jv = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        ju[[0, 3]] = 0.0  # degenerate rows: the first has no previous valid row
        ju0, jv0 = ju.copy(), jv.copy()
        frame, fallbacks = mo._frame(ad.const(ju), ad.const(jv), "fallback")
        assert fallbacks == 2
        assert np.array_equal(ju, ju0) and np.array_equal(jv, jv0)  # the caller's arrays are untouched
        for f in frame:
            assert np.array_equal(f.data[0], f.data[1]) and np.array_equal(f.data[3], f.data[2])
        want, _ = mo._frame(ad.const(ju[[1, 1, 2, 2, 4]]), ad.const(jv[[1, 1, 2, 2, 4]]))
        for f, w in zip(frame, want):
            assert np.array_equal(f.data, w.data)
        for policy in ("raise", "fallback"):
            with pytest.raises(FrameDegenerateError) as e, ad.Tape():
                mo._frame(ad.const(ju), ad.const(jv), policy)
            assert e.value.mask.tolist() == [True, False, False, True, False]

    def test_degenerate_error(self):
        params = identity_embedding_params()
        params.coarse[0][0].data[:] = 0  # constant map: rank-0 Jacobian
        with pytest.raises(FrameDegenerateError):
            mo.local_frame(params, (0.0, 0.0))


class TestFineBranch:
    def test_decode_grid_size(self, bumpy16, small_arch):
        _, _, patchset, _ = bumpy16
        params = mo.build_model(small_arch, patchset, seed=0)
        grids = mo.decode_grids(params)
        h0, w0 = small_arch.code_shape[1:]
        factor = 2 ** small_arch.cnn_blocks
        assert grids.shape == (patchset.n_patches, small_arch.cnn_channels, h0 * factor, w0 * factor)

    def test_zero_output_layer_zero_displacement(self, bumpy16, small_arch):
        mesh, chart, patchset, _ = bumpy16
        params = mo.build_model(small_arch, patchset, seed=0)
        d = mo.fine_forward(params, patchset, chart, (0.1, 0.2))
        assert not d.any()

    def test_single_patch_no_blending(self):
        mesh = normalize_unit_sphere(synth.plane(5))
        from ncs.patching import extract_patches
        ps = extract_patches(mesh, 3.0, 0.0, seed=0)
        assert ps.n_patches == 1
        chart = embed_disk(mesh)
        cfg = mo.ArchConfig(coarse_widths=(8,), code_shape=(2, 2, 2), cnn_channels=2,
                            cnn_blocks=1, fine_widths=(4,))
        params = mo.build_model(cfg, ps, seed=1)
        params.fine[-1][0].data[:] = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)
        d = mo.fine_forward(params, ps, chart, (0.1, 0.2))
        # weight 1.0 on the only patch: displacement equals the raw patch evaluation
        grids = mo.decode_grids(params)
        from ncs.parameterization import global_to_local
        cp = global_to_local(chart, ps.patches[0].chart, np.array([0.1, 0.2]))
        feats = ad.grid_sample(grids, np.array([0]), cp.uv[None].astype(np.float32))
        out = mo._fine_mlp(params, feats)
        np.testing.assert_allclose(d, out.data[0], atol=1e-7)


def _as_dtype(params, dtype):
    """A copy of the model with every tensor cast to dtype (float64 for the oracles)."""
    cast = lambda t: ad.param(t.data.astype(dtype))
    return mo.ModelParams(params.config, [(cast(w), cast(b)) for w, b in params.coarse],
                          cast(params.codes), [tuple(cast(t) for t in blk) for blk in params.cnn],
                          [(cast(w), cast(b)) for w, b in params.fine])


def _spy_restricted(monkeypatch):
    """Record the calls of ad.residual_block_at made through the model: one entry per
    call, its number of lookups."""
    calls = []
    real = ad.residual_block_at

    def spy(*args):
        calls.append(len(args[-2]))
        return real(*args)

    monkeypatch.setattr(ad, "residual_block_at", spy)
    return calls


class TestRestrictedDecode:
    """Without decoded grids, the fine branch runs the last CNN block only in each
    lookup's 4x4 window, when those windows hold no more pixels than the decoded
    grids; it matches the dense decode followed by grid_sample."""

    TOL = {np.float32: 1e-5, np.float64: 1e-12}  # relative to the oracle's max |value|

    @staticmethod
    def _displacement(params, batch, dense):
        """Fine displacement and the gradients of sum(d * v) over codes and the CNN."""
        leaves = [params.codes] + [t for blk in params.cnn for t in blk]
        v = np.random.default_rng(0).normal(size=(len(batch), 3))
        with ad.Tape() as tape:
            grids = mo.decode_grids(params) if dense else None
            d = mo._fine_displacement(params, batch.pair_sample, batch.pair_patch, batch.pair_uv,
                                      batch.pair_w, len(batch), grids)
            loss = ad.reduce_sum(ad.mul(d, ad.const(v.astype(d.dtype))))
        return [d.data] + ad.backprop(tape, loss, leaves=leaves)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dense_decode(self, bumpy16, fitted_small, dtype, monkeypatch):
        _, _, patchset, ctx = bumpy16
        params = _as_dtype(fitted_small, dtype)
        batch = tr.sample_batch(ctx, 8, seed=3)
        untouched = sorted(set(range(patchset.n_patches)) - set(batch.pair_patch.tolist()))
        assert untouched  # a patch no sample touches
        calls = _spy_restricted(monkeypatch)
        got = self._displacement(params, batch, dense=False)
        assert calls == [len(batch.pair_patch)]
        want = self._displacement(params, batch, dense=True)
        assert len(calls) == 1
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.dtype == dtype
            assert float(np.abs(a - b).max()) <= self.TOL[dtype] * float(np.abs(b).max())
        assert not got[1][untouched].any()  # exactly zero codes gradient

    def test_finite_diff_through_forward_losses(self, bumpy16, fitted_small, monkeypatch):
        _, _, _, ctx = bumpy16
        params = _as_dtype(fitted_small, np.float64)
        assert params.fine[-1][0].data.any()  # a zero output layer would zero the CNN gradients
        batch = tr.sample_batch(ctx, 6, seed=2)
        flat = params.all_tensors()
        nc = 2 * len(params.coarse)
        probe = flat[nc:nc + 1 + 4 * len(params.cnn)]  # codes and every CNN tensor

        def loss(ps, scale=1.0):
            ts = flat[:nc] + list(ps) + flat[nc + len(ps):]
            it = iter(ts)
            p = mo.ModelParams(params.config, [(next(it), next(it)) for _ in params.coarse], next(it),
                               [tuple(next(it) for _ in range(4)) for _ in params.cnn],
                               [(next(it), next(it)) for _ in params.fine])
            lj, lr = tr.forward_losses(p, batch)
            return ad.scale(ad.add(lj, lr), 0.5 * scale)

        calls = _spy_restricted(monkeypatch)
        # scale the loss so the largest probed gradient is 1: the check's floor is absolute
        with ad.Tape() as tape:
            y = loss(probe)
        gmax = max(float(np.abs(g).max()) for g in ad.backprop(tape, y, leaves=probe))
        assert calls == [len(batch.pair_patch)]
        err = ad.finite_diff_check(lambda ps: loss(ps, 1.0 / gmax), probe, eps=1e-3, n_coords=200, seed=3)
        assert err < 1e-6


def _benchmark_problem(grid_n):
    """A benchmark mesh and its patches: bumpy_plane(grid_n), radius 0.25, forbid 0.5, seed 11."""
    from ncs.patching import extract_patches
    mesh = normalize_unit_sphere(synth.bumpy_plane(grid_n))
    chart = embed_disk(mesh)
    patchset = extract_patches(mesh, 0.25, 0.5, seed=11)
    return patchset, tr.build_context(mesh, chart, patchset)


@pytest.fixture(scope="module")
def bumpy64():
    """The desk and reference workloads' mesh and patches."""
    return _benchmark_problem(64)


@pytest.fixture(scope="module")
def bumpy200():
    """The large_mesh workload's mesh and patches."""
    return _benchmark_problem(200)


def _share(params, batch):
    """The restrict rule's share: window pixels 16*M over decoded pixels P*H*W."""
    h, w = params.config.grid_size()
    return 16 * len(batch.pair_patch) / (params.n_patches * h * w)


class TestRestrictRule:
    """The last block runs in the lookup windows exactly while 16*M <= P*H*W. With the
    benchmark's 2,048-sample batches desk and large_mesh keep the dense decode and
    reference takes the windows, each far from a share of 1."""

    DESK = mo.ArchConfig(coarse_widths=(32, 32), code_shape=(4, 4, 4), cnn_channels=4,
                         cnn_blocks=3, fine_widths=(16, 16))

    @pytest.mark.parametrize("workload,restricted", [("desk", False), ("reference", True),
                                                     ("large_mesh", False)])
    def test_path_on_benchmark_shapes(self, request, workload, restricted, monkeypatch):
        patchset, ctx = request.getfixturevalue("bumpy200" if workload == "large_mesh" else "bumpy64")
        cfg = REFERENCE_100K if workload == "reference" else self.DESK
        params = mo.build_model(cfg, patchset, seed=3)
        batch = tr.sample_batch(ctx, 2048, seed=0)
        share = _share(params, batch)
        assert (share < 0.5) if restricted else (share > 2)
        calls = _spy_restricted(monkeypatch)
        tr.forward_losses(params, batch)
        assert bool(calls) == restricted

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,restricted", [(640, True), (760, False)])
    def test_flips_at_share_one(self, bumpy64, n, restricted, dtype, monkeypatch):
        patchset, ctx = bumpy64
        params = _as_dtype(mo.build_model(self.DESK, patchset, seed=3), dtype)
        r = np.random.default_rng(1)  # a nonzero fine output layer, so the CNN gets gradients
        params.fine[-1][0].data[:] = r.normal(scale=0.3, size=params.fine[-1][0].shape)
        batch = tr.sample_batch(ctx, n, seed=0)
        share = _share(params, batch)
        assert (0.9 < share <= 1) if restricted else (1 < share < 1.15)
        calls = _spy_restricted(monkeypatch)
        got = TestRestrictedDecode._displacement(params, batch, dense=False)
        assert calls == ([len(batch.pair_patch)] if restricted else [])
        want = TestRestrictedDecode._displacement(params, batch, dense=True)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.dtype == dtype
            assert float(np.abs(a - b).max()) <= TestRestrictedDecode.TOL[dtype] * float(np.abs(b).max())


class TestDtypeBoundary:
    """The model rounds its inputs to its own dtype: float64 chart points and pair
    arrays, as `face_pairs` builds them, give the bytes of their float32 casts, on
    either side of the restrict rule."""

    @pytest.mark.parametrize("n,restricted", [(256, False), (2, True)])
    def test_float64_inputs_match_float32_casts(self, bumpy16, fitted_small, n, restricted,
                                                monkeypatch):
        _, _, patchset, ctx = bumpy16
        faces, bary = sample_faces(ctx.area_cum, n, 9)
        q = np.einsum("nk,nkd->nd", bary, ctx.face_uv[faces])
        ps, pp, puv, pw = face_pairs(patchset, faces, bary)
        assert q.dtype == puv.dtype == pw.dtype == np.float64
        h, w = fitted_small.config.grid_size()
        assert (16 * len(pp) <= patchset.n_patches * h * w) == restricted
        calls = _spy_restricted(monkeypatch)
        wide, _ = mo.evaluate_batch(fitted_small, q, ps, pp, puv, pw)
        assert bool(calls) == restricted
        narrow, _ = mo.evaluate_batch(fitted_small, q.astype(np.float32), ps, pp,
                                      puv.astype(np.float32), pw.astype(np.float32))
        assert wide.data.tobytes() == narrow.data.tobytes()


class TestEvaluate:
    def test_zero_fine_equals_coarse(self, bumpy16, small_arch):
        mesh, chart, patchset, _ = bumpy16
        params = mo.build_model(small_arch, patchset, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            vid = rng.integers(mesh.n_vertices)
            q = chart.uv[vid]
            assert np.array_equal(mo.evaluate(params, patchset, chart, q),
                                  mo.coarse_forward(params, q))

    def test_displacement_magnitude_preserved(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        rng = np.random.default_rng(1)
        for _ in range(20):
            vid = rng.integers(mesh.n_vertices)
            q = chart.uv[vid]
            full = mo.evaluate(fitted_small, patchset, chart, q)
            coarse = mo.coarse_forward(fitted_small, q)
            d = mo.fine_forward(fitted_small, patchset, chart, q)
            # the frame is orthonormal, so |evaluate - coarse| = |fine displacement|
            assert np.linalg.norm(full - coarse) == pytest.approx(np.linalg.norm(d), rel=1e-4)

    def test_weight_sharing_locality(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        import copy
        perturbed = copy.deepcopy(fitted_small)
        j = 0
        perturbed.codes.data[j] += 0.5
        from ncs.patching import blend_weights
        rng = np.random.default_rng(2)
        moved = unmoved = 0
        for _ in range(60):
            vid = rng.integers(mesh.n_vertices)
            q = chart.uv[vid]
            w = dict(blend_weights(patchset, chart, q))
            a = mo.evaluate(fitted_small, patchset, chart, q)
            b = mo.evaluate(perturbed, patchset, chart, q)
            if w.get(j, 0.0) > 0:
                moved += int(not np.array_equal(a, b))
            else:
                assert np.array_equal(a, b)
                unmoved += 1
        assert moved > 0 and unmoved > 0

    def test_batched_matches_pointwise(self, bumpy16, fitted_small):
        mesh, chart, patchset, ctx = bumpy16
        vb = tr.vertex_batch(ctx)
        out, _ = mo.evaluate_batch(fitted_small, vb.q, vb.pair_sample, vb.pair_patch,
                                   vb.pair_uv, vb.pair_w, degenerate="fallback")
        rng = np.random.default_rng(3)
        for _ in range(15):
            vid = int(rng.integers(mesh.n_vertices))
            single = mo.evaluate(fitted_small, patchset, chart, chart.uv[vid])
            np.testing.assert_allclose(out.data[vid], single, atol=2e-6)


@pytest.fixture(scope="module")
def strip_setup(two_strip):
    mesh, chart, patchset, n = two_strip
    cfg = mo.ArchConfig(coarse_widths=(8, 8), code_shape=(2, 2, 2), cnn_channels=2,
                        cnn_blocks=1, fine_widths=(6,), mode="normal")
    return mesh, chart, patchset, cfg


class TestModes:
    def test_normal_mode_displaces_along_normal(self, strip_setup):
        mesh, chart, patchset, cfg = strip_setup
        params = mo.build_model(cfg, patchset, seed=0)
        params.fine[-1][0].data[:] = 0.3
        params.fine[-1][1].data[:] = np.array([0.05, 0.4, -0.4], dtype=np.float32)
        q = chart.uv[mesh.n_vertices // 2]
        full = mo.evaluate(params, patchset, chart, q)
        coarse = mo.coarse_forward(params, q)
        f = mo.local_frame(params, q)
        residual = full - coarse
        # only the normal column carries displacement
        tangential = f[:, 1:].T @ residual
        assert np.abs(tangential).max() < 1e-6 * max(1.0, np.linalg.norm(residual))

    def test_pca_mode_uses_stored_frames(self, two_strip):
        mesh, chart, patchset, n = two_strip
        cfg = mo.ArchConfig(coarse_widths=(8,), code_shape=(2, 2, 2), cnn_channels=2,
                            cnn_blocks=1, fine_widths=(6,), mode="pca")
        params = mo.build_model(cfg, patchset, seed=0, mesh=mesh)
        assert params.pca_frames.shape == (2, 3, 3)
        for f in params.pca_frames:
            assert np.abs(f.T @ f - np.eye(3)).max() < 1e-5
            assert np.linalg.det(f) > 0

    def test_pca_needs_mesh(self, two_strip):
        mesh, chart, patchset, n = two_strip
        cfg = mo.ArchConfig(coarse_widths=(8,), code_shape=(2, 2, 2), cnn_channels=2,
                            cnn_blocks=1, fine_widths=(6,), mode="pca")
        with pytest.raises(ValueError, match="mesh"):
            mo.build_model(cfg, patchset, seed=0)


class TestScaleDetails:
    def test_factor_one_is_bitwise_identity(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        q = chart.uv[37]
        a = mo.evaluate(fitted_small, patchset, chart, q)
        b = mo.evaluate(mo.scale_details(fitted_small, 1.0), patchset, chart, q)
        assert np.array_equal(a, b)

    def test_factor_zero_constant_per_patch(self, two_strip):
        mesh, chart, patchset, n = two_strip
        cfg = mo.ArchConfig(coarse_widths=(8,), code_shape=(2, 2, 2), cnn_channels=2,
                            cnn_blocks=1, fine_widths=(6,))
        params = mo.build_model(cfg, patchset, seed=2)
        rng = np.random.default_rng(0)
        params.fine[-1][0].data[:] = rng.normal(size=(6, 3)).astype(np.float32)
        params.fine[-1][1].data[:] = 0  # zero biases: MLP of a constant input is constant
        zeroed = mo.scale_details(params, 0.0)
        # all strictly-interior points of one patch get the same canonical displacement
        vids = [1 * n + 4, 2 * n + 4, 3 * n + 3]
        ds = [mo.fine_forward(zeroed, patchset, chart, chart.uv[v]) for v in vids]
        for d in ds[1:]:
            np.testing.assert_allclose(d, ds[0], atol=1e-7)

    def test_factor_monotonicity(self, bumpy16, fitted_small):
        mesh, chart, patchset, ctx = bumpy16
        vb = tr.vertex_batch(ctx)

        def mean_disp(factor):
            p = mo.scale_details(fitted_small, factor)
            out, _ = mo.evaluate_batch(p, vb.q, vb.pair_sample, vb.pair_patch, vb.pair_uv,
                                       vb.pair_w, degenerate="fallback")
            coarse, _ = mo.evaluate_batch(p, vb.q, vb.pair_sample, vb.pair_patch, vb.pair_uv,
                                          vb.pair_w, coarse_only=True, degenerate="fallback")
            return float(np.linalg.norm(out.data - coarse.data, axis=1).mean())

        lo, mid, hi = mean_disp(0.5), mean_disp(1.0), mean_disp(2.0)
        assert lo < mid < hi

    def test_negative_rejected(self, fitted_small):
        with pytest.raises(ValueError):
            mo.scale_details(fitted_small, -0.5)

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_non_finite_rejected(self, fitted_small, factor):
        with pytest.raises(ValueError, match="finite"):
            mo.scale_details(fitted_small, factor)


class TestActivationMap:
    def test_scores_bounded_and_region_mean(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        rng = np.random.default_rng(0)
        vids = rng.choice(mesh.n_vertices, size=30, replace=False)
        qs = chart.uv[vids]
        scores = mo.activation_map(fitted_small, patchset, chart, qs[:10], qs)
        assert (scores <= 1.0 + 1e-9).all() and (scores >= -1.0 - 1e-9).all()
        # a query whose feature vector IS the region mean scores 1
        feats = mo.feature_vectors(fitted_small, patchset, chart, qs[:10])
        mean = feats.mean(axis=0)
        manual = feats @ mean / (np.linalg.norm(feats, axis=1) * np.linalg.norm(mean))
        np.testing.assert_allclose(scores[:10], np.clip(manual, -1, 1), atol=1e-9)

    def test_empty_region_rejected(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        with pytest.raises(ValueError):
            mo.activation_map(fitted_small, patchset, chart, np.empty((0, 2)), chart.uv[:3])


class TestTransfer:
    def test_self_transfer_identity(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        hybrid = mo.transfer_details(fitted_small, fitted_small)
        q = chart.uv[11]
        assert np.array_equal(mo.evaluate(hybrid, patchset, chart, q),
                              mo.evaluate(fitted_small, patchset, chart, q))

    def test_zero_fine_source_gives_target_coarse(self, bumpy16, small_arch, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        src = mo.build_model(small_arch, patchset, seed=9)  # fine output layer still zero
        hybrid = mo.transfer_details(src, fitted_small)
        q = chart.uv[23]
        assert np.array_equal(mo.evaluate(hybrid, patchset, chart, q),
                              mo.coarse_forward(fitted_small, q))

    def test_displacement_field_preserved(self, bumpy16, small_arch, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        target = mo.build_model(small_arch, patchset, seed=12)
        hybrid = mo.transfer_details(fitted_small, target)
        q = chart.uv[45]
        # canonical (pre-frame) displacement is exactly the source's
        assert np.array_equal(mo.fine_forward(hybrid, patchset, chart, q),
                              mo.fine_forward(fitted_small, patchset, chart, q))

    def test_mismatched_layout_rejected(self, bumpy16, two_strip, small_arch, fitted_small):
        mesh2, chart2, patchset2, _ = two_strip
        cfg = dataclasses.replace(small_arch)
        other = mo.build_model(cfg, patchset2, seed=0)
        with pytest.raises(AlignmentError):
            mo.transfer_details(fitted_small, other)


class TestPublishedAccounting:
    """Exact parameter counts cross-checked against the reference table values."""

    @pytest.mark.parametrize("widths,expected", [
        ((128, 64, 64), 12995),
        ((128, 64), 8835),
        ((64, 64), 4547),
    ])
    def test_coarse_counts(self, widths, expected):
        cfg = mo.ArchConfig(coarse_widths=widths)
        assert cfg.coarse_param_count() == expected

    @pytest.mark.parametrize("channels,expected", [(8, 467), (6, 435)])
    def test_fine_counts(self, channels, expected):
        cfg = mo.ArchConfig(code_shape=(channels, 4, 4), cnn_channels=channels)
        assert cfg.fine_param_count() == expected

    @pytest.mark.parametrize("config", [
        mo.ArchConfig(coarse_widths=(128, 64), code_shape=(8, 4, 4)),
        mo.ArchConfig(coarse_widths=(64, 64), code_shape=(8, 8, 8)),
        mo.ArchConfig(coarse_widths=(64, 64, 64, 64), code_shape=(6, 4, 4), cnn_channels=6),
        mo.ArchConfig(coarse_widths=(128, 64, 64), code_shape=(8, 6, 6)),
        mo.ArchConfig(coarse_widths=(128, 64, 64), code_shape=(64, 4, 4), cnn_channels=64),
    ])
    def test_reference_configs_construct(self, config):
        # every published configuration (except the inconsistent Dragon row) validates
        assert config.cnn_param_count() == config.cnn_blocks * 2 * (
            config.cnn_channels ** 2 * 9 + config.cnn_channels)


class TestContinuity:
    def test_evaluate_continuous_across_patch_change(self, bumpy16, fitted_small):
        mesh, chart, patchset, _ = bumpy16
        patch = patchset.patches[0]
        inside_f = int(patch.chart.orig_face_ids[0])
        q0 = chart.uv[mesh.faces[inside_f]].mean(axis=0)
        outside_f = next(f for f in range(mesh.n_faces) if patch.chart.face_of_orig(f) is None)
        q1 = chart.uv[mesh.faces[outside_f]].mean(axis=0)

        def walk(a, b, n):
            ts = np.linspace(0, 1, n)
            pts = [mo.evaluate(fitted_small, patchset, chart, (1 - t) * a + t * b) for t in ts]
            return np.linalg.norm(np.diff(np.asarray(pts), axis=0), axis=1)

        jumps = walk(q0, q1, 600)
        k = int(np.argmax(jumps))
        # refine the worst interval: a continuous field's steps shrink with the
        # step size, while a genuine jump would survive the refinement
        a = q0 + (q1 - q0) * (k / 599)
        b = q0 + (q1 - q0) * ((k + 1) / 599)
        refined = walk(a, b, 41)
        assert refined.max() < jumps[k] / 5
