import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manual_patchset
from ncs import autodiff as ad, synth
from ncs import model as mo
from ncs import training as tr
from ncs.geometry import TriMesh, normalize_unit_sphere, sample_faces, sample_surface_arrays
from ncs.parameterization import embed_disk


@pytest.fixture(scope="module")
def tiny_setup():
    """2-patch setup on a small bumpy plane (the smallest full training problem)."""
    n = 7
    mesh = normalize_unit_sphere(synth.bumpy_plane(n, amplitude=0.1, freq=5.0))
    xi = np.arange(mesh.n_vertices) // n
    patchset = manual_patchset(mesh, [xi <= 4, xi >= 2])
    chart = embed_disk(mesh)
    ctx = tr.build_context(mesh, chart, patchset)
    cfg = mo.ArchConfig(coarse_widths=(8,), code_shape=(2, 2, 2), cnn_channels=2,
                        cnn_blocks=1, fine_widths=(6,))
    return mesh, chart, patchset, ctx, cfg


class TestSchedule:
    def test_start(self):
        s = tr.TrainSchedule(warmup_iters=100_000, total_iters=200_000)
        lam, lr_c, lr_f = tr.schedule_at(s, 0)
        assert lam == 1.0
        assert lr_c == pytest.approx(1e-4)
        assert lr_f == 0.0

    def test_midpoint(self):
        s = tr.TrainSchedule(warmup_iters=100_000, total_iters=200_000)
        lam, lr_c, lr_f = tr.schedule_at(s, 50_000)
        assert lam == pytest.approx(0.5)
        assert lr_c == pytest.approx(5e-5)
        assert lr_f == pytest.approx(5e-5)

    def test_after_warmup_floor(self):
        s = tr.TrainSchedule(warmup_iters=100_000, total_iters=200_000)
        for t in (100_000, 150_000, 10 ** 7):
            lam, lr_c, lr_f = tr.schedule_at(s, t)
            assert lam == 0.0
            assert lr_c == 1e-6
            assert lr_f == pytest.approx(1e-4 - 1e-6)

    def test_zero_floor_option(self):
        s = tr.TrainSchedule(warmup_iters=10, total_iters=20, coarse_floor_lr=0.0)
        _, lr_c, lr_f = tr.schedule_at(s, 15)
        assert lr_c == 0.0 and lr_f == pytest.approx(1e-4)

    @pytest.mark.parametrize("rates", [dict(base_lr=np.inf), dict(coarse_floor_lr=np.inf),
                                       dict(base_lr=np.inf, coarse_floor_lr=np.inf),
                                       dict(base_lr=np.nan)])
    def test_non_finite_rate_rejected(self, rates):
        with pytest.raises(ValueError):
            tr.TrainSchedule(**rates)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300_000), st.integers(0, 300_000))
    def test_monotone_and_consistent(self, t1, t2):
        s = tr.TrainSchedule(warmup_iters=100_000, total_iters=300_000)
        a, b = sorted((t1, t2))
        lam_a, lrc_a, lrf_a = tr.schedule_at(s, a)
        lam_b, lrc_b, lrf_b = tr.schedule_at(s, b)
        assert lam_b <= lam_a + 1e-12  # lambda never increases
        assert lrf_b >= lrf_a - 1e-12  # fine rate never decreases
        for lam, lrc, lrf in ((lam_a, lrc_a, lrf_a), (lam_b, lrc_b, lrf_b)):
            assert 0.0 <= lam <= 1.0
            assert lrf == pytest.approx(s.base_lr - lrc)
            assert lrf >= 0.0


class TestSampleBatch:
    def test_single_triangle(self):
        mesh = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        mesh2 = normalize_unit_sphere(mesh)
        from ncs.patching import extract_patches
        ps = extract_patches(mesh2, 5.0, 0.0, seed=0)
        chart = embed_disk(mesh2)
        ctx = tr.build_context(mesh2, chart, ps)
        b = tr.sample_batch(ctx, 1, seed=0)
        loc = chart.locate(b.q[0])
        assert loc is not None
        tri, bary = loc
        assert tri == 0 and (bary >= -1e-12).all()
        np.testing.assert_allclose(bary @ mesh2.vertices[mesh2.faces[tri]], b.target[0],
                                   rtol=0, atol=1e-12)

    def test_same_points_as_sample_surface_arrays(self, tiny_setup):
        mesh, _, _, ctx, _ = tiny_setup
        b = tr.sample_batch(ctx, 300, seed=7)
        points, _, _ = sample_surface_arrays(mesh, 300, 7)
        assert np.array_equal(b.target, points)

    def test_target_matches_lift_exactly(self, tiny_setup):
        mesh, chart, patchset, ctx, _ = tiny_setup
        b = tr.sample_batch(ctx, 64, seed=1)
        faces, bary = sample_faces(ctx.area_cum, 64, 1)
        lift = np.einsum("nk,nkd->nd", bary, mesh.vertices[mesh.faces[faces]])
        assert np.array_equal(lift, b.target)

    def test_seed_determinism(self, tiny_setup):
        _, _, _, ctx, _ = tiny_setup
        a = tr.sample_batch(ctx, 128, seed=5)
        b = tr.sample_batch(ctx, 128, seed=5)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.pair_w, b.pair_w)

    def test_every_sample_covered(self, tiny_setup):
        _, _, _, ctx, _ = tiny_setup
        b = tr.sample_batch(ctx, 256, seed=2)
        counts = np.bincount(b.pair_sample, minlength=len(b))
        assert (counts >= 1).all()
        sums = np.bincount(b.pair_sample, weights=b.pair_w.astype(np.float64), minlength=len(b))
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestLosses:
    @pytest.fixture()
    def model_batch(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        sched = tr.TrainSchedule(warmup_iters=5, total_iters=60, base_lr=1e-4)
        tr.fit(mesh, chart, patchset, params, sched, batch_size=64, seed=2, log_every=0)
        batch = tr.sample_batch(ctx, 48, seed=3)
        return params, batch

    def test_perfect_model_zero(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        batch = tr.sample_batch(ctx, 32, seed=0)
        batch.target[:] = mo.evaluate_batch(
            params, batch.q, batch.pair_sample, batch.pair_patch, batch.pair_uv,
            batch.pair_w)[0].data
        assert float(tr.forward_losses(params, batch)[0].data) == 0.0

    def test_constant_offset(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        batch = tr.sample_batch(ctx, 32, seed=0)
        pred = mo.evaluate_batch(params, batch.q, batch.pair_sample, batch.pair_patch,
                                 batch.pair_uv, batch.pair_w)[0].data
        t = np.array([0.03, -0.04, 0.12], dtype=np.float32)
        batch.target[:] = pred + t
        assert float(tr.forward_losses(params, batch)[0].data) == pytest.approx(
            float((t.astype(np.float64) ** 2).sum()), rel=1e-5)

    def test_two_sample_mean(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        batch = tr.sample_batch(ctx, 2, seed=0)
        pred = mo.evaluate_batch(params, batch.q, batch.pair_sample, batch.pair_patch,
                                 batch.pair_uv, batch.pair_w)[0].data.copy()
        batch.target[:] = pred
        batch.target[1, 0] += 2.0  # per-sample squared errors 0 and 4
        assert float(tr.forward_losses(params, batch)[0].data) == pytest.approx(2.0, rel=1e-6)

    def test_reg_ignores_fine_params(self, model_batch):
        params, batch = model_batch
        before = float(tr.forward_losses(params, batch)[1].data)
        perturbed = copy.deepcopy(params)
        perturbed.fine[-1][0].data[:] += 1.0
        perturbed.codes.data[:] += 2.0
        assert float(tr.forward_losses(perturbed, batch)[1].data) == before

    def test_reg_equals_joint_with_zero_fine(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=1)  # zero fine output layer
        batch = tr.sample_batch(ctx, 40, seed=4)
        lj, lr_ = tr.forward_losses(params, batch)
        assert float(lj.data) == float(lr_.data)

    def test_decomposition_exact(self, model_batch):
        params, batch = model_batch
        with ad.Tape():
            lj, lr_ = tr.forward_losses(params, batch)
            l0 = ad.add(ad.scale(lj, 1.0), ad.scale(lr_, 0.0))
            l1 = ad.add(ad.scale(lj, 0.0), ad.scale(lr_, 1.0))
        assert float(l0.data) == float(lj.data)
        assert float(l1.data) == float(lr_.data)


class TestFit:
    def test_zero_iterations(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        before = [t.data.copy() for t in params.all_tensors()]
        res = tr.fit(mesh, chart, patchset, params, tr.TrainSchedule(warmup_iters=0, total_iters=0),
                     batch_size=16, seed=0)
        assert res.log == []
        for t, b in zip(params.all_tensors(), before):
            assert np.array_equal(t.data, b)

    def test_warmup_start_freezes_fine(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        fine_before = [t.data.copy() for t in params.fine_tensors()]
        coarse_before = [t.data.copy() for t in params.coarse_tensors()]
        sched = tr.TrainSchedule(warmup_iters=10, total_iters=1, base_lr=1e-4)
        tr.fit(mesh, chart, patchset, params, sched, batch_size=32, seed=0, log_every=0)
        for t, b in zip(params.fine_tensors(), fine_before):
            assert np.array_equal(t.data, b)  # lr_fine(0) = 0 and lambda = 1
        assert any(not np.array_equal(t.data, b)
                   for t, b in zip(params.coarse_tensors(), coarse_before))

    def test_bit_reproducible(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        sched = tr.TrainSchedule(warmup_iters=20, total_iters=80, base_lr=1e-4)
        runs = []
        for _ in range(2):
            params = mo.build_model(cfg, patchset, seed=6)
            res = tr.fit(mesh, chart, patchset, params, sched, batch_size=64, seed=6,
                         log_every=0)
            runs.append((res.final_loss, [t.data.copy() for t in params.all_tensors()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)

    def test_loss_decreases(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        sched = tr.TrainSchedule(warmup_iters=60, total_iters=600, base_lr=1e-4)
        res = tr.fit(mesh, chart, patchset, params, sched, batch_size=64, seed=1,
                     log_every=50)
        first = res.log[0]["loss"]
        last = res.log[-1]["loss"]
        assert last < 0.65 * first

    def test_checkpoint_callback_cadence(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        seen = []
        sched = tr.TrainSchedule(warmup_iters=5, total_iters=30, base_lr=1e-4)
        tr.fit(mesh, chart, patchset, params, sched, batch_size=16, seed=0, log_every=0,
               checkpoint_every=10, checkpoint_cb=lambda it, p, o: seen.append(it))
        assert seen == [10, 20, 30]

    def test_log_columns(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        sched = tr.TrainSchedule(warmup_iters=2, total_iters=6, base_lr=1e-4)
        res = tr.fit(mesh, chart, patchset, params, sched, batch_size=8, seed=0,
                     log_every=2)
        for row in res.log:
            assert set(row) == {"iter", "lambda", "lr_coarse", "lr_fine", "loss",
                                "loss_joint", "loss_reg", "wall_ms"}


class TestFullLossGradient:
    def test_finite_diff_on_tiny_model(self, tiny_setup):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        # strong coarse weights keep the frame normalization well conditioned,
        # which central differences at eps=1e-3 require
        r = np.random.default_rng(2)
        params.coarse[0][0].data[:] = r.uniform(-2.2, 2.2, params.coarse[0][0].shape).astype(np.float32)
        params.coarse[0][1].data[:] = r.uniform(-0.3, 0.3, params.coarse[0][1].shape).astype(np.float32)
        params.coarse[1][0].data[:] = r.uniform(-1.5, 1.5, params.coarse[1][0].shape).astype(np.float32)
        params.fine[-1][0].data[:] = r.uniform(-0.3, 0.3, params.fine[-1][0].shape).astype(np.float32)
        params.codes.data[:] = (0.3 * r.standard_normal(params.codes.shape)).astype(np.float32)
        batch = tr.sample_batch(ctx, 32, seed=4)

        def rebuild(flat):
            it = iter(flat)
            coarse = [(next(it), next(it)) for _ in params.coarse]
            codes = next(it)
            cnn = [(next(it), next(it), next(it), next(it)) for _ in params.cnn]
            fine = [(next(it), next(it)) for _ in params.fine]
            return mo.ModelParams(cfg, coarse, codes, cnn, fine)

        def full_loss(flat):
            p = rebuild(flat)
            lj, lr_ = tr.forward_losses(p, batch)
            return ad.add(ad.scale(lj, 0.7), ad.scale(lr_, 0.3))

        flat = ([t for pair in params.coarse for t in pair] + [params.codes]
                + [t for b in params.cnn for t in b] + [t for pair in params.fine for t in pair])
        err = ad.finite_diff_check(full_loss, flat, eps=1e-3, n_coords=250, seed=11)
        assert err < 1e-5


class TestDegenerateHandling:
    def test_all_degenerate_raises(self, tiny_setup):
        from ncs.errors import NumericError
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        for w, b in params.coarse:
            w.data[:] = 0  # constant coarse map: rank-0 Jacobian everywhere
        sched = tr.TrainSchedule(warmup_iters=2, total_iters=4, base_lr=1e-4)
        with pytest.raises(NumericError, match="degenerate"):
            tr.fit(mesh, chart, patchset, params, sched, batch_size=16, seed=0,
                   log_every=0)

    def test_non_finite_loss_aborts_with_checkpoint(self, tiny_setup):
        from ncs.errors import NumericError
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        params.coarse[0][0].data[:] = 1e30  # softplus then square overflows to inf
        saved = []
        sched = tr.TrainSchedule(warmup_iters=2, total_iters=4, base_lr=1e-4)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
            tr.fit(mesh, chart, patchset, params, sched, batch_size=16, seed=0,
                   log_every=0, checkpoint_cb=lambda it, p, o: saved.append(it))
        assert saved  # last-good state was handed to the callback before aborting


class TestDegenerateRetries:
    """The retry ladder of `fit`: a batch that hits a degenerate frame is redrawn once
    (salt 1), then its flagged samples are dropped; a third failure raises."""

    SCHED = tr.TrainSchedule(warmup_iters=0, total_iters=3, base_lr=1e-4)

    @staticmethod
    def _fake_forward(monkeypatch, fails):
        """Replace forward_losses by the real forward that then raises FrameDegenerateError,
        flagging sample 1, on the calls `fails(call)` picks; returns the batches seen."""
        from ncs.errors import FrameDegenerateError
        real, seen = tr.forward_losses, []

        def fake(params, batch):
            seen.append(batch)
            out = real(params, batch)
            if fails(len(seen) - 1):
                mask = np.zeros(len(batch), dtype=bool)
                mask[1] = True
                raise FrameDegenerateError(mask=mask)
            return out

        monkeypatch.setattr(tr, "forward_losses", fake)
        return seen

    @pytest.mark.parametrize("first_failing_call,iteration", [(0, 0), (1, 1)])
    def test_third_failure_raises(self, tiny_setup, monkeypatch, first_failing_call, iteration):
        from ncs.errors import NumericError
        mesh, chart, patchset, _, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        self._fake_forward(monkeypatch, lambda call: call >= first_failing_call)
        with pytest.raises(NumericError, match=f"iteration {iteration}:"):
            tr.fit(mesh, chart, patchset, params, self.SCHED, batch_size=16, seed=5, log_every=1)

    @pytest.mark.parametrize("failures", [1, 2])
    def test_trains_on_redrawn_then_filtered_batch(self, tiny_setup, monkeypatch, failures):
        mesh, chart, patchset, ctx, cfg = tiny_setup
        params = mo.build_model(cfg, patchset, seed=0)
        seen = self._fake_forward(monkeypatch, lambda call: call < failures)
        res = tr.fit(mesh, chart, patchset, params, dataclasses.replace(self.SCHED, total_iters=1),
                     batch_size=16, seed=5, log_every=1)
        want = tr.sample_batch(ctx, 16, tr._iteration_seed(5, 0, 1))
        if failures == 2:
            want = tr._filter_batch(want, np.arange(16) != 1)
        assert len(seen) == failures + 1 and len(want) == 17 - failures
        assert all(np.array_equal(getattr(seen[-1], f), getattr(want, f))
                   for f in ("q", "target", "pair_sample", "pair_patch", "pair_uv", "pair_w"))
        assert res.dropped_samples == failures
