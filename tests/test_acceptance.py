"""Acceptance gate: every criterion below prints one PASS/FAIL line and asserts
its stated tolerance. The desk-scale end-to-end fit (criterion 6) is shared with
the frame suite (criterion 3); expect the module to take on the order of 15-20
minutes of CPU, dominated by that fit.
"""

import hashlib
import time

import numpy as np
import pytest

from ncs import autodiff as ad, synth
from ncs import model as mo
from ncs import training as tr
from ncs.cli import main as cli_main
from ncs.geometry import (TriMesh, chamfer_distance, export_mesh, load_mesh,
                          normalize_unit_sphere, sample_surface_arrays)
from ncs.parameterization import ChartPoint, chart_lift, embed_disk, global_to_local
from ncs.patching import blend_weights, extract_patches


def _report(num: int, ok: bool, detail: str):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _surface_uvs(mesh, chart, n, seed):
    _, faces, bary = sample_surface_arrays(mesh, n, seed)
    return np.einsum("nk,nkd->nd", bary, chart.uv[mesh.faces[faces]])


# ---------------------------------------------------------------------------
# shared heavy fixture: the desk-scale end-to-end fit (criterion 6 configuration)
# ---------------------------------------------------------------------------

DESK = dict(radius=0.25, forbid=0.5, patch_seed=11, fit_seed=3,
            warmup=5000, total=20000, batch=2048)


@pytest.fixture(scope="session")
def desk_fit():
    mesh = normalize_unit_sphere(synth.bumpy_plane(64))  # z = 0.05 sin(20x) sin(20y)
    chart = embed_disk(mesh)
    mesh.uv = chart.uv
    patchset = extract_patches(mesh, DESK["radius"], DESK["forbid"], DESK["patch_seed"])
    ctx = tr.build_context(mesh, chart, patchset)
    cfg = mo.ArchConfig(coarse_widths=(32, 32), code_shape=(4, 4, 4), cnn_channels=4,
                        cnn_blocks=3, fine_widths=(16, 16))
    params = mo.build_model(cfg, patchset, seed=DESK["fit_seed"])
    warm = {}

    def snapshot(it, p, opts):
        if it == DESK["warmup"]:
            warm["tensors"] = [t.data.copy() for t in p.all_tensors()]

    sched = tr.TrainSchedule(warmup_iters=DESK["warmup"], total_iters=DESK["total"], base_lr=1e-4)
    t0 = time.perf_counter()
    tr.fit(mesh, chart, patchset, params, sched, batch_size=DESK["batch"],
           seed=DESK["fit_seed"], log_every=0, checkpoint_every=DESK["warmup"],
           checkpoint_cb=snapshot, ctx=ctx)
    minutes = (time.perf_counter() - t0) / 60

    warm_params = mo.build_model(cfg, patchset, seed=DESK["fit_seed"])
    for t, d in zip(warm_params.all_tensors(), warm["tensors"]):
        t.data[:] = d
    return dict(mesh=mesh, chart=chart, patchset=patchset, ctx=ctx, params=params,
                warm_params=warm_params, minutes=minutes)


def _vertex_chamfer(state, params, coarse_only=False, n=100_000):
    vb = tr.vertex_batch(state["ctx"])
    out, _ = mo.evaluate_batch(params, vb.q, vb.pair_sample, vb.pair_patch, vb.pair_uv,
                               vb.pair_w, coarse_only=coarse_only, degenerate="fallback")
    recon = TriMesh(out.data.astype(np.float64), state["mesh"].faces.copy())
    a, _, _ = sample_surface_arrays(recon, n, 12345)
    b, _, _ = sample_surface_arrays(state["mesh"], n, 12345)
    return chamfer_distance(a, b) * 1e3


# ---------------------------------------------------------------------------
# criterion 1: autodiff correctness
# ---------------------------------------------------------------------------

def test_criterion_1_autodiff(two_strip):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = {}

    def check(name, f, params):
        worst[name] = ad.finite_diff_check(f, params, eps=1e-3, n_coords=200, seed=1)

    def ws(t, v):
        return ad.reduce_sum(ad.mul(t, ad.const(v, t.dtype)))

    x = ad.param(rng.normal(size=(7, 5)).astype(np.float32))
    w = ad.param(rng.normal(size=(5, 4)).astype(np.float32))
    b = ad.param(rng.normal(size=4).astype(np.float32))
    v = rng.normal(size=(7, 4))
    for act in ("none", "relu", "softplus"):
        check(f"linear[{act}]", lambda ps, a=act: ws(ad.linear(ps[0], ps[1], ps[2], a), v), [x, w, b])

    xi = ad.param(rng.normal(size=(2, 3, 5, 6)).astype(np.float32))
    k = ad.param((rng.normal(size=(3, 3, 3, 3)) * 0.3).astype(np.float32))
    cb = ad.param((rng.normal(size=3) * 0.1).astype(np.float32))
    vc = rng.normal(size=(2, 3, 5, 6))
    check("conv3x3", lambda ps: ws(ad.conv3x3(ps[0], ps[1], ps[2]), vc), [xi, k, cb])
    k2 = ad.param((rng.normal(size=(3, 3, 3, 3)) * 0.3).astype(np.float32))
    b2 = ad.param((rng.normal(size=3) * 0.1).astype(np.float32))
    vr = rng.normal(size=(2, 3, 5, 6))
    check("conv_residual_block",
          lambda ps: ws(ad.conv_residual_block(ps[0], ps[1], ps[2], ps[3], ps[4]), vr),
          [xi, k, cb, k2, b2])
    vu = rng.normal(size=(2, 3, 10, 12))
    check("upsample2x", lambda ps: ws(ad.upsample2x(ps[0]), vu), [xi])

    grids = ad.param(rng.normal(size=(3, 2, 4, 4)).astype(np.float32))
    uv = rng.uniform(-1, 1, size=(9, 2))
    idx = rng.integers(0, 3, size=9)
    vg = rng.normal(size=(9, 2))
    check("grid_sample", lambda ps: ws(ad.grid_sample(ps[0], idx, uv), vg), [grids])
    g1 = ad.param(rng.normal(size=(2, 4, 4)).astype(np.float32))
    vb1 = rng.normal(size=2)
    check("bilinear_sample", lambda ps: ws(ad.bilinear_sample(ps[0], (0.3, -0.2)), vb1), [g1])

    a3 = ad.param(rng.normal(size=(6, 3)).astype(np.float32))
    b3 = ad.param(rng.normal(size=(6, 3)).astype(np.float32))
    v3 = rng.normal(size=(6, 3))
    check("cross3", lambda ps: ws(ad.cross3(ps[0], ps[1]), v3), [a3, b3])
    den = ad.param((rng.normal(size=(6, 1)) ** 2 + 0.5).astype(np.float32))
    check("div", lambda ps: ws(ad.div(ps[0], ps[1]), v3), [a3, den])
    pos = ad.param((rng.normal(size=(6, 3)) ** 2 + 0.3).astype(np.float32))
    check("sqrt", lambda ps: ws(ad.sqrt(ps[0]), v3), [pos])
    vs = rng.normal(size=(3, 3))
    check("segment_sum", lambda ps: ws(ad.segment_sum(ps[0], np.array([0, 0, 1, 2, 2, 2]), 3), vs), [a3])
    vsc = rng.normal(size=(6, 1))
    check("slice_cols", lambda ps: ws(ad.slice_cols(ps[0], 1, 2), vsc), [a3])
    mats = np.stack([np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(6)])
    check("rotate_rows", lambda ps: ws(ad.rotate_rows(ps[0], mats), v3), [a3])
    check("softplus", lambda ps: ws(ad.softplus(ps[0]), v3), [a3])
    check("sigmoid", lambda ps: ws(ad.sigmoid(ps[0]), v3), [a3])
    check("pointwise", lambda ps: ad.reduce_mean(ad.square(ad.sub(ad.mul(ps[0], ps[1]), ad.add(ps[0], ps[1])))),
          [a3, b3])

    # full training loss on the tiny model: 2 patches, 2x2x2 codes, 1 CNN block.
    # central differences need a well-conditioned point: strong coarse weights keep
    # the Jacobian cross product O(1), away from the frame-normalization curvature
    mesh, chart, patchset, _ = two_strip
    ctx = tr.build_context(mesh, chart, patchset)
    cfg = mo.ArchConfig(coarse_widths=(8,), code_shape=(2, 2, 2), cnn_channels=2,
                        cnn_blocks=1, fine_widths=(6,))
    params = mo.build_model(cfg, patchset, seed=0)
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
        return ad.add(ad.scale(tr.loss_joint(p, batch), 0.7),
                      ad.scale(tr.loss_reg(p, batch), 0.3))

    flat = ([t for pair in params.coarse for t in pair] + [params.codes]
            + [t for blk in params.cnn for t in blk] + [t for pair in params.fine for t in pair])
    worst["full_training_loss"] = ad.finite_diff_check(full_loss, flat, eps=1e-3, n_coords=250, seed=9)

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-5}
    _report(1, not bad and elapsed < 60,
            f"finite differences: worst {max(worst.values()):.2e} over {len(worst)} checks "
            f"(all < 1e-5), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: exact parameter accounting
# ---------------------------------------------------------------------------

def test_criterion_2_parameter_accounting():
    cfg = mo.ArchConfig()  # coarse 128-64-64, code 8x4x4, 8 channels, 5 blocks, fine 16-16
    coarse = cfg.coarse_param_count()
    fine = cfg.fine_param_count()
    per_block = 2 * (cfg.cnn_channels * cfg.cnn_channels * 9 + cfg.cnn_channels)
    cnn = cfg.cnn_param_count()
    ok = coarse == 12995 and fine == 467 and per_block == 1168 and cnn == 5840
    _report(2, ok, f"coarse {coarse} (=12995), fine {fine} (=467), "
                   f"CNN/block {per_block} (=1168), CNN total {cnn} (=5840)")


# ---------------------------------------------------------------------------
# criterion 3: frame suite
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_frames(desk_fit):
    state = desk_fit
    params = state["params"]
    qs = _surface_uvs(state["mesh"], state["chart"], 10_000, seed=21)
    qt = ad.const(qs.astype(np.float32))
    # the production frame path: float32 throughout, measured in float64
    _, ju, jv = mo._coarse_apply(params, qt, want_jacobian=True)
    ju, jv = ju.data, jv.data
    n = np.cross(ju, jv)
    nn = np.linalg.norm(n, axis=1, keepdims=True).astype(np.float32)
    assert (nn > 1e-9).all()
    nhat = n / nn
    that = ju / np.linalg.norm(ju, axis=1, keepdims=True).astype(np.float32)
    bvec = np.cross(nhat, that)
    bhat = bvec / np.linalg.norm(bvec, axis=1, keepdims=True).astype(np.float32)
    frames = np.stack([nhat, that, bhat], axis=2).astype(np.float64)
    gram = np.einsum("nij,nik->njk", frames, frames)
    err = np.abs(gram - np.eye(3)).max()
    dets = np.linalg.det(frames)
    # analytic frame of an exact identity embedding
    ident = mo.ModelParams(
        mo.ArchConfig(coarse_widths=(), code_shape=(2, 2, 2), cnn_channels=2,
                      cnn_blocks=1, fine_widths=(4,)),
        [(ad.param(np.array([[1, 0, 0], [0, 1, 0]], dtype=np.float32)),
          ad.param(np.zeros(3, dtype=np.float32)))],
        ad.param(np.zeros((1, 2, 2, 2), dtype=np.float32)),
        [(ad.param(np.zeros((2, 2, 3, 3), dtype=np.float32)), ad.param(np.zeros(2, dtype=np.float32)),
          ad.param(np.zeros((2, 2, 3, 3), dtype=np.float32)), ad.param(np.zeros(2, dtype=np.float32)))],
        [(ad.param(np.zeros((2, 4), dtype=np.float32)), ad.param(np.zeros(4, dtype=np.float32))),
         (ad.param(np.zeros((4, 3), dtype=np.float32)), ad.param(np.zeros(3, dtype=np.float32)))])
    f = mo.local_frame(ident, (0.3, -0.1))
    analytic_ok = np.array_equal(f, np.stack([[0, 0, 1], [1, 0, 0], [0, 1, 0]], axis=1).astype(float))
    ok = err < 1e-4 and (dets > 0).all() and analytic_ok
    _report(3, ok, f"|F^T F - I|_inf = {err:.2e} (<1e-4) at 10^4 q, min det = {dets.min():.6f} (>0), "
                   f"identity-embedding frame analytic: {analytic_ok}")


# ---------------------------------------------------------------------------
# criterion 4: blend-weight suite
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_blend_weights(desk_fit, two_strip):
    state = desk_fit
    mesh, chart, patchset = state["mesh"], state["chart"], state["patchset"]
    qs = _surface_uvs(mesh, chart, 10_000, seed=33)
    worst = 0.0
    for q in qs:
        w = blend_weights(patchset, chart, q)
        worst = max(worst, abs(sum(x for _, x in w) - 1.0))
    unity_ok = worst < 1e-9

    # all-boundary fallback: overlap-band bottom vertex of the two-strip fixture
    smesh, schart, spatch, n = two_strip
    out = blend_weights(spatch, schart, schart.uv[4 * n + 0])
    fb_ok = sorted(p for p, _ in out) == [0, 1] and all(abs(w - 0.5) < 1e-9 for _, w in out)

    # weights vanish continuously where a patch is left: walk out of patch 0
    patch = patchset.patches[0]
    inside_f = int(patch.chart.orig_face_ids[0])
    q0 = chart.uv[mesh.faces[inside_f]].mean(axis=0)
    outside_f = next(f for f in range(mesh.n_faces) if patch.chart.face_of_orig(f) is None)
    q1 = chart.uv[mesh.faces[outside_f]].mean(axis=0)
    ts = np.linspace(0.0, 1.0, 2000)
    w_prev = None
    max_jump = 0.0
    last_w_before_exit = None
    for t in ts:
        w = dict(blend_weights(patchset, chart, (1 - t) * q0 + t * q1)).get(0, 0.0)
        if w_prev is not None and w_prev > 0 and w == 0.0:
            last_w_before_exit = w_prev
        if w_prev is not None and w > 0 and w_prev > 0:
            max_jump = max(max_jump, abs(w - w_prev))
        w_prev = w
    cont_ok = last_w_before_exit is not None and last_w_before_exit < 0.02 and max_jump < 0.02
    _report(4, unity_ok and fb_ok and cont_ok,
            f"partition-of-unity error {worst:.2e} (<1e-9) at 10^4 q; uniform fallback: {fb_ok}; "
            f"exit weight {last_w_before_exit:.2e} and max step jump {max_jump:.2e} (<0.02)")


# ---------------------------------------------------------------------------
# criterion 5: parameterization suite
# ---------------------------------------------------------------------------

def test_criterion_5_parameterization():
    flips = 0
    charts = 0
    agree_fail = 0
    checked = 0
    corpora = []

    sphere = normalize_unit_sphere(synth.icosphere(3))
    sphere_patches = extract_patches(sphere, 0.04, 0.5, seed=11)
    corpora.append(("sphere-642", None, sphere_patches))

    for name, m in (("bumpy-plane", normalize_unit_sphere(synth.bumpy_plane(64))),
                    ("saddle", normalize_unit_sphere(synth.saddle(48)))):
        chart = embed_disk(m)
        m.uv = chart.uv
        ps = extract_patches(m, 0.25, 0.5, seed=11)
        corpora.append((name, (m, chart), ps))

    for name, glob, ps in corpora:
        for p in ps.patches:
            charts += 1
            flips += int((p.chart.signed_areas() <= 0).sum())
        if glob is None:
            continue
        m, chart = glob
        charts += 1
        flips += int((chart.signed_areas() <= 0).sum())
        rng = np.random.default_rng(7)
        _, faces, bary = sample_surface_arrays(m, 400, seed=17)
        for f, b in zip(faces, bary):
            q = b @ chart.uv[m.faces[f]]
            loc = chart.locate(q)
            if loc is None:
                continue
            lift_g = chart_lift(chart, ChartPoint(q, loc[0], loc[1]))
            for pid in ps.face_cover[loc[0]]:
                cp = global_to_local(chart, ps.patches[pid].chart, q)
                checked += 1
                if cp is None or not np.array_equal(chart_lift(ps.patches[pid].chart, cp), lift_g):
                    agree_fail += 1
    ok = flips == 0 and agree_fail == 0 and checked > 500
    _report(5, ok, f"{charts} charts, {flips} flipped triangles (=0); "
                   f"global/local lift agreement exact on {checked} probes ({agree_fail} failures)")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end desk fit
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_desk_fit(desk_fit):
    state = desk_fit
    full = _vertex_chamfer(state, state["params"])
    coarse = _vertex_chamfer(state, state["warm_params"], coarse_only=True)
    ok = full <= 0.5 * coarse and full < 1.0
    _report(6, ok, f"chamfer x1e3: full {full:.4f} (<1.0), warm-up coarse-only {coarse:.4f}, "
                   f"ratio {full / coarse:.3f} (<=0.5); fit took {state['minutes']:.1f} min")


# ---------------------------------------------------------------------------
# criterion 7: ablation direction (scalar-normal vs vector displacement)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_ablation():
    mesh = normalize_unit_sphere(synth.folded_sheet(48))
    chart = embed_disk(mesh)
    mesh.uv = chart.uv
    patchset = extract_patches(mesh, 0.3, 0.5, seed=4)
    ctx = tr.build_context(mesh, chart, patchset)
    vb = tr.vertex_batch(ctx)
    gt, _, _ = sample_surface_arrays(mesh, 60_000, 777)

    def run(mode):
        cfg = mo.ArchConfig(coarse_widths=(24, 24), code_shape=(4, 4, 4), cnn_channels=4,
                            cnn_blocks=3, fine_widths=(16, 16), mode=mode)
        params = mo.build_model(cfg, patchset, seed=5, mesh=mesh)
        sched = tr.TrainSchedule(warmup_iters=800, total_iters=3500, base_lr=1e-4)
        tr.fit(mesh, chart, patchset, params, sched, batch_size=1024, seed=5, log_every=0, ctx=ctx)
        out, _ = mo.evaluate_batch(params, vb.q, vb.pair_sample, vb.pair_patch, vb.pair_uv,
                                   vb.pair_w, degenerate="fallback")
        recon = TriMesh(out.data.astype(np.float64), mesh.faces.copy())
        a, _, _ = sample_surface_arrays(recon, 60_000, 778)
        return chamfer_distance(a, gt) * 1e3

    vec = run("vector")
    nor = run("normal")
    _report(7, nor >= vec, f"identical budgets on a folded sheet: scalar-normal chamfer {nor:.3f} "
                           f">= vector-frame chamfer {vec:.3f}")


# ---------------------------------------------------------------------------
# criterion 8: editing/transfer identities
# ---------------------------------------------------------------------------

def test_criterion_8_edit_transfer(tmp_path):
    mesh_path = tmp_path / "m.obj"
    export_mesh(synth.bumpy_plane(12, amplitude=0.08, freq=5.0), mesh_path)
    base = ("[patches]\nradius = 0.45\nforbid = 0.5\nseed = 1\n"
            "[arch]\ncoarse = 12,12\ncode = 2x2x2\nchannels = 2\nblocks = 1\nfine = 6,6\n")

    def fit_cfg(name, warmup, total, seed):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[mesh]\npath = {mesh_path}\n" + base +
                       f"[train]\nwarmup = {warmup}\ntotal = {total}\nbatch = 96\nseed = {seed}\n"
                       f"log_every = 0\ncheckpoint_every = 0\n[output]\ndir = {out}\n")
        assert cli_main(["fit", str(cfg)]) == 0
        return out / "model.ncs"

    trained = fit_cfg("trained", 30, 150, seed=5)
    zerofine = fit_cfg("zerofine", 0, 0, seed=9)  # fine output layer is still zero

    recon = tmp_path / "recon.obj"
    edit1 = tmp_path / "edit1.obj"
    selft = tmp_path / "self.obj"
    assert cli_main(["reconstruct", str(trained), "-o", str(recon)]) == 0
    assert cli_main(["edit", str(trained), "--factor", "1.0", "-o", str(edit1)]) == 0
    assert cli_main(["transfer", str(trained), str(trained), "-o", str(selft)]) == 0
    edit_ok = recon.read_bytes() == edit1.read_bytes()
    self_ok = recon.read_bytes() == selft.read_bytes()

    hybrid = tmp_path / "hybrid.obj"
    assert cli_main(["transfer", str(zerofine), str(trained), "-o", str(hybrid)]) == 0
    from ncs import checkpoint as ck
    _, (m, chart, ps, params) = (None, ck.restore_state(ck.load_checkpoint(trained)))
    ctx = tr.build_context(m, chart, ps)
    vb = tr.vertex_batch(ctx)
    coarse, _ = mo.evaluate_batch(params, vb.q, vb.pair_sample, vb.pair_patch, vb.pair_uv,
                                  vb.pair_w, coarse_only=True)
    got = load_mesh(hybrid).vertices
    zero_ok = np.abs(got - coarse.data).max() < 1e-9  # OBJ float printing precision
    _report(8, edit_ok and self_ok and zero_ok,
            f"edit(1) bit-identical: {edit_ok}; self-transfer bit-identical: {self_ok}; "
            f"zero-fine transfer equals target coarse: {zero_ok}")


# ---------------------------------------------------------------------------
# criterion 9: determinism of the CLI fit
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path, capsys):
    mesh_path = tmp_path / "m.obj"
    export_mesh(synth.bumpy_plane(12, amplitude=0.08, freq=5.0), mesh_path)
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[mesh]\npath = {mesh_path}\n"
                   "[patches]\nradius = 0.45\nforbid = 0.5\nseed = 1\n"
                   "[arch]\ncoarse = 12,12\ncode = 2x2x2\nchannels = 2\nblocks = 1\nfine = 6,6\n"
                   "[train]\nwarmup = 20\ntotal = 120\nbatch = 96\nseed = 5\nlog_every = 0\n"
                   "checkpoint_every = 0\n"
                   f"[output]\ndir = {out}\n")
    hashes, losses = [], []
    for _ in range(2):
        assert cli_main(["fit", str(cfg)]) == 0
        hashes.append(hashlib.sha256((out / "model.ncs").read_bytes()).hexdigest())
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("final loss")]
        losses.append(lines[-1])
    ok = hashes[0] == hashes[1] and losses[0] == losses[1]
    _report(9, ok, f"repeated fit: checkpoint sha256 {hashes[0][:16]}... identical: "
                   f"{hashes[0] == hashes[1]}; {losses[0]} identical: {losses[0] == losses[1]}")
