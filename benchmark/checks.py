"""Correctness checks on one pipeline round's outputs.

Each check tests a property or an independent computation, never a stored copy
of an earlier output, and returns a list of failure messages (empty when the
check passes).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np

# final loss (median of the last 10 iterations) at most this share of the first
# iteration's loss; a gradient with a flipped sign or a dropped term stalls or climbs
LOSS_DROP = 0.5
# float64 central differences against backprop, max relative error over probed coordinates
GRAD_TOL = 1e-4
GRAD_EPS = 1e-4
GRAD_COORDS = 6  # per parameter group
GRAD_SAMPLES = 4
# on desk the detail branch must carry the fit: coarse-only Chamfer / full Chamfer
CHAMFER_FACTOR = 5.0


def read_log(path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in ("loss", "wall_ms")}


def check_loss_falls(loss: np.ndarray, total_iters: int) -> list[str]:
    if len(loss) != total_iters:
        return [f"training log has {len(loss)} rows, expected {total_iters}"]
    if not np.all(np.isfinite(loss)):
        return ["training loss is not finite"]
    first, final = float(loss[0]), float(np.median(loss[-10:]))
    if not final <= LOSS_DROP * first:
        return [f"loss did not fall: first {first:.4g}, final {final:.4g} "
                f"(need <= {LOSS_DROP} x first)"]
    return []


def _rebuild(template, tensors):
    """ModelParams with the template's config from a flat list in all_tensors() order."""
    from ncs.model import ModelParams

    cfg = template.config
    nc = 2 * (len(cfg.coarse_widths) + 1)
    coarse = [(tensors[i], tensors[i + 1]) for i in range(0, nc, 2)]
    codes = tensors[nc]
    k = nc + 1
    cnn = [tuple(tensors[k + 4 * b:k + 4 * b + 4]) for b in range(cfg.cnn_blocks)]
    k += 4 * cfg.cnn_blocks
    fine = [(tensors[i], tensors[i + 1]) for i in range(k, len(tensors), 2)]
    return ModelParams(cfg, coarse, codes, cnn, fine, pca_frames=template.pca_frames)


def check_gradients(checkpoint_path, seed: int) -> tuple[list[str], float]:
    """finite_diff_check in float64 on the fitted model's own architecture.

    The loss is the training loss at lambda = 1/2, so both branches get
    gradients. A batch of a few surface samples is drawn; the latent grids are
    cut down to the patches it touches so every probe decodes only those. Each
    parameter group (coarse MLP, codes, CNN, fine MLP) is probed separately so
    all four are covered.
    """
    from ncs import autodiff as ad
    from ncs import checkpoint as ckpt_io
    from ncs.training import build_context, forward_losses, sample_batch

    ck = ckpt_io.load_checkpoint(checkpoint_path)
    mesh, chart, patchset, params = ckpt_io.restore_state(ck)
    batch = sample_batch(build_context(mesh, chart, patchset), GRAD_SAMPLES, seed)
    used, local = np.unique(batch.pair_patch, return_inverse=True)
    batch = dataclasses.replace(batch, pair_patch=local.astype(np.int64))
    flat = [t.data for t in params.all_tensors()]
    nc = 2 * (len(params.config.coarse_widths) + 1)
    flat[nc] = flat[nc][used]
    groups = {
        "coarse": range(0, nc),
        "codes": range(nc, nc + 1),
        "cnn": range(nc + 1, nc + 1 + 4 * params.config.cnn_blocks),
        "fine": range(nc + 1 + 4 * params.config.cnn_blocks, len(flat)),
    }
    worst = 0.0
    errors = []
    for gi, (gname, idx) in enumerate(groups.items()):
        fixed = [ad.param(a.astype(np.float64)) for a in flat]

        probe = [fixed[j] for j in idx]

        def loss(probe, idx=idx, fixed=fixed, scale=1.0):
            ts = list(fixed)
            for j, t in zip(idx, probe):
                ts[j] = t
            lj, lr = forward_losses(_rebuild(params, ts), batch)
            return ad.scale(ad.add(lj, lr), 0.5 * scale)

        # the check's error floor is absolute (1e-4); scale the loss so the group's
        # largest gradient is 1, else the detail branch's tiny gradients pass unseen
        with ad.Tape() as tape:
            y = loss(probe)
        gmax = max(float(np.abs(g).max()) for g in ad.backprop(tape, y, leaves=probe))
        scaled = functools.partial(loss, scale=1.0 / gmax if gmax > 0 else 1.0)
        err = ad.finite_diff_check(scaled, probe, eps=GRAD_EPS, n_coords=GRAD_COORDS,
                                   seed=seed + gi)
        worst = max(worst, err)
        if not err <= GRAD_TOL:
            errors.append(f"gradient check failed on {gname}: max rel error {err:.3g} > {GRAD_TOL}")
    return errors, worst


def expected_dense_counts(uv: np.ndarray, boundary: np.ndarray, res: int) -> tuple[int, int]:
    """Grid points of the res x res grid over [-1,1]^2 inside the chart's boundary
    polygon, and two faces per grid cell whose four corners are all inside.

    The polygon's vertices sit on the unit circle in angular order, so it is
    convex: a point is inside when it is on the inner side of every edge.
    """
    poly = uv[boundary]
    x, y = poly[:, 0], poly[:, 1]
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        poly = poly[::-1]
    xs = np.linspace(-1.0, 1.0, res)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")  # gx[iy, ix] = xs[ix]
    inside = np.ones((res, res), dtype=bool)
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        inside &= (b[0] - a[0]) * (gy - a[1]) - (b[1] - a[1]) * (gx - a[0]) >= 0.0
    cells = inside[:-1, :-1] & inside[1:, :-1] & inside[:-1, 1:] & inside[1:, 1:]
    return int(inside.sum()), 2 * int(cells.sum())


def count_obj(path) -> tuple[int, int, bool]:
    """Vertex and face lines of an OBJ file, and whether every number is finite."""
    data = Path(path).read_bytes()
    finite = b"nan" not in data and b"inf" not in data
    return data.count(b"\nv ") + data.startswith(b"v "), data.count(b"\nf ") + data.startswith(b"f "), finite


def check_dense(checkpoint_path, obj_path, res: int) -> list[str]:
    from ncs import checkpoint as ckpt_io

    ck = ckpt_io.load_checkpoint(checkpoint_path)
    want_v, want_f = expected_dense_counts(ck.global_uv, ck.global_boundary, res)
    got_v, got_f, finite = count_obj(obj_path)
    errors = []
    if got_v != want_v:
        errors.append(f"dense reconstruction has {got_v} vertices, {want_v} grid points are inside the chart")
    if got_f != want_f:
        errors.append(f"dense reconstruction has {got_f} faces, expected {want_f}")
    if not finite:
        errors.append("dense reconstruction has non-finite coordinates")
    return errors


def check_chamfer(full: float, coarse: float | None) -> list[str]:
    errors = []
    if not (math.isfinite(full) and full > 0):
        errors.append(f"Chamfer {full} is not a positive finite number")
    if coarse is not None and not coarse >= CHAMFER_FACTOR * full:
        errors.append(f"full Chamfer {full:.4g} is not {CHAMFER_FACTOR}x below coarse-only {coarse:.4g}")
    return errors
