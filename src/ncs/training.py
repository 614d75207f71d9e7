"""Overfitting one mesh: batch sampling over the global chart, the joint and
coarse-only losses of one forward pass (`forward_losses`), the warm-up schedule
(cosine split between the two branches), and the optimization loop with two
RMSProp parameter groups.

Schedule: lam(t) = 0.5*(1+cos(pi*t/warmup)) decays 1 -> 0 over the warm-up, the
loss is (1-lam)*L_joint + lam*L_reg, the coarse learning rate follows
base_lr*lam down to a configurable floor, and the fine learning rate is
base_lr minus the coarse one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import FrameDegenerateError, NumericError
from .geometry import TriMesh, face_areas, sample_faces
from .model import ModelParams, evaluate_batch
from .parameterization import DiskChart
from .patching import PatchSet, face_pairs


@dataclass
class TrainSchedule:
    """Warm-up length, total iterations, and the two branch learning rates."""

    warmup_iters: int = 100_000
    total_iters: int = 800_000
    base_lr: float = 1e-4
    coarse_floor_lr: float = 1e-6

    def __post_init__(self):
        if self.warmup_iters < 0 or self.total_iters < 0:
            raise ValueError("iteration counts must be >= 0")
        if not (np.isfinite(self.base_lr) and np.isfinite(self.coarse_floor_lr)):
            raise ValueError("learning rates must be finite")
        if not 0.0 <= self.coarse_floor_lr <= self.base_lr:
            raise ValueError("coarse floor must lie in [0, base_lr]")


def schedule_at(schedule: TrainSchedule, t: int) -> tuple[float, float, float]:
    """(lam, lr_coarse, lr_fine) at iteration t.

    lam(0) = 1, lam = 0 from the end of warm-up on; lr_coarse = max(base*lam, floor);
    lr_fine = base - lr_coarse (so it starts at 0 and ramps up to nearly base).
    """
    if t < 0:
        raise ValueError("iteration must be >= 0")
    if schedule.warmup_iters <= 0 or t >= schedule.warmup_iters:
        lam = 0.0
    else:
        lam = 0.5 * (1.0 + np.cos(np.pi * t / schedule.warmup_iters))
    lr_c = max(schedule.base_lr * lam, schedule.coarse_floor_lr)
    return lam, lr_c, schedule.base_lr - lr_c


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class TrainBatch:
    """Area-uniform surface samples in chart coordinates with per-sample patch pairs.

    q, target, pair_uv and pair_w are float64 as built; the model rounds them to its
    own dtype (`model.evaluate_batch`, `training._mse`).
    """

    q: np.ndarray
    target: np.ndarray
    pair_sample: np.ndarray
    pair_patch: np.ndarray
    pair_uv: np.ndarray
    pair_w: np.ndarray

    def __len__(self) -> int:
        return len(self.q)


@dataclass
class TrainContext:
    """Precomputed per-face lookup tables for fast batch construction."""

    mesh: TriMesh
    patchset: PatchSet
    face_uv: np.ndarray  # (F,3,2) global chart uv of each face corner
    face_xyz: np.ndarray  # (F,3,3)
    area_cum: np.ndarray  # (F,)


def build_context(mesh: TriMesh, global_chart: DiskChart, patchset: PatchSet) -> TrainContext:
    return TrainContext(mesh=mesh, patchset=patchset,
                        face_uv=global_chart.uv[mesh.faces], face_xyz=mesh.vertices[mesh.faces],
                        area_cum=np.cumsum(face_areas(mesh)))


def batch_at(ctx: TrainContext, faces: np.ndarray, bary: np.ndarray) -> TrainBatch:
    """The batch of the surface points given as (face, barycentric) rows."""
    return TrainBatch(np.einsum("nk,nkd->nd", bary, ctx.face_uv[faces]),
                      np.einsum("nk,nkd->nd", bary, ctx.face_xyz[faces]),
                      *face_pairs(ctx.patchset, faces, bary))


def sample_batch(ctx: TrainContext, n: int, seed: int) -> TrainBatch:
    """Fresh area-uniform training batch; deterministic per seed, and the same points
    as `geometry.sample_surface_arrays(ctx.mesh, n, seed)`."""
    return batch_at(ctx, *sample_faces(ctx.area_cum, n, seed))


def vertex_samples(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """One sample per mesh vertex as (faces (V,), barycentric (V,3)): a one-hot
    barycentric in its lowest incident face. Vertices-mode reconstruction and
    evaluation use these samples."""
    nv = mesh.n_vertices
    faces = np.full(nv, -1, dtype=np.int64)
    corner = np.zeros(nv, dtype=np.int64)
    # first occurrence with corners reversed: the lowest face, its last matching corner
    vids, pos = np.unique(mesh.faces[:, ::-1].ravel(), return_index=True)
    faces[vids] = pos // 3
    corner[vids] = 2 - pos % 3
    bary = np.zeros((nv, 3))
    bary[np.arange(nv), corner] = 1.0
    return faces, bary


def vertex_batch(ctx: TrainContext) -> TrainBatch:
    """The batch of `vertex_samples(ctx.mesh)`, one sample per mesh vertex."""
    return batch_at(ctx, *vertex_samples(ctx.mesh))


def _filter_batch(batch: TrainBatch, keep: np.ndarray) -> TrainBatch:
    idx = np.flatnonzero(keep)
    remap = np.full(len(batch), -1, dtype=np.int64)
    remap[idx] = np.arange(len(idx))
    pk = keep[batch.pair_sample]
    return TrainBatch(batch.q[idx], batch.target[idx], remap[batch.pair_sample[pk]],
                      batch.pair_patch[pk], batch.pair_uv[pk], batch.pair_w[pk])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _mse(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    t = ad.const(np.asarray(target, dtype=pred.data.dtype))
    d = ad.sub(pred, t)
    return ad.reduce_mean(ad.reduce_sum(ad.square(d), axis=1))


def forward_losses(params: ModelParams, batch: TrainBatch) -> tuple[ad.Tensor, ad.Tensor]:
    """(L_joint, L_reg) sharing one coarse forward pass."""
    pred, coarse, _ = evaluate_batch(
        params, batch.q, batch.pair_sample, batch.pair_patch, batch.pair_uv, batch.pair_w,
        return_coarse=True)
    return _mse(pred, batch.target), _mse(coarse, batch.target)


# ---------------------------------------------------------------------------
# fit loop
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    params: ModelParams
    log: list[dict] = field(default_factory=list)
    final_loss: float = float("nan")
    dropped_samples: int = 0
    opt_coarse: ad.RMSProp | None = None
    opt_fine: ad.RMSProp | None = None


def _iteration_seed(seed: int, t: int, salt: int = 0) -> int:
    return (seed * 1_000_003 + t * 2 + salt) % (2 ** 63)


def fit(mesh: TriMesh, global_chart: DiskChart, patchset: PatchSet, params: ModelParams,
        schedule: TrainSchedule, *, batch_size: int = 2048, seed: int = 0,
        log_every: int = 100, checkpoint_every: int = 0, checkpoint_cb=None) -> FitResult:
    """Run the optimization loop; mutates `params` in place and returns them with a log.

    Per iteration: sample a fresh batch, build (1-lam)*L_joint + lam*L_reg on one
    tape, backprop, and take two RMSProp steps (coarse group at lr_coarse, fine
    group at lr_fine). A batch hitting a degenerate frame is redrawn once, then its
    flagged samples are dropped (counted); a third failure raises NumericError. A
    non-finite loss writes a final checkpoint (when a callback is given) and raises
    NumericError.
    """
    ctx = build_context(mesh, global_chart, patchset)
    opt_c = ad.RMSProp(params.coarse_tensors())
    opt_f = ad.RMSProp(params.fine_tensors())
    leaves = params.all_tensors()
    result = FitResult(params=params, opt_coarse=opt_c, opt_fine=opt_f)
    t0 = time.perf_counter()

    for t in range(schedule.total_iters):
        lam, lr_c, lr_f = schedule_at(schedule, t)
        batch = sample_batch(ctx, batch_size, _iteration_seed(seed, t))
        for attempt in range(3):
            try:
                with ad.Tape() as tape:
                    lj, lr_ = forward_losses(params, batch)
                    loss = ad.add(ad.scale(lj, 1.0 - lam), ad.scale(lr_, lam))
                break
            except FrameDegenerateError as e:
                if attempt == 2:
                    raise NumericError(f"iteration {t}: degenerate frames remain after dropping "
                                       "the flagged samples") from e
                n_bad = int(e.mask.sum()) if e.mask is not None else len(batch)
                result.dropped_samples += n_bad
                if attempt == 0:
                    batch = sample_batch(ctx, batch_size, _iteration_seed(seed, t, salt=1))
                elif e.mask is not None:
                    batch = _filter_batch(batch, ~e.mask)
                    if len(batch) == 0:
                        raise NumericError(f"iteration {t}: every sample hit a degenerate frame") from e
                else:
                    raise
        lval = float(loss.data)
        if not np.isfinite(lval):
            if checkpoint_cb is not None:
                checkpoint_cb(t, params, (opt_c, opt_f))
            raise NumericError(f"non-finite loss at iteration {t}")
        ad.backprop(tape, loss, leaves=leaves)
        opt_c.step(lr_c)
        opt_f.step(lr_f)
        result.final_loss = lval
        if log_every and (t % log_every == 0 or t == schedule.total_iters - 1):
            result.log.append({
                "iter": t, "lambda": lam, "lr_coarse": lr_c, "lr_fine": lr_f,
                "loss": lval, "loss_joint": float(lj.data), "loss_reg": float(lr_.data),
                "wall_ms": (time.perf_counter() - t0) * 1e3,
            })
        if checkpoint_every and checkpoint_cb is not None and (t + 1) % checkpoint_every == 0:
            checkpoint_cb(t + 1, params, (opt_c, opt_f))
    return result
