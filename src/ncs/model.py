"""The surface model: a small softplus MLP for the smooth base shape plus a fine
branch of per-patch latent grids decoded by a shared residual upsampling CNN,
bilinearly sampled, mapped through a small MLP, blended over patches, and applied
in a local reference frame derived from the base surface's Jacobian.

Displacement modes:
  vector  - 3-vector displacement rotated by the frame [n, t, b] (default)
  normal  - scalar displacement along the frame normal (first fine output)
  pca     - 3-vector displacement rotated by a fixed per-patch PCA frame of the
            ground-truth patch points (no Jacobian frames)
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import AlignmentError, FrameDegenerateError, NumericError
from .parameterization import DiskChart
from .patching import PatchSet, pairs_for_points

MODES = ("vector", "normal", "pca")

# squared Jacobian cross-product norm below this counts as a degenerate frame
_FRAME_EPS2 = 1e-18


@dataclass(frozen=True)
class ArchConfig:
    """Architecture knobs; the defaults match the 100K-parameter reference setup."""

    coarse_widths: tuple[int, ...] = (128, 64, 64)
    code_shape: tuple[int, int, int] = (8, 4, 4)
    cnn_channels: int = 8
    cnn_blocks: int = 5
    fine_widths: tuple[int, ...] = (16, 16)
    mode: str = "vector"

    def __post_init__(self):
        if any(w < 1 for w in self.coarse_widths):
            raise ValueError("coarse widths must be >= 1")
        if any(w < 1 for w in self.fine_widths) or not self.fine_widths:
            raise ValueError("fine widths must be >= 1")
        if self.cnn_blocks < 1:
            raise ValueError("need at least one CNN block")
        if self.cnn_channels < 1:
            raise ValueError(f"CNN channels must be >= 1, got {self.cnn_channels}")
        if any(d < 1 for d in self.code_shape):
            raise ValueError(f"code dimensions must be >= 1, got {self.code_shape}")
        if self.code_shape[0] != self.cnn_channels:
            raise ValueError(
                f"code depth {self.code_shape[0]} must equal CNN channels {self.cnn_channels}: "
                "residual blocks keep the channel count constant")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    # exact parameter accounting -------------------------------------------------

    def coarse_param_count(self) -> int:
        dims = (2, *self.coarse_widths, 3)
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    def fine_param_count(self) -> int:
        dims = (self.cnn_channels, *self.fine_widths, 3)
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    def cnn_param_count(self) -> int:
        c = self.cnn_channels
        return self.cnn_blocks * 2 * (c * c * 9 + c)

    def code_param_count(self, n_patches: int) -> int:
        d, h, w = self.code_shape
        return n_patches * d * h * w

    def grid_size(self) -> tuple[int, int]:
        """Decoded feature-grid resolution: each block upsamples 2x."""
        _, h, w = self.code_shape
        return h * 2 ** self.cnn_blocks, w * 2 ** self.cnn_blocks


class ModelParams:
    """All learnable tensors. The CNN and fine MLP are shared across patches; the
    per-patch latent grids are the only patch-specific parameters."""

    def __init__(self, config: ArchConfig, coarse, codes, cnn, fine,
                 pca_frames: np.ndarray | None = None, detail_scale: float = 1.0):
        self.config = config
        self.coarse = coarse  # list of (W, b) Tensor pairs
        self.codes = codes  # Tensor (P, C, H0, W0)
        self.cnn = cnn  # list of (k1, b1, k2, b2) Tensor tuples
        self.fine = fine  # list of (W, b) Tensor pairs
        self.pca_frames = pca_frames  # (P, 3, 3) constant, pca mode only
        self.detail_scale = float(detail_scale)

    @property
    def n_patches(self) -> int:
        return self.codes.shape[0]

    def coarse_tensors(self) -> list[ad.Tensor]:
        return [t for pair in self.coarse for t in pair]

    def fine_tensors(self) -> list[ad.Tensor]:
        out = [self.codes]
        for block in self.cnn:
            out.extend(block)
        for pair in self.fine:
            out.extend(pair)
        return out

    def named_tensors(self) -> dict[str, ad.Tensor]:
        """Every learnable tensor under its checkpoint record name: coarse, codes,
        CNN, fine, the order of the two optimizer groups."""
        out = {}
        for i, (w, b) in enumerate(self.coarse):
            out.update({f"coarse{i}.w": w, f"coarse{i}.b": b})
        out["codes"] = self.codes
        for i, block in enumerate(self.cnn):
            out.update(zip((f"cnn{i}.k1", f"cnn{i}.b1", f"cnn{i}.k2", f"cnn{i}.b2"), block))
        for i, (w, b) in enumerate(self.fine):
            out.update({f"fine{i}.w": w, f"fine{i}.b": b})
        return out

    def all_tensors(self) -> list[ad.Tensor]:
        return list(self.named_tensors().values())

    def param_counts(self) -> dict[str, int]:
        counts = {
            "coarse": sum(t.size for t in self.coarse_tensors()),
            "code": self.codes.size,
            "cnn": sum(t.size for b in self.cnn for t in b),
            "fine": sum(t.size for p in self.fine for t in p),
        }
        counts["total"] = sum(counts.values())
        return counts

    def dtype(self):
        return self.coarse[0][0].dtype


def build_model(config: ArchConfig, patchset: PatchSet, seed: int = 0, mesh=None) -> ModelParams:
    """Initialize parameters: uniform +-1/sqrt(fan_in) layers, a zeroed fine output
    layer (training starts exactly on the coarse surface), and 0.01-scaled normal
    latent grids. PCA mode also needs `mesh` to store ground-truth patch frames."""
    if patchset.n_patches == 0:
        raise ValueError("patch set is empty")
    rng = np.random.default_rng(seed)

    def layer(din, dout, zero=False):
        if zero:
            return (ad.param(np.zeros((din, dout), dtype=np.float32)),
                    ad.param(np.zeros(dout, dtype=np.float32)))
        bound = 1.0 / np.sqrt(din)
        return (ad.param(rng.uniform(-bound, bound, (din, dout)).astype(np.float32)),
                ad.param(rng.uniform(-bound, bound, dout).astype(np.float32)))

    dims = (2, *config.coarse_widths, 3)
    coarse = [layer(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    c = config.cnn_channels
    kb = 1.0 / np.sqrt(9 * c)
    cnn = []
    for _ in range(config.cnn_blocks):
        k1 = ad.param(rng.uniform(-kb, kb, (c, c, 3, 3)).astype(np.float32))
        b1 = ad.param(np.zeros(c, dtype=np.float32))
        k2 = ad.param(rng.uniform(-kb, kb, (c, c, 3, 3)).astype(np.float32))
        b2 = ad.param(np.zeros(c, dtype=np.float32))
        cnn.append((k1, b1, k2, b2))

    fdims = (c, *config.fine_widths, 3)
    fine = [layer(fdims[i], fdims[i + 1], zero=(i == len(fdims) - 2)) for i in range(len(fdims) - 1)]

    d, h, w = config.code_shape
    codes = ad.param((0.01 * rng.standard_normal((patchset.n_patches, d, h, w))).astype(np.float32))

    pca = None
    if config.mode == "pca":
        if mesh is None:
            raise ValueError("pca mode needs the ground-truth mesh to build patch frames")
        pca = np.stack([_pca_frame(mesh.vertices[p.vertex_ids]) for p in patchset.patches])
        pca = pca.astype(np.float32)
    return ModelParams(config, coarse, codes, cnn, fine, pca_frames=pca)


def _pca_frame(points: np.ndarray) -> np.ndarray:
    """Right-handed frame [n, t, n x t] from the covariance of a point set:
    n is the least-variance axis, t the dominant one."""
    c = points - points.mean(axis=0)
    cov = c.T @ c
    _, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    n = vecs[:, 0]
    t = vecs[:, 2]
    # deterministic sign: largest-magnitude component positive
    if n[np.argmax(np.abs(n))] < 0:
        n = -n
    if t[np.argmax(np.abs(t))] < 0:
        t = -t
    b = np.cross(n, t)
    return np.stack([n, t, b], axis=1)


# ---------------------------------------------------------------------------
# coarse branch
# ---------------------------------------------------------------------------

def _coarse_apply(params: ModelParams, q: ad.Tensor, want_jacobian: bool):
    """Batched coarse MLP; optionally propagates the two input tangents alongside
    the primal so the Jacobian is available (and differentiable) downstream."""
    h = q
    tu = tv = None
    if want_jacobian:
        n = q.data.shape[0]
        dt = q.data.dtype
        tu = ad.const(np.tile(np.array([[1.0, 0.0]], dtype=dt), (n, 1)))
        tv = ad.const(np.tile(np.array([[0.0, 1.0]], dtype=dt), (n, 1)))
    for w, b in params.coarse[:-1]:
        pre = ad.linear(h, w, b)
        h = ad.softplus(pre)
        if want_jacobian:
            s = ad.sigmoid(pre)
            tu = ad.mul(s, ad.linear(tu, w))
            tv = ad.mul(s, ad.linear(tv, w))
    wo, bo = params.coarse[-1]
    p = ad.linear(h, wo, bo)
    if not want_jacobian:
        return p, None, None
    return p, ad.linear(tu, wo), ad.linear(tv, wo)


def coarse_forward(params: ModelParams, q) -> np.ndarray:
    """Base-surface position of one 2D point."""
    qt = ad.const(np.asarray(q, dtype=params.dtype()).reshape(1, 2))
    p, _, _ = _coarse_apply(params, qt, want_jacobian=False)
    return p.data[0].astype(np.float64)


def coarse_jacobian(params: ModelParams, q) -> np.ndarray:
    """3x2 Jacobian of the base surface at q, by tangent (dual-number) propagation."""
    qt = ad.const(np.asarray(q, dtype=params.dtype()).reshape(1, 2))
    _, ju, jv = _coarse_apply(params, qt, want_jacobian=True)
    return np.stack([ju.data[0], jv.data[0]], axis=1).astype(np.float64)


def local_frame(params: ModelParams, q) -> np.ndarray:
    """Orthonormal right-handed frame with columns [normal, tangent-u, bitangent]."""
    qt = ad.const(np.asarray(q, dtype=params.dtype()).reshape(1, 2))
    _, ju, jv = _coarse_apply(params, qt, want_jacobian=True)
    frame, _ = _frame(ju, jv)
    return np.stack([f.data[0] for f in frame], axis=1).astype(np.float64)


def _frame(ju: ad.Tensor, jv: ad.Tensor, degenerate: str = "raise"):
    """Taped unit frames ((normal ju x jv, tangent ju, bitangent), each (N,3), fallbacks).

    Rows with a squared normal below _FRAME_EPS2 raise FrameDegenerateError, unless
    `degenerate` is "fallback" outside a tape: then they reuse the Jacobian of the
    nearest previous valid row, and `fallbacks` counts them.
    """
    nvec = ad.cross3(ju, jv)
    nn2 = ad.reduce_sum(ad.square(nvec), axis=1, keepdims=True)
    bad = nn2.data[:, 0] < _FRAME_EPS2
    if bad.any():
        if degenerate != "fallback" or ad.recording():
            raise FrameDegenerateError(f"{int(bad.sum())} degenerate frame(s) in batch", mask=bad)
        src = _nearest_valid_rows(bad)
        return _frame(ad.const(ju.data[src]), ad.const(jv.data[src]))[0], int(bad.sum())
    nhat = ad.div(nvec, ad.sqrt(nn2))
    that = ad.div(ju, ad.sqrt(ad.reduce_sum(ad.square(ju), axis=1, keepdims=True)))
    bvec = ad.cross3(nhat, that)
    bhat = ad.div(bvec, ad.sqrt(ad.reduce_sum(ad.square(bvec), axis=1, keepdims=True)))
    return (nhat, that, bhat), 0


def _nearest_valid_rows(bad: np.ndarray) -> np.ndarray:
    """For each row, the index of the nearest previous valid row (next valid for a
    bad prefix). Raises if every row is bad."""
    n = len(bad)
    idx = np.arange(n)
    prev = np.where(~bad, idx, -1)
    prev = np.maximum.accumulate(prev)
    nxt = np.where(~bad, idx, n)
    nxt = np.minimum.accumulate(nxt[::-1])[::-1]
    src = np.where(prev >= 0, prev, nxt)
    if (src >= n).any():
        raise NumericError("every frame in the batch is degenerate")
    return src


# ---------------------------------------------------------------------------
# fine branch
# ---------------------------------------------------------------------------

def decode_grids(params: ModelParams) -> ad.Tensor:
    """Run all latent grids through the shared upsampling CNN: (P,C,H0,W0) ->
    (P,C,H0*2^B,W0*2^B). Each block is upsample -> residual double convolution."""
    return _decode(params.codes, params.cnn)


def _decode(x: ad.Tensor, blocks) -> ad.Tensor:
    for k1, b1, k2, b2 in blocks:
        x = ad.upsample2x(x)
        x = ad.conv_residual_block(x, k1, b1, k2, b2)
    return x


def _fine_mlp(params: ModelParams, feats: ad.Tensor) -> ad.Tensor:
    h = feats
    for w, b in params.fine[:-1]:
        h = ad.linear(h, w, b, activation="relu")
    wo, bo = params.fine[-1]
    return ad.linear(h, wo, bo)


def _features(params: ModelParams, pair_patch, pair_uv, grids: ad.Tensor | None) -> ad.Tensor:
    """Decoded feature vector of each (patch, uv) lookup, times `detail_scale`: (M, C).

    The lookups read `pair_uv` rounded to the model's dtype, whatever dtype the
    caller passes, so training, evaluation and feature maps read the same taps.
    Callers that pass decoded `grids` (the CLI's dense evaluation) sample them
    bilinearly. Without `grids`, blocks 0..B-2 run densely and the last block is
    chosen by pixel work: the window op (`ad.residual_block_at`) evaluates the 16
    high-res pixels of the 4x4 window around each lookup's 2x2 taps, the dense block
    evaluates all P*H*W decoded pixels, and the window op runs while it does no more
    of that work: 16*M <= P*H*W. With 2,048-sample batches (about 3,800 lookups)
    this restricts on the reference architecture (128x128 grids) and stays dense on
    the desk architecture (32x32 grids); a single point reads a few pixels per patch.
    """
    pair_uv = np.asarray(pair_uv, dtype=params.dtype())
    if grids is None:
        h, w = params.config.grid_size()
        if 16 * len(pair_patch) <= params.n_patches * h * w:
            feats = ad.residual_block_at(_decode(params.codes, params.cnn[:-1]), *params.cnn[-1],
                                         pair_patch, pair_uv)
        else:
            grids = decode_grids(params)
    if grids is not None:
        feats = ad.grid_sample(grids, pair_patch, pair_uv)
    if params.detail_scale != 1.0:
        feats = ad.scale(feats, params.detail_scale)  # sampling is linear in the grids
    return feats


def _blend(rows: ad.Tensor, pair_sample, pair_w, n_samples: int) -> ad.Tensor:
    """Sum of each sample's rows weighted by their blend weights: (n_samples, D)."""
    w = ad.const(np.asarray(pair_w, dtype=rows.data.dtype).reshape(-1, 1))
    return ad.segment_sum(ad.mul(rows, w), pair_sample, n_samples)


def _fine_displacement(params: ModelParams, pair_sample, pair_patch, pair_uv, pair_w,
                       n_samples: int, grids: ad.Tensor | None) -> ad.Tensor:
    """Per-patch features (`_features`) through the fine MLP, blended per sample."""
    out = _fine_mlp(params, _features(params, pair_patch, pair_uv, grids))  # (M, 3)
    if params.config.mode == "pca":
        out = ad.rotate_rows(out, params.pca_frames[np.asarray(pair_patch, dtype=np.int64)])
    return _blend(out, pair_sample, pair_w, n_samples)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def evaluate_batch(params: ModelParams, q, pair_sample, pair_patch, pair_uv, pair_w, *,
                   coarse_only: bool = False, grids: ad.Tensor | None = None,
                   degenerate: str = "raise", return_coarse: bool = False):
    """Batched surface evaluation from precomputed patch-pair data.

    q, pair_uv and pair_w may come in any float dtype: the model rounds each to its
    own, here (q), in `_features` (uv) and in `_blend` (w). Returns (positions
    Tensor (N,3), info dict). `degenerate` picks the policy for rank-deficient
    Jacobians: "raise" (training) or "fallback" (reconstruction: reuse the nearest
    previous valid frame, counted in info["frame_fallbacks"]).
    """
    info = {"frame_fallbacks": 0}
    dt = params.dtype()
    qt = ad.const(np.asarray(q, dtype=dt))
    n = qt.data.shape[0]
    mode = params.config.mode
    need_jac = not coarse_only and mode in ("vector", "normal")
    p, ju, jv = _coarse_apply(params, qt, want_jacobian=need_jac)
    if coarse_only:
        return (p, p, info) if return_coarse else (p, info)

    d = _fine_displacement(params, pair_sample, pair_patch, pair_uv, pair_w, n, grids)
    if mode == "pca":
        out = ad.add(p, d)
        return (out, p, info) if return_coarse else (out, info)

    (nhat, that, bhat), info["frame_fallbacks"] = _frame(ju, jv, degenerate)
    if mode == "normal":
        disp = ad.mul(nhat, ad.slice_cols(d, 0, 1))
    else:
        disp = ad.add(ad.add(ad.mul(nhat, ad.slice_cols(d, 0, 1)),
                             ad.mul(that, ad.slice_cols(d, 1, 2))),
                      ad.mul(bhat, ad.slice_cols(d, 2, 3)))
    out = ad.add(p, disp)
    return (out, p, info) if return_coarse else (out, info)


def fine_forward(params: ModelParams, patchset: PatchSet, global_chart: DiskChart, q) -> np.ndarray:
    """Blended fine displacement (canonical coordinates, before any frame) at one point."""
    ps, pp, puv, pw = pairs_for_points(patchset, global_chart, q)
    d = _fine_displacement(params, ps, pp, puv, pw, 1, None)
    return d.data[0].astype(np.float64)


def evaluate(params: ModelParams, patchset: PatchSet, global_chart: DiskChart, q) -> np.ndarray:
    """Full model at one global 2D point: coarse position plus framed displacement."""
    ps, pp, puv, pw = pairs_for_points(patchset, global_chart, q)
    out, _ = evaluate_batch(params, np.reshape(q, (1, 2)), ps, pp, puv, pw)
    return out.data[0].astype(np.float64)


# ---------------------------------------------------------------------------
# applications
# ---------------------------------------------------------------------------

def scale_details(params: ModelParams, factor: float) -> ModelParams:
    """A view of the model whose decoded features are scaled by `factor` (at their
    bilinear samples in `_features`, the same as scaling the grids up to rounding);
    factor 1 is the identity, <1 smooths, >1 exaggerates."""
    if not (np.isfinite(factor) and factor >= 0):
        raise ValueError(f"detail scale factor must be finite and >= 0, got {factor}")
    view = copy.copy(params)
    view.detail_scale = float(factor)
    return view


def feature_vectors(params: ModelParams, patchset: PatchSet, global_chart: DiskChart,
                    qs: np.ndarray) -> np.ndarray:
    """Blended decoded feature vector at each query point (the fine MLP's input), by
    the fine branch's own feature path (`_features`, `_blend`)."""
    ps, pp, puv, pw = pairs_for_points(patchset, global_chart, qs)
    feats = _features(params, pp, puv, None)
    return _blend(feats, ps, pw, len(qs)).data.astype(np.float64)


def activation_map(params: ModelParams, patchset: PatchSet, global_chart: DiskChart,
                   region_q: np.ndarray, query_q: np.ndarray) -> np.ndarray:
    """Cosine similarity between each query point's feature vector and the mean
    feature vector over a region; scores lie in [-1, 1]."""
    region_q = np.asarray(region_q, dtype=np.float64).reshape(-1, 2)
    if len(region_q) == 0:
        raise ValueError("empty region")
    query_q = np.asarray(query_q, dtype=np.float64).reshape(-1, 2)
    mean = feature_vectors(params, patchset, global_chart, region_q).mean(axis=0)
    mn = np.linalg.norm(mean)
    if mn == 0:
        return np.zeros(len(query_q))
    feats = feature_vectors(params, patchset, global_chart, query_q)
    norms = np.linalg.norm(feats, axis=1)
    scores = np.zeros(len(query_q))
    ok = norms > 0
    scores[ok] = feats[ok] @ mean / (norms[ok] * mn)
    return np.clip(scores, -1.0, 1.0)


def transfer_details(source: ModelParams, target: ModelParams) -> ModelParams:
    """Hybrid model: the target's coarse branch (and frames) with the source's fine
    branch. Requires matching patch layouts and fine architectures."""
    if source.codes.shape != target.codes.shape:
        raise AlignmentError(
            f"patch layouts differ: {source.codes.shape[0]} vs {target.codes.shape[0]} patches "
            f"(code shapes {source.codes.shape} vs {target.codes.shape})")
    s, t = source.config, target.config
    if (s.cnn_channels, s.cnn_blocks, s.fine_widths, s.mode) != (t.cnn_channels, t.cnn_blocks, t.fine_widths, t.mode):
        raise AlignmentError("fine architectures differ; cannot transfer details")
    cfg = dataclasses.replace(t, code_shape=s.code_shape)
    return ModelParams(cfg, target.coarse, source.codes, source.cnn, source.fine,
                       pca_frames=source.pca_frames, detail_scale=source.detail_scale)
