"""Reverse-mode automatic differentiation over small dense tensors.

The op set is exactly what the surface model needs: batched affine layers, 3x3
convolutions with zero padding, nearest-neighbor upsampling, bilinear grid
lookups, an upsampling residual block evaluated only in a window around each
bilinear lookup (`residual_block_at`), segment reductions, and a handful
of pointwise/reduction primitives.

Arithmetic is float32 unless the inputs are float64; the finite-difference
oracle promotes everything to float64. One `Tape` records one forward pass and
`backprop` consumes it once, in reverse order.

`conv3x3` is an implicit-GEMM (im2col) convolution. All images of a batch sit
zero-padded and end to end in one channel-major flat buffer, where each of the 9
taps is a fixed column offset. Fixed-size chunks of shifted columns go through
one BLAS matmul each, in both passes, so no full im2col matrix is ever built.

`residual_block_at` evaluates the upsampling residual block per lookup, on one
4x4 low-res patch: nearest 2x upsampling then a 3x3 conv is, per output parity,
a fixed linear map of low-res pixels (the sub-pixel form of Shi et al. 2016), so
both convolutions are fixed-shape GEMMs with kernels built from k1 and k2 and
0/1 incidence tensors, with no per-pixel index maps.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, TapeError

_ACTIVE: "Tape | None" = None
_KINKS: "list[np.ndarray] | None" = None


class Tensor:
    """Dense array (up to 4 axes) with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ValueError(f"tensors are limited to 4 axes, got {arr.ndim}")
        self.data = np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def param(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def const(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class Tape:
    """Ordered record of one forward pass; activate as a context manager.

    Topological order is the recording order: inputs always precede outputs.
    One backward pass per tape.
    """

    def __init__(self):
        self.nodes: list = []  # (output, inputs, backward)
        self._done = False

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = None
        return False


def recording() -> bool:
    return _ACTIVE is not None


def _out(data: np.ndarray, *inputs: Tensor) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data if data.flags["C_CONTIGUOUS"] else np.ascontiguousarray(data)
    t.grad = None
    t.requires_grad = any(i.requires_grad for i in inputs)
    return t


def _emit(out: Tensor, inputs, backward) -> Tensor:
    if _ACTIVE is not None and out.requires_grad:
        _ACTIVE.nodes.append((out, inputs, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(ax for ax, s in enumerate(shape) if s == 1 and g.shape[ax] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _note_kinks(pre: np.ndarray) -> None:
    if _KINKS is not None:
        _KINKS.append(pre > 0)


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data + b.data, a, b)

    def bw(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data - b.data, a, b)

    def bw(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data * b.data, a, b)

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _out(a.data / b.data, a, b)

    def bw(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None
        return ga, gb

    return _emit(out, (a, b), bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = _out(x.data * c, x)

    def bw(g):
        return (g * c,)

    return _emit(out, (x,), bw)


def square(x: Tensor) -> Tensor:
    out = _out(x.data * x.data, x)

    def bw(g):
        return (g * (2.0 * x.data),)

    return _emit(out, (x,), bw)


def sqrt(x: Tensor) -> Tensor:
    out_d = np.sqrt(x.data)
    out = _out(out_d, x)

    def bw(g):
        return (g * (0.5 / out_d),)

    return _emit(out, (x,), bw)


def relu(x: Tensor) -> Tensor:
    _note_kinks(x.data)
    out = _out(np.maximum(x.data, 0), x)

    def bw(g):
        return (g * (x.data > 0),)

    return _emit(out, (x,), bw)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # tanh form: stable for any x and much faster than masked exp branches
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _softplus_np(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x: Tensor) -> Tensor:
    out = _out(_softplus_np(x.data), x)

    def bw(g):
        return (g * _sigmoid_np(x.data),)

    return _emit(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    out = _out(s, x)

    def bw(g):
        return (g * s * (1.0 - s),)

    return _emit(out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, W: Tensor, b: Tensor | None = None, activation: str = "none") -> Tensor:
    """activation(x @ W + b) for x of shape (N, din); W is (din, dout)."""
    if x.data.ndim != 2:
        raise ValueError(f"linear expects x of shape (N, din), got {x.data.shape}")
    if x.data.shape[1] != W.data.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.data.shape} vs W {W.data.shape}")
    pre = x.data @ W.data
    if b is not None:
        pre = pre + b.data
    if activation == "none":
        out_d = pre
    elif activation == "relu":
        _note_kinks(pre)
        out_d = np.maximum(pre, 0)
    elif activation == "softplus":
        out_d = _softplus_np(pre)
    else:
        raise ValueError(f"unknown activation '{activation}'")
    inputs = (x, W) if b is None else (x, W, b)
    out = _out(out_d, *inputs)

    def bw(g):
        if activation == "relu":
            gp = g * (pre > 0)
        elif activation == "softplus":
            gp = g * _sigmoid_np(pre)
        else:
            gp = g
        gx = gp @ W.data.T if x.requires_grad else None
        gW = x.data.T @ gp if W.requires_grad else None
        if b is None:
            return gx, gW
        return gx, gW, gp.sum(axis=0)

    return _emit(out, inputs, bw)


def cross3(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cross product on (..., 3) tensors."""
    out = _out(np.cross(a.data, b.data), a, b)

    def bw(g):
        ga = _unbroadcast(np.cross(b.data, g), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(np.cross(g, a.data), b.data.shape) if b.requires_grad else None
        return ga, gb

    return _emit(out, (a, b), bw)


def rotate_rows(x: Tensor, mats: np.ndarray) -> Tensor:
    """Per-row matrix apply out[m] = mats[m] @ x[m]; `mats` is a constant (M,3,3) array."""
    mats = np.asarray(mats, dtype=x.data.dtype)
    out = _out(np.einsum("mij,mj->mi", mats, x.data), x)

    def bw(g):
        return (np.einsum("mij,mi->mj", mats, g),)

    return _emit(out, (x,), bw)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _out(np.asarray(x.data.sum(axis=axis, keepdims=keepdims)), x)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape),)

    return _emit(out, (x,), bw)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    out = _out(np.asarray(x.data.mean(axis=axis)), x)
    n = x.data.size if axis is None else x.data.shape[axis]

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / n, x.data.shape),)
        return (np.broadcast_to(np.expand_dims(g / n, axis), x.data.shape),)

    return _emit(out, (x,), bw)


def slice_cols(x: Tensor, j0: int, j1: int) -> Tensor:
    """Columns [j0:j1) of a 2D tensor."""
    out = _out(np.ascontiguousarray(x.data[:, j0:j1]), x)

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[:, j0:j1] = g
        return (gx,)

    return _emit(out, (x,), bw)


def segment_sum(x: Tensor, seg: np.ndarray, n: int) -> Tensor:
    """Sum rows of x (M, D) into n bins given constant bin ids seg (M,)."""
    seg = np.asarray(seg, dtype=np.int64)
    out_d = np.zeros((n,) + x.data.shape[1:], dtype=x.data.dtype)
    d = int(np.prod(x.data.shape[1:]))
    # one flat scatter adds the rows element by element in row order, as a row scatter would
    np.add.at(out_d.reshape(-1), (seg[:, None] * d + np.arange(d)).reshape(-1), x.data.reshape(-1))
    out = _out(out_d, x)

    def bw(g):
        return (g[seg],)

    return _emit(out, (x,), bw)


# ---------------------------------------------------------------------------
# image ops
# ---------------------------------------------------------------------------

def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling of the last two axes; backward sums 2x2 blocks."""
    out = _out(x.data.repeat(2, axis=-2).repeat(2, axis=-1), x)

    def bw(g):
        s = g.shape
        g4 = g.reshape(s[:-2] + (s[-2] // 2, 2, s[-1] // 2, 2))
        # the four phases added in a fixed order; several times faster than a two-axis sum
        return ((g4[..., 0, :, 0] + g4[..., 0, :, 1]) + (g4[..., 1, :, 0] + g4[..., 1, :, 1]),)

    return _emit(out, (x,), bw)


_CHUNK = 4096  # flat columns per GEMM: keeps the (9*Cin, chunk) column buffer cache-sized


def _pad_flat(a: np.ndarray, m: int) -> np.ndarray:
    """(P,C,H,W) -> channel-major (C, P*(H+2)*(W+2) + 2m): each image zero-padded by one
    pixel, the images end to end along the flat axis, and m zero columns at either end."""
    p, c, h, w = a.shape
    n = p * (h + 2) * (w + 2)
    flat = np.zeros((c, n + 2 * m), dtype=a.dtype)
    flat[:, m:m + n].reshape(c, p, h + 2, w + 2)[:, :, 1:-1, 1:-1] = a.transpose(1, 0, 2, 3)
    return flat


def _crop(flat: np.ndarray, shape: tuple, bias: np.ndarray | None = None) -> np.ndarray:
    """Inverse of `_pad_flat` without the margins: (C, P*(H+2)*(W+2)) -> (P,C,H,W) (+ bias)."""
    p, c, h, w = shape
    inner = flat.reshape(c, p, h + 2, w + 2)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)
    if bias is None:
        return np.ascontiguousarray(inner)
    return np.add(inner, bias[:, None, None], out=np.empty(shape, dtype=flat.dtype))


def _columns(xf: np.ndarray, w: int, s: int, e: int, col: np.ndarray) -> np.ndarray:
    """im2col of flat positions [s, e): row block t = 3i+j of `col` is `xf` shifted by tap (i, j)."""
    cin = xf.shape[0]
    for t in range(9):
        i, j = divmod(t, 3)
        o = (w + 3) + (i - 1) * (w + 2) + (j - 1)  # margin plus the tap's flat offset
        col[t * cin:(t + 1) * cin, :e - s] = xf[:, s + o:e + o]
    return col[:, :e - s]


def _shifted_gemm(xf: np.ndarray, kmat: np.ndarray, w: int, n: int) -> np.ndarray:
    """(Cout, n): kmat (Cout, 9*Cin) times the columns of flat positions [0, n), by chunks."""
    out = np.empty((kmat.shape[0], n), dtype=xf.dtype)
    col = np.empty((kmat.shape[1], min(_CHUNK, n)), dtype=xf.dtype)
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        np.matmul(kmat, _columns(xf, w, s, e, col), out=out[:, s:e])
    return out


def conv3x3(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """3x3 convolution with zero padding 1 on (C,H,W) or (P,C,H,W); k is (Cout,Cin,3,3).

    The input is padded once into a channel-major flat buffer (`_pad_flat`) in which
    tap (i, j) is the column offset (i-1)(W+2) + (j-1). Output positions are walked in
    fixed chunks: the 9 shifted slices of a chunk fill one (9*Cin, chunk) buffer and one
    GEMM with the (Cout, 9*Cin) kernel matrix writes the chunk. Outputs at the padding
    are computed and cropped. The backward pass accumulates gk chunk by chunk from
    rebuilt columns and runs the same GEMM on the padded gradient with the flipped,
    transposed kernel for gx, so no full im2col matrix is ever held.
    """
    xd = x.data
    squeezed = xd.ndim == 3
    if squeezed:
        xd = xd[None]
    if xd.ndim != 4:
        raise ValueError(f"conv3x3 expects 3 or 4 axes, got {x.data.ndim}")
    cout, cin = k.data.shape[:2]
    if k.data.shape[2:] != (3, 3) or xd.shape[1] != cin:
        raise ValueError(f"kernel/channel mismatch: x {x.data.shape} vs k {k.data.shape}")
    p, _, h, w = xd.shape
    dt = np.result_type(xd, k.data, b.data)
    m = w + 3  # the largest tap offset, so no shift leaves the buffer
    n = p * (h + 2) * (w + 2)
    xf = _pad_flat(xd.astype(dt, copy=False), m)
    kmat = k.data.transpose(0, 2, 3, 1).reshape(cout, 9 * cin).astype(dt, copy=False)
    out_d = _crop(_shifted_gemm(xf, kmat, w, n), (p, cout, h, w), b.data)
    if squeezed:
        out_d = out_d[0]
    out = _out(out_d, x, k, b)

    def bw(g):
        g4 = g[None] if squeezed else g
        gb = g4.sum(axis=(0, 2, 3)) if b.requires_grad else None
        gf = _pad_flat(g4.astype(dt, copy=False), m)
        gk = None
        if k.requires_grad:
            gkmat = np.zeros((cout, 9 * cin), dtype=dt)
            col = np.empty((9 * cin, min(_CHUNK, n)), dtype=dt)
            for s in range(0, n, _CHUNK):
                e = min(s + _CHUNK, n)
                # (9*Cin, chunk) @ (chunk, Cout) took half the time of the transposed
                # product at Cin = 8 (one BLAS thread), with identical bits
                gkmat += (_columns(xf, w, s, e, col) @ gf[:, m + s:m + e].T).T
            gk = np.ascontiguousarray(gkmat.reshape(cout, 3, 3, cin).transpose(0, 3, 1, 2))
        gx = None
        if x.requires_grad:
            kflip = k.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(cin, 9 * cout)
            gx = _crop(_shifted_gemm(gf, kflip.astype(dt, copy=False), w, n), (p, cin, h, w))
            if squeezed:
                gx = gx[0]
        return gx, gk, gb

    return _emit(out, (x, k, b), bw)


def conv_residual_block(x: Tensor, k1: Tensor, b1: Tensor, k2: Tensor, b2: Tensor) -> Tensor:
    """relu(x + conv2(relu(conv1(x)))): two 3x3 convolutions at constant spatial size."""
    y = conv3x3(x, k1, b1)
    y = relu(y)
    y = conv3x3(y, k2, b2)
    return relu(add(x, y))


def _bilerp_coords(h: int, w: int, uv: np.ndarray):
    """Align-corners pixel coordinates for uv in [-1,1]^2 (out-of-range is clamped)."""
    u = np.clip(uv[..., 0], -1.0, 1.0)
    v = np.clip(uv[..., 1], -1.0, 1.0)
    px = (u + 1.0) * 0.5 * (w - 1)
    py = (v + 1.0) * 0.5 * (h - 1)
    x0 = np.clip(np.floor(px).astype(np.int64), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(py).astype(np.int64), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = px - x0
    fy = py - y0
    return x0, x1, y0, y1, fx, fy


def _bilerp_weights(fx: np.ndarray, fy: np.ndarray, dt) -> tuple[np.ndarray, ...]:
    """The (M,1) weights of the taps 00, 01, 10, 11 from the bilinear fractions, in dtype dt."""
    wx = fx[:, None].astype(dt)
    wy = fy[:, None].astype(dt)
    return (1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy


def grid_sample(grids: Tensor, idx: np.ndarray, uv: np.ndarray) -> Tensor:
    """Bilinear lookups: grids (P,C,H,W), constant row ids idx (M,), constant uv (M,2) -> (M,C).

    One (C,H,W) grid is taken as P=1, as conv3x3 takes one image, and a single uv
    point (2,) gives a (C,) row. Gradients flow into the grids only; uv is treated as data.
    """
    g = grids.data
    squeezed = g.ndim == 3
    if squeezed:
        g = g[None]
    p, c, h, w = g.shape
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    uv = np.asarray(uv, dtype=np.float64)
    out_shape = uv.shape[:-1] + (c,)
    x0, x1, y0, y1, fx, fy = _bilerp_coords(h, w, uv.reshape(-1, 2))
    w00, w01, w10, w11 = _bilerp_weights(fx, fy, g.dtype)
    v00 = g[idx, :, y0, x0]
    v01 = g[idx, :, y0, x1]
    v10 = g[idx, :, y1, x0]
    v11 = g[idx, :, y1, x1]
    out = _out((v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11).reshape(out_shape), grids)

    def bw(gr):
        gr = gr.reshape(-1, c)
        gg = np.zeros_like(g)
        # one scatter over the flat (P,C,H,W) index of every tap and channel, taps 00, 01,
        # 10, 11 each in row order: the adds of four per-tap scatters, in their order
        rowch = (idx[:, None] * c + np.arange(c)) * h
        flat = np.concatenate([((rowch + y[:, None]) * w + x[:, None]).reshape(-1)
                               for y, x in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))])
        vals = np.concatenate([gr * w00, gr * w01, gr * w10, gr * w11])
        np.add.at(gg.reshape(-1), flat, vals.reshape(-1))
        return (gg[0] if squeezed else gg,)

    return _emit(out, (grids,), bw)


def bilinear_sample(grid: Tensor, uv) -> Tensor:
    """Sample one (C,H,W) grid at a single uv point in [-1,1]^2 -> (C,)."""
    return grid_sample(grid, 0, uv)


# ---------------------------------------------------------------------------
# a residual block evaluated only where bilinear lookups read it
# ---------------------------------------------------------------------------

def _incidences() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """"Nearest 2x, then 3x3" inside one lookup's window: two 0/1 tensors and a tap table.

    A lookup with tap origin (y0, x0) reads its 4x4 low-res patch from (y0-2)//2 and
    evaluates conv1 at the 4x4 high-res window from y0-1. Per axis, window pixel i
    reads patch pixel (parity + i + di)//2 through tap di of a 3x3 kernel (parity =
    y0 mod 2), and conv2 at tap pixel ty reads window pixel ty + di. So conv1 is
    (class e = 2*ey + ex, window pixel, patch pixel, tap) -> (4, 16, 16, 9) and conv2
    (tap pixel, window pixel, tap) -> (4, 16, 9). Tap pixel ty is window pixel ty + 1,
    whose centre tap reads its nearest-2x patch pixel: (class, tap) -> (4, 4) ids.
    """
    par, i, d = np.arange(2), np.arange(4), np.arange(3)
    one1 = ((par[:, None, None, None] + i[:, None, None] + d) // 2 == i[:, None]).astype(np.int8)
    one2 = (par[:, None, None] + d == i[:, None]).astype(np.int8)
    w1 = np.einsum("airk,bjsl->abijrskl", one1, one1).reshape(4, 16, 16, 9)
    w2 = np.einsum("aik,bjl->abijkl", one2, one2).reshape(4, 16, 9)
    tap = one1[:, 1:3, :, 1].argmax(axis=2)  # (parity, tap) -> patch pixel
    under = (4 * tap[:, None, :, None] + tap[None, :, None, :]).reshape(4, 4)
    return w1, w2, under


_CONV1_AT, _CONV2_AT, _TAP_AT = _incidences()


def residual_block_at(x: Tensor, k1: Tensor, b1: Tensor, k2: Tensor, b2: Tensor,
                      idx, uv) -> Tensor:
    """grid_sample(conv_residual_block(upsample2x(x), k1, b1, k2, b2), idx, uv) -> (M, C),
    computing the block only in a 4x4 window around each lookup's taps.

    x is (P,C,h,w). Each lookup gathers one 4x4xC low-res patch of x, from a
    position-major frame zero-padded by one pixel before and two after. With its
    parity class e the patch gives conv1 at the 16 window pixels in one GEMM with
    W1[e] (16C, 16C), and conv2 at the 2x2 taps in one GEMM with W2 (16C, 4C); the
    kernels are k1 and k2 contracted with `_CONV1_AT` and `_CONV2_AT`. Window pixels
    outside the image are zeroed with the relu mask (conv2's zero padding), and the
    residual up(x) is read at the patch pixels `_TAP_AT` lists. Lookups run sorted by class.
    The backward pass runs the transposed GEMMs, folds the kernel gradients back
    through the incidences, adds the residual gradient into the patch gradient and
    that onto the frame in one flat scatter. Sums run in another order than the dense
    block's, so the two agree to float rounding; pixels no lookup reads get exactly
    zero gradient.
    """
    p, c, h, w = x.data.shape
    if k1.data.shape != (c, c, 3, 3) or k2.data.shape != (c, c, 3, 3):
        raise ValueError(f"kernel/channel mismatch: x {x.data.shape} vs k {k1.data.shape}, {k2.data.shape}")
    dt = np.result_type(x.data, k1.data, b1.data, k2.data, b2.data)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    x0, _, y0, _, fx, fy = _bilerp_coords(2 * h, 2 * w, np.asarray(uv, dtype=np.float64).reshape(-1, 2))
    cls = 2 * (y0 % 2) + x0 % 2
    order = np.argsort(cls, kind="stable")
    idx, x0, y0, fx, fy = idx[order], x0[order], y0[order], fx[order], fy[order]
    bounds = np.searchsorted(cls[order], np.arange(5))
    blocks = [slice(bounds[e], bounds[e + 1]) for e in range(4)]
    m = len(idx)
    # each lookup's 16 patch pixels in the padded frame; its window pixels inside the image
    base = (idx * (h + 3) + (y0 - 2) // 2 + 1) * (w + 3) + (x0 - 2) // 2 + 1
    ids = base[:, None] + (np.arange(4)[:, None] * (w + 3) + np.arange(4)).reshape(-1)
    win = np.arange(-1, 3)
    inside = (((y0[:, None] + win < 2 * h) & (y0[:, None] + win >= 0))[:, :, None]
              & ((x0[:, None] + win < 2 * w) & (x0[:, None] + win >= 0))[:, None, :])

    frame = np.zeros((p, h + 3, w + 3, c), dtype=dt)
    frame[:, 1:h + 1, 1:w + 1] = x.data.transpose(0, 2, 3, 1)
    patch = np.take(frame.reshape(-1, c), ids, axis=0).reshape(m, 16 * c)
    i1, i2 = _CONV1_AT.astype(dt), _CONV2_AT.astype(dt)
    w1 = np.tensordot(i1, k1.data.astype(dt, copy=False).reshape(c, c, 9), axes=([3], [2]))
    w1 = w1.transpose(0, 2, 4, 1, 3).reshape(4, 16 * c, 16 * c)  # (e, patch*Cin, window*Cout)
    w2 = np.tensordot(i2, k2.data.astype(dt, copy=False).reshape(c, c, 9), axes=([2], [2]))
    w2 = w2.transpose(1, 3, 0, 2).reshape(16 * c, 4 * c)  # (window*Cin, tap*Cout)

    pre1 = np.empty((m, 16 * c), dtype=dt)
    for e, rows in enumerate(blocks):
        np.matmul(patch[rows], w1[e], out=pre1[rows])
    pre1 += np.tile(b1.data.astype(dt, copy=False), 16)
    pre1.reshape(m, 16, c)[~inside.reshape(m, 16)] = 0
    _note_kinks(pre1)
    a1 = np.maximum(pre1, 0)
    pre2 = (a1 @ w2 + np.tile(b2.data.astype(dt, copy=False), 4)).reshape(m, 4, c)
    patch3 = patch.reshape(m, 16, c)
    for e, rows in enumerate(blocks):
        for t in range(4):
            pre2[rows, t] += patch3[rows, _TAP_AT[e, t]]
    _note_kinks(pre2)
    y = np.maximum(pre2, 0)
    weights = _bilerp_weights(fx, fy, dt)
    out_d = np.empty((m, c), dtype=dt)
    out_d[order] = y[:, 0] * weights[0] + y[:, 1] * weights[1] + y[:, 2] * weights[2] + y[:, 3] * weights[3]
    out = _out(out_d, x, k1, b1, k2, b2)

    def bw(g):
        g = g[order]
        gpre2 = np.stack([g * wk for wk in weights], axis=1) * (pre2 > 0)  # (M, 4, C)
        gpre2f = gpre2.reshape(m, 4 * c)
        gpre1 = (gpre2f @ w2.T) * (pre1 > 0)
        gk1 = gk2 = gx = None
        if k1.requires_grad:
            gw1 = np.stack([patch[rows].T @ gpre1[rows] for rows in blocks]).reshape(4, 16, c, 16, c)
            gk1 = np.tensordot(i1, gw1, axes=([0, 1, 2], [0, 3, 1]))
            gk1 = np.ascontiguousarray(gk1.transpose(2, 1, 0).reshape(c, c, 3, 3))
        if k2.requires_grad:
            gw2 = (a1.T @ gpre2f).reshape(16, c, 4, c)
            gk2 = np.tensordot(i2, gw2, axes=([0, 1], [2, 0]))
            gk2 = np.ascontiguousarray(gk2.transpose(2, 1, 0).reshape(c, c, 3, 3))
        if x.requires_grad:
            gpatch = np.empty((m, 16 * c), dtype=dt)
            for e, rows in enumerate(blocks):
                np.matmul(gpre1[rows], w1[e].T, out=gpatch[rows])
            gpatch3 = gpatch.reshape(m, 16, c)
            for e, rows in enumerate(blocks):
                for t in range(4):  # one tap at a time: two taps can share a patch pixel
                    gpatch3[rows, _TAP_AT[e, t]] += gpre2[rows, t]
            gframe = np.zeros((p, h + 3, w + 3, c), dtype=dt)
            np.add.at(gframe.reshape(-1), (ids[..., None] * c + np.arange(c)).reshape(-1), gpatch.reshape(-1))
            gx = np.ascontiguousarray(gframe[:, 1:h + 1, 1:w + 1].transpose(0, 3, 1, 2))
        gb1 = gpre1.sum(axis=0).reshape(16, c).sum(axis=0)
        return gx, gk1, gb1, gk2, gpre2f.sum(axis=0).reshape(4, c).sum(axis=0)

    return _emit(out, (x, k1, b1, k2, b2), bw)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backprop(tape: Tape, out: Tensor, leaves: list[Tensor] | None = None):
    """Reverse pass from scalar `out` over `tape`.

    When `leaves` is given, returns their gradients in order; leaves the output
    does not depend on get exact zeros.
    """
    if tape._done:
        raise TapeError("tape already consumed by a backward pass")
    if not tape.nodes:
        raise TapeError("backward without a recorded forward pass")
    if out.data.size != 1:
        raise TapeError(f"backprop needs a scalar output, got shape {out.data.shape}")
    tape._done = True
    for o, ins, _ in tape.nodes:
        o.grad = None
        for t in ins:
            t.grad = None
    if leaves:
        for t in leaves:
            t.grad = None
    out.grad = np.ones_like(out.data)
    for o, ins, bw in reversed(tape.nodes):
        g = o.grad
        if g is None:
            continue
        for t, gt in zip(ins, bw(g)):
            if gt is None or not t.requires_grad:
                continue
            t.grad = gt if t.grad is None else t.grad + gt
    if leaves is not None:
        for t in leaves:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
        return [t.grad for t in leaves]
    return None


# ---------------------------------------------------------------------------
# verification oracle
# ---------------------------------------------------------------------------

def finite_diff_check(f, params: list[Tensor], eps: float = 1e-3,
                      n_coords: int = 200, seed: int = 0) -> float:
    """Max relative error between central differences and the analytic gradient.

    Everything runs in float64. `f` takes the parameter list and must rebuild its
    computation deterministically on each call. Coordinates whose +/-eps probes land
    on opposite sides of a relu kink are excluded (the margin this enforces is the
    usual |preactivation| > O(eps) guard, detected directly as a sign flip).

    The relative error denominator is max(|fd|, |analytic|, 1e-4), so coordinates
    with near-zero gradients are measured on an absolute 1e-4 scale.
    """
    global _KINKS
    p64 = [param(t.data.astype(np.float64)) for t in params]
    with Tape() as tp:
        y = f(p64)
    grads = backprop(tp, y, leaves=p64)

    sizes = [t.size for t in p64]
    total = int(np.sum(sizes))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    rng = np.random.default_rng(seed)
    m = min(n_coords, total)
    coords = np.sort(rng.choice(total, size=m, replace=False))

    def probe(ti, off, val):
        global _KINKS
        old = p64[ti].data.flat[off]
        p64[ti].data.flat[off] = val
        _KINKS = []
        try:
            yv = float(f(p64).data)
            sig = _KINKS
        finally:
            _KINKS = None
            p64[ti].data.flat[off] = old
        return yv, sig

    worst = 0.0
    for cflat in coords:
        ti = int(np.searchsorted(bounds, cflat, side="right") - 1)
        off = int(cflat - bounds[ti])
        center = float(p64[ti].data.flat[off])
        yp, sp = probe(ti, off, center + eps)
        ym, sm = probe(ti, off, center - eps)
        if len(sp) != len(sm) or any(not np.array_equal(a, b) for a, b in zip(sp, sm)):
            continue  # kink crossed between the probes
        fd = (yp - ym) / (2.0 * eps)
        an = float(grads[ti].flat[off])
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def rmsprop_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float,
                 decay: float = 0.99, eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """One in-place RMSProp update: v <- decay*v + (1-decay)*g^2; p <- p - lr*g/(sqrt(v)+eps)."""
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient in optimizer step")
    v *= decay
    v += (1.0 - decay) * np.square(g)
    p -= lr * g / (np.sqrt(v) + eps)
    return p, v


class RMSProp:
    """RMSProp over a fixed tensor list; per-tensor accumulator state starts at zero."""

    def __init__(self, tensors: list[Tensor], decay: float = 0.99, eps: float = 1e-8):
        self.tensors = list(tensors)
        self.decay = float(decay)
        self.eps = float(eps)
        self.state = [np.zeros_like(t.data) for t in self.tensors]

    def step(self, lr: float) -> None:
        for t, v in zip(self.tensors, self.state):
            if t.grad is None:
                raise NumericError("optimizer step before gradients were computed")
            g = np.asarray(t.grad, dtype=t.data.dtype)
            rmsprop_step(t.data, g, v, lr, self.decay, self.eps)
