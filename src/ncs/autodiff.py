"""Reverse-mode automatic differentiation over small dense tensors.

The op set is exactly what the surface model needs: batched affine layers, 3x3
convolutions with zero padding, nearest-neighbor upsampling, bilinear grid
lookups, an upsampling residual block evaluated only at the pixels a set of
bilinear lookups reads (`residual_block_at`), segment reductions, and a handful
of pointwise/reduction primitives.

Arithmetic is float32 unless the inputs are float64; the finite-difference
oracle promotes everything to float64. One `Tape` records one forward pass and
`backprop` consumes it once, in reverse order.

`conv3x3` is an implicit-GEMM (im2col) convolution. All images of a batch sit
zero-padded and end to end in one channel-major flat buffer, where each of the 9
taps is a fixed column offset. Fixed-size chunks of shifted columns go through
one BLAS matmul each, in both passes, so no full im2col matrix is ever built.

`residual_block_at` follows the active-site idea of submanifold sparse
convolution (Graham & van der Maaten 2017): activations are position-major rows,
one per pixel that the lookups need, and each convolution is row gathers plus
GEMMs, in the backward pass too. Its conv1 reads the low-res input through one
phase kernel: nearest 2x upsampling then a 3x3 conv is, per output parity, a 2x2
conv of the low-res input (the sub-pixel form of Shi et al. 2016).
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

def _dilate3x3(m: np.ndarray) -> np.ndarray:
    """3x3 dilation of a (P,H,W) mask inside each image."""
    r = m.copy()
    r[:, 1:] |= m[:, :-1]
    r[:, :-1] |= m[:, 1:]
    out = r.copy()
    out[:, :, 1:] |= r[:, :, :-1]
    out[:, :, :-1] |= r[:, :, 1:]
    return out


class TapSites:
    """Where bilinear lookups (idx, uv) read a stack of P images of H x W pixels.

    The pixels live in a frame padded by one zero pixel on every side, (P, H+2, W+2),
    flattened, so a 3x3 tap is a fixed flat offset and an image border reads padding.
    `s0` marks the tap pixels; `s1` their 3x3 dilation inside each image, the pixels a
    3x3 convolution at the taps reads. `taps` holds the padded flat id of each lookup's
    four taps (00, 01, 10, 11, each (M,)), `fx`/`fy` the bilinear fractions.
    """

    def __init__(self, shape: tuple[int, int, int], idx, uv):
        p, h, w = shape
        self.shape = (p, h, w)
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
        x0, x1, y0, y1, self.fx, self.fy = _bilerp_coords(h, w, uv)
        rows = idx * (h + 2) + 1
        self.taps = np.stack([(rows + y) * (w + 2) + x + 1
                              for y, x in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))])
        s0 = np.zeros((p, h + 2, w + 2), dtype=bool)
        s0.reshape(-1)[self.taps.reshape(-1)] = True
        self.s0 = s0
        self.s1 = np.zeros_like(s0)
        self.s1[:, 1:-1, 1:-1] = _dilate3x3(s0[:, 1:-1, 1:-1])

    @property
    def halo_fraction(self) -> float:
        """Share of the P*H*W pixels in `s1`."""
        p, h, w = self.shape
        return np.count_nonzero(self.s1) / (p * h * w)


def _row_map(sites: np.ndarray, size: int) -> np.ndarray:
    """For each of `size` flat pixels its row in `sites`, or len(sites), the zero row
    `_gather` appends, if it is not a site."""
    rows = np.full(size, len(sites), dtype=np.intp)
    rows[sites] = np.arange(len(sites))
    return rows


def _gather(a: np.ndarray, row_map: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The rows of `a` at the pixels `ids` (any shape) through `row_map`; others read zero."""
    return np.take(np.concatenate([a, np.zeros((1, a.shape[1]), dtype=a.dtype)]),
                   np.take(row_map, ids), axis=0)


# per axis, the kernel taps i whose shift i-1 reads low-res pixel q from high-res pixel
# p = 2q + d, d = -1..2, through the nearest 2x upsample: d + i - 1 must be 0 or 1
_PHASE_TAPS = np.array([[0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0]])


def residual_block_at(x: Tensor, k1: Tensor, b1: Tensor, k2: Tensor, b2: Tensor,
                      sites: TapSites) -> Tensor:
    """grid_sample(conv_residual_block(upsample2x(x), k1, b1, k2, b2), idx, uv) -> (M, C)
    for the lookups of `sites`, computing the block only where the lookups read it.

    x is (P,C,h,w) and `sites` is built for (P, 2h, 2w). conv2 runs at the tap pixels
    S0 and conv1 at S1, their 3x3 dilation. conv1 reads x through the phase kernel K4,
    k1's taps summed per displacement between high-res and low-res pixel (`_PHASE_TAPS`):
    the S1 rows come in four parity blocks, each one gather of 2x2 low-res rows and one
    GEMM with its 2x2 slice of K4. conv2 gathers (S0, 9*C) columns of position-major rows,
    zero for the padding and the unset pixels, for one GEMM. The backward passes are
    gathers and GEMMs too, K4's gradient is folded back to k1 once, and the one scatter
    adds the four taps' gradients onto the S0 rows. One row map, of S1, serves every
    gather: S0 lies inside S1, so conv2's gradient is read from a copy in S1 rows. Sums
    run in another order than the dense block's, so the two agree to float rounding;
    pixels the lookups do not read get exactly zero gradient.
    """
    p, c, h, w = x.data.shape
    if k1.data.shape != (c, c, 3, 3) or k2.data.shape != (c, c, 3, 3):
        raise ValueError(f"kernel/channel mismatch: x {x.data.shape} vs k {k1.data.shape}, {k2.data.shape}")
    if sites.shape != (p, 2 * h, 2 * w):
        raise ValueError(f"sites are for {sites.shape}, the upsampled x is {(p, 2 * h, 2 * w)}")
    dt = np.result_type(x.data, k1.data, b1.data, k2.data, b2.data)
    wp = 2 * w + 2  # row length of the padded high-res frame
    offs = np.array([(i - 1) * wp + (j - 1) for i in range(3) for j in range(3)])  # tap t = 3i+j
    s0, s1 = np.flatnonzero(sites.s0), np.flatnonzero(sites.s1)
    # S1 in blocks by parity class e = 2*(row % 2) + column % 2 (wp and the frame height
    # are even, so these are the parities of id // wp and id); block e's phase window
    # lies at displacements 2 + parity and parity of K4 along each axis
    cls = (2 * (s1 // wp % 2) + s1 % 2).astype(np.int8)
    order = np.argsort(cls, kind="stable")
    s1, bounds = s1[order], np.searchsorted(cls[order], np.arange(5))
    blocks = [(slice(bounds[e], bounds[e + 1]), np.s_[2 + e // 2::-2, 2 + e % 2::-2]) for e in range(4)]
    map1 = _row_map(s1, sites.s1.size)
    r0 = np.take(map1, s0)  # the S1 row of each S0 pixel: S0 lies inside S1
    n0, n1 = len(s0), len(s1)

    # x as rows of a low-res frame padded like the high-res one
    xz = np.zeros((p, h + 2, w + 2, c), dtype=dt)
    xz[:, 1:-1, 1:-1] = x.data.transpose(0, 2, 3, 1)
    xrows = xz.reshape(-1, c)

    def low_rows(ids: np.ndarray, lift: int) -> np.ndarray:
        """Low-res padded row ((row + lift)//2, (col + lift)//2) of each padded high-res
        id: lift 1 gives the pixel the upsample copies, lift 0 its phase window."""
        img, rc = np.divmod(ids, (2 * h + 2) * wp)
        r, col = np.divmod(rc, wp)
        return (img * (h + 2) + (r + lift) // 2) * (w + 2) + (col + lift) // 2

    ph = _PHASE_TAPS.astype(dt)
    k4 = (ph @ k1.data.astype(dt, copy=False) @ ph.T).transpose(2, 3, 1, 0)  # (4, 4, Cin, Cout)
    # conv1 at S1: each pixel reads the 2x2 low-res pixels of its phase window
    col1 = np.take(xrows, low_rows(s1, 0)[:, None] + [0, 1, w + 2, w + 3], axis=0).reshape(n1, 4 * c)
    pre1 = np.empty((n1, c), dtype=dt)
    for rows, kb in blocks:
        pre1[rows] = col1[rows] @ k4[kb].reshape(4 * c, c)
    pre1 += b1.data
    _note_kinks(pre1)
    # conv2 at S0, reading relu(conv1) from the S1 rows; the residual input is up(x) at S0
    col2 = _gather(np.maximum(pre1, 0), map1, s0[:, None] + offs).reshape(n0, 9 * c)
    k2m = k2.data.transpose(2, 3, 1, 0).reshape(9 * c, c).astype(dt, copy=False)
    pre2 = np.take(xrows, low_rows(s0, 1), axis=0) + (col2 @ k2m + b2.data)
    _note_kinks(pre2)
    y = np.maximum(pre2, 0)

    weights = _bilerp_weights(sites.fx, sites.fy, dt)
    taps = np.take(_row_map(r0, n1), np.take(map1, sites.taps))  # (4, M) rows of S0
    v = np.take(y, taps, axis=0)
    out_d = v[0] * weights[0] + v[1] * weights[1] + v[2] * weights[2] + v[3] * weights[3]
    out = _out(out_d, x, k1, b1, k2, b2)

    def bw(g):
        # the four taps' gradients onto the S0 rows, in one flat scatter
        gy = np.zeros(n0 * c, dtype=dt)
        np.add.at(gy, (taps[..., None] * c + np.arange(c)).reshape(-1),
                  np.stack([g * wk for wk in weights]).reshape(-1))
        gpre2 = gy.reshape(n0, c) * (pre2 > 0)
        g2 = np.zeros((n1, c), dtype=dt)  # gpre2 in S1 rows, zero off S0
        g2[r0] = gpre2
        # conv2 backward: S1 pixel s takes tap t's gradient from S0 pixel s - off_t
        gcol = _gather(g2, map1, s1[:, None] - offs).reshape(n1, 9 * c)
        k2t = k2.data.transpose(2, 3, 0, 1).reshape(9 * c, c).astype(dt, copy=False)
        gpre1 = (gcol @ k2t) * (pre1 > 0)
        gk1 = gk2 = gx = None
        if k1.requires_grad:  # per parity block into K4's gradient, then folded back once
            gk4 = np.empty((4, 4, c, c), dtype=dt)
            for rows, kb in blocks:
                gk4[kb] = (col1[rows].T @ gpre1[rows]).reshape(2, 2, c, c)
            gk1 = ph.T @ gk4.transpose(3, 2, 0, 1) @ ph
        if k2.requires_grad:
            gk2 = np.ascontiguousarray((col2.T @ gpre2).reshape(3, 3, c, c).transpose(3, 2, 0, 1))
        if x.requires_grad:
            gx = _residual_block_at_gx(gpre1, g2, map1, sites, k4)
        return gx, gk1, gpre1.sum(axis=0), gk2, gpre2.sum(axis=0)

    return _emit(out, (x, k1, b1, k2, b2), bw)


def _residual_block_at_gx(gpre1, gpre2, map1, sites: TapSites, k4: np.ndarray) -> np.ndarray:
    """Gradient of `residual_block_at` with respect to its low-res input x (P,C,h,w).

    Low-res pixel q collects conv1's input gradient from the S1 pixels of the 4x4
    high-res window 2q + d, d = -1..2, through the phase kernel k4 (4, 4, Cin, Cout):
    one gather of 16 S1 rows and one GEMM per low-res pixel, plus the residual gradient
    of its four upsampled copies. Both gradients come in S1 rows (conv2's is zero off
    S0) and are read through `map1`. Only low-res pixels whose window meets S1 are
    computed; the rest are zero.
    """
    p, hp, wp = sites.s1.shape
    h, w = (hp - 2) // 2, (wp - 2) // 2
    c = gpre1.shape[1]
    # low-res pixels whose 4x4 window (padded rows and columns 2a..2a+3) meets S1
    pairs = sites.s1[:, 0::2] | sites.s1[:, 1::2]
    rows = pairs[:, :-1] | pairs[:, 1:]
    pairs = rows[:, :, 0::2] | rows[:, :, 1::2]
    live = np.flatnonzero(pairs[:, :, :-1] | pairs[:, :, 1:])
    img, rc = np.divmod(live, h * w)
    a, b = np.divmod(rc, w)
    base = (img * hp + 2 * a + 1) * wp + 2 * b + 1  # padded high-res id of 2q
    d = np.arange(-1, 3)
    disp = (d[:, None] * wp + d[None, :]).reshape(-1)
    kd = k4.transpose(0, 1, 3, 2).reshape(16 * c, c)  # (4, 4, Cout, Cin)
    gq = _gather(gpre1, map1, base[:, None] + disp).reshape(len(live), 16 * c) @ kd
    res = _gather(gpre2, map1, base[:, None] + disp[[5, 6, 9, 10]])
    gq += (res[:, 0] + res[:, 1]) + (res[:, 2] + res[:, 3])
    gx = np.zeros((p * h * w, c), dtype=gpre1.dtype)
    gx[live] = gq
    return np.ascontiguousarray(gx.reshape(p, h, w, c).transpose(0, 3, 1, 2))


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
