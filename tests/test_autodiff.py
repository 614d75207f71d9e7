import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ncs import autodiff as ad
from ncs.errors import NumericError, TapeError

rng = np.random.default_rng(42)


def fd(f, params, **kw):
    return ad.finite_diff_check(f, params, **kw)


def weighted_sum(t, v):
    return ad.reduce_sum(ad.mul(t, ad.const(v, t.dtype)))


class TestPointwise:
    def test_linear_identity(self):
        x = ad.const(rng.normal(size=(4, 3)).astype(np.float32))
        w = ad.const(np.eye(3, dtype=np.float32))
        out = ad.linear(x, w)
        assert np.array_equal(out.data, x.data)

    def test_linear_rejects_non_batched_input(self):
        w = ad.const(np.eye(3, dtype=np.float32))
        for shape in [(3,), (2, 4, 3)]:
            with pytest.raises(ValueError, match="shape"):
                ad.linear(ad.const(np.ones(shape, dtype=np.float32)), w)

    def test_softplus_at_zero(self):
        out = ad.softplus(ad.const(np.zeros(1, dtype=np.float32)))
        assert out.data[0] == pytest.approx(np.log(2), abs=1e-6)

    def test_relu_negative(self):
        assert ad.relu(ad.const(np.array([-1.0], dtype=np.float32))).data[0] == 0.0

    def test_forward_determinism(self):
        x = ad.param(rng.normal(size=(8, 8)).astype(np.float32))
        w = ad.param(rng.normal(size=(8, 8)).astype(np.float32))
        a = ad.linear(x, w, activation="softplus").data
        b = ad.linear(x, w, activation="softplus").data
        assert np.array_equal(a, b)


class TestConv:
    def test_zero_params_is_relu(self):
        x = ad.param(rng.normal(size=(3, 5, 5)).astype(np.float32))
        z = lambda *s: ad.param(np.zeros(s, dtype=np.float32))
        out = ad.conv_residual_block(x, z(3, 3, 3, 3), z(3), z(3, 3, 3, 3), z(3))
        assert np.array_equal(out.data, np.maximum(x.data, 0))

    def test_center_tap_identity(self):
        x = ad.param(np.abs(rng.normal(size=(2, 1, 1))).astype(np.float32))
        k1 = np.zeros((2, 2, 3, 3), dtype=np.float32)
        k1[0, 0, 1, 1] = 1.0
        k1[1, 1, 1, 1] = 1.0
        z = lambda *s: ad.param(np.zeros(s, dtype=np.float32))
        out = ad.conv_residual_block(x, ad.param(k1), z(2), z(2, 2, 3, 3), z(2))
        assert np.array_equal(out.data, np.maximum(x.data, 0))

    def test_block_parameter_count(self):
        c = 8
        per_block = 2 * (c * c * 9 + c)
        assert per_block == 1168
        assert 5 * per_block == 5840

    def test_conv_gradients(self):
        x = ad.param(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        k = ad.param((rng.normal(size=(4, 3, 3, 3)) * 0.3).astype(np.float32))
        b = ad.param(rng.normal(size=4).astype(np.float32) * 0.1)
        v = rng.normal(size=(2, 4, 4, 5))
        err = fd(lambda ps: weighted_sum(ad.conv3x3(ps[0], ps[1], ps[2]), v), [x, k, b])
        assert err < 1e-5


    def test_conv_gradients_across_chunks(self):
        # the flat axis spans three GEMM chunks and is not a multiple of the chunk size
        x = ad.param(rng.normal(size=(2, 2, 64, 64)))
        n = 2 * 66 * 66
        assert n > 2 * ad._CHUNK and n % ad._CHUNK
        k = ad.param(rng.normal(size=(3, 2, 3, 3)) * 0.3)
        b = ad.param(rng.normal(size=3) * 0.1)
        v = rng.normal(size=(2, 3, 64, 64))
        err = fd(lambda ps: weighted_sum(ad.conv3x3(ps[0], ps[1], ps[2]), v), [x, k, b])
        assert err < 1e-5


def einsum_conv3x3(x, k, b, g):
    """The sliding-window einsum convolution that `ad.conv3x3` replaced, kept as the
    oracle: (out, gx, gk, gb) for input x, kernel k, bias b and output gradient g."""
    squeezed = x.ndim == 3
    x4, g4 = (x[None], g[None]) if squeezed else (x, g)
    win = sliding_window_view(np.pad(x4, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
    out = np.einsum("pchwij,dcij->pdhw", win, k, optimize=True) + b[:, None, None]
    gk = np.einsum("pchwij,pdhw->dcij", win, g4, optimize=True)
    gwin = sliding_window_view(np.pad(g4, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
    gx = np.einsum("pdhwij,dcij->pchw", gwin, k[:, :, ::-1, ::-1], optimize=True)
    gb = g4.sum(axis=(0, 2, 3))
    return (out[0], gx[0], gk, gb) if squeezed else (out, gx, gk, gb)


class TestConvAgainstEinsum:
    """The shifted-GEMM conv3x3 against the einsum oracle: forward, gx, gk and gb."""

    TOL = {np.float32: 1e-5, np.float64: 1e-12}  # relative to the oracle's max |value|
    SHAPES = {  # x shape, Cout
        "squeezed": ((3, 5, 4), 4),
        "one_image": ((1, 2, 6, 6), 2),
        "h_ne_w": ((2, 3, 5, 9), 3),
        "1x1": ((2, 3, 1, 1), 3),
        "1xN": ((2, 2, 1, 7), 2),
        "Nx1": ((2, 2, 7, 1), 2),
        "cin_ne_cout": ((2, 3, 4, 5), 6),
        "chunks": ((3, 2, 60, 61), 5),  # 3*62*63 flat columns: three chunks, the last partial
    }

    @staticmethod
    def _run(x, k, b, g, constant=""):
        """conv3x3 forward and the gradients of sum(out * g); `constant` names an input
        ("x" or "k") that is passed as a constant."""
        xt = ad.const(x) if constant == "x" else ad.param(x)
        kt = ad.const(k) if constant == "k" else ad.param(k)
        bt = ad.param(b)
        with ad.Tape() as tape:
            out = ad.conv3x3(xt, kt, bt)
            loss = ad.reduce_sum(ad.mul(out, ad.const(g)))
        ad.backprop(tape, loss)
        return out.data, xt.grad, kt.grad, bt.grad

    @staticmethod
    def _inputs(shape, cout, dtype):
        r = np.random.default_rng(sum(shape) + cout)
        gshape = shape[:-3] + (cout,) + shape[-2:]
        return (r.normal(size=shape).astype(dtype),
                r.normal(size=(cout, shape[-3], 3, 3)).astype(dtype),
                r.normal(size=cout).astype(dtype), r.normal(size=gshape).astype(dtype))

    def _assert_close(self, got, want, dtype):
        assert got.shape == want.shape and got.dtype == dtype
        scale = max(float(np.abs(want).max()), np.finfo(dtype).tiny)
        assert float(np.abs(got - want).max()) <= self.TOL[dtype] * scale

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", SHAPES)
    def test_matches_einsum(self, case, dtype):
        shape, cout = self.SHAPES[case]
        if case == "chunks":
            n = 3 * 62 * 63
            assert n > 2 * ad._CHUNK and n % ad._CHUNK
        x, k, b, g = self._inputs(shape, cout, dtype)
        for got, want in zip(self._run(x, k, b, g), einsum_conv3x3(x, k, b, g), strict=True):
            self._assert_close(got, want, dtype)

    @pytest.mark.parametrize("constant", ["x", "k"])
    def test_constant_input_gets_no_gradient(self, constant):
        shape, cout = self.SHAPES["chunks"]
        x, k, b, g = self._inputs(shape, cout, np.float32)
        out, gx, gk, gb = self._run(x, k, b, g, constant)
        want = einsum_conv3x3(x, k, b, g)
        assert (gx if constant == "x" else gk) is None
        for got, ref in ((out, want[0]), (gx, want[1]), (gk, want[2]), (gb, want[3])):
            if got is not None:
                self._assert_close(got, ref, np.float32)


class TestUpsample:
    def test_block_duplication(self):
        x = ad.const(np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32))
        out = ad.upsample2x(x).data[0]
        expect = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float32)
        assert np.array_equal(out, expect)

    def test_single_pixel(self):
        out = ad.upsample2x(ad.const(np.full((1, 1, 1), 7.0, dtype=np.float32)))
        assert np.array_equal(out.data, np.full((1, 2, 2), 7.0, dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(20, 8, 16, 16), (20, 8, 256, 256), (21, 4, 8, 8),
                                       (21, 4, 64, 64), (3, 6, 10)])
    def test_backward_equals_two_axis_sum(self, shape, dtype):
        # the phase add is bit-identical to the two-axis sum it replaced at decoder shapes
        g = rng.normal(size=shape).astype(dtype)
        x = ad.param(np.zeros(shape[:-2] + (shape[-2] // 2, shape[-1] // 2), dtype=dtype))
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.mul(ad.upsample2x(x), ad.const(g)))
        (gx,) = ad.backprop(tape, out, leaves=[x])
        s = g.shape
        old = g.reshape(s[:-2] + (s[-2] // 2, 2, s[-1] // 2, 2)).sum(axis=(-3, -1))
        assert np.array_equal(gx, old)

    def test_backward_sums_four_copies(self):
        x = ad.param(rng.normal(size=(1, 3, 3)).astype(np.float32))
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.upsample2x(x))
        (g,) = ad.backprop(tape, out, leaves=[x])
        assert np.array_equal(g, np.full((1, 3, 3), 4.0, dtype=np.float32))


class TestBilinear:
    def test_mean_of_corners(self):
        grid = ad.const(np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=np.float32))
        assert ad.bilinear_sample(grid, (0.0, 0.0)).data[0] == pytest.approx(1.5)

    def test_pixel_center_exact(self):
        g = rng.normal(size=(2, 5, 7)).astype(np.float32)
        grid = ad.const(g)
        # pixel (y=2, x=3) -> uv via align-corners inverse
        u = 2 * 3 / (7 - 1) - 1
        v = 2 * 2 / (5 - 1) - 1
        np.testing.assert_allclose(ad.bilinear_sample(grid, (u, v)).data, g[:, 2, 3], atol=1e-6)

    def test_corner_convention(self):
        g = rng.normal(size=(1, 4, 4)).astype(np.float32)
        out = ad.bilinear_sample(ad.const(g), (-1.0, -1.0)).data
        assert out[0] == pytest.approx(g[0, 0, 0])

    def test_clamps_out_of_range(self):
        g = rng.normal(size=(1, 4, 4)).astype(np.float32)
        out = ad.bilinear_sample(ad.const(g), (-2.0, 3.0)).data
        assert out[0] == pytest.approx(g[0, 3, 0])

    def test_matches_grid_sample(self):
        g = ad.param(rng.normal(size=(3, 2, 6, 6)).astype(np.float32))
        uv = rng.uniform(-1, 1, size=(11, 2))
        idx = rng.integers(0, 3, size=11)
        batched = ad.grid_sample(g, idx, uv).data
        for i in range(11):
            single = ad.bilinear_sample(ad.const(g.data[idx[i]]), uv[i]).data
            np.testing.assert_allclose(batched[i], single, atol=1e-6)


def four_scatter_grid_sample_bw(shape, idx, uv, gr):
    """The four-scatter `grid_sample` backward that the one flat scatter replaced, kept
    as the oracle: the (P,C,H,W) gradient of lookups (idx, uv) with output gradient gr."""
    p, c, h, w = shape
    x0, x1, y0, y1, fx, fy = ad._bilerp_coords(h, w, np.asarray(uv, dtype=np.float64))
    wx, wy = fx[:, None].astype(gr.dtype), fy[:, None].astype(gr.dtype)
    rows, ch = idx[:, None], np.arange(c)[None, :]
    gg = np.zeros(shape, dtype=gr.dtype)
    np.add.at(gg, (rows, ch, y0[:, None], x0[:, None]), gr * ((1 - wx) * (1 - wy)))
    np.add.at(gg, (rows, ch, y0[:, None], x1[:, None]), gr * (wx * (1 - wy)))
    np.add.at(gg, (rows, ch, y1[:, None], x0[:, None]), gr * ((1 - wx) * wy))
    np.add.at(gg, (rows, ch, y1[:, None], x1[:, None]), gr * (wx * wy))
    return gg


class TestFlatScatter:
    """grid_sample and segment_sum scatter through one flat np.add.at, bit-identical to
    the per-tap and per-row scatters they replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,m", [((20, 4, 32, 32), 4000), ((20, 8, 128, 128), 4600),
                                         ((1, 3, 2, 2), 50)])
    def test_grid_sample_backward_equals_four_scatters(self, shape, m, dtype):
        r = np.random.default_rng(m)
        idx = r.integers(0, shape[0], size=m)
        uv = r.uniform(-1.05, 1.05, size=(m, 2))
        uv[: m // 4] = uv[m // 4: 2 * (m // 4)]  # repeated lookups add onto the same pixels
        gr = r.normal(size=(m, shape[1])).astype(dtype)
        g = ad.param(r.normal(size=shape).astype(dtype))
        with ad.Tape() as tape:
            out = ad.reduce_sum(ad.mul(ad.grid_sample(g, idx, uv), ad.const(gr)))
        (gg,) = ad.backprop(tape, out, leaves=[g])
        assert np.array_equal(gg, four_scatter_grid_sample_bw(shape, idx, uv, gr))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_sum_equals_row_scatter(self, dtype):
        r = np.random.default_rng(3)
        x = r.normal(size=(4600, 3)).astype(dtype)
        seg = np.sort(r.integers(0, 2048, size=4600))
        old = np.zeros((2048, 3), dtype=dtype)
        np.add.at(old, seg, x)
        assert np.array_equal(ad.segment_sum(ad.const(x), seg, 2048).data, old)


def dense_block_then_sample(x, k1, b1, k2, b2, idx, uv):
    """The dense oracle of `residual_block_at`: the whole block, then the lookups."""
    return ad.grid_sample(ad.conv_residual_block(ad.upsample2x(x), k1, b1, k2, b2), idx, uv)


class TestResidualBlockAt:
    """The last decoder block evaluated only in each lookup's 4x4 window, against the
    dense block followed by grid_sample: features and the gradients of x, k1, b1, k2, b2."""

    TOL = {np.float32: 1e-5, np.float64: 1e-12}  # relative to the oracle's max |value|

    @staticmethod
    def _lookups(case, p, h, w, r):
        """(idx, uv) for a named case; patch p-1 is never looked up except with P = 1."""
        m = 40
        idx = r.integers(0, max(p - 1, 1), size=m)
        uv = r.uniform(-1, 1, size=(m, 2))
        if case == "borders":  # taps on the first and last rows and columns
            uv[:8] = [[-1, -1], [1, 1], [-1, 1], [1, -1], [-1, 0.1], [1, -0.3], [0.2, -1], [-0.4, 1]]
        elif case == "clamped":  # uv outside [-1, 1] is clamped onto the border
            uv[:6] = [[-1.7, 0.2], [1.3, -0.5], [0.1, -2.0], [0.3, 1.01], [-1.5, 1.5], [3.0, -3.0]]
        elif case == "same_pixel":  # two lookups on the same pixel, and on the same point
            uv[1] = uv[0]
            idx[1] = idx[0]
            cell = 2.0 / (2 * w - 1)
            uv[3] = uv[2] + [0.2 * cell, 0.1 * cell]
            idx[3] = idx[2]
        return idx, uv

    def _run(self, fn, x, ks, idx, uv, g):
        ps = [ad.param(x)] + [ad.param(k) for k in ks]
        with ad.Tape() as tape:
            out = fn(*ps, idx, uv)
            loss = ad.reduce_sum(ad.mul(out, ad.const(g)))
        return [out.data] + ad.backprop(tape, loss, leaves=ps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case,shape", [("borders", (3, 4, 5, 6)), ("clamped", (3, 4, 5, 6)),
                                            ("one_image", (1, 3, 4, 4)), ("same_pixel", (2, 2, 6, 5)),
                                            ("reference_like", (4, 8, 16, 16)),
                                            # thin images: both parities of a phase window read padding
                                            ("one_row", (2, 2, 1, 3)), ("one_pixel", (1, 2, 1, 1)),
                                            ("one_column", (3, 2, 3, 1))])
    def test_matches_dense(self, case, shape, dtype):
        r = np.random.default_rng(len(case))
        p, c, h, w = shape
        idx, uv = self._lookups(case, p, h, w, r)
        x = r.normal(size=shape).astype(dtype)
        ks = [(r.normal(size=(c, c, 3, 3)) * 0.4).astype(dtype), (r.normal(size=c) * 0.1).astype(dtype),
              (r.normal(size=(c, c, 3, 3)) * 0.4).astype(dtype), (r.normal(size=c) * 0.1).astype(dtype)]
        g = r.normal(size=(len(idx), c)).astype(dtype)
        got = self._run(ad.residual_block_at, x, ks, idx, uv, g)
        want = self._run(dense_block_then_sample, x, ks, idx, uv, g)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.dtype == dtype
            assert float(np.abs(a - b).max()) <= self.TOL[dtype] * float(np.abs(b).max())
        if p > 1:
            assert not got[1][p - 1].any()  # the patch no lookup reads gets exactly zero

    def test_finite_differences(self):
        r = np.random.default_rng(5)
        idx, uv = self._lookups("borders", 3, 4, 4, r)
        x = ad.param(r.normal(size=(3, 2, 4, 4)))
        ks = [ad.param(r.normal(size=(2, 2, 3, 3)) * 0.4), ad.param(r.normal(size=2) * 0.1),
              ad.param(r.normal(size=(2, 2, 3, 3)) * 0.4), ad.param(r.normal(size=2) * 0.1)]
        v = r.normal(size=(len(idx), 2))
        err = fd(lambda ps: weighted_sum(ad.residual_block_at(*ps, idx, uv), v), [x] + ks)
        assert err < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_matches_dense_property(self, p, c, h, w, m, seed):
        # random shapes down to 1, with clamped lookups and lookups sharing pixels
        r = np.random.default_rng(seed)
        idx = r.integers(0, p, size=m)
        uv = r.uniform(-1.3, 1.3, size=(m, 2))
        if m > 2:  # one lookup repeated, one next to it
            uv[1:3], idx[1:3] = uv[0] + [[0, 0], r.uniform(-0.1, 0.1, size=2) / max(h, w)], idx[0]
        x = r.normal(size=(p, c, h, w))
        ks = [r.normal(size=(c, c, 3, 3)) * 0.4, r.normal(size=c) * 0.1,
              r.normal(size=(c, c, 3, 3)) * 0.4, r.normal(size=c) * 0.1]
        g = r.normal(size=(m, c))
        got = self._run(ad.residual_block_at, x, ks, idx, uv, g)
        want = self._run(dense_block_then_sample, x, ks, idx, uv, g)
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert float(np.abs(a - b).max()) <= 1e-12 * float(np.abs(b).max())

    @pytest.mark.parametrize("case", ["random", "borders", "clamped", "same_pixel"])
    @pytest.mark.parametrize("p,h,w", [(3, 6, 8), (2, 2, 2), (1, 16, 16)])
    def test_halo_at_most_16_per_lookup(self, case, p, h, w):
        # the restrict rule's count, on the dense ops: lookups into conv2's output read
        # conv1's output (P, h, w) only inside their 4x4 windows, rows y0-1..y0+2 and
        # columns x0-1..x0+2 around the tap origin, so at most 16 pixels per lookup
        r = np.random.default_rng(h * w + p)
        a1 = ad.param(r.normal(size=(p, 2, h, w)))
        k2, b2 = ad.const(r.normal(size=(2, 2, 3, 3))), ad.const(np.zeros(2))
        for m in (1, 5, 40):
            idx, uv = self._lookups(case, p, h // 2, w // 2, r)
            idx, uv = idx[:m], uv[:m]
            with ad.Tape() as tape:
                out = weighted_sum(ad.grid_sample(ad.conv3x3(a1, k2, b2), idx, uv), r.normal(size=(m, 2)))
            (ga,) = ad.backprop(tape, out, leaves=[a1])
            read = np.abs(ga).sum(axis=1) > 0
            x0, _, y0, _, _, _ = ad._bilerp_coords(h, w, uv)
            window = np.zeros((p, h + 2, w + 2), dtype=bool)  # padded by one on every side
            for i, y, x in zip(idx, y0, x0):
                window[i, y:y + 4, x:x + 4] = True
            assert not (read & ~window[:, 1:-1, 1:-1]).any()
            assert np.count_nonzero(read) <= 16 * m

    def test_conv1_window_pixels_read_nine_taps_per_class(self):
        # in every parity class, each of the 16 window pixels reads each 3x3 tap exactly once
        assert ad._CONV1_AT.shape == (4, 16, 16, 9)
        assert np.array_equal(ad._CONV1_AT.sum(axis=2), np.ones((4, 16, 9)))
        assert np.array_equal(ad._CONV1_AT.sum(axis=(2, 3)), np.full((4, 16), 9))

    def test_conv2_reads_inside_the_window(self):
        # each tap pixel's 3x3 taps all land on the 4x4 window, at (ty + di, tx + dj)
        assert ad._CONV2_AT.shape == (4, 16, 9)
        assert np.array_equal(ad._CONV2_AT.sum(axis=1), np.ones((4, 9)))
        for t in range(4):
            ty, tx = divmod(t, 2)
            want = [(ty + i + 1) * 4 + tx + j + 1 for i in range(-1, 2) for j in range(-1, 2)]
            assert np.array_equal(np.argmax(ad._CONV2_AT[t], axis=0), want)

    def test_residual_reads_the_nearest_2x_pixel_under_each_tap(self):
        # a tap origin (y0, x0) of class e = 2*(y0 mod 2) + (x0 mod 2) reads its patch
        # from low-res ((y0-2)//2, (x0-2)//2); tap (ty, tx) sits on high-res pixel
        # (y0+ty, x0+tx), which nearest 2x takes from low-res ((y0+ty)//2, (x0+tx)//2)
        assert ad._TAP_AT.shape == (4, 4)
        for y0 in (6, 7):
            for x0 in (10, 11):
                e = 2 * (y0 % 2) + x0 % 2
                for t in range(4):
                    ty, tx = divmod(t, 2)
                    row, col = (y0 + ty) // 2 - (y0 - 2) // 2, (x0 + tx) // 2 - (x0 - 2) // 2
                    assert ad._TAP_AT[e, t] == 4 * row + col

    def test_rejects_kernel_channel_mismatch(self):
        x = ad.param(np.zeros((2, 3, 3, 3), dtype=np.float32))
        k = ad.param(np.zeros((2, 2, 3, 3), dtype=np.float32))
        b = ad.param(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="kernel/channel"):
            ad.residual_block_at(x, k, b, k, b, [0], [[0.0, 0.0]])


class TestBackprop:
    def test_square_gradient(self):
        x = ad.param(np.array([3.0], dtype=np.float32))
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.square(x))
        (g,) = ad.backprop(tape, y, leaves=[x])
        assert g[0] == pytest.approx(6.0)

    def test_unused_leaf_gets_zero(self):
        x = ad.param(np.array([2.0], dtype=np.float32))
        y = ad.param(np.array([5.0], dtype=np.float32))
        with ad.Tape() as tape:
            out = ad.reduce_sum(x)
        gx, gy = ad.backprop(tape, out, leaves=[x, y])
        assert gx[0] == 1.0 and gy[0] == 0.0

    def test_double_backward_error(self):
        x = ad.param(np.array([1.0], dtype=np.float32))
        with ad.Tape() as tape:
            y = ad.reduce_sum(ad.square(x))
        ad.backprop(tape, y, leaves=[x])
        with pytest.raises(TapeError, match="consumed"):
            ad.backprop(tape, y, leaves=[x])

    def test_backward_without_forward(self):
        tape = ad.Tape()
        with pytest.raises(TapeError, match="without"):
            ad.backprop(tape, ad.param(np.array([1.0], dtype=np.float32)))

    def test_nested_tape_error(self):
        with ad.Tape():
            with pytest.raises(TapeError):
                with ad.Tape():
                    pass

    def test_non_scalar_output_error(self):
        x = ad.param(np.ones(3, dtype=np.float32))
        with ad.Tape() as tape:
            y = ad.square(x)
        with pytest.raises(TapeError, match="scalar"):
            ad.backprop(tape, y)


class TestFiniteDiff:
    def test_linear_near_machine_precision(self):
        w = ad.param(rng.normal(size=12).astype(np.float32))
        v = rng.normal(size=12)
        assert fd(lambda ps: weighted_sum(ps[0], v), [w]) < 1e-10

    def test_softplus_mlp(self):
        w1 = ad.param(rng.normal(size=(3, 8)).astype(np.float32))
        b1 = ad.param(rng.normal(size=8).astype(np.float32))
        w2 = ad.param(rng.normal(size=(8, 1)).astype(np.float32))
        x = rng.normal(size=(6, 3))

        def f(ps):
            h = ad.linear(ad.const(x, ps[0].dtype), ps[0], ps[1], activation="softplus")
            return ad.reduce_sum(ad.linear(h, ps[2]))

        assert fd(f, [w1, b1, w2]) < 1e-5

    def test_relu_kink_excluded(self):
        # one coordinate sits inside the +-eps window of the kink: the sign flip
        # between the probes must exclude it instead of reporting a bogus error
        x = ad.param(np.array([1.0, 1e-5, -2.0], dtype=np.float32))
        v = np.array([1.0, 1.0, 1.0])
        err = fd(lambda ps: weighted_sum(ad.relu(ps[0]), v), [x], eps=1e-3)
        assert err < 1e-8


class TestRMSProp:
    def test_first_step_magnitude(self):
        p = np.zeros(1, dtype=np.float32)
        v = np.zeros(1, dtype=np.float32)
        ad.rmsprop_step(p, np.ones(1, dtype=np.float32), v, lr=1e-4, decay=0.99, eps=1e-8)
        expect = -1e-4 * 1.0 / (np.sqrt(0.01) + 1e-8)
        assert p[0] == pytest.approx(expect, rel=1e-5)

    def test_zero_gradient_no_move(self):
        p = np.array([1.5], dtype=np.float32)
        v = np.zeros(1, dtype=np.float32)
        ad.rmsprop_step(p, np.zeros(1, dtype=np.float32), v, lr=1e-2)
        assert p[0] == 1.5

    def test_repeated_steps_shrink(self):
        p = np.zeros(1, dtype=np.float64)
        v = np.zeros(1, dtype=np.float64)
        g = np.ones(1)
        ad.rmsprop_step(p, g, v, lr=1e-3)
        d1 = abs(p[0])
        before = p[0]
        ad.rmsprop_step(p, g, v, lr=1e-3)
        d2 = abs(p[0] - before)
        assert d2 < d1  # accumulator grows, step shrinks

    def test_non_finite_aborts(self):
        p = np.zeros(1, dtype=np.float32)
        v = np.zeros(1, dtype=np.float32)
        with pytest.raises(NumericError):
            ad.rmsprop_step(p, np.array([np.nan], dtype=np.float32), v, lr=1e-3)


class TestTensor:
    def test_axis_limit(self):
        with pytest.raises(ValueError):
            ad.Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_dtype_coercion(self):
        t = ad.Tensor(np.arange(4))
        assert t.dtype == np.float32
        t64 = ad.Tensor(np.arange(4.0))
        assert t64.dtype == np.float64
