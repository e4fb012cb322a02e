import numpy as np
import pytest

from spade.errors import ShapeError
from spade.nn import (
    Tensor,
    bilinear_sample,
    concat,
    conv2d,
    depthwise_conv2d,
    interpolate_bilinear,
    no_grad,
    rel_pos_bias,
    softmax,
)
from spade.nn.gradcheck import fd_gradcheck, scalarize

RTOL = 1e-4


def check(fn, wrt, seed=0, max_elems=48):
    worst = fd_gradcheck(fn, wrt, max_elems=max_elems, seed=seed)
    assert worst <= RTOL, f"worst relative gradient error {worst:.3e}"


class TestForwardValues:
    def test_add_mul_broadcast(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal((a + b).data, a.data + b.data)
        assert np.array_equal((a * 2.0).data, a.data * 2)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 7)) * 5)
        s = softmax(x, axis=-1)
        assert np.max(np.abs(s.data.sum(-1) - 1.0)) <= 1e-12

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = conv2d(x, Tensor(w), padding=1)
        assert np.allclose(y.data, x.data, atol=0)

    def test_conv_stride_shape(self):
        x = Tensor(np.zeros((1, 2, 8, 12)))
        w = Tensor(np.zeros((5, 2, 3, 3)))
        assert conv2d(x, w, stride=2, padding=1).shape == (1, 5, 4, 6)
        w5 = Tensor(np.zeros((5, 2, 5, 5)))
        assert conv2d(x, w5, stride=4, padding=2).shape == (1, 5, 2, 3)

    def test_interpolate_on_nodes(self):
        x = Tensor(np.arange(12.0).reshape(1, 1, 3, 4))
        same = interpolate_bilinear(x, 3, 4)
        assert np.allclose(same.data, x.data, atol=1e-12)

    def test_interpolate_constant_preserved(self):
        x = Tensor(np.full((1, 2, 3, 5), 3.7))
        up = interpolate_bilinear(x, 9, 10)
        assert np.allclose(up.data, 3.7, atol=1e-12)

    def test_bilinear_sample_nodes_and_midpoints(self):
        x = Tensor(np.arange(12.0).reshape(1, 1, 3, 4))
        loc = Tensor(np.array([[[1.0, 2.0], [1.0, 2.5], [1.5, 2.0]]]))
        out = bilinear_sample(x, loc)
        assert out.data[0, 0, 0] == x.data[0, 0, 1, 2]
        assert out.data[0, 0, 1] == 0.5 * (x.data[0, 0, 1, 2] + x.data[0, 0, 1, 3])
        assert out.data[0, 0, 2] == 0.5 * (x.data[0, 0, 1, 2] + x.data[0, 0, 2, 2])

    def test_bilinear_sample_border_clamp(self):
        x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        loc = Tensor(np.array([[[-3.0, -3.0], [5.0, 5.0]]]))
        out = bilinear_sample(x, loc)
        assert out.data[0, 0, 0] == 0.0
        assert out.data[0, 0, 1] == 3.0

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_backward_accumulates_through_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        assert np.allclose(x.grad, [7.0])


class TestGradients:
    """Central finite differences against the tape, per op family."""

    def test_elementwise_chain(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(0.3, 2.0, (3, 4)), requires_grad=True)
        y = Tensor(rng.uniform(0.3, 2.0, (3, 4)), requires_grad=True)
        r = rng.standard_normal((3, 4))
        check(lambda: scalarize((x * y + y**1.5).sqrt().log(), r), [x, y])

    def test_activations(self):
        rng = np.random.default_rng(11)
        # keep relu inputs away from the kink
        base = rng.uniform(0.05, 1.5, (2, 5)) * rng.choice([-1.0, 1.0], (2, 5))
        x = Tensor(base, requires_grad=True)
        r = rng.standard_normal((2, 5))
        check(lambda: scalarize(x.relu(), r), [x])
        check(lambda: scalarize(x.gelu(), r), [x])
        check(lambda: scalarize(x.sigmoid(), r), [x])
        check(lambda: scalarize(x.tanh(), r), [x])
        check(lambda: scalarize(x.softplus(), r), [x])
        check(lambda: scalarize(x.abs(), r), [x])

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        r1 = rng.standard_normal((2, 4))
        check(lambda: scalarize(x.mean(axis=1), r1), [x])
        r2 = rng.standard_normal((4, 6))
        check(lambda: scalarize(x.reshape(4, 6), r2), [x])
        r3 = rng.standard_normal((4, 2, 3))
        check(lambda: scalarize(x.transpose(2, 0, 1), r3), [x])
        r4 = rng.standard_normal((2, 3))
        check(lambda: scalarize(x.max(axis=2), r4), [x])

    def test_getitem_and_mask(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        mask = rng.random((5, 6)) < 0.4
        for idx in (mask, (0, np.array([1, 1, 2])), [0, 1]):
            with pytest.raises(ShapeError):
                x[idx]
        r2 = rng.standard_normal((2, 3))
        check(lambda: scalarize(x[1:3, ::2], r2), [x])
        r3 = rng.standard_normal((5, 1, 2))
        check(lambda: scalarize(x[..., None, 4:], r3), [x])

    def test_matmul_batched(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        r = rng.standard_normal((2, 3, 5))
        check(lambda: scalarize(a @ b, r), [a, b])

    def test_matmul_broadcast_weight(self):
        rng = np.random.default_rng(15)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        r = rng.standard_normal((2, 3, 5))
        check(lambda: scalarize(a @ w, r), [a, w])

    def test_softmax(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        r = rng.standard_normal((3, 5))
        check(lambda: scalarize(softmax(x, axis=-1), r), [x])

    def test_concat(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        r = rng.standard_normal((2, 5))
        check(lambda: scalarize(concat([a, b], axis=1), r), [a, b])

    @pytest.mark.parametrize("stride,padding,kernel", [(1, 1, 3), (2, 1, 3), (4, 2, 5), (1, 0, 1)])
    def test_conv2d(self, stride, padding, kernel):
        rng = np.random.default_rng(18 + stride * 10 + kernel)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, kernel, kernel)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)
        out_shape = conv2d(x, w, b, stride=stride, padding=padding).shape
        r = rng.standard_normal(out_shape)
        check(lambda: scalarize(conv2d(x, w, b, stride=stride, padding=padding), r), [x, w, b])

    def test_depthwise_conv2d(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5, 5)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)
        out_shape = depthwise_conv2d(x, w, b, stride=2, padding=2).shape
        r = rng.standard_normal(out_shape)
        check(lambda: scalarize(depthwise_conv2d(x, w, b, stride=2, padding=2), r), [x, w, b])

    def test_interpolate_grads(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        r_up = rng.standard_normal((2, 3, 8, 10))
        check(lambda: scalarize(interpolate_bilinear(x, 8, 10), r_up), [x])
        r_dn = rng.standard_normal((2, 3, 2, 3))
        check(lambda: scalarize(interpolate_bilinear(x, 2, 3), r_dn), [x])

    def test_bilinear_sample_grads(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 7, 9)), requires_grad=True)
        # locations away from integer grid lines and the border clamp
        base = rng.integers(1, 5, size=(2, 11, 2)) + rng.uniform(0.2, 0.8, (2, 11, 2))
        loc = Tensor(base, requires_grad=True)
        r = rng.standard_normal((2, 3, 11))
        check(lambda: scalarize(bilinear_sample(x, loc), r), [x, loc])


def conv2d_loop(x, w, b, stride, padding, seed=None):
    """Direct cross-correlation, one output pixel at a time; with an output
    gradient seed, also the input gradient, spread back window by window."""
    B, C, H, W = x.shape
    F, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, F, Ho, Wo))
    dxp = np.zeros_like(xp)
    for n in range(B):
        for i in range(Ho):
            for j in range(Wo):
                win = (n, slice(None), slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw))
                for f in range(F):
                    out[n, f, i, j] = np.sum(xp[win] * w[f]) + b[f]
                    if seed is not None:
                        dxp[win] += seed[n, f, i, j] * w[f]
    if seed is None:
        return out
    return out, dxp[:, :, padding : padding + H, padding : padding + W]


def depthwise_loop(x, w, b, stride, padding, seed):
    """Direct per-channel correlation and its three gradients, one output
    pixel at a time: returns out, dx, dw, db."""
    B, C, H, W = x.shape
    _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, C, Ho, Wo))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(B):
        for c in range(C):
            for i in range(Ho):
                for j in range(Wo):
                    win = (n, c, slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw))
                    out[n, c, i, j] = np.sum(xp[win] * w[c]) + b[c]
                    dxp[win] += seed[n, c, i, j] * w[c]
                    dw[c] += seed[n, c, i, j] * xp[win]
    return out, dxp[:, :, padding : padding + H, padding : padding + W], dw, seed.sum(axis=(0, 2, 3))


def rel_pos_bias_via_sampling(table, ppos, H, W, g):
    """The bias as a bilinear_sample of the table tiled over the batch, at
    every (query, key) displacement."""
    hds, Th, Tw = table.shape
    B, Nk, _ = ppos.shape
    qr, qc = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    qpos = np.stack([qr, qc], axis=-1).reshape(-1, 2).astype(np.float64)
    disp = (Tensor(qpos[None, :, None, :]) - ppos.reshape(B, 1, Nk, 2)) * (1.0 / g)
    coords = (disp + Tensor(np.array([(Th - 1) / 2, (Tw - 1) / 2]))).reshape(B, H * W * Nk, 2)
    table_b = concat([table.reshape(1, hds, Th, Tw)] * B, axis=0)
    return bilinear_sample(table_b, coords).reshape(B, hds, H * W, Nk)


class TestKernelEquivalence:
    """The fast kernels against direct formulations of the same sums."""

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_conv2d_matches_direct_loop(self, stride, kernel):
        rng = np.random.default_rng(40 + stride * 10 + kernel)
        x = rng.standard_normal((2, 3, 9, 11))
        w = rng.standard_normal((4, 3, kernel, kernel))
        b = rng.standard_normal(4)
        for padding in (0, 1, 2):
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            out = conv2d(xt, wt, Tensor(b), stride=stride, padding=padding)
            seed = rng.standard_normal(out.shape)
            ref, dx = conv2d_loop(x, w, b, stride, padding, seed)
            assert out.shape == ref.shape
            assert out.data.flags.c_contiguous
            np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
            out.backward(seed)
            np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
            # weight gradient: each weight's output is a strided window of xp
            xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            Ho, Wo = ref.shape[2:]
            dw = np.zeros_like(w)
            for i in range(kernel):
                for j in range(kernel):
                    patch = xp[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride]
                    dw[:, :, i, j] = np.einsum("bfhw,bchw->fc", seed, patch)
            np.testing.assert_allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
        no_bias = conv2d(Tensor(x), Tensor(w), stride=stride, padding=1).data
        np.testing.assert_allclose(no_bias, conv2d_loop(x, w, np.zeros(4), stride, 1), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_conv2d_matches_direct_loop(self, stride, kernel):
        rng = np.random.default_rng(60 + stride * 10 + kernel)
        x = rng.standard_normal((2, 3, 9, 11))
        w = rng.standard_normal((3, kernel, kernel))
        b = rng.standard_normal(3)
        for padding in (0, 1, 2):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            out = depthwise_conv2d(xt, wt, bt, stride=stride, padding=padding)
            seed = rng.standard_normal(out.shape)
            ref, dx, dw, db = depthwise_loop(x, w, b, stride, padding, seed)
            assert out.shape == ref.shape
            np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
            out.backward(seed)
            np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bt.grad, db, rtol=1e-12, atol=1e-12)

    def test_relu_slope_half_at_exact_zero(self):
        x = Tensor(np.array([-2.0, -0.0, 0.0, 1e-300, 3.0]), requires_grad=True)
        y = x.relu()
        assert y.data.tolist() == [0.0, 0.0, 0.0, 1e-300, 3.0]
        y.backward(np.full(5, 4.0))
        assert x.grad.tolist() == [0.0, 2.0, 2.0, 4.0, 4.0]

    def test_gelu_matches_cube_formula(self):
        rng = np.random.default_rng(70)
        x0 = np.concatenate([np.linspace(-10.0, 10.0, 2001), rng.standard_normal(500) * 4])
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x0 + 0.044715 * x0**3))
        ref = 0.5 * x0 * (1.0 + t)
        dref = 0.5 * (1.0 + t) + 0.5 * x0 * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x0**2)
        x = Tensor(x0, requires_grad=True)
        y = x.gelu()
        y.backward(np.ones_like(x0))
        # relative, or absolute where the value is within 1 of zero (far on the
        # negative side 1 + tanh cancels, so relative error there says nothing)
        np.testing.assert_allclose(y.data, ref, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(x.grad, dref, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("g,batch", [(1, 1), (1, 2), (2, 1), (2, 3)])
    def test_rel_pos_bias_matches_sampling(self, g, batch):
        rng = np.random.default_rng(50 + 10 * g + batch)
        heads, H, W = 3, 8, 6
        gh, gw = H // g, W // g
        table0 = rng.standard_normal((heads, 2 * gh - 1, 2 * gw - 1))
        rr = (np.arange(gh) + 0.5) * g - 0.5
        cc = (np.arange(gw) + 0.5) * g - 0.5
        ref = np.stack(np.meshgrid(rr, cc, indexing="ij"), axis=-1).reshape(1, -1, 2)
        # offsets up to 1.5x the map size reach the table's border clamp
        pos0 = ref + rng.uniform(-1.5, 1.5, (batch, gh * gw, 2)) * np.array([H, W])
        seed = rng.standard_normal((batch, heads, H * W, gh * gw))
        results = []
        for op in (rel_pos_bias, rel_pos_bias_via_sampling):
            table = Tensor(table0.copy(), requires_grad=True)
            ppos = Tensor(pos0.copy(), requires_grad=True)
            out = op(table, ppos, H, W, g)
            out.backward(seed)
            results.append((out.data, table.grad, ppos.grad))
        (fast, d_table, d_pos), (slow, d_table_ref, d_pos_ref) = results
        assert fast.shape == slow.shape == (batch, heads, H * W, gh * gw)
        np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(d_table, d_table_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_pos, d_pos_ref, rtol=1e-12, atol=1e-12)
        assert np.any(d_pos == 0.0)  # some keys are clamped in a whole axis
