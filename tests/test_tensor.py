import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spade import core
from spade.core import bilinear_taps, resize_matrix
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
from spade.nn import tensor
from spade.nn.tensor import _resize_pair, _two_tap_weights
from spade.pipeline import SpadeModel, _batch_loss, _training_sample, build_corpus

from conftest import fast_config

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

    def test_no_grad_records_nothing_from_a_recorded_input(self):
        x = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
        h = x * 2  # recorded outside no_grad: it keeps its node inside
        with no_grad():
            assert tensor._node(h) is None and tensor._node(x) is None
            outs = [h.relu(), h + h, conv2d(h, Tensor(np.ones((1, 2, 1, 1)))), concat([h, x], axis=1), softmax(h)]
        assert h._node is not None
        for y in outs:
            assert y._node is None and not y.requires_grad

    def test_backward_accumulates_through_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_backward_needs_a_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match=r"backward\(\) needs a scalar, got \(3,\)"):
            (x * 2).backward()


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
    gradient seed, also the input and weight gradients, spread back window
    by window: returns out, or out, dx, dw."""
    B, C, H, W = x.shape
    F, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((B, F, Ho, Wo))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(B):
        for i in range(Ho):
            for j in range(Wo):
                win = (n, slice(None), slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw))
                for f in range(F):
                    out[n, f, i, j] = np.sum(xp[win] * w[f]) + b[f]
                    if seed is not None:
                        dxp[win] += seed[n, f, i, j] * w[f]
                        dw[f] += seed[n, f, i, j] * xp[win]
    if seed is None:
        return out
    return out, dxp[:, :, padding : padding + H, padding : padding + W], dw


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
    return bilinear_sample(table_b, coords).reshape(B, hds, H * W, Nk).transpose(0, 1, 3, 2)


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
            ref, dx, dw = conv2d_loop(x, w, b, stride, padding, seed)
            assert out.shape == ref.shape
            assert out.data.flags.c_contiguous
            np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
            scalarize(out, seed).backward()
            np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
        no_bias = conv2d(Tensor(x), Tensor(w), stride=stride, padding=1).data
        np.testing.assert_allclose(no_bias, conv2d_loop(x, w, np.zeros(4), stride, 1), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    def test_stride_one_3x2_kernel_matches_direct_loop(self, padding):
        # g is padded by 2-p rows and 1-p columns, so padding 2 crops the
        # columns and pads no row, and padding 3 crops both
        rng = np.random.default_rng(80 + padding)
        x, w, b = rng.standard_normal((2, 3, 7, 9)), rng.standard_normal((4, 3, 3, 2)), rng.standard_normal(4)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, Tensor(b), padding=padding)
        seed = rng.standard_normal(out.shape)
        ref, dx, dw = conv2d_loop(x, w, b, 1, padding, seed)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
        scalarize(out, seed).backward()
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)

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
            scalarize(out, seed).backward()
            np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bt.grad, db, rtol=1e-12, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_conv_kernels_match_direct_loops(self, data):
        # every stride phase case: kernels narrower than the stride, phases
        # with no tap, pads past k-1, ragged maps and a sample chunk of two;
        # and every set of operands that need a gradient, the bias alone too
        draw = data.draw
        kh, kw, stride = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
        padding = draw(st.integers(0, max(kh, kw)))
        H, W = draw(st.integers(max(1, kh - 2 * padding), 11)), draw(st.integers(max(1, kw - 2 * padding), 11))
        B, C, depthwise = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.booleans())
        x_grad, w_grad = draw(st.booleans()), draw(st.booleans())
        F = C if depthwise else draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x, b = rng.standard_normal((B, C, H, W)), rng.standard_normal(F)
        w = rng.standard_normal((C, kh, kw) if depthwise else (F, C, kh, kw))
        xt, wt, bt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=w_grad), Tensor(b, requires_grad=True)
        out = (depthwise_conv2d if depthwise else conv2d)(xt, wt, bt, stride=stride, padding=padding)
        seed = rng.standard_normal(out.shape)
        if depthwise:
            ref, dx, dw, _ = depthwise_loop(x, w, b, stride, padding, seed)
        else:
            ref, dx, dw = conv2d_loop(x, w, b, stride, padding, seed)
        scalarize(out, seed).backward()
        assert (xt.grad is not None, wt.grad is not None) == (x_grad, w_grad)
        for got, want in [(out.data, ref), (xt.grad, dx), (wt.grad, dw), (bt.grad, seed.sum(axis=(0, 2, 3)))]:
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_relu_slope_half_at_exact_zero(self):
        x0 = np.array([-2.0, -0.0, 0.0, 1e-300, 3.0, np.nan])
        x = Tensor(x0, requires_grad=True)
        y = x.relu()
        assert y.data[:5].tolist() == [0.0, 0.0, 0.0, 1e-300, 3.0]
        g = np.array([4.0, 4.0, -4.0, 4.0, -4.0, 4.0])
        scalarize(y, g).backward()
        assert x.grad[:5].tolist() == [0.0, 2.0, -2.0, 4.0, -4.0]
        # the factor is relu's one-byte code times 1/2: the same bits as the
        # comparisons it replaced, -0.0 and NaN included
        assert x.grad.tobytes() == (g * ((x0 > 0) + 0.5 * (x0 == 0))).tobytes()

    def test_gelu_matches_cube_formula(self):
        rng = np.random.default_rng(70)
        x0 = np.concatenate([np.linspace(-10.0, 10.0, 2001), rng.standard_normal(500) * 4])
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x0 + 0.044715 * x0**3))
        ref = 0.5 * x0 * (1.0 + t)
        dref = 0.5 * (1.0 + t) + 0.5 * x0 * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x0**2)
        x = Tensor(x0, requires_grad=True)
        y = x.gelu()
        scalarize(y, np.ones_like(x0)).backward()
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
        # drawn query by key, then laid out key-major like the bias
        seed = rng.standard_normal((batch, heads, H * W, gh * gw)).transpose(0, 1, 3, 2)
        results = []
        for op in (rel_pos_bias, rel_pos_bias_via_sampling):
            table = Tensor(table0.copy(), requires_grad=True)
            ppos = Tensor(pos0.copy(), requires_grad=True)
            out = op(table, ppos, H, W, g)
            scalarize(out, seed).backward()
            results.append((out.data, table.grad, ppos.grad))
        (fast, d_table, d_pos), (slow, d_table_ref, d_pos_ref) = results
        assert fast.shape == slow.shape == (batch, heads, gh * gw, H * W) and fast.flags.c_contiguous
        np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(d_table, d_table_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_pos, d_pos_ref, rtol=1e-12, atol=1e-12)
        assert np.any(d_pos == 0.0)  # some keys are clamped in a whole axis

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_rel_pos_bias_matches_sampling_on_any_layout(self, data):
        # ragged maps down to one grid cell per axis (a one-entry table axis),
        # any key count, and a first key past the table's clamp in a whole axis
        draw = data.draw
        heads, g, B = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 2))
        H, W, Nk = g * draw(st.integers(1, 4)), g * draw(st.integers(1, 4)), draw(st.integers(1, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table0 = rng.standard_normal((heads, 2 * (H // g) - 1, 2 * (W // g) - 1))
        pos0 = rng.uniform(-1.5, 2.5, (B, Nk, 2)) * np.array([H, W])
        axis = draw(st.integers(0, 1))
        pos0[:, 0, axis] = draw(st.sampled_from([-1.0, 2.0])) * (H, W)[axis] + rng.uniform(0.2, 0.8)
        seed = rng.standard_normal((B, heads, Nk, H * W))
        results = []
        for op in (rel_pos_bias, rel_pos_bias_via_sampling):
            table = Tensor(table0.copy(), requires_grad=True)
            ppos = Tensor(pos0.copy(), requires_grad=True)
            out = op(table, ppos, H, W, g)
            scalarize(out, seed).backward()
            results.append((out.data, table.grad, ppos.grad))
        (fast, d_table, d_pos), (slow, d_table_ref, d_pos_ref) = results
        assert fast.shape == (B, heads, Nk, H * W) and fast.flags.c_contiguous
        np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(d_table, d_table_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_pos, d_pos_ref, rtol=1e-12, atol=1e-12)
        assert np.all(d_pos[:, 0, axis] == 0.0)


# -- the frame kernels against the formulations they replaced -----------------


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def softmax_three_temporaries(x, axis):
    """softmax with a shifted copy, an exponentiated copy and a quotient."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def bilinear_sample_four_gathers(x, loc):
    """bilinear_sample's forward with one broadcast gather per tap."""
    B, C, H, W = x.shape
    P = loc.shape[1]
    r0, r1, fr, _ = bilinear_taps(loc[..., 0], H)
    c0, c1, fc, _ = bilinear_taps(loc[..., 1], W)
    fr, fc = fr[:, None, :], fc[:, None, :]
    xf = x.reshape(B, C, H * W)

    def gather(ri, ci):
        return np.take_along_axis(xf, np.broadcast_to((ri * W + ci)[:, None, :], (B, C, P)), axis=2)

    top = gather(r0, c0) * (1 - fc) + gather(r0, c1) * fc
    bot = gather(r1, c0) * (1 - fc) + gather(r1, c1) * fc
    return top * (1 - fr) + bot * fr


def two_tap_weights_one_hot(n, pos, size, inv_g):
    """rel_pos_bias's tap weights and their derivative from dense one-hot comparisons."""
    raw = (np.arange(n, dtype=np.float64) - pos[:, :, None]) * inv_g + (size - 1) / 2.0
    i0, i1, frac, inside = (a[..., None] for a in bilinear_taps(raw, size))
    lo, hi = np.arange(size) == i0, np.arange(size) == i1
    return lo * (1.0 - frac) + hi * frac, (hi * 1.0 - lo) * inside


def interpolate_einsum(x, out_h, out_w, seed):
    """The resize and its input gradient as the einsum contractions it replaced."""
    Rh, Rw = resize_matrix(x.shape[2], out_h), resize_matrix(x.shape[3], out_w)
    tmp = np.einsum("oh,bchw->bcow", Rh, x, optimize=True)
    out = np.einsum("pw,bcow->bcop", Rw, tmp, optimize=True)
    t = np.einsum("pw,bcop->bcow", Rw, seed, optimize=True)
    return out, np.einsum("oh,bcow->bchw", Rh, t, optimize=True)


class TestFrameKernels:
    @pytest.mark.parametrize("shape,axis", [((1, 4, 384, 96), -1), ((2, 3, 5, 7), 1), ((3, 1), -1)])
    def test_softmax_bitwise_equal_to_three_temporaries(self, shape, axis):
        x = np.random.default_rng(80).standard_normal(shape) * 4.0
        assert_same_bits(softmax(Tensor(x), axis=axis).data, softmax_three_temporaries(x, axis))

    @pytest.mark.parametrize("B,C,H,W,P", [(1, 96, 4, 6, 6), (2, 3, 7, 9, 11), (1, 2, 1, 5, 4)])
    def test_bilinear_sample_bitwise_equal_to_four_gathers(self, B, C, H, W, P):
        rng = np.random.default_rng(81 + P)
        x = rng.standard_normal((B, C, H, W))
        # inside, on grid lines and beyond the border clamp
        loc = rng.uniform(-2.0, 1.0, (B, P, 2)) * np.array([H, W]) + np.array([H, W])
        loc[:, 0] = [0.0, W - 1.0]
        assert_same_bits(bilinear_sample(Tensor(x), Tensor(loc)).data, bilinear_sample_four_gathers(x, loc))

    # the desk model's four stages (feature map, grid step) and a one-row table
    @pytest.mark.parametrize("H,W,g", [(16, 24, 2), (8, 12, 2), (4, 6, 2), (2, 3, 1), (2, 4, 2)])
    def test_rel_pos_weights_bitwise_equal_to_one_hot(self, H, W, g):
        rng = np.random.default_rng(82 + H)
        gh, gw = H // g, W // g
        rr, cc = (np.arange(gh) + 0.5) * g - 0.5, (np.arange(gw) + 0.5) * g - 0.5
        ref = np.stack(np.meshgrid(rr, cc, indexing="ij"), axis=-1).reshape(1, -1, 2)
        # offsets up to 1.5x the map size reach the table's border clamp
        pos = ref + rng.uniform(-1.5, 1.5, (2, gh * gw, 2)) * np.array([H, W])
        for axis, (n, size) in enumerate([(H, 2 * gh - 1), (W, 2 * gw - 1)]):
            weights, d_weights = _two_tap_weights(n, pos[..., axis], size, 1.0 / g)
            want, d_want = two_tap_weights_one_hot(n, pos[..., axis], size, 1.0 / g)
            assert_same_bits(weights, want)
            assert_same_bits(d_weights(), d_want)

    @pytest.mark.parametrize("shape,out_hw", [((1, 32, 32, 48), (64, 96)), ((2, 3, 2, 3), (4, 6)),
                                              ((1, 2, 1, 5), (3, 2)), ((2, 2, 7, 9), (3, 4))])
    def test_resize_matches_einsum_form(self, shape, out_hw):
        rng = np.random.default_rng(83)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        out = interpolate_bilinear(x, *out_hw)
        seed = rng.standard_normal(out.shape)
        scalarize(out, seed).backward()
        want, dx = interpolate_einsum(x.data, *out_hw, seed)
        np.testing.assert_allclose(out.data, want, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(x.grad, dx, rtol=1e-15, atol=1e-15)

    def test_cached_resize_matrices_are_read_only(self):
        R, RT = _resize_pair(5, 9)
        np.testing.assert_array_equal(R, resize_matrix(5, 9))
        np.testing.assert_array_equal(RT, resize_matrix(5, 9).T)
        for a in (R, RT):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_second_eval_forward_builds_no_resize_matrix(self):
        model = SpadeModel(fast_config()).eval()
        x = [Tensor(np.full((1, 1, 32, 64), v)) for v in (1.0, 0.5, 0.3)]
        with no_grad():
            model(*x)
            before = _resize_pair.cache_info()
            model(*x)
        after = _resize_pair.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2 * 9  # nine resizes, two axes each

    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_windows_match_as_strided_and_write_through(self, stride, padding):
        x = np.random.default_rng(85).standard_normal((2, 3, 9, 13))
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        kh, kw = 3, 2
        Ho, Wo = (xp.shape[2] - kh) // stride + 1, (xp.shape[3] - kw) // stride + 1
        win = tensor._windows(xp, kh, kw, stride, Ho, Wo)
        sB, sC, sH, sW = xp.strides
        want = np.lib.stride_tricks.as_strided(
            xp, xp.shape[:2] + (Ho, Wo, kh, kw), (sB, sC, stride * sH, stride * sW, sH, sW)
        )
        assert win.strides == want.strides
        assert_same_bits(win, want)
        # from a start offset, the view is the one of the map cropped there, on
        # the same buffer: a write through one tap lands at its offset pixels
        top, left = 2, 1
        Ho, Wo = (xp.shape[2] - top - kh) // stride + 1, (xp.shape[3] - left - kw) // stride + 1
        win = tensor._windows(xp, kh, kw, stride, Ho, Wo, (top, left))
        assert_same_bits(win, tensor._windows(np.ascontiguousarray(xp[:, :, top:, left:]), kh, kw, stride, Ho, Wo))
        tap = win[..., 1, 1]
        tap += 1.0
        want_xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        want_xp[:, :, top + 1 : top + 1 + stride * Ho : stride, left + 1 : left + 1 + stride * Wo : stride] += 1.0
        assert_same_bits(xp, want_xp)

    def test_cols_of_a_transposed_input_match_as_strided(self):
        # a (W, H) map transposed: not C-contiguous, so _cols copies it first
        xt = np.random.default_rng(86).standard_normal((2, 4, 11, 7)).transpose(0, 1, 3, 2)
        kh = kw = 3
        Ho, Wo = (7 - kh) // 2 + 1, (11 - kw) // 2 + 1
        sB, sC, sH, sW = xt.strides
        win = np.lib.stride_tricks.as_strided(xt, (2, 4, Ho, Wo, kh, kw), (sB, sC, 2 * sH, 2 * sW, sH, sW))
        want = win.transpose(1, 4, 5, 0, 2, 3).reshape(2, 2 * kh * kw, 2 * Ho * Wo)
        assert_same_bits(tensor._cols(xt, kh, kw, 2, 0, Ho, Wo, 2), want)

    def test_relu_maps_negatives_and_signed_zero_to_plus_zero(self):
        x0 = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0, np.nan])
        y = Tensor(x0).relu().data
        assert_same_bits(y, np.array([0.0, 0.0, 0.0, 0.0, 1e-300, 3.0, np.nan]))

    @pytest.mark.parametrize("axes,shape", [((0, 2, 3), (4, 5, 6, 7)), ((1,), (2, 5, 6, 7))])
    def test_normalize_bitwise_equal_to_mean_form(self, axes, shape):
        rng = np.random.default_rng(87)
        x, gamma, beta = (
            Tensor(rng.standard_normal(s) * 3.0 + 1.0, requires_grad=True) for s in (shape, shape[1:2], shape[1:2])
        )
        out, mean, var = tensor._normalize(x, gamma, beta, 1e-5, axes)
        g = rng.standard_normal(shape)
        scalarize(out, g).backward()
        # the kernel with ndarray.mean, as it was written before
        per_channel = (-1, 1, 1)
        want_mean = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - want_mean
        want_var = (xhat * xhat).mean(axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(want_var + 1e-5)
        xhat *= inv
        want = xhat * gamma.data.reshape(per_channel)
        want += beta.data.reshape(per_channel)
        gh = g * gamma.data.reshape(per_channel)
        dx = xhat * -(gh * xhat).mean(axis=axes, keepdims=True)
        dx += gh
        dx -= gh.mean(axis=axes, keepdims=True)
        dx *= inv
        for got, w in [(out.data, want), (mean, want_mean), (var, want_var), (x.grad, dx)]:
            assert_same_bits(got, w)
        assert_same_bits(gamma.grad, (g * xhat).sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("bias", [True, False])
    def test_1x1_conv_matches_direct_loop(self, bias):
        rng = np.random.default_rng(84)
        x = rng.standard_normal((3, 5, 7, 9))
        w = rng.standard_normal((4, 5, 1, 1))
        b = rng.standard_normal(4) if bias else np.zeros(4)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, Tensor(b) if bias else None)
        seed = rng.standard_normal(out.shape)
        ref, dx, dw = conv2d_loop(x, w, b, 1, 0, seed)
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
        scalarize(out, seed).backward()
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wt.grad, dw, rtol=1e-12, atol=1e-12)


class TestChunkedConv:
    """A batch whose im2col matrix exceeds the byte budget is convolved in
    sample chunks, with the same outputs and gradients as one matrix up to
    rounding: whether a column's dot product comes out in the same bits
    depends on how the BLAS blocks a call's columns, and the weight gradient
    sums its chunks in a different order."""

    CASES = {
        "3x3 stride 1": (conv2d, (4, 3, 8, 12), (5, 3, 3, 3), 1, 1),
        "5x5 stride 4": (conv2d, (4, 3, 32, 48), (4, 3, 5, 5), 4, 2),
        "depthwise 5x5 stride 2": (depthwise_conv2d, (4, 6, 16, 24), (6, 5, 5), 2, 2),
        "1x1 stride 2": (conv2d, (4, 3, 8, 12), (5, 3, 1, 1), 2, 0),
    }
    # stride phases with a tap: 4 of 4 rows and columns at stride 4, but only
    # the even rows and columns of a 1x1 stride-2 conv
    PHASES = {"3x3 stride 1": 1, "5x5 stride 4": 16, "depthwise 5x5 stride 2": 4, "1x1 stride 2": 1}

    @staticmethod
    def setup(name, seed=90):
        op, xs, ws, stride, pad = TestChunkedConv.CASES[name]
        rng = np.random.default_rng(seed)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in (xs, ws, ws[:1]))
        kh, kw = ws[-2:]
        Ho, Wo = (xs[2] + 2 * pad - kh) // stride + 1, (xs[3] + 2 * pad - kw) // stride + 1
        sample_bytes = 8 * xs[1] * kh * kw * Ho * Wo
        return (lambda: op(x, w, b, stride=stride, padding=pad)), [x, w, b], sample_bytes, rng

    @staticmethod
    def record_cols(monkeypatch):
        """The (samples, bytes) of every im2col matrix built from here on."""
        calls, cols = [], tensor._cols

        def traced(x, kh, kw, stride, padding, Ho, Wo, *args):
            calls.append((x.shape[0], 8 * x.shape[0] * x.shape[1] * kh * kw * Ho * Wo))
            return cols(x, kh, kw, stride, padding, Ho, Wo, *args)

        monkeypatch.setattr(tensor, "_cols", traced)
        return calls

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunks_match_one_matrix(self, monkeypatch, name, per_chunk):
        fwd, leaves, sample_bytes, rng = self.setup(name)
        seed = rng.standard_normal(fwd().shape)
        calls = self.record_cols(monkeypatch)
        results = []
        for budget in (4 * sample_bytes, per_chunk * sample_bytes + 7):
            monkeypatch.setattr(core, "BYTE_BUDGET", budget)
            for t in leaves:
                t.zero_grad()
            calls.clear()
            out = fwd()
            scalarize(out, seed).backward()
            # the forward's matrices (of x) and the backward's (of g, one per
            # stride phase) each cover the batch once; each fits the budget or
            # holds the one sample that is never split
            assert sum(n for n, _ in calls) == 4 * (1 + self.PHASES[name])
            assert all(nbytes <= budget or n == 1 for n, nbytes in calls), (budget, calls)
            results.append((out.data, [n for n, _ in calls], [t.grad for t in leaves]))
        (whole, whole_calls, whole_grads), (chunked, chunk_calls, grads) = results
        assert whole_calls[0] == 4  # the forward's matrix of x is whole
        forward = [1, 1, 1, 1] if per_chunk == 1 else [3, 1]
        assert chunk_calls[: len(forward)] == forward
        for g, want in zip([chunked, *grads], [whole, *whole_grads]):
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize(
        "channels, budget_samples, want_calls",
        [
            # a sample of g's matrix is three of x's, so the backward takes one per chunk
            pytest.param((2, 6), 4, [4, 1, 1, 1, 1], id="F=3C"),
            # three samples of g's matrix fit where one of x's does
            pytest.param((6, 2), 1, [1, 1, 1, 1, 3, 1], id="C=3F"),
        ],
    )
    def test_gradient_matrix_takes_its_own_chunks(self, monkeypatch, channels, budget_samples, want_calls):
        (C, F), rng = channels, np.random.default_rng(92)
        x, w = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((4, C, 8, 12), (F, C, 3, 3)))
        seed = rng.standard_normal((4, F, 8, 12))
        calls = self.record_cols(monkeypatch)
        results = []
        for budget in (1 << 30, budget_samples * 8 * C * 9 * 8 * 12 + 7):  # the batch whole, then in chunks
            monkeypatch.setattr(core, "BYTE_BUDGET", budget)
            x.zero_grad()
            w.zero_grad()
            calls.clear()
            scalarize(conv2d(x, w, padding=1), seed).backward()
            assert all(nbytes <= budget for _, nbytes in calls), (budget, calls)
            results.append(([n for n, _ in calls], x.grad, w.grad))
        (whole_calls, *whole), (chunk_calls, *chunked) = results
        assert whole_calls == [4, 4] and chunk_calls == want_calls
        for g, want in zip(chunked, whole):
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("x_needs_grad", [True, False])
    def test_stride_one_backward_builds_its_matrix_from_g(self, monkeypatch, x_needs_grad):
        self.check_backward_matrices(monkeypatch, "3x3 stride 1", x_needs_grad)

    @pytest.mark.parametrize("x_needs_grad", [True, False])
    @pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[3] > 1])
    def test_strided_backward_builds_its_matrices_from_one_padded_g(self, monkeypatch, name, x_needs_grad):
        self.check_backward_matrices(monkeypatch, name, x_needs_grad)

    def check_backward_matrices(self, monkeypatch, name, x_needs_grad):
        fwd, (x, w, b), _, rng = self.setup(name)
        x.requires_grad = x_needs_grad
        out = fwd()
        seed = rng.standard_normal(out.shape)
        seen, cols = [], tensor._cols
        monkeypatch.setattr(tensor, "_cols", lambda a, *rest: seen.append(a) or cols(a, *rest))
        scalarize(out, seed).backward()
        if x_needs_grad:  # one matrix per phase, all of the one padded copy of g, serve dx and dw
            assert len(seen) == self.PHASES[name] and all(a is seen[0] for a in seen)
            _, _, _, stride, pad = self.CASES[name]
            (_, (top, bottom)), (_, (left, right)) = (
                tensor._phases(n, n_out, k, stride, pad) for n, n_out, k in zip(x.shape[2:], out.shape[2:], w.shape[-2:])
            )
            assert_same_bits(seen[0], np.pad(seed, ((0, 0), (0, 0), (top, bottom), (left, right))))
        else:  # dw alone keeps x's matrix
            (matrix_of,) = seen
            assert matrix_of.shape == x.shape and np.shares_memory(matrix_of, x.data)

    @pytest.mark.parametrize("name", list(CASES))
    def test_chunked_gradcheck(self, monkeypatch, name):
        fwd, leaves, sample_bytes, rng = self.setup(name, seed=91)
        monkeypatch.setattr(core, "BYTE_BUDGET", sample_bytes)
        r = rng.standard_normal(fwd().shape)
        check(lambda: scalarize(fwd(), r), leaves)


def test_no_conv_of_a_training_step_builds_a_window_view_outside_cols(monkeypatch):
    """Over a whole training step, every window view is built by `_cols`: the
    input gradient of every conv, strided or not, is a correlation of g, with
    no view over a buffer that taps are added into."""
    cfg = fast_config()
    batch = [_training_sample(f, f.points, cfg) for f in build_corpus(cfg, "train", n_frames=2)]
    model = SpadeModel(cfg, init="train")
    convs, outside, in_cols = [], [], []
    conv, cols, windows = tensor._conv, tensor._cols, tensor._windows

    def traced_conv(x, w, b, stride, padding, groups):
        convs.append((stride, tensor._node(x) is not None))
        return conv(x, w, b, stride, padding, groups)

    def traced_cols(*args):
        in_cols.append(True)
        try:
            return cols(*args)
        finally:
            in_cols.pop()

    def traced_windows(xp, kh, kw, stride, *args):
        if not in_cols:
            outside.append(stride)
        return windows(xp, kh, kw, stride, *args)

    monkeypatch.setattr(tensor, "_conv", traced_conv)
    monkeypatch.setattr(tensor, "_cols", traced_cols)
    monkeypatch.setattr(tensor, "_windows", traced_windows)
    _batch_loss(model, batch).backward()
    strided_dx = sum(stride > 1 and needs_dx for stride, needs_dx in convs)
    assert sum(stride == 1 and needs_dx for stride, needs_dx in convs) > strided_dx > 0
    assert outside == []
