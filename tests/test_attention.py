import numpy as np
import pytest

from spade.errors import ConfigError
from spade.nn import DeformAttnConfig, DeformableAttention, Tensor, TransformerBlock, attention, softmax
from spade.nn.gradcheck import fd_gradcheck, scalarize

from test_tensor import bilinear_sample_four_gathers, softmax_three_temporaries, two_tap_weights_one_hot

RTOL = 1e-4


def dense_attention_oracle(x: np.ndarray, heads: int) -> np.ndarray:
    """Plain multi-head self-attention with q = k = v = tokens, no projections."""
    B, C, H, W = x.shape
    N, d = H * W, C // heads
    tokens = x.reshape(B, C, N).transpose(0, 2, 1)
    out = np.empty_like(tokens)
    for b in range(B):
        for h in range(heads):
            t = tokens[b][:, h * d : (h + 1) * d]
            logits = t @ t.T / np.sqrt(d)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            attn = e / e.sum(axis=-1, keepdims=True)
            out[b][:, h * d : (h + 1) * d] = attn @ t
    return out.transpose(0, 2, 1).reshape(B, C, H, W)


def make_identity_layer(C=8, heads=2, H=5, W=6, rng=None):
    """Identity q/k/v/out projections; the relative-position table starts at
    zero, so the layer is attention over bilinearly sampled grid features."""
    cfg = DeformAttnConfig(channels=C, heads=heads, feat_h=H, feat_w=W, grid_downsample=1)
    layer = DeformableAttention(cfg, rng or np.random.default_rng(0))
    for mix in (layer.wq, layer.wk, layer.wv, layer.wo):
        mix.weight.data, mix.bias.data = np.eye(C)[:, :, None, None], np.zeros(C)
    return layer


def depthwise_taps(x, w, b, stride, padding):
    """Per-channel correlation of x (B,C,H,W) with w (C,k,k), summed tap by tap."""
    B, C, H, W = x.shape
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho, Wo = (H + 2 * padding - k) // stride + 1, (W + 2 * padding - k) // stride + 1
    out = np.zeros((B, C, Ho, Wo)) + b[:, None, None]
    for i in range(k):
        for j in range(k):
            out += w[:, i, j, None, None] * xp[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride]
    return out


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def forward_internals(layer: DeformableAttention, x: Tensor):
    """The layer's forward recomputed in plain numpy in the token layout
    (B, N, C): each projection an (in, out) matrix plus bias on the tokens,
    heads split off each token's channels, the relative-position bias summed
    from one-hot table weights. Returns its output and the intermediates the
    tests inspect."""
    cfg, x = layer.cfg, x.data
    B, C, H, W = x.shape
    N, Nk, hds, d, g = H * W, cfg.grid_h * cfg.grid_w, cfg.heads, cfg.head_dim, cfg.grid_downsample

    def project(mix, tokens):
        return tokens @ mix.weight.data[:, :, 0, 0].T + mix.bias.data

    def split_heads(tokens):
        return tokens.reshape(B, -1, hds, d).transpose(0, 2, 1, 3)

    q = project(layer.wq, x.reshape(B, C, N).transpose(0, 2, 1))
    dw, op = layer.offset_depthwise, layer.offset_proj
    hidden = gelu(depthwise_taps(q.transpose(0, 2, 1).reshape(B, C, H, W), dw.weight.data, dw.bias.data, g, 2))
    off = np.tanh(np.einsum("oc,bchw->bohw", op.weight.data[:, :, 0, 0], hidden) + op.bias.data[:, None, None])
    offsets = (off * (cfg.offset_range * g)).reshape(B, 2, Nk).transpose(0, 2, 1)
    ppos = layer._ref[None] + offsets
    sampled = bilinear_sample_four_gathers(x, ppos).transpose(0, 2, 1)  # (B, Nk, C)
    q4, k4, v4 = split_heads(q), split_heads(project(layer.wk, sampled)), split_heads(project(layer.wv, sampled))
    table = layer.rel_bias_table.data
    R, _ = two_tap_weights_one_hot(H, ppos[..., 0], table.shape[1], 1.0 / g)
    Cw, _ = two_tap_weights_one_hot(W, ppos[..., 1], table.shape[2], 1.0 / g)
    bias = np.einsum("bkri,hij,bkcj->bhrck", R, table, Cw).reshape(B, hds, N, Nk)
    attn = softmax_three_temporaries(q4 @ k4.transpose(0, 1, 3, 2) / np.sqrt(d) + bias, axis=-1)
    heads_out = attn @ v4  # (B, heads, N, d)
    out = project(layer.wo, heads_out.transpose(0, 2, 1, 3).reshape(B, N, C))
    internals = {"attn": attn, "values": v4, "head_outputs": heads_out, "offsets": offsets}
    return out.transpose(0, 2, 1).reshape(B, C, H, W), internals


class TestDeformableAttention:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        layer = make_identity_layer()
        for _ in range(4):
            x = rng.standard_normal((2, 8, 5, 6))
            got = layer(Tensor(x)).data
            want = dense_attention_oracle(x, heads=2)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_constant_input_passthrough(self):
        layer = make_identity_layer()
        x = Tensor(np.full((1, 8, 5, 6), 3.25))
        out = layer(x)
        assert np.max(np.abs(out.data - 3.25)) < 1e-12

    def test_attention_convexity(self):
        rng = np.random.default_rng(2)
        cfg = DeformAttnConfig(channels=8, heads=2, feat_h=6, feat_w=6, grid_downsample=2)
        layer = DeformableAttention(cfg, rng)
        # deform the grid so sampled values are generic, and give every
        # projection and the relative-position table non-zero values
        layer.offset_proj.weight.data = rng.standard_normal(layer.offset_proj.weight.shape) * 0.3
        layer.offset_proj.bias.data = rng.standard_normal(2) * 0.3
        layer.rel_bias_table.data = rng.standard_normal(layer.rel_bias_table.shape) * 0.5
        for mix in (layer.wq, layer.wk, layer.wv, layer.wo):
            mix.bias.data = rng.standard_normal(8) * 0.3
        x = Tensor(rng.standard_normal((2, 8, 6, 6)))
        out, internals = forward_internals(layer, x)
        assert np.all(internals["offsets"] != 0.0)
        np.testing.assert_allclose(layer(x).data, out, rtol=1e-12, atol=1e-12)
        attn, values, heads_out = internals["attn"], internals["values"], internals["head_outputs"]
        assert np.all(attn >= 0)
        assert np.max(np.abs(attn.sum(-1) - 1.0)) < 1e-12
        lo = values.min(axis=2, keepdims=True)  # per-head componentwise hull bounds
        hi = values.max(axis=2, keepdims=True)
        assert np.all(heads_out >= lo - 1e-12)
        assert np.all(heads_out <= hi + 1e-12)

    def test_scores_stay_key_major(self, monkeypatch):
        # B, heads, d, Nk and N all differ, so each recorded shape names its array
        B, C, heads, H, W = 3, 8, 2, 4, 6
        cfg = DeformAttnConfig(channels=C, heads=heads, feat_h=H, feat_w=W, grid_downsample=2)
        layer = DeformableAttention(cfg, np.random.default_rng(10))
        d, Nk, N = C // heads, cfg.grid_h * cfg.grid_w, H * W
        softmaxes, transposed, scaled = [], [], []
        original_transpose, original_mul = Tensor.transpose, Tensor.__mul__

        def recording_softmax(x, axis=-1):
            softmaxes.append((x.shape, axis))
            return softmax(x, axis=axis)

        def recording_transpose(self, *axes):
            transposed.append(self.shape)
            return original_transpose(self, *axes)

        def recording_mul(self, other):
            if isinstance(other, float):
                scaled.append((self.shape, other))
            return original_mul(self, other)

        monkeypatch.setattr(attention, "softmax", recording_softmax)
        monkeypatch.setattr(Tensor, "transpose", recording_transpose)
        monkeypatch.setattr(Tensor, "__mul__", recording_mul)
        layer(Tensor(np.random.default_rng(11).standard_normal((B, C, H, W))))
        assert softmaxes == [((B, heads, Nk, N), -2)]
        assert all(shape[-2:] not in ((Nk, N), (N, Nk)) for shape in transposed)
        assert ((B, heads, d, Nk), 1.0 / np.sqrt(d)) in scaled
        assert all(shape[-2:] != (Nk, N) for shape, _ in scaled)

    def test_offsets_zero_at_init(self):
        layer = DeformableAttention(
            DeformAttnConfig(channels=8, heads=2, feat_h=4, feat_w=4, grid_downsample=2),
            np.random.default_rng(3),
        )
        x = Tensor(np.random.default_rng(4).standard_normal((1, 8, 4, 4)))
        out, internals = forward_internals(layer, x)
        np.testing.assert_allclose(layer(x).data, out, rtol=1e-12, atol=1e-12)
        assert np.all(internals["offsets"] == 0.0)

    def test_grid_divisibility_validated(self):
        with pytest.raises(ConfigError, match="divisible"):
            DeformAttnConfig(channels=8, heads=2, feat_h=5, feat_w=6, grid_downsample=2)
        with pytest.raises(ConfigError):
            DeformAttnConfig(channels=7, heads=2, feat_h=4, feat_w=4)

    def test_gradients_through_everything(self):
        rng = np.random.default_rng(5)
        cfg = DeformAttnConfig(
            channels=6, heads=2, feat_h=4, feat_w=4, grid_downsample=2, offset_range=0.9
        )
        layer = DeformableAttention(cfg, rng)
        # nonzero offsets and bias so those paths carry real gradients
        layer.offset_proj.weight.data = rng.standard_normal(layer.offset_proj.weight.shape) * 0.2
        layer.offset_proj.bias.data = rng.standard_normal(2) * 0.2
        layer.rel_bias_table.data = rng.standard_normal(layer.rel_bias_table.shape) * 0.3
        x = Tensor(rng.standard_normal((1, 6, 4, 4)), requires_grad=True)
        r = rng.standard_normal((1, 6, 4, 4))
        wrt = [x, layer.rel_bias_table, layer.offset_proj.weight, layer.offset_proj.bias,
               layer.offset_depthwise.weight, layer.wq.weight, layer.wk.weight,
               layer.wv.weight, layer.wo.weight]
        worst = fd_gradcheck(lambda: scalarize(layer(x), r), wrt, max_elems=24, seed=6)
        assert worst <= RTOL, f"worst relative gradient error {worst:.3e}"


class TestTransformerBlock:
    def test_shape_preserved(self):
        rng = np.random.default_rng(7)
        cfg = DeformAttnConfig(channels=8, heads=2, feat_h=4, feat_w=6, grid_downsample=2)
        block = TransformerBlock(cfg, rng)
        x = Tensor(rng.standard_normal((2, 8, 4, 6)))
        assert block(x).shape == (2, 8, 4, 6)

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        cfg = DeformAttnConfig(channels=6, heads=2, feat_h=4, feat_w=4, grid_downsample=2)
        block = TransformerBlock(cfg, rng)
        x = Tensor(rng.standard_normal((1, 6, 4, 4)), requires_grad=True)
        r = rng.standard_normal((1, 6, 4, 4))
        worst = fd_gradcheck(lambda: scalarize(block(x), r), [x], max_elems=32, seed=9)
        assert worst <= RTOL
