"""Finite-difference verification suite over every differentiable layer
family, runnable from the CLI and asserted by the acceptance tests."""

from __future__ import annotations

import time

import numpy as np

from .losses import loss_grad, loss_rmse, loss_silog
from .nn import (
    BatchNorm2d,
    CBAM,
    DPTDecoderBlock,
    DeformAttnConfig,
    DeformableAttention,
    LayerNorm,
    Tensor,
    batch_norm,
    bilinear_sample,
    conv2d,
    depthwise_conv2d,
    interpolate_bilinear,
    layer_norm,
    rel_pos_bias,
    softmax,
)
from .nn.gradcheck import fd_gradcheck, scalarize

TOLERANCE = 1e-4
MAX_ELEMS = 20  # elements checked per tensor


def _conv_cases(rng):
    for stride, k, pad in ((1, 3, 1), (2, 3, 1), (4, 5, 2)):
        x = Tensor(rng.standard_normal((1, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, k, k)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)
        r = rng.standard_normal(conv2d(x, w, b, stride=stride, padding=pad).shape)
        yield lambda: scalarize(conv2d(x, w, b, stride=stride, padding=pad), r), [x, w, b]
    x = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3)) * 0.4, requires_grad=True)
    r = rng.standard_normal(depthwise_conv2d(x, w, stride=2, padding=1).shape)
    yield lambda: scalarize(depthwise_conv2d(x, w, stride=2, padding=1), r), [x, w]


def _norm_cases(rng):
    for shape in ((2, 3, 4, 4), (3, 2, 5, 3), (1, 4, 6, 6)):
        bn = BatchNorm2d(shape[1])
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        r = rng.standard_normal(shape)
        yield lambda: scalarize(bn(x), r), [x, bn.gamma, bn.beta]
    for shape in ((2, 5, 6), (4, 3, 8), (1, 7, 4)):
        ln = LayerNorm(shape[-1])
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        r = rng.standard_normal(shape)
        yield lambda: scalarize(ln(x), r), [x, ln.gamma, ln.beta]


def _norm_op_cases(rng):
    # the fused ops themselves: training batch_norm down to B*H*W = 2, eval
    # BatchNorm2d (an affine in gamma and beta), layer_norm on a transposed view
    for shape in ((2, 3, 1, 1), (1, 2, 1, 2), (2, 3, 3, 2)):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, shape[1]), requires_grad=True)
        beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
        r = rng.standard_normal(shape)
        yield lambda: scalarize(batch_norm(x, gamma, beta, 1e-5)[0], r), [x, gamma, beta]
    bn = BatchNorm2d(3).eval()
    bn.register_buffer("running_mean", rng.standard_normal(3))
    bn.register_buffer("running_var", rng.uniform(0.5, 2.0, 3))
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    r = rng.standard_normal((2, 3, 4, 4))
    yield lambda: scalarize(bn(x), r), [x, bn.gamma, bn.beta]
    for shape in ((2, 5, 3, 4), (1, 4, 2, 3)):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, shape[1]), requires_grad=True)
        beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
        r = rng.standard_normal((shape[0], shape[2] * shape[3], shape[1]))

        def tokens_ln(x=x, gamma=gamma, beta=beta, r=r):
            B, C, H, W = x.shape
            return scalarize(layer_norm(x.reshape(B, C, H * W).transpose(0, 2, 1), gamma, beta, 1e-6), r)

        yield tokens_ln, [x, gamma, beta]


def _activation_cases(rng):
    for shape in ((3, 4), (2, 3, 5), (6,)):
        base = rng.uniform(0.05, 1.5, shape) * rng.choice([-1.0, 1.0], shape)
        x = Tensor(base, requires_grad=True)
        r = rng.standard_normal(shape)
        for act in ("relu", "gelu", "sigmoid", "tanh", "softplus"):
            yield (lambda x=x, act=act, r=r: scalarize(getattr(x, act)(), r)), [x]
        yield (lambda x=x, r=r: scalarize(softmax(x, axis=-1), r)), [x]


def _bilinear_cases(rng):
    for (c, h, w, p) in ((2, 5, 7, 6), (3, 4, 4, 9), (1, 8, 6, 5)):
        x = Tensor(rng.standard_normal((1, c, h, w)), requires_grad=True)
        base = rng.integers(1, min(h, w) - 2, size=(1, p, 2)) + rng.uniform(0.2, 0.8, (1, p, 2))
        loc = Tensor(base, requires_grad=True)
        r = rng.standard_normal((1, c, p))
        yield lambda: scalarize(bilinear_sample(x, loc), r), [x, loc]
        r2 = rng.standard_normal((1, c, h * 2, w * 2))
        yield lambda: scalarize(interpolate_bilinear(x, h * 2, w * 2), r2), [x]


def _rel_pos_bias_cases(rng):
    # key positions a whole number plus 0.2-0.8 keep every table coordinate
    # off the grid lines for g in {1, 2}; keys beyond the map hit the clamp
    for (heads, h, w, g, nk, b) in ((2, 4, 6, 1, 5, 1), (2, 4, 4, 2, 4, 2), (3, 6, 4, 2, 3, 1)):
        table = Tensor(rng.standard_normal((heads, 2 * (h // g) - 1, 2 * (w // g) - 1)), requires_grad=True)
        base = rng.integers(-3, max(h, w) + 3, size=(b, nk, 2)) + rng.uniform(0.2, 0.8, (b, nk, 2))
        ppos = Tensor(base, requires_grad=True)
        r = rng.standard_normal((b, heads, h * w, nk))
        yield lambda: scalarize(rel_pos_bias(table, ppos, h, w, g), r), [table, ppos]


def _cbam_cases(rng):
    for (c, h, w) in ((4, 5, 5), (8, 4, 6), (4, 6, 4)):
        cbam = CBAM(c, rng)
        x = Tensor(rng.standard_normal((1, c, h, w)), requires_grad=True)
        r = rng.standard_normal((1, c, h, w))
        yield lambda: scalarize(cbam(x), r), [x] + cbam.parameters()


def _deform_cases(rng):
    for (c, heads, hw, gd) in ((6, 2, 4, 2), (4, 2, 4, 1), (8, 4, 4, 2)):
        cfg = DeformAttnConfig(
            channels=c, heads=heads, feat_h=hw, feat_w=hw, grid_downsample=gd, offset_range=0.9
        )
        layer = DeformableAttention(cfg, rng)
        layer.offset_proj.weight.data = rng.standard_normal(layer.offset_proj.weight.shape) * 0.2
        layer.offset_proj.bias.data = rng.standard_normal(2) * 0.2
        layer.rel_bias_table.data = rng.standard_normal(layer.rel_bias_table.shape) * 0.3
        x = Tensor(rng.standard_normal((1, c, hw, hw)), requires_grad=True)
        r = rng.standard_normal((1, c, hw, hw))
        wrt = [
            x,
            layer.rel_bias_table,
            layer.offset_proj.weight,
            layer.offset_proj.bias,
            layer.offset_depthwise.weight,
            layer.wq.weight,
            layer.wk.weight,
            layer.wv.weight,
            layer.wo.weight,
        ]
        yield lambda: scalarize(layer(x), r), wrt


def _decoder_cases(rng):
    for (skip_c, width, h, w) in ((4, 6, 4, 4), (3, 4, 6, 4), (5, 8, 4, 6)):
        blk = DPTDecoderBlock(skip_c, width, rng)
        skip = Tensor(rng.standard_normal((1, skip_c, h, w)), requires_grad=True)
        deeper = Tensor(rng.standard_normal((1, width, h // 2, w // 2)), requires_grad=True)
        r = rng.standard_normal((1, width, h, w))
        yield lambda: scalarize(blk(skip, deeper), r), [skip, deeper] + blk.parameters()


def _loss_cases(rng):
    for shape in ((8, 8), (8, 10), (10, 8)):
        target = rng.uniform(0.2, 1.5, shape)
        mask = rng.random(shape) < 0.85
        mask.flat[0] = True
        x = Tensor(rng.uniform(0.2, 1.5, shape), requires_grad=True)
        yield (lambda x=x, t=target, m=mask: loss_rmse(x, t, m)), [x]
        yield (lambda x=x, t=target, m=mask: loss_silog(x, t, m)), [x]
        yield (lambda x=x, t=target, m=mask: loss_grad(x, t, m)), [x]
    # a batch of three frames: dense, sparse, and one valid column (no horizontal pairs)
    target = rng.uniform(0.2, 1.5, (3, 8, 10))
    mask = rng.random((3, 8, 10)) < np.array([0.9, 0.4, 0.0])[:, None, None]
    mask[:2, 0, 0] = True
    mask[2, :, 3] = True
    x = Tensor(rng.uniform(0.2, 1.5, (3, 8, 10)), requires_grad=True)
    for loss in (loss_rmse, loss_silog, loss_grad):
        yield (lambda loss=loss: loss(x, target, mask)), [x]


FAMILIES = {
    "conv": _conv_cases,
    "norm": _norm_cases,
    "activations": _activation_cases,
    "bilinear_sample": _bilinear_cases,
    "cbam": _cbam_cases,
    "deformable_attention": _deform_cases,
    "decoder_block": _decoder_cases,
    "losses": _loss_cases,
    "rel_pos_bias": _rel_pos_bias_cases,
    "norm_ops": _norm_op_cases,
}


def run_suite(seed: int = 0) -> dict:
    """Run every family; returns {family: worst relative error} plus timing."""
    results = {}
    start = time.perf_counter()
    for fam_idx, (name, case_gen) in enumerate(FAMILIES.items()):
        rng = np.random.default_rng([seed, fam_idx])
        worst = 0.0
        for i, (fn, wrt) in enumerate(case_gen(rng)):
            worst = max(worst, fd_gradcheck(fn, wrt, max_elems=MAX_ELEMS, seed=seed + i))
        results[name] = worst
    return {
        "families": results,
        "tolerance": TOLERANCE,
        "all_pass": all(v <= TOLERANCE for v in results.values()),
        "runtime_s": time.perf_counter() - start,
    }
