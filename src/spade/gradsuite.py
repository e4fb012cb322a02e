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
    # (1, 1, 0) is the channel-mix branch every projection runs on, and (2, 1, 0)
    # the skip conv, whose input gradient has taps at one stride phase of four
    cases = [((1, 3, 8, 8), *c) for c in ((1, 3, 1), (2, 3, 1), (4, 5, 2), (1, 1, 0), (2, 1, 0))]
    # B=2: one matrix of g spans both samples; on a 7x9 map, stride-2 phases have unequal rows
    for shape, stride, k, pad in cases + [((2, 3, 5, 6), 1, 3, 1), ((2, 3, 7, 9), 2, 3, 1)]:
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, k, k)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.2, requires_grad=True)
        r = rng.standard_normal(conv2d(x, w, b, stride=stride, padding=pad).shape)
        yield lambda: scalarize(conv2d(x, w, b, stride=stride, padding=pad), r), [x, w, b]
    # depthwise, and at B=2 the 5x5 kernel of stage 4's offset conv reaching past a 2x3 map
    for shape, k, stride, pad in (((1, 4, 6, 6), 3, 2, 1), ((2, 4, 2, 3), 5, 1, 2)):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w = Tensor(rng.standard_normal((4, k, k)) * 0.4, requires_grad=True)
        r = rng.standard_normal(depthwise_conv2d(x, w, stride=stride, padding=pad).shape)
        yield lambda: scalarize(depthwise_conv2d(x, w, stride=stride, padding=pad), r), [x, w]


def _norm_cases(rng):
    for shape in ((2, 3, 4, 4), (3, 2, 5, 3), (1, 4, 6, 6)):
        bn = BatchNorm2d(shape[1])
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        r = rng.standard_normal(shape)
        yield lambda: scalarize(bn(x), r), [x, bn.gamma, bn.beta]


def _norm_op_cases(rng):
    # the fused ops themselves: training batch_norm down to B*H*W = 2, eval
    # BatchNorm2d (an affine in gamma and beta), layer_norm over channels
    for shape in ((2, 3, 1, 1), (1, 2, 1, 2), (2, 3, 3, 2)):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, shape[1]), requires_grad=True)
        beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
        r = rng.standard_normal(shape)
        yield lambda: scalarize(batch_norm(x, gamma, beta, 1e-5)[0], r), [x, gamma, beta]
    bn = BatchNorm2d(3).eval()
    bn.running_mean[...] = rng.standard_normal(3)
    bn.running_var[...] = rng.uniform(0.5, 2.0, 3)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    r = rng.standard_normal((2, 3, 4, 4))
    yield lambda: scalarize(bn(x), r), [x, bn.gamma, bn.beta]
    for shape in ((2, 5, 3, 2), (4, 3, 2, 4), (1, 7, 4, 1), (2, 5, 3, 4), (1, 4, 2, 3)):
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, shape[1]), requires_grad=True)
        beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
        r = rng.standard_normal(shape)
        yield lambda: scalarize(layer_norm(x, gamma, beta, 1e-6), r), [x, gamma, beta]


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
        # drawn query by key, then laid out key-major like the bias
        r = rng.standard_normal((b, heads, h * w, nk)).transpose(0, 1, 3, 2)
        yield lambda: scalarize(rel_pos_bias(table, ppos, h, w, g), r), [table, ppos]


def _cbam_cases(rng):
    for (c, h, w) in ((4, 5, 5), (8, 4, 6), (4, 6, 4)):
        cbam = CBAM(c, rng)
        x = Tensor(rng.standard_normal((1, c, h, w)), requires_grad=True)
        r = rng.standard_normal((1, c, h, w))
        yield lambda: scalarize(cbam(x), r), [x] + cbam.parameters()


def _deform_cases(rng):
    # the last case is B=2 on a 4x6 map, so a swap of the batch and head axes,
    # or of the map's rows and columns, shows
    for (b, c, heads, h, w, gd) in ((1, 6, 2, 4, 4, 2), (1, 4, 2, 4, 4, 1), (1, 8, 4, 4, 4, 2), (2, 6, 3, 4, 6, 2)):
        cfg = DeformAttnConfig(channels=c, heads=heads, feat_h=h, feat_w=w, grid_downsample=gd, offset_range=0.9)
        layer = DeformableAttention(cfg, rng)
        layer.offset_proj.weight.data[...] = rng.standard_normal(layer.offset_proj.weight.shape) * 0.2
        layer.offset_proj.bias.data[...] = rng.standard_normal(2) * 0.2
        layer.rel_bias_table.data[...] = rng.standard_normal(layer.rel_bias_table.shape) * 0.3
        x = Tensor(rng.standard_normal((b, c, h, w)), requires_grad=True)
        r = rng.standard_normal((b, c, h, w))
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
