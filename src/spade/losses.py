"""Differentiable training losses in inverse-depth space. Each scores a batch
of frames `(..., H, W)` as one graph: the mean over the frames of each frame's
loss over its own valid pixels. A 2-D input is one frame."""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError, EmptyEvaluationError, ShapeError
from .nn.tensor import Tensor

SILOG_LAMBDA = 0.85
SILOG_BETA = 10.0
GRAD_WEIGHT = 0.5
GRAD_SCALES = 3


def _check_inputs(pred: Tensor, target: np.ndarray, mask: np.ndarray):
    if pred.ndim < 2 or pred.shape != target.shape or pred.shape != mask.shape:
        raise ShapeError(
            f"loss needs equal (..., H, W) shapes: pred {pred.shape}, target {target.shape}, mask {mask.shape}"
        )
    if not mask.any(axis=(-2, -1)).all():
        raise EmptyEvaluationError("a frame has no valid pixels to evaluate the loss on")


def _frame_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Each frame's mean of x over its mask, (..., H, W) -> (...); 0 for an empty mask."""
    count = mask.sum(axis=(-2, -1))
    return (x * Tensor(mask.astype(np.float64))).sum(axis=(-2, -1)) * Tensor(1.0 / np.maximum(count, 1))


def loss_rmse(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """sqrt(mean((pred - target)^2)) over valid pixels."""
    _check_inputs(pred, target, mask)
    d = pred - Tensor(target)
    return _frame_mean(d * d, mask).sqrt().mean()


def loss_silog(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """SILOG_BETA * sqrt(mean(g^2) - SILOG_LAMBDA * mean(g)^2), g = log(pred) - log(target)."""
    _check_inputs(pred, target, mask)
    if np.any(pred.data[mask] <= 0):
        raise DomainError("silog loss needs strictly positive predictions at valid pixels")
    if np.any(target[mask] <= 0):
        raise DomainError("silog loss needs strictly positive targets at valid pixels")
    # log of 1 at masked pixels, so what they hold never reaches the log
    m = mask.astype(np.float64)
    g = (pred * Tensor(m) + Tensor(1.0 - m)).log() - Tensor(np.log(np.where(mask, target, 1.0)))
    return ((_frame_mean(g * g, mask) - SILOG_LAMBDA * _frame_mean(g, mask) ** 2).sqrt() * SILOG_BETA).mean()


def _pool_masked(pred: Tensor, target: np.ndarray, mask: np.ndarray):
    """2x2 average pooling of (..., H, W) that ignores masked pixels (odd edges cropped)."""
    *lead, h, w = mask.shape
    h2, w2 = h - h % 2, w - w % 2
    blocks = (*lead, h2 // 2, 2, w2 // 2, 2)
    m = mask[..., :h2, :w2]
    count = m.reshape(blocks).sum(axis=(-3, -1))
    denom = np.maximum(count, 1).astype(np.float64)
    pred_sum = (pred[..., :h2, :w2] * Tensor(m.astype(np.float64))).reshape(blocks).sum(axis=(-3, -1))
    target_dn = np.where(m, target[..., :h2, :w2], 0.0).reshape(blocks).sum(axis=(-3, -1)) / denom
    return pred_sum * Tensor(1.0 / denom), target_dn, count > 0


def loss_grad(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Multi-scale mean absolute forward differences of the residual.

    Per scale the horizontal and vertical differences are averaged over the
    pairs whose both operands are valid, then summed (a direction with no
    such pair adds 0); scales are generated by mask-aware 2x2 average
    pooling. Scales smaller than 2 pixels in both directions are skipped and
    the scale count renormalized.
    """
    _check_inputs(pred, target, mask)
    total, used = None, 0
    p, t, m = pred, target, mask
    for k in range(GRAD_SCALES):
        h, w = m.shape[-2:]
        if h < 2 and w < 2:
            warnings.warn(f"gradient loss: scale {k} is {h}x{w}, skipping remaining scales")
            break
        res = Tensor(np.where(m, t, 0.0)) - p * Tensor(m.astype(np.float64))
        dx = (res[..., :, 1:] - res[..., :, :-1]).abs()
        dy = (res[..., 1:, :] - res[..., :-1, :]).abs()
        term = _frame_mean(dx, m[..., :, 1:] & m[..., :, :-1]) + _frame_mean(dy, m[..., 1:, :] & m[..., :-1, :])
        total = term if total is None else total + term
        used += 1
        if k + 1 < GRAD_SCALES:
            p, t, m = _pool_masked(p, t, m)
    if total is None:
        return Tensor(0.0)
    return (total * (1.0 / used)).mean()


def loss_total(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Weighted sum: rmse + silog + 0.5 * grad."""
    r = loss_rmse(pred, target, mask)
    s = loss_silog(pred, target, mask)
    g = loss_grad(pred, target, mask)
    return r + s + GRAD_WEIGHT * g
