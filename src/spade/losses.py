"""Differentiable training losses, evaluated in inverse-depth space over the
ground-truth validity mask."""

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
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ShapeError(f"loss shapes differ: pred {pred.shape}, target {target.shape}, mask {mask.shape}")
    if not mask.any():
        raise EmptyEvaluationError("no valid pixels to evaluate the loss on")


def loss_rmse(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """sqrt(mean((pred - target)^2)) over valid pixels."""
    _check_inputs(pred, target, mask)
    d = pred[mask] - Tensor(target[mask])
    return (d * d).mean().sqrt()


def loss_silog(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """SILOG_BETA * sqrt(mean(g^2) - SILOG_LAMBDA * mean(g)^2), g = log(pred) - log(target)."""
    _check_inputs(pred, target, mask)
    if np.any(pred.data[mask] <= 0):
        raise DomainError("silog loss needs strictly positive predictions at valid pixels")
    if np.any(target[mask] <= 0):
        raise DomainError("silog loss needs strictly positive targets at valid pixels")
    g = pred[mask].log() - Tensor(np.log(target[mask]))
    return ((g * g).mean() - SILOG_LAMBDA * g.mean() ** 2).sqrt() * SILOG_BETA


def _pool_masked(pred: Tensor, target: np.ndarray, mask: np.ndarray):
    """2x2 average pooling that ignores masked pixels (odd edges cropped)."""
    h, w = mask.shape
    h2, w2 = h - h % 2, w - w % 2
    pred = pred[:h2, :w2]
    m = mask[:h2, :w2]
    t = np.where(m, target[:h2, :w2], 0.0)
    count = m.reshape(h2 // 2, 2, w2 // 2, 2).sum(axis=(1, 3))
    denom = np.maximum(count, 1).astype(np.float64)
    pred_sum = (pred * Tensor(m.astype(np.float64))).reshape(h2 // 2, 2, w2 // 2, 2).sum(axis=(1, 3))
    pred_dn = pred_sum * Tensor(1.0 / denom)
    target_dn = t.reshape(h2 // 2, 2, w2 // 2, 2).sum(axis=(1, 3)) / denom
    return pred_dn, target_dn, count > 0


def loss_grad(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Multi-scale mean absolute forward differences of the residual.

    Per scale the horizontal and vertical differences are averaged over the
    pairs whose both operands are valid, then summed; scales are generated by
    mask-aware 2x2 average pooling. Scales smaller than 2 pixels in both
    directions are skipped and the scale count renormalized.
    """
    _check_inputs(pred, target, mask)
    terms = []
    p, t, m = pred, target, mask
    for k in range(GRAD_SCALES):
        h, w = m.shape
        if h < 2 and w < 2:
            warnings.warn(f"gradient loss: scale {k} is {h}x{w}, skipping remaining scales")
            break
        res = Tensor(np.where(m, t, 0.0)) - p * Tensor(m.astype(np.float64))
        parts = []
        mx = m[:, 1:] & m[:, :-1]
        if mx.any():
            dx = res[:, 1:] - res[:, :-1]
            parts.append(dx[mx].abs().mean())
        my = m[1:, :] & m[:-1, :]
        if my.any():
            dy = res[1:, :] - res[:-1, :]
            parts.append(dy[my].abs().mean())
        if parts:
            term = parts[0]
            for extra in parts[1:]:
                term = term + extra
            terms.append(term)
        else:
            terms.append(Tensor(0.0))
        if k + 1 < GRAD_SCALES:
            p, t, m = _pool_masked(p, t, m)
    if not terms:
        return Tensor(0.0)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total * (1.0 / len(terms))


def loss_total(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Weighted sum: rmse + silog + 0.5 * grad."""
    r = loss_rmse(pred, target, mask)
    s = loss_silog(pred, target, mask)
    g = loss_grad(pred, target, mask)
    return r + s + GRAD_WEIGHT * g
