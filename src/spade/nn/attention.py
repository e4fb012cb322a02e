"""Attention blocks: CBAM and deformable multi-head attention.

Deformable attention follows the sampled key/value scheme: a subsampled
reference grid is shifted by query-conditioned offsets, features are
bilinearly sampled at the shifted points, projected to keys/values, and
attended with a bias interpolated from a relative-position table at the
continuous query-to-key displacements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from .layers import Conv2d, DepthwiseConv2d, Linear, LayerNorm, MLP, Module, Parameter
from .tensor import Tensor, bilinear_sample, concat, rel_pos_bias, softmax


CBAM_REDUCTION = 8
CBAM_SPATIAL_KERNEL = 7


class ChannelAttention(Module):
    def __init__(self, channels, rng):
        super().__init__()
        hidden = max(channels // CBAM_REDUCTION, 4)
        self.fc1 = Linear(channels, hidden, rng)
        self.fc2 = Linear(hidden, channels, rng)

    def forward(self, x):
        avg = x.mean(axis=(2, 3))
        mx = x.max(axis=(2, 3))
        att = self.fc2(self.fc1(avg).relu()) + self.fc2(self.fc1(mx).relu())
        B, C = att.shape
        return att.sigmoid().reshape(B, C, 1, 1)


class SpatialAttention(Module):
    def __init__(self, rng):
        super().__init__()
        self.conv = Conv2d(2, 1, CBAM_SPATIAL_KERNEL, rng)

    def forward(self, x):
        avg = x.mean(axis=1, keepdims=True)
        mx = x.max(axis=1, keepdims=True)
        return self.conv(concat([avg, mx], axis=1)).sigmoid()


class CBAM(Module):
    """Sequential channel-then-spatial sigmoid gating on a feature map."""

    def __init__(self, channels, rng):
        super().__init__()
        self.channel = ChannelAttention(channels, rng)
        self.spatial = SpatialAttention(rng)

    def forward(self, x):
        x = x * self.channel(x)
        return x * self.spatial(x)


@dataclass(frozen=True)
class DeformAttnConfig:
    channels: int
    heads: int
    feat_h: int
    feat_w: int
    grid_downsample: int = 2
    offset_range: float = 4.0  # in grid cells

    def __post_init__(self):
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.grid_downsample < 1:
            raise ConfigError("grid_downsample must be >= 1")
        if self.offset_range <= 0:
            raise ConfigError("offset_range must be positive")
        if self.feat_h % self.grid_downsample or self.feat_w % self.grid_downsample:
            raise ConfigError(
                f"feature size {self.feat_h}x{self.feat_w} not divisible by grid_downsample "
                f"{self.grid_downsample}"
            )

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads

    @property
    def grid_h(self) -> int:
        return self.feat_h // self.grid_downsample

    @property
    def grid_w(self) -> int:
        return self.feat_w // self.grid_downsample


class DeformableAttention(Module):
    """Multi-head attention of every feature pixel to keys sampled at a
    query-offset reference grid.

    The relative-position bias is read from `rel_bias_table` at the
    continuous displacement of each query pixel from each key, in grid
    cells. The row and column displacements interpolate separately, so
    `rel_pos_bias` computes it per key as R T C^T from two-tap row and
    column weights instead of sampling every (query, key) pair.
    """

    def __init__(self, cfg: DeformAttnConfig, rng):
        super().__init__()
        self.cfg = cfg
        C = cfg.channels
        self.wq = Linear(C, C, rng)
        self.wk = Linear(C, C, rng)
        self.wv = Linear(C, C, rng)
        self.wo = Linear(C, C, rng)
        self.offset_depthwise = DepthwiseConv2d(C, 5, rng, stride=cfg.grid_downsample)
        self.offset_proj = Conv2d(C, 2, 1, rng)
        # zero-init so training starts from the undeformed reference grid
        self.offset_proj.weight.data[:] = 0.0
        self.offset_proj.bias.data[:] = 0.0
        self.rel_bias_table = Parameter(np.zeros((cfg.heads, 2 * cfg.grid_h - 1, 2 * cfg.grid_w - 1)))
        g = cfg.grid_downsample
        rr = (np.arange(cfg.grid_h) + 0.5) * g - 0.5
        cc = (np.arange(cfg.grid_w) + 0.5) * g - 0.5
        self._ref = np.stack(np.meshgrid(rr, cc, indexing="ij"), axis=-1).reshape(-1, 2)

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.cfg
        B, C, H, W = x.shape
        if (H, W) != (cfg.feat_h, cfg.feat_w) or C != cfg.channels:
            raise ShapeError(
                f"input {x.shape} does not match configured ({cfg.channels},{cfg.feat_h},{cfg.feat_w})"
            )
        N, Nk, hds, d = H * W, cfg.grid_h * cfg.grid_w, cfg.heads, cfg.head_dim

        tokens = x.reshape(B, C, N).transpose(0, 2, 1)
        q = self.wq(tokens)

        q_spatial = q.transpose(0, 2, 1).reshape(B, C, H, W)
        off = self.offset_proj(self.offset_depthwise(q_spatial).gelu()).tanh()
        off = off * (cfg.offset_range * cfg.grid_downsample)  # grid cells -> feature pixels
        dpos = off.reshape(B, 2, Nk).transpose(0, 2, 1)
        ppos = Tensor(self._ref[None]) + dpos  # (B, Nk, 2) continuous key positions

        sampled = bilinear_sample(x, ppos).transpose(0, 2, 1)  # (B, Nk, C)
        k = self.wk(sampled)
        v = self.wv(sampled)

        q4 = q.reshape(B, N, hds, d).transpose(0, 2, 1, 3)
        k4 = k.reshape(B, Nk, hds, d).transpose(0, 2, 1, 3)
        v4 = v.reshape(B, Nk, hds, d).transpose(0, 2, 1, 3)
        logits = (q4 @ k4.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d))

        bias = rel_pos_bias(self.rel_bias_table, ppos, H, W, cfg.grid_downsample)

        attn = softmax(logits + bias, axis=-1)
        heads_out = attn @ v4  # (B, heads, N, d)
        merged = heads_out.transpose(0, 2, 1, 3).reshape(B, N, C)
        return self.wo(merged).transpose(0, 2, 1).reshape(B, C, H, W)


class TransformerBlock(Module):
    """Pre-norm deformable-attention block with an MLP, both residual."""

    def __init__(self, cfg: DeformAttnConfig, rng, mlp_ratio=2):
        super().__init__()
        self.norm1 = LayerNorm(cfg.channels)
        self.attn = DeformableAttention(cfg, rng)
        self.norm2 = LayerNorm(cfg.channels)
        self.mlp = MLP(cfg.channels, mlp_ratio * cfg.channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        B, C, H, W = x.shape
        tokens = x.reshape(B, C, H * W).transpose(0, 2, 1)
        n1 = self.norm1(tokens).transpose(0, 2, 1).reshape(B, C, H, W)
        x = x + self.attn(n1)
        tokens = x.reshape(B, C, H * W).transpose(0, 2, 1)
        tokens = tokens + self.mlp(self.norm2(tokens))
        return tokens.transpose(0, 2, 1).reshape(B, C, H, W)
