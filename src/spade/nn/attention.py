"""Attention blocks: CBAM and deformable multi-head attention.

Deformable attention follows the sampled key/value scheme: a subsampled
reference grid is shifted by query-conditioned offsets, features are
bilinearly sampled at the shifted points, projected to keys/values, and
attended with a bias interpolated from a relative-position table at the
continuous query-to-key displacements.

Every feature map stays (B, C, H, W): each channel mix is a 1x1 convolution
and LayerNorm normalizes the channel axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from .layers import Conv2d, DepthwiseConv2d, LayerNorm, MLP, Module, Parameter, channel_mix
from .tensor import Tensor, bilinear_sample, concat, rel_pos_bias, softmax


CBAM_REDUCTION = 8
CBAM_SPATIAL_KERNEL = 7


class ChannelAttention(Module):
    def __init__(self, channels, rng):
        super().__init__()
        hidden = max(channels // CBAM_REDUCTION, 4)
        self.fc1 = channel_mix(channels, hidden, rng)
        self.fc2 = channel_mix(hidden, channels, rng)

    def forward(self, x):
        avg = x.mean(axis=(2, 3), keepdims=True)
        mx = x.max(axis=(2, 3), keepdims=True)
        att = self.fc2(self.fc1(avg).relu()) + self.fc2(self.fc1(mx).relu())
        return att.sigmoid()


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
        self.wq = channel_mix(C, C, rng)
        self.wk = channel_mix(C, C, rng)
        self.wv = channel_mix(C, C, rng)
        self.wo = channel_mix(C, C, rng)
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

        q = self.wq(x)
        off = self.offset_proj(self.offset_depthwise(q).gelu()).tanh()
        off = off * (cfg.offset_range * cfg.grid_downsample)  # grid cells -> feature pixels
        dpos = off.reshape(B, 2, Nk).transpose(0, 2, 1)
        ppos = Tensor(self._ref[None]) + dpos  # (B, Nk, 2) continuous key positions

        sampled = bilinear_sample(x, ppos).reshape(B, C, Nk, 1)
        # head h owns channels h*d .. (h+1)*d - 1
        q4 = q.reshape(B, hds, d, N)
        k4 = self.wk(sampled).reshape(B, hds, d, Nk)
        v4 = self.wv(sampled).reshape(B, hds, d, Nk)
        # the bias first, so its temporaries are freed before the logits exist
        scores = rel_pos_bias(self.rel_bias_table, ppos, H, W, cfg.grid_downsample)
        scores = (k4 * (1.0 / np.sqrt(d))).transpose(0, 1, 3, 2) @ q4 + scores  # (B, heads, Nk, N)
        attn = softmax(scores, axis=-2)
        heads_out = v4 @ attn  # (B, heads, d, N)
        return self.wo(heads_out.reshape(B, C, H, W))


class TransformerBlock(Module):
    """Pre-norm deformable-attention block with an MLP, both residual."""

    def __init__(self, cfg: DeformAttnConfig, rng, mlp_ratio=2):
        super().__init__()
        self.norm1 = LayerNorm(cfg.channels)
        self.attn = DeformableAttention(cfg, rng)
        self.norm2 = LayerNorm(cfg.channels)
        self.mlp = MLP(cfg.channels, mlp_ratio * cfg.channels, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        return x + self.mlp(self.norm2(x))
