"""Scale-refinement network: cascade conv/deformable-transformer encoder
stages over a U-shaped layout with fusion decoder blocks, plus the trainable
feature pyramid that stands in for a pretrained image encoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import hold_floats
from ..errors import ConfigError, ShapeError
from .attention import CBAM, DeformAttnConfig, TransformerBlock
from .layers import BatchNorm2d, Conv2d, Module, ModuleList
from .tensor import Tensor, concat, interpolate_bilinear

SOFTPLUS_INV_ONE = float(np.log(np.e - 1.0))  # head bias making the neutral output 1 (to within 1e-15)
# encoder stage strides, 1/4..1/32 of the input: the decoders upsample by 2 and the head by 4
STRIDES = (4, 2, 2, 2)


@dataclass(frozen=True)
class CCDTConfig:
    """Per-stage encoder layout; the stages run at the fixed STRIDES."""

    widths: tuple[int, ...] = (32, 64, 96, 128)
    conv_counts: tuple[int, ...] = (1, 1, 2, 2)
    trans_counts: tuple[int, ...] = (1, 1, 2, 2)
    grid_downsamples: tuple[int, ...] = (2, 2, 2, 1)
    heads: int = 4
    offset_range: float = 4.0
    mlp_ratio: int = 2
    decoder_width: int = 64
    embed_channels: int = 16
    fused_channels: int = 32

    def __post_init__(self):
        for name in ("widths", "conv_counts", "trans_counts", "grid_downsamples"):
            if len(getattr(self, name)) != 4:
                raise ConfigError(f"{name} {list(getattr(self, name))} must have exactly 4 entries, one per stage")
        if min(self.grid_downsamples) < 1:
            raise ConfigError(f"grid_downsamples {list(self.grid_downsamples)} must all be >= 1")
        if not self.offset_range > 0:
            raise ConfigError(f"offset_range must be > 0, got {self.offset_range}")
        for name, low in (("heads", 1), ("mlp_ratio", 1), ("embed_channels", 1), ("fused_channels", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if any(w <= 0 for w in self.widths) or any(w % self.heads for w in self.widths):
            raise ConfigError(f"stage widths {self.widths} must be positive multiples of heads={self.heads}")
        if min(self.conv_counts) < 1:
            raise ConfigError(f"conv_counts {list(self.conv_counts)} must all be >= 1")
        if min(self.trans_counts) < 0:
            raise ConfigError(f"trans_counts {list(self.trans_counts)} must all be >= 0")
        if self.decoder_width < 2:
            raise ConfigError(f"decoder_width must be >= 2 (the output head halves it), got {self.decoder_width}")
        hold_floats(self)


class ResNetCBAMBlock(Module):
    """Basic residual block with CBAM applied to the branch before the sum."""

    def __init__(self, in_ch, out_ch, rng, stride=1):
        super().__init__()
        k = 5 if stride == 4 else 3
        self.conv1 = Conv2d(in_ch, out_ch, k, rng, stride=stride)
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.cbam = CBAM(out_ch, rng)
        if stride != 1 or in_ch != out_ch:
            self.skip_conv = Conv2d(in_ch, out_ch, 1, rng, stride=stride)
            self.skip_bn = BatchNorm2d(out_ch)
        else:
            self.skip_conv = None

    def forward(self, x):
        branch = self.bn2(self.conv2(self.bn1(self.conv1(x)).relu()))
        branch = self.cbam(branch)
        skip = x if self.skip_conv is None else self.skip_bn(self.skip_conv(x))
        return (skip + branch).relu()


class CCDTStage(Module):
    """One encoder stage: strided conv(+CBAM) blocks, then transformer blocks."""

    def __init__(self, in_ch, out_ch, stride, n_conv, n_trans, feat_h, feat_w, grid_ds, cfg, rng):
        super().__init__()
        self.out_hw = (feat_h, feat_w)
        self.conv_blocks = ModuleList(
            [ResNetCBAMBlock(in_ch, out_ch, rng, stride=stride)]
            + [ResNetCBAMBlock(out_ch, out_ch, rng) for _ in range(n_conv - 1)]
        )
        self.attn_cfg = DeformAttnConfig(
            channels=out_ch,
            heads=cfg.heads,
            feat_h=feat_h,
            feat_w=feat_w,
            grid_downsample=grid_ds,
            offset_range=cfg.offset_range,
        )
        self.trans_blocks = ModuleList(
            [TransformerBlock(self.attn_cfg, rng, mlp_ratio=cfg.mlp_ratio) for _ in range(n_trans)]
        )

    def forward(self, x):
        for b in self.conv_blocks:
            x = b(x)
        if x.shape[2:] != self.out_hw:
            raise ShapeError(f"stage produced {x.shape[2:]}, expected {self.out_hw}")
        for b in self.trans_blocks:
            x = b(x)
        return x


class FeaturePyramid(Module):
    """Trainable strided-conv pyramid over the guide image: 4 levels at 1/4..1/32."""

    def __init__(self, rng, channels):
        super().__init__()
        if len(channels) != 4:
            raise ConfigError("feature pyramid needs exactly four levels")
        self.conv1 = Conv2d(1, channels[0], 5, rng, stride=4)
        self.conv2 = Conv2d(channels[0], channels[1], 3, rng, stride=2)
        self.conv3 = Conv2d(channels[1], channels[2], 3, rng, stride=2)
        self.conv4 = Conv2d(channels[2], channels[3], 3, rng, stride=2)

    def forward(self, guide: Tensor):
        f1 = self.conv1(guide)
        f2 = self.conv2(f1.relu())
        f3 = self.conv3(f2.relu())
        f4 = self.conv4(f3.relu())
        return [f1, f2, f3, f4]


class FeatureFusion(Module):
    """Iteratively fuse four multi-scale maps, coarsest first, into one map."""

    def __init__(self, channels, out_ch, rng):
        super().__init__()
        c1, c2, c3, c4 = channels
        self.fuse3 = Conv2d(c4 + c3, c3, 1, rng)
        self.fuse2 = Conv2d(c3 + c2, c2, 1, rng)
        self.fuse1 = Conv2d(c2 + c1, c1, 1, rng)
        self.out = Conv2d(c1, out_ch, 1, rng)

    def forward(self, feats):
        f1, f2, f3, f4 = feats
        u = self.fuse3(concat([interpolate_bilinear(f4, *f3.shape[2:]), f3], axis=1))
        u = self.fuse2(concat([interpolate_bilinear(u, *f2.shape[2:]), f2], axis=1))
        u = self.fuse1(concat([interpolate_bilinear(u, *f1.shape[2:]), f1], axis=1))
        return self.out(u)


class ResidualConvUnit(Module):
    def __init__(self, width, rng):
        super().__init__()
        self.conv1 = Conv2d(width, width, 3, rng)
        self.conv2 = Conv2d(width, width, 3, rng)

    def forward(self, x):
        return x + self.conv2(self.conv1(x.relu()).relu())


class DPTDecoderBlock(Module):
    """Project the skip, upsample the deeper map x2, add, refine residually."""

    def __init__(self, skip_ch, width, rng):
        super().__init__()
        self.proj = Conv2d(skip_ch, width, 1, rng)
        self.rcu = ResidualConvUnit(width, rng)

    def forward(self, skip: Tensor, deeper: Tensor | None = None) -> Tensor:
        y = self.proj(skip)
        if deeper is not None:
            up = interpolate_bilinear(deeper, 2 * deeper.shape[2], 2 * deeper.shape[3])
            if up.shape[2:] != y.shape[2:]:
                raise ShapeError(f"decoder resolution mismatch: skip {y.shape[2:]} vs upsampled {up.shape[2:]}")
            y = y + up
        return self.rcu(y)


class OutputHead(Module):
    """Two upsampling conv steps from 1/4 resolution to full, then a shifted
    softplus so a zero-weight final layer emits exactly the neutral factor 1."""

    def __init__(self, width, rng):
        super().__init__()
        self.conv1 = Conv2d(width, width // 2, 3, rng)
        self.conv2 = Conv2d(width // 2, 32, 3, rng)
        self.conv3 = Conv2d(32, 1, 1, rng)
        self.conv3.weight.data[:] = 0.0
        self.conv3.bias.data[:] = SOFTPLUS_INV_ONE

    def forward(self, x):
        x = self.conv1(x)
        x = interpolate_bilinear(x, 2 * x.shape[2], 2 * x.shape[3]).relu()
        x = self.conv2(x)
        x = interpolate_bilinear(x, 2 * x.shape[2], 2 * x.shape[3]).relu()
        return self.conv3(x).softplus()


# Embedding pre-scaling: corrections are centered so the neutral factor 1 maps
# to zero input, and both maps are stretched to O(1) variation; without this
# the correction signal (a few percent around 1) is drowned out by the other
# encoder inputs and training stalls at the constant-output solution.
EPS_EMBED_CENTER = 1.0
EPS_EMBED_SCALE = 5.0
Z_EMBED_CENTER = 0.5
Z_EMBED_SCALE = 2.0


class RefinementNet(Module):
    """Predict a dense positive scale-correction map from the densified sparse
    corrections, the aligned inverse depth, and fused guide features."""

    def __init__(self, cfg: CCDTConfig, input_hw, pyramid_channels, rng):
        super().__init__()
        H, W = input_hw
        if H % 32 or W % 32:
            raise ConfigError(f"input resolution {H}x{W} must be divisible by 32")
        self.input_hw = (H, W)
        e = cfg.embed_channels
        self.embed_eps = Conv2d(1, e, 3, rng)
        self.embed_z = Conv2d(1, e, 3, rng)
        self.fusion = FeatureFusion(pyramid_channels, cfg.fused_channels, rng)

        in_ch = 2 * e + cfg.fused_channels
        stages = []
        h, w = H, W
        for i, stride in enumerate(STRIDES):
            h, w = h // stride, w // stride
            stages.append(
                CCDTStage(
                    in_ch,
                    cfg.widths[i],
                    stride,
                    cfg.conv_counts[i],
                    cfg.trans_counts[i],
                    h,
                    w,
                    cfg.grid_downsamples[i],
                    cfg,
                    rng,
                )
            )
            in_ch = cfg.widths[i]
        self.stages = ModuleList(stages)
        self.dec4 = DPTDecoderBlock(cfg.widths[3], cfg.decoder_width, rng)
        self.dec3 = DPTDecoderBlock(cfg.widths[2], cfg.decoder_width, rng)
        self.dec2 = DPTDecoderBlock(cfg.widths[1], cfg.decoder_width, rng)
        self.dec1 = DPTDecoderBlock(cfg.widths[0], cfg.decoder_width, rng)
        self.head = OutputHead(cfg.decoder_width, rng)

    def forward(self, eps_dense: Tensor, z_tilde: Tensor, feats) -> Tensor:
        H, W = self.input_hw
        if eps_dense.shape[2:] != (H, W) or z_tilde.shape[2:] != (H, W):
            raise ShapeError(
                f"inputs {eps_dense.shape[2:]} / {z_tilde.shape[2:]} do not match configured {self.input_hw}"
            )
        eps_in = (eps_dense - EPS_EMBED_CENTER) * EPS_EMBED_SCALE
        z_in = (z_tilde - Z_EMBED_CENTER) * Z_EMBED_SCALE
        # built in the call, so no local keeps the full-size fused map alive through the stages
        x = concat(
            [self.embed_eps(eps_in).relu(), self.embed_z(z_in).relu(), interpolate_bilinear(self.fusion(feats), H, W)],
            axis=1,
        )
        skips = []
        for stage in self.stages:
            x = stage(x)
            skips.append(x)
        f1, f2, f3, f4 = skips
        d4 = self.dec4(f4, None)
        d3 = self.dec3(f3, d4)
        d2 = self.dec2(f2, d3)
        d1 = self.dec1(f1, d2)
        return self.head(d1)
