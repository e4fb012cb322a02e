"""Procedural ground-truth scenes and the relative-depth oracle.

The oracle emulates an affine-invariant backbone: it hides a known (s, t)
pair in inverse-depth space and optionally a smooth multiplicative bias
field plus pixel noise, so alignment and refinement have exact ground truth
to recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DepthRaster, Space, resize_matrix
from .errors import ConfigError

LAYOUTS = ("plane", "canyon", "seafloor_bumps", "frame_with_ropes")

__all__ = [
    "LAYOUTS",
    "OracleSpec",
    "SceneSpec",
    "SynthSpec",
    "generate_scene",
    "oracle_relative",
    "smooth_field",
]


@dataclass(frozen=True)
class SceneSpec:
    layout: str = "seafloor_bumps"
    height: int = 64
    width: int = 96
    depth_min: float = 1.0
    depth_max: float = 4.0
    far_cap: float = 10.0
    texture_scale: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ConfigError(f"unknown layout {self.layout!r}; expected one of {LAYOUTS}")
        if self.depth_min <= 0 or self.depth_max < self.depth_min:
            raise ConfigError(f"bad depth range [{self.depth_min}, {self.depth_max}]")
        if self.depth_max > self.far_cap:
            raise ConfigError(f"depth_max {self.depth_max} exceeds far cap {self.far_cap}")
        for name, low in (("height", 8), ("width", 8), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.texture_scale < 1:
            raise ConfigError(f"texture_scale must be >= 1 pixel, got {self.texture_scale}")


@dataclass(frozen=True)
class OracleSpec:
    s_true: float = 1.5
    t_true: float = 0.1
    bias_amplitude: float = 0.0
    bias_wavelength: float = 16.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.s_true <= 0:
            raise ConfigError(f"s_true must be positive, got {self.s_true}")
        if not (0.0 <= self.bias_amplitude <= 0.5):
            raise ConfigError(f"bias_amplitude must be in [0, 0.5], got {self.bias_amplitude}")
        if self.bias_wavelength < 1:
            raise ConfigError(f"bias_wavelength must be >= 1 pixel, got {self.bias_wavelength}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SynthSpec:
    """`spade synth --spec`: a scene, and an oracle if a relative raster is wanted."""

    scene: SceneSpec = field(default_factory=SceneSpec)
    oracle: OracleSpec | None = None


def smooth_field(height: int, width: int, wavelength: float, rng: np.random.Generator) -> np.ndarray:
    """Smooth value-noise field in [-1, 1]: coarse random grid, bilinear upsample."""
    ch = max(int(np.ceil(height / wavelength)) + 1, 2)
    cw = max(int(np.ceil(width / wavelength)) + 1, 2)
    coarse = rng.uniform(-1.0, 1.0, size=(ch, cw))
    return resize_matrix(ch, height) @ coarse @ resize_matrix(cw, width).T


def _normalize(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(), x.max()
    if hi - lo < 1e-12:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def generate_scene(spec: SceneSpec) -> tuple[DepthRaster, DepthRaster]:
    """Deterministic (ground truth, guide) pair; the guide is a unitless
    single-channel image whose edges follow the depth structure."""
    rng = np.random.default_rng(spec.seed)
    h, w = spec.height, spec.width
    dmin, dmax = spec.depth_min, spec.depth_max
    mid = 0.5 * (dmin + dmax)

    if spec.layout == "plane":
        depth = np.full((h, w), mid)
    elif spec.layout == "canyon":
        center = w / 2 + smooth_field(h, 1, spec.texture_scale, rng)[:, 0] * w * 0.15
        cols = np.arange(w)[None, :]
        channel = np.exp(-((cols - center[:, None]) ** 2) / (2 * (w / 6.0) ** 2))
        depth = dmin + (dmax - dmin) * channel
        depth += 0.05 * (dmax - dmin) * smooth_field(h, w, spec.texture_scale, rng)
    elif spec.layout == "seafloor_bumps":
        ramp = np.linspace(dmax, dmin, h)[:, None] * np.ones((1, w))
        bumps = smooth_field(h, w, spec.texture_scale, rng)
        depth = ramp + 0.25 * (dmax - dmin) * bumps
    else:  # frame_with_ropes
        near = dmin
        depth = np.full((h, w), dmax * 0.98)
        t0, t1 = h // 6, w // 6
        bar = max(2, min(h, w) // 20)
        depth[t0 : h - t0, t1 : t1 + bar] = near
        depth[t0 : h - t0, w - t1 - bar : w - t1] = near
        depth[t0 : t0 + bar, t1 : w - t1] = near
        depth[h - t0 - bar : h - t0, t1 : w - t1] = near
        # thin ropes spanning the frame, 1..4 px wide
        n_ropes = 4
        cols = _rope_columns(w, t1 + bar, w - t1 - bar, n_ropes, rng)
        for i, c in enumerate(cols):
            width_px = 1 + (i % 4)
            depth[t0 : h - t0, c : c + width_px] = near * (1.0 + 0.05 * i)

    depth = np.clip(depth, dmin, dmax)
    gt = DepthRaster(depth, np.ones((h, w), dtype=bool), Space.METRIC)

    texture = smooth_field(h, w, spec.texture_scale, rng)
    guide_vals = np.clip(0.6 * _normalize(1.0 / depth) + 0.4 * 0.5 * (texture + 1.0), 0.0, 1.0)
    guide = DepthRaster(guide_vals, np.ones((h, w), dtype=bool), Space.AFFINE)
    return gt, guide


def _rope_columns(width, lo, hi, n, rng):
    span = hi - lo
    return [int(lo + span * (i + 0.5) / n + rng.integers(-2, 3)) for i in range(n)]


def oracle_relative(gt: DepthRaster, spec: OracleSpec) -> DepthRaster:
    """Affine-invariant prediction hiding (s_true, t_true):

        z = (inv_depth * bias * (1 + noise) - t_true) / s_true

    so s_true*z + t_true reproduces inverse depth exactly wherever bias = 1
    and noise = 0; the bias field is the spatially varying error the
    refinement stage is meant to correct, with known reciprocal.
    """
    if gt.space is not Space.METRIC:
        raise ConfigError("oracle_relative expects a metric ground-truth raster")
    rng = np.random.default_rng(spec.seed)
    h, w = gt.shape
    bias = 1.0 + spec.bias_amplitude * smooth_field(h, w, spec.bias_wavelength, rng)
    inv = np.zeros((h, w))
    np.divide(1.0, gt.values, out=inv, where=gt.valid)
    noisy = inv * bias
    if spec.noise_sigma > 0:
        noisy = noisy * (1.0 + np.clip(rng.normal(0.0, spec.noise_sigma, (h, w)), -0.49, 0.49))
    z = (noisy - spec.t_true) / spec.s_true
    return DepthRaster(np.where(gt.valid, z, 0.0), gt.valid, Space.AFFINE)
