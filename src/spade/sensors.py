"""Sparse-depth point generation mimicking different sensing patterns.

Every emitted point carries the ground-truth depth at its pixel exactly;
pattern pixels landing on invalid ground truth are snapped to the nearest
valid pixel within a small radius or dropped (and logged).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import DepthRaster, LaserRig, Space, SparsePointSet
from .errors import ConfigError, DomainError, ShapeError

log = logging.getLogger(__name__)

SNAP_RADIUS = 3
PATTERN_KINDS = ("feature_like", "uniform_grid", "sonar_line", "dvl4", "laser2")


@dataclass(frozen=True)
class PatternSpec:
    kind: str = "feature_like"
    count: int = 200  # feature_like / sonar_line target count
    grid_rows: int = 10
    grid_cols: int = 10
    sonar_row: int | None = None  # defaults to the middle row
    sonar_jitter: int = 5
    dvl_fraction: float = 0.2
    laser_max_range_m: float = 3.0
    laser_row: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown pattern kind {self.kind!r}; expected one of {PATTERN_KINDS}")
        for name, low in (("count", 1), ("grid_rows", 1), ("grid_cols", 1), ("sonar_jitter", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.dvl_fraction <= 0 or self.dvl_fraction > 1:
            raise ConfigError(f"dvl_fraction must be in (0, 1], got {self.dvl_fraction}")
        if self.laser_max_range_m <= 0:
            raise ConfigError(f"laser_max_range_m must be positive, got {self.laser_max_range_m}")


def _centered_positions(size: int, n: int) -> np.ndarray:
    """n equal-margin positions along an axis of the given size."""
    return np.floor((np.arange(n) + 0.5) * size / n).astype(int)


# (du, dv) offsets in search order: Chebyshev ring, then squared distance, then row, then column
_SNAP_DU, _SNAP_DV = np.array(sorted(
    ((du, dv) for dv in range(-SNAP_RADIUS, SNAP_RADIUS + 1) for du in range(-SNAP_RADIUS, SNAP_RADIUS + 1)),
    key=lambda o: (max(abs(o[0]), abs(o[1])), o[0] ** 2 + o[1] ** 2, o[1], o[0]),
)).T


def _collect(gt: DepthRaster, u, v) -> SparsePointSet:
    """The points at pattern pixels (u, v), in order: each moved to the first
    valid pixel in snap order or dropped when none lies within SNAP_RADIUS
    rings, and each pixel kept once, where first reached."""
    h, w = gt.shape
    uu = np.asarray(u, dtype=np.int64)[:, None] + _SNAP_DU
    vv = np.asarray(v, dtype=np.int64)[:, None] + _SNAP_DV
    ok = (uu >= 0) & (uu < w) & (vv >= 0) & (vv < h)
    ok[ok] = gt.valid[vv[ok], uu[ok]]
    rows, first = np.arange(len(ok)), ok.argmax(axis=1)
    found = ok[rows, first]
    if not found.all():
        log.warning("dropped %d pattern points with no valid pixel within radius %d", (~found).sum(), SNAP_RADIUS)
    u, v = uu[rows, first][found], vv[rows, first][found]
    once = np.sort(np.unique(v * w + u, return_index=True)[1])
    u, v = u[once], v[once]
    return SparsePointSet(zip(u.tolist(), v.tolist(), gt.values[v, u].tolist()))


def _gradient_magnitude(img: np.ndarray, valid: np.ndarray) -> np.ndarray:
    # a difference counts only where both its pixels are valid, so no hole's fill value enters
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    np.subtract(img[:, 1:], img[:, :-1], out=gx[:, :-1], where=valid[:, 1:] & valid[:, :-1])
    np.subtract(img[1:], img[:-1], out=gy[:-1], where=valid[1:] & valid[:-1])
    return np.abs(gx) + np.abs(gy)


def sample_pattern(
    gt: DepthRaster,
    spec: PatternSpec,
    laser: LaserRig | None = None,
    guide: DepthRaster | None = None,
) -> SparsePointSet:
    """Draw a sparse point set from dense ground truth under a sensing pattern.

    feature_like samples pixels with probability proportional to the local
    gradient magnitude of the guide image (ground truth if none given), a
    proxy for tracked visual features clustering on texture; laser2 projects
    the two lasers of the `laser` rig.
    """
    if gt.space is not Space.METRIC:
        raise DomainError(f"pattern sampling expects metric ground truth, got {gt.space.value}")
    h, w = gt.shape
    if spec.kind == "sonar_line" and spec.count > h * w:
        raise ConfigError(f"sonar_line count {spec.count} exceeds the {h}x{w} raster's {h * w} pixels")
    if spec.kind == "uniform_grid" and (spec.grid_rows > h or spec.grid_cols > w):
        raise ConfigError(f"uniform_grid {spec.grid_rows}x{spec.grid_cols} exceeds the {h}x{w} raster")
    for name in ("sonar_row", "laser_row"):
        row = getattr(spec, name)
        if row is not None and not 0 <= row < h:
            raise ConfigError(f"{name} {row} lies outside the {h}x{w} raster")
    if guide is not None and guide.shape != gt.shape:
        raise ShapeError(f"guide raster {guide.shape} does not match the ground truth {gt.shape}")
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "feature_like":
        n_valid = int(gt.valid.sum())
        if spec.count > n_valid:
            raise ConfigError(f"requested {spec.count} points but only {n_valid} valid pixels")
        texture = guide if guide is not None else gt
        weights = _gradient_magnitude(texture.values, texture.valid) * gt.valid
        if (weights > 0).sum() < spec.count:
            weights = weights + 1e-9 * gt.valid
        p = (weights / weights.sum()).ravel()
        idx = rng.choice(h * w, size=spec.count, replace=False, p=p)
        return _collect(gt, idx % w, idx // w)

    if spec.kind == "uniform_grid":
        rows = _centered_positions(h, spec.grid_rows)
        cols = _centered_positions(w, spec.grid_cols)
        return _collect(gt, np.tile(cols, len(rows)), np.repeat(rows, len(cols)))

    if spec.kind == "sonar_line":
        r0 = spec.sonar_row if spec.sonar_row is not None else h // 2
        cols = _centered_positions(w, spec.count)
        jit = rng.integers(-spec.sonar_jitter, spec.sonar_jitter + 1, size=spec.count)
        return _collect(gt, cols, np.clip(r0 + jit, 0, h - 1))

    if spec.kind == "dvl4":
        half = int(round(spec.dvl_fraction * min(h, w) / 2))
        du, dv = np.array([[-half, half, -half, half], [-half, -half, half, half]])
        return _collect(gt, np.clip(w // 2 + du, 0, w - 1), np.clip(h // 2 + dv, 0, h - 1))

    if spec.kind == "laser2":
        if laser is None:
            raise ConfigError("laser2 pattern requires a laser rig")
        row = spec.laser_row if spec.laser_row is not None else h // 2
        # each laser hits the column whose back-projected lateral offset is closest to its own
        lateral = gt.values[row] * (np.arange(w) - laser.cx) / laser.fx
        err = np.where(gt.valid[row], np.abs(lateral - np.array([[-0.5], [0.5]]) * laser.baseline_m), np.inf)
        cols = err.argmin(axis=1)
        u = cols[np.isfinite(err[[0, 1], cols]) & (gt.values[row, cols] <= spec.laser_max_range_m)]
        return _collect(gt, u, np.full(len(u), row))

    raise ConfigError(f"unhandled pattern kind {spec.kind!r}")


def subsample(pts: SparsePointSet, keep: int, seed: int) -> SparsePointSet:
    """Seeded uniform subset of `keep` points, without replacement.

    Implemented as a seeded permutation followed by a prefix take, so subsets
    with the same seed are nested across decreasing keep counts.
    """
    n = len(pts)
    if keep > n:
        raise DomainError(f"cannot keep {keep} of {n} points")
    if keep < 1:
        raise DomainError("keep must select at least one point")
    order = np.random.default_rng(seed).permutation(n)[:keep]
    return pts.subset(order)
