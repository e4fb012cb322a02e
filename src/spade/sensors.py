"""Sparse-depth point generation mimicking different sensing patterns.

Every emitted point carries the ground-truth depth at its pixel exactly;
pattern pixels landing on invalid ground truth are snapped to the nearest
valid pixel within a small radius or dropped (and logged).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import DepthRaster, LaserRig, Point, Space, SparsePointSet
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
_SNAP_ORDER = sorted(
    ((du, dv) for dv in range(-SNAP_RADIUS, SNAP_RADIUS + 1) for du in range(-SNAP_RADIUS, SNAP_RADIUS + 1)),
    key=lambda o: (max(abs(o[0]), abs(o[1])), o[0] ** 2 + o[1] ** 2, o[1], o[0]),
)


def _snap_to_valid(gt: DepthRaster, u: int, v: int) -> tuple[int, int] | None:
    """The first valid pixel in `_SNAP_ORDER` around (u, v), or None within SNAP_RADIUS rings."""
    h, w = gt.shape
    for du, dv in _SNAP_ORDER:
        uu, vv = u + du, v + dv
        if 0 <= uu < w and 0 <= vv < h and gt.valid[vv, uu]:
            return uu, vv
    return None


def _collect(gt: DepthRaster, pixels) -> SparsePointSet:
    points, seen, dropped = [], set(), 0
    for u, v in pixels:
        snapped = _snap_to_valid(gt, int(u), int(v))
        if snapped is None:
            dropped += 1
            continue
        if snapped in seen:
            continue
        seen.add(snapped)
        points.append(Point(snapped[0], snapped[1], float(gt.values[snapped[1], snapped[0]])))
    if dropped:
        log.warning("dropped %d pattern points with no valid pixel within radius %d", dropped, SNAP_RADIUS)
    return SparsePointSet(points)


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
        pixels = [(int(i % w), int(i // w)) for i in idx]
        return _collect(gt, pixels)

    if spec.kind == "uniform_grid":
        rows = _centered_positions(h, spec.grid_rows)
        cols = _centered_positions(w, spec.grid_cols)
        return _collect(gt, [(c, r) for r in rows for c in cols])

    if spec.kind == "sonar_line":
        r0 = spec.sonar_row if spec.sonar_row is not None else h // 2
        cols = _centered_positions(w, spec.count)
        jit = rng.integers(-spec.sonar_jitter, spec.sonar_jitter + 1, size=spec.count)
        rows = np.clip(r0 + jit, 0, h - 1)
        return _collect(gt, list(zip(cols.tolist(), rows.tolist())))

    if spec.kind == "dvl4":
        side = spec.dvl_fraction * min(h, w)
        half = int(round(side / 2))
        cy, cx = h // 2, w // 2
        corners = [
            (cx - half, cy - half),
            (cx + half, cy - half),
            (cx - half, cy + half),
            (cx + half, cy + half),
        ]
        return _collect(gt, [(np.clip(u, 0, w - 1), np.clip(v, 0, h - 1)) for u, v in corners])

    if spec.kind == "laser2":
        if laser is None:
            raise ConfigError("laser2 pattern requires a laser rig")
        row = spec.laser_row if spec.laser_row is not None else h // 2
        pixels = []
        for lateral in (-laser.baseline_m / 2.0, laser.baseline_m / 2.0):
            u_star = _project_laser(gt, laser, row, lateral)
            if u_star is None:
                continue
            depth = gt.values[row, u_star]
            if depth > spec.laser_max_range_m:
                continue
            pixels.append((u_star, row))
        return _collect(gt, pixels)

    raise ConfigError(f"unhandled pattern kind {spec.kind!r}")


def _project_laser(gt: DepthRaster, rig: LaserRig, row: int, lateral_m: float) -> int | None:
    """Column where a forward-pointing laser at the given lateral offset hits
    the scene: the pixel whose back-projected lateral coordinate is closest."""
    cols = np.arange(gt.shape[1])
    valid = gt.valid[row]
    lateral = gt.values[row] * (cols - rig.cx) / rig.fx
    err = np.abs(lateral - lateral_m)
    err[~valid] = np.inf
    if not np.isfinite(err).any():
        return None
    return int(np.argmin(err))


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
    return SparsePointSet([pts.points[i] for i in order])
