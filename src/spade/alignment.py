"""Stage-1 global alignment.

Fits scale/shift (or scale only) between an affine-invariant prediction and
sparse inverse-depth measurements by closed-form least squares, with the
negative-scale fallback, plus the two-point laser-baseline scale. Every fit
returns a finite scale, shift and residual, or raises FitOverflowError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DepthRaster, LaserRig, Space, SparsePointSet
from .errors import (
    AlignmentFailureError,
    DegenerateDesignError,
    DomainError,
    FitOverflowError,
    InconsistentMeasurementsError,
    InsufficientPointsError,
)

VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class AffineFit:
    """Fitted inverse-depth map v ~ s*z + t."""

    s: float
    t: float
    mode: str  # "scale_shift" | "scale_only" | "laser_baseline"
    residual_rms: float
    n_points: int = 0
    fallback: str | None = None  # why the fit is not the one asked for


def _finite(what: str, *values) -> None:
    if not all(np.all(np.isfinite(x)) for x in values):
        raise FitOverflowError(f"{what} overflowed float64")


# the public fits run with numpy's warnings off and test what they compute with _finite
_quiet = np.errstate(all="ignore")


def _residual_rms(z, v, s, t):
    rms = float(np.sqrt(np.mean((s * z + t - v) ** 2)))
    _finite("fit residual", rms)
    return rms


def _aligned_raster(z: DepthRaster, s: float, t: float) -> DepthRaster:
    aligned = s * z.values + t
    valid = z.valid & (aligned > 0)
    _finite("aligned inverse depth", aligned[valid])
    return DepthRaster(np.where(valid, aligned, 0.0), valid, Space.INVERSE)


@_quiet
def fit_scale_shift(z_at_points, v) -> tuple[float, float]:
    """Closed-form argmin over (s, t) of sum((s*z_i + t - v_i)^2).

    Solved via the 2x2 normal equations. Raises if fewer than two points
    or the z samples have (population) variance below VARIANCE_FLOOR.
    """
    z = np.asarray(z_at_points, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if z.shape != v.shape:
        raise DomainError(f"length mismatch: {z.shape} vs {v.shape}")
    n = z.size
    if n < 2:
        raise InsufficientPointsError(f"scale/shift fit needs >= 2 points, got {n}")
    var = float(np.mean(z * z) - np.mean(z) ** 2)
    sz, sv = z.sum(), v.sum()
    szz, szv = float(z @ z), float(z @ v)
    det = n * szz - sz * sz
    s = (n * szv - sz * sv) / det
    t = (sv - s * sz) / n
    if var < VARIANCE_FLOOR:
        raise DegenerateDesignError(f"z variance {var:.3e} below {VARIANCE_FLOOR:.0e}")
    _finite("scale/shift fit", var, sz, sv, szz, szv, det, s, t)
    return float(s), float(t)


@_quiet
def fit_scale_only(z_at_points, v) -> float:
    """Closed-form argmin over s of sum((s*z_i - v_i)^2): s = sum(zv)/sum(z^2)."""
    z = np.asarray(z_at_points, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if z.shape != v.shape:
        raise DomainError(f"length mismatch: {z.shape} vs {v.shape}")
    if z.size < 1:
        raise InsufficientPointsError("scale-only fit needs >= 1 point")
    szz, szv = float(z @ z), float(z @ v)
    if szz <= 0:
        raise DegenerateDesignError("the sum of squared z samples is 0")
    s = szv / szz
    _finite("scale-only fit", szz, szv, s)
    if s <= 0:
        raise InconsistentMeasurementsError(
            f"scale-only fit produced s={s:.6g} <= 0; measurements contradict a positive-depth scene"
        )
    return s


@_quiet
def align_global(z: DepthRaster, pts: SparsePointSet) -> tuple[DepthRaster, AffineFit]:
    """Align an affine-invariant raster to sparse measurements.

    Samples z at the point pixels (nearest pixel, no interpolation),
    attempts the joint scale/shift fit, and falls back to scale-only
    whenever the joint fit is degenerate or yields s <= 0; the fit's
    `fallback` then says which. Aligned pixels with non-positive value are
    masked invalid in the output.
    """
    if z.space is not Space.AFFINE:
        raise DomainError(f"align_global expects an affine-invariant raster, got {z.space.value}")
    pts.check_bounds(z)
    if len(pts) == 0:
        raise InsufficientPointsError("no sparse points given")
    on = pts.at(z.valid)
    z_samp, v = pts.at(z.values)[on], 1.0 / pts.depth_m[on]
    if len(v) == 0:
        raise InsufficientPointsError("no sparse points fall on valid pixels")

    try:
        s, t = fit_scale_shift(z_samp, v)
        why = None if s > 0 else f"joint fit gave s={s:.6g} <= 0"
    except (InsufficientPointsError, DegenerateDesignError) as e:
        why = str(e)
    if why is None:
        fit = AffineFit(s, t, "scale_shift", _residual_rms(z_samp, v, s, t), len(v))
    else:
        try:
            s = fit_scale_only(z_samp, v)
        except (DegenerateDesignError, InconsistentMeasurementsError) as e:
            raise AlignmentFailureError(f"joint fit unusable ({why}) and scale-only fallback failed: {e}")
        fit = AffineFit(s, 0.0, "scale_only", _residual_rms(z_samp, v, s, 0.0), len(v), why)

    return _aligned_raster(z, fit.s, fit.t), fit


@_quiet
def laser_scale(p1, p2, rig: LaserRig) -> float:
    """Global scale from the projections of the rig's two parallel lasers.

    p1, p2: (u, z_rel) pairs ordered left-to-right in u; z_rel is the
    relative (affine) depth sampled at each projection pixel. Returns s
    such that v = s * z aligns the relative map to metric inverse depth.
    """
    u1, z1 = p1
    u2, z2 = p2
    if z1 <= 0 or z2 <= 0:
        raise DomainError(f"laser relative depths must be positive, got {z1}, {z2}")
    fx, cx = rig.fx, rig.cx
    s = float((np.float64(u2 - cx) / (fx * z2) - np.float64(u1 - cx) / (fx * z1)) / rig.baseline_m)
    _finite("laser scale", s)
    if s <= 0:
        raise InconsistentMeasurementsError(
            f"laser geometry produced s={s:.6g} <= 0; check point ordering and the laser rig"
        )
    return float(s)


@_quiet
def align_with_laser(z: DepthRaster, pts: SparsePointSet, rig: LaserRig) -> tuple[DepthRaster, AffineFit]:
    """Scale-only alignment of an affine-invariant raster by a two-point laser pair."""
    if z.space is not Space.AFFINE:
        raise DomainError(f"align_with_laser expects an affine-invariant raster, got {z.space.value}")
    if len(pts) != 2:
        raise InsufficientPointsError(f"laser alignment needs exactly 2 points, got {len(pts)}")
    pts.check_bounds(z)
    ordered = pts.subset(pts.u.argsort(kind="stable"))
    for i in (~ordered.at(z.valid)).nonzero()[0][:1]:
        u, v, _ = ordered[i]
        raise DomainError(f"laser point at (u={u}, v={v}) falls on an invalid pixel")
    z_samp = ordered.at(z.values)
    s = laser_scale(*zip(ordered.u.tolist(), z_samp.tolist()), rig)
    v = 1.0 / ordered.depth_m
    fit = AffineFit(s, 0.0, "laser_baseline", _residual_rms(z_samp, v, s, 0.0), 2)
    return _aligned_raster(z, s, 0.0), fit
