"""Evaluation metrics over metric-depth rasters with a range cutoff."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DepthRaster, Space
from .errors import DomainError, EmptyEvaluationError, ShapeError


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    absrel: float
    silog: float
    imae: float
    range_cap_m: float
    frame_count: int = 1
    valid_px: int = 0


def compute_metrics(pred: DepthRaster, gt: DepthRaster, cap_m: float) -> MetricReport:
    """MAE/RMSE/AbsRel/SILog/iMAE at pixels where ground truth is valid,
    positive, and within the range cap (prediction validity intersected)."""
    if pred.space is not Space.METRIC or gt.space is not Space.METRIC:
        raise DomainError("metrics expect metric-depth rasters on both sides")
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    mask = gt.valid & (gt.values > 0) & (gt.values <= cap_m) & pred.valid
    n = int(mask.sum())
    if n == 0:
        raise EmptyEvaluationError(f"no pixels under the {cap_m} m cap")
    d_hat = pred.values[mask]
    d = gt.values[mask]
    err = d_hat - d
    e_log = np.log(d_hat) - np.log(d)
    silog = float(np.sqrt(max(np.mean(e_log**2) - np.mean(e_log) ** 2, 0.0)))
    return MetricReport(
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err**2))),
        absrel=float(np.mean(np.abs(err) / d)),
        silog=silog,
        imae=float(np.mean(np.abs(1.0 / d_hat - 1.0 / d))),
        range_cap_m=float(cap_m),
        valid_px=n,
    )


def aggregate_metrics(reports: list[MetricReport]) -> MetricReport:
    """Unweighted mean of per-frame metrics (frames, not pixels, are the unit)."""
    if not reports:
        raise EmptyEvaluationError("no frames to aggregate")
    caps = {r.range_cap_m for r in reports}
    if len(caps) != 1:
        raise DomainError(f"cannot aggregate across different range caps: {sorted(caps)}")
    mean = lambda key: float(np.mean([getattr(r, key) for r in reports]))  # noqa: E731
    return MetricReport(
        mae=mean("mae"),
        rmse=mean("rmse"),
        absrel=mean("absrel"),
        silog=mean("silog"),
        imae=mean("imae"),
        range_cap_m=reports[0].range_cap_m,
        frame_count=len(reports),
        valid_px=int(sum(r.valid_px for r in reports)),
    )
