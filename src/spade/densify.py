"""Scale-correction map construction and joint bilateral densification.

The sparse map holds measured correction factors eps = v / z_tilde at the
point pixels; JBU propagates them to neighbouring pixels of similar aligned
depth using Gaussian spatial and range kernels, and remaining holes are
filled with the neutral factor 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DepthRaster, ScaleMap, Space, SparsePointSet, budget_slices
from .errors import ConfigError, DomainError, NumericError, ShapeError

K_UNDERFLOW = 1e-300  # below this the normalizer is treated as "no neighbours"


@dataclass(frozen=True)
class JBUParams:
    window_radius: int = 7
    sigma_spatial: float = 3.0
    sigma_range: float = 0.1  # inverse-depth units

    def __post_init__(self):
        if self.window_radius < 1:
            raise ConfigError(f"window_radius must be >= 1, got {self.window_radius}")
        # the kernel divides by sigma^2, which must be a normal, finite float
        if not all(s > 0 and sys.float_info.min <= s * s < math.inf for s in (self.sigma_spatial, self.sigma_range)):
            raise ConfigError(
                f"kernel sigmas must be positive, with a square that neither underflows nor overflows; "
                f"got spatial={self.sigma_spatial}, range={self.sigma_range}"
            )


def sparse_scale_map(pts: SparsePointSet, z_tilde: DepthRaster) -> ScaleMap:
    """eps = v / z_tilde at each point pixel, v = 1/depth_m."""
    if z_tilde.space is not Space.INVERSE:
        raise DomainError(f"aligned map must be inverse depth, got {z_tilde.space.value}")
    pts.check_bounds(z_tilde)
    values = np.zeros(z_tilde.shape, dtype=np.float64)
    known = np.zeros(z_tilde.shape, dtype=bool)
    for p in pts:
        zt = z_tilde.values[p.v_row, p.u]
        if not z_tilde.valid[p.v_row, p.u] or zt <= 0:
            raise DomainError(
                f"aligned map is not positive at point pixel (u={p.u}, v={p.v_row})"
            )
        eps = (1.0 / float(p.depth_m)) / float(zt)  # Python floats overflow to inf without a warning
        if not 0.0 < eps < math.inf:
            raise DomainError(
                f"correction factor (1/{p.depth_m}) / {zt} at point pixel (u={p.u}, v={p.v_row}) "
                f"is {eps}, outside the positive float64 range"
            )
        values[p.v_row, p.u] = eps
        known[p.v_row, p.u] = True
    return ScaleMap(values, known)


def jbu_densify(eps: ScaleMap, z_tilde: DepthRaster, params: JBUParams = JBUParams()) -> ScaleMap:
    """Joint bilateral upsampling of a sparse scale map guided by aligned depth.

    For every pixel p with at least one known neighbour q in the
    (2R+1)^2 window:

        out_p = sum_q eps_q * f(||p-q||) * g(|z_p - z_q|) / k_p

    with unnormalized Gaussian kernels f, g and k_p the sum of weights.
    The sum runs only over known pixels. Pixels without known neighbours
    (or with an invalid guide value) stay 0 and are later replaced by
    fill_default. The output's `filled` mask marks pixels that received a
    propagated value; `known` is carried over unchanged.

    The sums are scattered from the known pixels rather than gathered over
    the whole image: every known pixel q sends one weighted contribution to
    each in-bounds target p = q - d of every window offset d, and
    `np.bincount` accumulates them per target. Contributions are ordered
    offset-major (offsets row by row, then the points), so each pixel adds
    its terms in the same order as one shifted full-image pass per offset
    would, and gets the same bits. The offsets run in blocks under the byte
    budget, whose sums add up: more than one block moves them by rounding.
    """
    if z_tilde.space is not Space.INVERSE:
        raise DomainError(f"aligned map must be inverse depth, got {z_tilde.space.value}")
    if eps.shape != z_tilde.shape:
        raise ShapeError(f"scale map {eps.shape} vs guide {z_tilde.shape}")
    h, w = eps.shape
    # a row (column) offset past the image height (width) reaches no pixel:
    # dropping those offsets leaves every pixel's terms, in the same order
    ry, rx = (min(params.window_radius, n - 1) for n in (h, w))
    # 0.5 / sigma^2 has the bits of 1 / (2 sigma^2), and stays positive where 2 sigma^2 overflows
    inv2ss = 0.5 / params.sigma_spatial**2
    inv2sr = 0.5 / params.sigma_range**2

    guide = z_tilde.values.ravel()
    q = np.flatnonzero(eps.known & z_tilde.valid)
    qy, qx = np.divmod(q, w)

    # (offsets, points) grids, row-major: offset-major, then point order
    dy, dx = np.meshgrid(np.arange(-ry, ry + 1), np.arange(-rx, rx + 1), indexing="ij")
    dy, dx = dy.reshape(-1, 1), dx.reshape(-1, 1)
    num = den = 0.0
    # blocks of offsets whose (offsets, points) temporaries, about 7 alive at once, fit the budget
    for blk in budget_slices(len(dy), 7 * 8 * len(q)):
        by, bx = dy[blk], dx[blk]
        inside = (qy >= by) & (qy < h + by) & (qx >= bx) & (qx < w + bx)
        target = (q - (by * w + bx))[inside]
        dz = guide[target] - np.broadcast_to(guide[q], inside.shape)[inside]
        with np.errstate(over="ignore"):  # an exponent past float64 is a weight of 0 either way
            f = np.broadcast_to(np.exp(-(by * by + bx * bx) * inv2ss), inside.shape)[inside]
            wgt = f * np.exp(-(dz * dz) * inv2sr)
        vals = np.broadcast_to(eps.values.ravel()[q], inside.shape)[inside]
        num = num + np.bincount(target, weights=wgt * vals, minlength=h * w).reshape(h, w)
        den = den + np.bincount(target, weights=wgt, minlength=h * w).reshape(h, w)

    ok = (den >= K_UNDERFLOW) & z_tilde.valid
    out = np.zeros((h, w), dtype=np.float64)
    np.divide(num, den, out=out, where=ok)
    bad = ok & ~((out > 0) & (out < math.inf))
    if bad.any():
        y, x = np.argwhere(bad)[0]
        how = "overflowed" if out[y, x] == math.inf else "underflowed to 0"
        raise NumericError(f"JBU weighted mean of the known factors at pixel (u={x}, v={y}) {how} in float64")
    # a measured point on an invalid guide pixel contributes nothing and is dropped
    return ScaleMap(out, eps.known & ok, filled=ok)


def fill_default(eps: ScaleMap) -> ScaleMap:
    """Replace every zero-valued pixel with the neutral factor 1.0."""
    out = np.where(eps.values == 0.0, 1.0, eps.values)
    return ScaleMap(out, eps.known.copy(), filled=eps.filled.copy())
