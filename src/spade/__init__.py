"""Two-stage sparse-prior monocular depth estimation.

Stage 1 aligns an affine-invariant relative depth prediction to sparse
metric measurements in inverse-depth space; stage 2 refines it with a
per-pixel multiplicative scale-correction map predicted by a
conv/deformable-transformer network.
"""

from .core import (
    DepthRaster,
    LaserRig,
    Point,
    ScaleMap,
    Space,
    SparsePointSet,
    from_inverse,
    read_points,
    read_raster,
    to_inverse,
    write_points,
    write_raster,
)
from .alignment import AffineFit, align_global, fit_scale_only, fit_scale_shift, laser_scale
from .densify import JBUParams, fill_default, jbu_densify, sparse_scale_map

__all__ = [
    "AffineFit",
    "DepthRaster",
    "JBUParams",
    "LaserRig",
    "Point",
    "ScaleMap",
    "Space",
    "SparsePointSet",
    "align_global",
    "fill_default",
    "fit_scale_only",
    "fit_scale_shift",
    "from_inverse",
    "jbu_densify",
    "laser_scale",
    "read_points",
    "read_raster",
    "sparse_scale_map",
    "to_inverse",
    "write_points",
    "write_raster",
]

__version__ = "0.1.0"
