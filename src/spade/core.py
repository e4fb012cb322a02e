"""Core domain types: dense depth rasters, sparse point sets, scale maps,
the laser rig, plus inverse-depth conversions and file I/O.

Conventions fixed here and used everywhere else:
  * pixel coordinates are (u = column, v = row), origin at the top-left,
    integer coordinates index pixel centers;
  * a sparse point set is three arrays in point order, u and v_row (int64)
    and depth_m (float64), checked once when built; only this module knows
    a single point's layout;
  * invalid/missing depth is encoded by the boolean mask, never by
    sentinel values;
  * the reference numeric path is float64.
"""

from __future__ import annotations

import csv
import enum
import io
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError, FormatError, ShapeError

MAX_PIXELS = 100_000_000  # dimension-overflow guard for file headers

# The most bytes one temporary of a batched kernel may take: well under the
# 32 MiB mmap threshold `spade.nn` sets, so each piece comes from the heap.
BYTE_BUDGET = 8 << 20


def budget_slices(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(n), each with as many items of item_bytes
    as fit BYTE_BUDGET, and at least one; the one reader of the budget."""
    step = max(1, BYTE_BUDGET // item_bytes if item_bytes else n)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


class Space(enum.Enum):
    """Value space of a depth raster."""

    METRIC = "metric_depth_m"
    INVERSE = "inverse_depth_per_m"
    AFFINE = "affine_invariant_inverse"


_SPACE_TAGS = {Space.METRIC: 0, Space.INVERSE: 1, Space.AFFINE: 2}
_TAG_SPACES = {v: k for k, v in _SPACE_TAGS.items()}


class DepthRaster:
    """Dense per-pixel scalar field with a validity mask.

    values : (H, W) float64, row major
    valid  : (H, W) bool, same shape
    space  : Space tag; positivity of valid values is enforced for
             METRIC and INVERSE, AFFINE only requires finiteness.
    """

    __slots__ = ("values", "valid", "space")

    def __init__(self, values, valid, space: Space):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        valid = np.ascontiguousarray(np.asarray(valid, dtype=bool))
        if values.ndim != 2:
            raise ShapeError(f"raster values must be 2-D, got shape {values.shape}")
        if valid.shape != values.shape:
            raise ShapeError(
                f"mask shape {valid.shape} does not match values shape {values.shape}"
            )
        self._validate(values, valid, space)
        self.values = values
        self.valid = valid
        self.space = space
        self.values.flags.writeable = False
        self.valid.flags.writeable = False

    @staticmethod
    def _validate(values, valid, space: Space) -> None:
        v = values[valid]
        if v.size and not np.all(np.isfinite(v)):
            idx = np.argwhere(valid & ~np.isfinite(values))[0]
            raise DomainError(f"non-finite value at valid pixel (u={idx[1]}, v={idx[0]})")
        if space in (Space.METRIC, Space.INVERSE) and v.size and not np.all(v > 0):
            idx = np.argwhere(valid & ~(values > 0))[0]
            raise DomainError(
                f"non-positive {space.value} value at valid pixel (u={idx[1]}, v={idx[0]})"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DepthRaster)
            and self.space is other.space
            and self.shape == other.shape
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.valid, other.valid)
        )

    def __repr__(self) -> str:
        h, w = self.shape
        return f"DepthRaster({w}x{h}, {self.space.value}, {int(self.valid.sum())} valid)"


class SparsePointSet:
    """Immutable (pixel, metric depth) measurements as three read-only arrays
    in point order: u (column) and v_row (row), int64, and depth_m, float64.
    Built from (u, v_row, depth_m) rows, it is checked once then: each depth
    finite and positive, no pixel twice, else the first row at fault is
    named. Iterating gives the rows as Python numbers."""

    __slots__ = ("u", "v_row", "depth_m")

    def __init__(self, rows: Iterable[tuple] = ()):
        cols = tuple(zip(*rows)) or ((), (), ())
        try:
            self._hold(*cols)._check()
        except OverflowError:
            for u, v, _ in (r for r in zip(*cols) if max(abs(r[0]), abs(r[1])) >= 2**63):
                raise DomainError(f"point at (u={u}, v={v}) lies outside the int64 pixel range") from None
            raise  # a depth past the float64 range, which float() refuses too

    def _hold(self, u, v_row, depth_m) -> SparsePointSet:
        self.u, self.v_row = np.array(u, dtype=np.int64), np.array(v_row, dtype=np.int64)
        self.depth_m = np.array(depth_m, dtype=np.float64)
        for a in (self.u, self.v_row, self.depth_m):
            a.flags.writeable = False
        return self

    def _check(self) -> None:
        u, v, d = self.u, self.v_row, self.depth_m
        bad = ~((d > 0) & np.isfinite(d))
        # a stable sort by pixel puts each repeat right after an earlier row of its pixel
        order = np.lexsort((v, u))
        fault = bad.copy()
        fault[order[1:]] |= (u[order[1:]] == u[order[:-1]]) & (v[order[1:]] == v[order[:-1]])
        for i in fault.nonzero()[0][:1]:  # the first row at fault
            u, v, depth = self[i]
            if bad[i]:
                raise DomainError(f"point at (u={u}, v={v}) has depth {depth}")
            raise DomainError(f"duplicate point pixel (u={u}, v={v})")

    def __len__(self) -> int:
        return len(self.depth_m)

    def __iter__(self):
        return zip(self.u.tolist(), self.v_row.tolist(), self.depth_m.tolist())

    def __getitem__(self, i) -> tuple[int, int, float]:
        return int(self.u[i]), int(self.v_row[i]), float(self.depth_m[i])

    def at(self, a: np.ndarray) -> np.ndarray:
        """The entries of an (H, W) array at the points, which must lie on it."""
        return a[self.v_row, self.u]

    def subset(self, sel) -> SparsePointSet:
        """The points a boolean mask or distinct indices select, in that order, not checked again."""
        return SparsePointSet.__new__(SparsePointSet)._hold(self.u[sel], self.v_row[sel], self.depth_m[sel])

    def check_bounds(self, raster: DepthRaster) -> None:
        h, w = raster.values.shape
        for i in ((self.u < 0) | (self.u >= w) | (self.v_row < 0) | (self.v_row >= h)).nonzero()[0][:1]:
            u, v, _ = self[i]
            raise DomainError(f"point (u={u}, v={v}) outside raster {w}x{h}")

    def __repr__(self) -> str:
        return f"SparsePointSet({len(self)} points)"


class ScaleMap:
    """Per-pixel multiplicative correction field.

    values : (H, W) float64 correction factors; 0 marks "no value yet"
    known  : mask of pixels carrying a measured factor
    filled : mask of pixels holding a propagated (densified) value;
             known pixels are always filled
    """

    __slots__ = ("values", "known", "filled")

    def __init__(self, values, known, filled=None):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        known = np.ascontiguousarray(np.asarray(known, dtype=bool))
        if values.ndim != 2 or known.shape != values.shape:
            raise ShapeError(
                f"scale map shapes differ: values {values.shape}, known {known.shape}"
            )
        if filled is None:
            filled = known.copy()
        filled = np.ascontiguousarray(np.asarray(filled, dtype=bool))
        if filled.shape != values.shape:
            raise ShapeError(f"filled mask shape {filled.shape} != {values.shape}")
        kv = values[known]
        if kv.size and (not np.all(np.isfinite(kv)) or not np.all(kv > 0)):
            idx = np.argwhere(known & ~(np.isfinite(values) & (values > 0)))[0]
            raise DomainError(f"bad known factor at pixel (u={idx[1]}, v={idx[0]})")
        self.values = values
        self.known = known
        self.filled = filled
        for a in (self.values, self.known, self.filled):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __repr__(self) -> str:
        h, w = self.shape
        return f"ScaleMap({w}x{h}, {int(self.known.sum())} known)"


@dataclass(frozen=True)
class LaserRig:
    """Two parallel lasers `baseline_m` apart, seen by a camera of focal length
    `fx` and principal column `cx` (pixels): the one description of the laser
    pair, read by the laser2 sampler and by the laser-baseline fit."""

    fx: float
    cx: float
    baseline_m: float

    def __post_init__(self):
        if not self.fx > 0:  # also refuses nan
            raise ConfigError(f"laser focal length fx must be > 0, got {self.fx}")
        if not self.baseline_m > 0:
            raise ConfigError(f"laser baseline B must be > 0, got {self.baseline_m}")


def to_inverse(r: DepthRaster) -> DepthRaster:
    """Convert a metric raster to inverse depth, pixelwise 1/d at valid pixels."""
    if r.space is not Space.METRIC:
        raise DomainError(f"to_inverse expects metric input, got {r.space.value}")
    out = np.zeros_like(r.values)
    np.divide(1.0, r.values, out=out, where=r.valid)
    return DepthRaster(out, r.valid, Space.INVERSE)


def from_inverse(r: DepthRaster) -> DepthRaster:
    """Convert an inverse-depth raster back to metric depth."""
    if r.space is not Space.INVERSE:
        raise DomainError(f"from_inverse expects inverse input, got {r.space.value}")
    out = np.zeros_like(r.values)
    np.divide(1.0, r.values, out=out, where=r.valid)
    return DepthRaster(out, r.valid, Space.METRIC)


def bilinear_taps(raw: np.ndarray, size: int):
    """Bilinear taps along one axis of length size, clamped to the border.

    Returns the lower and upper indices, the fraction towards the upper one
    and the mask of coordinates strictly inside, where the coordinate
    gradient is non-zero.
    """
    # np.clip's bits from two ufuncs, without its Python wrapper: on a tie,
    # minimum and maximum return their second operand, as clip keeps -0.0;
    # the lower bound on i0 maps a NaN coordinate's cast to index 0
    c = np.minimum(size - 1.0, np.maximum(0.0, raw))
    i0 = np.minimum(max(size - 2, 0), np.maximum(0, np.floor(c).astype(int)))
    return i0, np.minimum(i0 + 1, size - 1), c - i0, (raw > 0.0) & (raw < size - 1.0)


def resize_matrix(in_size: int, out_size: int) -> np.ndarray:
    """Dense (out, in) bilinear interpolation matrix, half-pixel centers, border clamp."""
    i0, i1, frac, _ = bilinear_taps((np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5, in_size)
    R = np.zeros((out_size, in_size))
    rows = np.arange(out_size)
    R[rows, i0] += 1.0 - frac
    R[rows, i1] += frac
    return R


# ---------------------------------------------------------------------------
# FDR1 raster file format:
#   magic "FDR1" | u32 LE width | u32 LE height | u8 space tag
#   | row-major f32 values | row-major u8 mask (1 byte per pixel, 0/1)
# ---------------------------------------------------------------------------

_MAGIC = b"FDR1"
_HEADER = struct.Struct("<4sIIB")


def write_raster(r: DepthRaster, path) -> None:
    with np.errstate(over="ignore"):
        values = r.values.astype("<f4")
    try:  # the checks read_raster applies to the stored values
        DepthRaster._validate(values, r.valid, r.space)
    except DomainError as e:
        raise DomainError(f"{e} after rounding to float32") from None
    buf = io.BytesIO()
    buf.write(_HEADER.pack(_MAGIC, r.shape[1], r.shape[0], _SPACE_TAGS[r.space]))
    buf.write(values.tobytes())
    buf.write(r.valid.astype(np.uint8).tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def read_raster(path) -> DepthRaster:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        if len(raw) < _HEADER.size:
            raise FormatError("truncated header", byte_offset=len(raw))
        magic, width, height, tag = _HEADER.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}", byte_offset=0)
        if width == 0 or height == 0 or width * height > MAX_PIXELS:
            raise FormatError(f"dimension overflow: {width}x{height}", byte_offset=4)
        if tag not in _TAG_SPACES:
            raise FormatError(f"unknown space tag {tag}", byte_offset=12)
        n = width * height
        need = _HEADER.size + 4 * n + n
        if len(raw) != need:
            raise FormatError(
                f"payload size mismatch: expected {need} bytes, file has {len(raw)}",
                byte_offset=min(len(raw), need),
            )
        off = _HEADER.size
        values = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(height, width)
        off += 4 * n
        mask_bytes = np.frombuffer(raw, dtype=np.uint8, count=n, offset=off)
        if not np.all(mask_bytes <= 1):
            bad = int(np.argmax(mask_bytes > 1))
            raise FormatError(f"mask byte {mask_bytes[bad]} is not 0/1", byte_offset=off + bad)
        mask = mask_bytes.astype(bool).reshape(height, width)
        try:
            return DepthRaster(values.astype(np.float64), mask, _TAG_SPACES[tag])
        except DomainError as e:
            raise FormatError(f"{e} of a {_TAG_SPACES[tag].value} raster")
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def raster_to_scale_map(r: DepthRaster) -> ScaleMap:
    """Scale maps travel in FDR1 containers under the unitless (affine) tag;
    the raster mask carries the known mask."""
    if r.space is not Space.AFFINE:
        raise DomainError("scale maps are stored under the unitless (affine) tag")
    return ScaleMap(r.values, r.valid)


# ---------------------------------------------------------------------------
# Sparse points CSV: header "u,v,depth_m", one point per line, UTF-8, LF; a
# SparsePointSet's rows in order, the depth as Python's repr of the float64.
# ---------------------------------------------------------------------------


def write_points(pts: SparsePointSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("u,v,depth_m\n" + "".join(f"{u},{v},{d!r}\n" for u, v, d in pts))


def read_points(path) -> SparsePointSet:
    with open(path, "r", encoding="utf-8", newline="") as f:
        try:
            rows = list(csv.reader(f))
        except (UnicodeDecodeError, csv.Error) as e:
            raise FormatError(f"{path}: unreadable points file: {e}") from None
    try:
        if not rows:
            raise FormatError("empty points file", byte_offset=0)
        if [h.strip() for h in rows[0]] != ["u", "v", "depth_m"]:
            raise FormatError(f"bad points header {rows[0]!r}", byte_offset=0)
        pts = []
        for i, row in enumerate(rows[1:]):
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"line {i + 2}: expected 3 fields, got {len(row)}")
            try:
                pts.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError as e:
                raise FormatError(f"line {i + 2}: {e}")
        try:
            return SparsePointSet(pts)
        except DomainError as e:
            raise FormatError(str(e))
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None
