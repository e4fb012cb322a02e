"""SPW1 parameter checkpoints.

Layout: magic "SPW1" | u32 LE manifest length | manifest JSON {"tensors": [{"name",
"shape"}, ...], "meta": {...}} | raw float64 little-endian buffers in manifest order.

Both directions stream: saving writes each array's own buffer, and loading
checks the whole layout against the file size before it allocates anything,
and every tensor name and shape against the arrays it fills, then reads each
buffer straight into the array that keeps it and refuses it unless finite.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from collections.abc import Callable, Mapping

import numpy as np

from ..errors import FormatError

_MAGIC = b"SPW1"

Entries = list[tuple[str, tuple[int, ...]]]


def save_checkpoint(path, state: Mapping[str, np.ndarray], meta: dict | None = None) -> None:
    manifest = {
        "tensors": [{"name": k, "shape": list(np.shape(v))} for k, v in state.items()],
        "meta": meta or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(mbytes)))
        f.write(mbytes)
        for v in state.values():
            # no copy for a contiguous float64 array on a little-endian host
            f.write(np.ascontiguousarray(v, dtype="<f8"))


def _entries(manifest) -> Entries:
    """(name, shape) of each tensor of a parsed manifest; FormatError unless it has the
    layout above with unique string names, shapes of non-negative ints, optional meta."""

    def bad(message):
        return FormatError(f"bad manifest: {message}", byte_offset=8)

    if not isinstance(manifest, dict):
        raise bad(f"expected a JSON object, got {type(manifest).__name__}")
    if not isinstance(manifest.get("meta", {}), dict):
        raise bad(f"'meta' must be an object, got {type(manifest['meta']).__name__}")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list):
        raise bad(f"'tensors' must be a list, got {type(tensors).__name__}")
    entries = {}
    for i, entry in enumerate(tensors):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) or "shape" not in entry:
            raise bad(f"tensor entry {i} must be an object with a string 'name' and a 'shape'")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise bad(f"tensor {name!r} has shape {shape!r}; expected a list of non-negative integers")
        if name in entries:
            raise bad(f"tensor name {name!r} appears twice")
        entries[name] = tuple(shape)
    return list(entries.items())


def load_checkpoint(path, targets: Callable[[dict], dict[str, np.ndarray]]) -> dict:
    """Read an SPW1 file into the arrays `targets(meta)` returns and return its
    meta; a malformed file is a FormatError that names it.

    The header, the manifest and the buffer sizes it declares are checked
    against the file before `targets` is called. The manifest must then name
    each array `targets` returned once, with its shape, before a buffer is
    read; each tensor is read into its C-contiguous float64 array, and one that
    holds NaN or inf is a FormatError naming it. Errors of `targets` pass through.
    """
    with open(path, "rb") as f:
        try:
            entries, meta = _layout(f, os.fstat(f.fileno()).st_size)
        except FormatError as e:
            raise FormatError(f"checkpoint {path}: {e}") from None
        state = targets(meta)
        _check_fit(path, entries, state)
        for name, _ in entries:
            buf = state[name]
            if f.readinto(buf) != buf.nbytes:  # the file shrank after its size was checked
                raise FormatError(f"checkpoint {path}: buffer for {name} truncated")
            if sys.byteorder == "big":
                buf.byteswap(inplace=True)
            if not np.isfinite(buf).all():
                raise FormatError(f"checkpoint {path} has non-finite values in {name}")
    return meta


def _check_fit(path, entries: Entries, state: dict[str, np.ndarray]) -> None:
    """FormatError unless the manifest entries are the arrays of `state`, each with its shape."""
    shapes = dict(entries)
    unexpected = [name for name in shapes if name not in state]
    if unexpected:
        raise FormatError(f"checkpoint {path} has unexpected tensors {unexpected[:5]}")
    missing = [name for name in state if name not in shapes]
    if missing:
        raise FormatError(f"checkpoint {path} lacks tensors {missing[:5]}")
    for name, shape in entries:
        if state[name].shape != shape:
            raise FormatError(f"checkpoint {path} has {name} of shape {shape}, expected {state[name].shape}")


def _layout(f, size: int) -> tuple[Entries, dict]:
    """(entries, meta) of the SPW1 file f of `size` bytes, read up to its first buffer."""
    head = f.read(8)
    if len(head) < 8:
        raise FormatError("truncated checkpoint header", byte_offset=len(head))
    if head[:4] != _MAGIC:
        raise FormatError(f"bad checkpoint magic {head[:4]!r}", byte_offset=0)
    (mlen,) = struct.unpack_from("<I", head, 4)
    if 8 + mlen > size:
        raise FormatError("manifest extends past end of file", byte_offset=8)
    try:
        manifest = json.loads(f.read(mlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"bad manifest: {e}", byte_offset=8)
    entries = _entries(manifest)
    off = 8 + mlen
    for name, shape in entries:
        end = off + 8 * math.prod(shape)
        if end > size:
            raise FormatError(f"buffer for {name} truncated", byte_offset=off)
        off = end
    if off != size:
        raise FormatError(f"{size - off} trailing bytes after last buffer", byte_offset=off)
    return entries, manifest.get("meta", {})
