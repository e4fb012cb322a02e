"""SPW1 parameter checkpoints.

Layout: magic "SPW1" | u32 LE manifest length | manifest JSON {"tensors": [{"name",
"shape"}, ...], "meta": {...}} | raw float64 little-endian buffers in manifest order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..errors import FormatError

_MAGIC = b"SPW1"


def save_checkpoint(path, state: dict[str, np.ndarray], meta: dict | None = None) -> None:
    manifest = {
        "tensors": [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in state.items()],
        "meta": meta or {},
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(mbytes)))
        f.write(mbytes)
        for v in state.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _entries(manifest) -> list[tuple[str, tuple[int, ...]]]:
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


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """(state, meta) of an SPW1 file; a malformed file is a FormatError that names it."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return _parse(raw)
    except FormatError as e:
        raise FormatError(f"checkpoint {path}: {e}") from None


def _parse(raw: bytes) -> tuple[dict[str, np.ndarray], dict]:
    if len(raw) < 8:
        raise FormatError("truncated checkpoint header", byte_offset=len(raw))
    if raw[:4] != _MAGIC:
        raise FormatError(f"bad checkpoint magic {raw[:4]!r}", byte_offset=0)
    (mlen,) = struct.unpack_from("<I", raw, 4)
    if 8 + mlen > len(raw):
        raise FormatError("manifest extends past end of file", byte_offset=8)
    try:
        manifest = json.loads(raw[8 : 8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"bad manifest: {e}", byte_offset=8)
    off = 8 + mlen
    state = {}
    for name, shape in _entries(manifest):
        n = math.prod(shape)
        end = off + 8 * n
        if end > len(raw):
            raise FormatError(f"buffer for {name} truncated", byte_offset=off)
        state[name] = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape).copy()
        off = end
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes after last buffer", byte_offset=off)
    return state, manifest.get("meta", {})
