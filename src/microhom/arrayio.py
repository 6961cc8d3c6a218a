"""Self-describing binary array files and grayscale field export.

Array file layout: one JSON header line

    {"dtype": "f64", "shape": [512, 512], "order": "C", "byte_order": "LE"}\n

followed by the raw contiguous little-endian payload.  Round trips are
bitwise.  PGM export writes binary (P5) grayscale images, min-max normalized
to 0..255, with the normalization bounds echoed in a sidecar JSON.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DomainError

_DTYPES = {"f64": np.dtype("<f8"), "u8": np.dtype("u1")}
_NAMES = {np.dtype("float64"): "f64", np.dtype("uint8"): "u8"}


def write_array(path, arr: np.ndarray) -> None:
    """Write an f64 or u8 array with its one-line JSON header."""
    arr = np.asarray(arr)
    name = _NAMES.get(arr.dtype)
    if name is None:
        raise DomainError(f"unsupported dtype {arr.dtype}; expected float64 or uint8")
    header = {
        "dtype": name,
        "shape": list(arr.shape),
        "order": "C",
        "byte_order": "LE",
    }
    payload = np.ascontiguousarray(arr).astype(_DTYPES[name], copy=False)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def read_array(path) -> np.ndarray:
    """Read an array file, checking its header and the payload length against
    it.  Raises DomainError naming the path when the file cannot be read."""
    try:
        with open(path, "rb") as fh:
            line, payload = fh.readline(), fh.read()
    except OSError as err:
        raise DomainError(f"{path}: cannot read: {err.strerror}") from err
    if not line.endswith(b"\n"):
        raise DomainError(f"{path}: missing header newline")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DomainError(f"{path}: bad header: {err}") from err
    if not isinstance(header, dict):
        raise DomainError(f"{path}: header is not a JSON object")
    for key in ("dtype", "shape", "order", "byte_order"):
        if key not in header:
            raise DomainError(f"{path}: header missing {key!r}")
    if not isinstance(header["dtype"], str) or header["dtype"] not in _DTYPES:
        raise DomainError(f"{path}: unknown dtype {header['dtype']!r}")
    if header["order"] != "C" or header["byte_order"] != "LE":
        raise DomainError(f"{path}: unsupported layout {header}")
    shape = header["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise DomainError(f"{path}: shape must be a list of non-negative ints, got {shape!r}")
    dtype = _DTYPES[header["dtype"]]
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise DomainError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_pgm(path, field: np.ndarray) -> dict:
    """Export a 2D field as a binary PGM (P5) image.

    The field is min-max normalized to 0..255; a constant field degenerates
    to an all-zero image with a warning.  Image width is the second array
    axis.  Returns the normalization bounds, also written to <path>.json.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise DomainError(f"PGM export needs a 2D field, got shape {field.shape}")
    lo, hi = float(field.min()), float(field.max())
    if hi == lo:
        warnings.warn("constant field: writing an all-zero image", stacklevel=2)
        raster = np.zeros(field.shape, dtype=np.uint8)
    else:
        raster = np.rint((field - lo) / (hi - lo) * 255.0).astype(np.uint8)
    height, width = field.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())
    bounds = {"min": lo, "max": hi}
    Path(str(path) + ".json").write_text(json.dumps(bounds), encoding="utf-8")
    return bounds
