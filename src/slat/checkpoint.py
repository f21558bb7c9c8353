"""Byte-stable model checkpoints.

Layout: 8-byte magic, little-endian uint64 header length, a sorted-keys JSON
header (model config, pipeline settings, tensor index), then each tensor's
raw float64 bytes in index order. Writing the same state twice yields the
same bytes, which archive formats with embedded timestamps do not guarantee.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .model import SlatConfig

MAGIC = b"SLATCK01"


def save_checkpoint(path, params: dict, cfg: SlatConfig,
                    pipeline: dict | None = None) -> None:
    names = sorted(params)
    index = []
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(np.asarray(params[name], dtype=np.float64))
        index.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "config": cfg.to_dict(),
        "pipeline": pipeline or {},
        "tensors": index,
        "dtype": "<f8",
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(Path(path), "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Returns (params, config, pipeline). A file that is not a well-formed
    checkpoint raises ValueError naming it; no read is sized beyond the bytes
    the file has left."""
    try:
        with open(Path(path), "rb") as fh:
            return _read_checkpoint(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (struct.error, KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None


def _read_checkpoint(fh):
    size = os.fstat(fh.fileno()).st_size
    if fh.read(len(MAGIC)) != MAGIC:
        raise ValueError("not a checkpoint file")
    (head_len,) = struct.unpack("<Q", fh.read(8))
    if head_len > size - fh.tell():
        raise ValueError(f"header length {head_len} exceeds the {size - fh.tell()} bytes left")
    header = json.loads(fh.read(head_len).decode("utf-8"))
    params = {}
    for rec in header["tensors"]:
        shape = rec["shape"]
        if not isinstance(shape, list) or not all(
                isinstance(k, int) and not isinstance(k, bool) and k >= 0 for k in shape):
            raise ValueError(f"tensor {rec['name']}: shape {shape!r} is not a list "
                             "of non-negative integers")
        nbytes = 8 * math.prod(shape)
        if nbytes > size - fh.tell():
            raise ValueError(f"truncated tensor {rec['name']}")
        params[rec["name"]] = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape).copy()
    if fh.read(1):
        raise ValueError("trailing bytes after last tensor")
    config = dict(header["config"])
    config.pop("dtype", None)  # a field of configs written before all models were float64
    return params, SlatConfig.from_dict(config), dict(header.get("pipeline", {}))
