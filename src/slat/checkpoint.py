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
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .model import SlatConfig, param_shapes

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
    """Returns (params, config, pipeline). The config decides the tensors: the
    header's index must list ``sorted(param_shapes(config))`` (names, order,
    shapes) and the bytes after it must be their float64 values, exactly, and
    finite. Anything else raises ValueError naming the file (and the first
    differing index entry or non-finite tensor)."""
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
    cfg = SlatConfig.from_dict(header["config"])
    shapes = sorted(param_shapes(cfg))
    index = [{"name": name, "shape": list(shape)} for name, shape in shapes]
    for i, (stored, want) in enumerate(zip_longest(header["tensors"], index)):
        if stored != want:
            raise ValueError(f"tensor entry {i} is {stored}, its config wants {want}")
    sizes = [math.prod(shape) for _, shape in shapes]
    flat = np.empty(sum(sizes), dtype="<f8")
    if size - fh.tell() != flat.nbytes:
        raise ValueError(f"{size - fh.tell()} tensor bytes left, its config needs {flat.nbytes}")
    fh.readinto(flat)
    ends = np.cumsum(sizes)
    finite = np.isfinite(flat)
    if not finite.all():
        first = int(np.searchsorted(ends, np.argmin(finite), side="right"))
        raise ValueError(f"tensor {shapes[first][0]} holds non-finite values")
    params = {name: part.reshape(shape) for (name, shape), part
              in zip(shapes, np.split(flat, ends[:-1]))}
    return params, cfg, dict(header.get("pipeline", {}))
