"""Spans around the public functions of the slat modules, from outside.

Each function named in ``layer_map.json`` is replaced by a wrapper in every
``slat`` module that binds it, so the wrapper runs wherever a caller looks
the name up (``slat.model.mha_forward``, ``slat.layers.linear``, ...).
A span records name, start, end, parent span and op; spans stay in memory
and are written out once, at the end of the run. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import kernels

SETUP = -1  # op id of spans recorded during set-up
MAP_PATH = Path(__file__).resolve().parent / "layer_map.json"


def layer_map() -> list:
    with open(MAP_PATH, encoding="utf-8") as fh:
        return json.load(fh)["layers"]


def function_names() -> list:
    return [f"{entry['layer']}.{fn}" for entry in layer_map() for fn in entry["functions"]]


def bindings(qual: str) -> tuple:
    """The slat function ``qual`` (``"model.forward"``) and every (module,
    attribute) pair of the loaded ``slat`` modules that binds it."""
    layer, fn = qual.split(".")
    original = getattr(importlib.import_module(f"slat.{layer}"), fn, None)
    modules = [m for n, m in sys.modules.items() if n == "slat" or n.startswith("slat.")]
    return original, [(mod, attr) for mod in modules for attr, value in list(vars(mod).items())
                      if original is not None and value is original]


# Shape facts kept per span, from which the work counts are computed at the
# end; only the functions with computed counts keep any.

def _mha_dims(x_q, x_kv, weights):
    b, lq, d = x_q.shape
    h, _, k = weights["q_u"].shape
    if "q_v" in weights:
        return b, lq, x_kv.shape[1], d, h, weights["q_v"].shape[2], k
    return b, lq, x_kv.shape[1], d, h, k, None


def _softmax_scores(logits, allowed, *_):
    if allowed is None:
        return logits.size, logits.size
    return logits.size, logits.size // allowed.size * int(np.count_nonzero(allowed))


_EXTRACT = {
    "attention.mha_forward": lambda a: _mha_dims(a[0], a[1], a[2]),
    "attention.mha_backward": lambda a: _mha_dims(a[1][0], a[1][1], a[1][-1]),
    "attention.masked_softmax": lambda a: _softmax_scores(*a),
    "layers.linear": lambda a: (a[0].size // a[0].shape[-1], *a[1].shape),
    "layers.linear_backward": lambda a: (a[1][0].size // a[1][0].shape[-1], *a[1][1].shape),
}


def _extra(extract, args):
    try:
        return extract(args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None  # a changed signature loses the work count, not the span


def _macs(name: str, extra) -> int:
    if name == "attention.mha_forward":
        return kernels.attention(*extra)[0][0]
    if name == "attention.mha_backward":
        return kernels.attention(*extra)[1][0]
    if name == "layers.linear":
        return kernels.linear(*extra)[0][0]
    if name == "layers.linear_backward":
        return kernels.linear(*extra)[1][0]
    return 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op = SETUP
        self._stack: list = []
        self._bindings = []
        for qual in function_names():
            original, where = bindings(qual)
            if original is None:  # a later version may drop a function; it reads 0 calls
                continue
            wrapper = self._wrap(qual, original)
            self._bindings += [(mod, attr, original, wrapper) for mod, attr in where]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        extract = _EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            extra = _extra(extract, args) if extract else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op, extra)
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def table(self, n_ops: int) -> dict:
        """Per function: calls, self ms and inclusive ms per op of the timed
        loop (``op``) and per traced set-up (``setup``), with computed
        multiply-adds and the masked-score counts where they apply."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        acc = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, parent, op, extra) in enumerate(self.spans):
            row = acc[("setup" if op == SETUP else "op", name)]
            row["calls"] += 1
            row["self_s"] += end - start - child[sid]
            row["incl_s"] += end - start
            if extra is None:
                continue
            if name == "attention.masked_softmax":
                row["scores"] += extra[0]
                row["useful"] += extra[1]
            else:
                row["macs"] += _macs(name, extra)
        out = {"op": {}, "setup": {}}
        for (phase, name), row in sorted(acc.items()):
            per = n_ops if phase == "op" else 1
            entry = {"calls": row["calls"] / per, "self_ms": 1e3 * row["self_s"] / per,
                     "incl_ms": 1e3 * row["incl_s"] / per}
            if row["macs"]:
                entry["gflops"] = row["macs"] / row["self_s"] / 1e9 if row["self_s"] else 0.0
                entry["macs"] = row["macs"] / per
            if row["scores"]:
                entry["score_useful_frac"] = row["useful"] / row["scores"]
            out[phase][name] = entry
        return out

    def accounted_s(self) -> float:
        """Summed duration of the top-level spans inside traced ops."""
        return sum(end - start for _, start, end, parent, op, _ in self.spans
                   if parent < 0 and op != SETUP)

    def write(self, path: Path, t0: float) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span", "name", "start_us", "end_us", "parent", "op"])
            for sid, (name, start, end, parent, op, _) in enumerate(self.spans):
                w.writerow([sid, name, f"{(start - t0) * 1e6:.1f}",
                            f"{(end - t0) * 1e6:.1f}", parent, op])
