"""On-disk corpus format and end-to-end generation.

A corpus directory holds one CSV per trajectory plus ``manifest.json``. The
CSV has columns ``t, ch_0 .. ch_{S-1}, rul`` where rul is the capped target;
channel semantics live in the manifest. Each CSV is written in one pass, its
floats with repr so re-generation from the same seed is byte-identical, and
read with one vectorised parse that refuses rows not at t = 0, 1, 2, ...
Normalization statistics are fitted on the train split only and stored in
the manifest, so every downstream consumer sees the exact same scaling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import simulator
from .simulator import SimConfig, simulate_trajectory, trajectory_seed
from .windowing import (FaultMode, LabelConfig, NormStats, Trajectory,
                        fit_norm_stats, label_rul)

FORMAT_TAG = "slat-corpus-v1"
TRAIN_FRAC = 0.8  # share of each mode's trajectories in the train split
# the manifest settings a trained model depends on; its checkpoint records them
CONTRACT_KEYS = ("n_stw", "stride", "rul_cap", "channels", "norm_stats")
_MANIFEST_TYPES = {"master_seed": int, "n_stw": int, "stride": int, "rul_cap": float,
                   "channels": list, "norm_stats": dict, "trajectories": list}
_RECORD_TYPES = {"id": str, "mode": str, "file": str, "failure_index": int, "split": str}


def _write_trajectory_csv(path: Path, traj: Trajectory, label_cfg: LabelConfig):
    """One pass and one write; the bytes equal csv.writer's (no field needs quoting)."""
    rul = label_rul(traj, label_cfg)
    lines = [",".join(["t", *(f"ch_{i}" for i in range(traj.n_channels)), "rul"])]
    lines += [f"{t},{','.join(map(repr, row))},{r!r}"
              for t, (row, r) in enumerate(zip(traj.channels.tolist(), rul.tolist()))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _read_trajectory_csv(path: Path, rec: dict, n_channels: int) -> Trajectory:
    """Check each line's field count, parse t and the channels in one call and
    check that t runs 0, 1, 2, ... up to the record's failure_index; a fault
    in one line names it (the header is 1)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    if header != ["t", *(f"ch_{i}" for i in range(n_channels)), "rul"]:
        raise ValueError(f"header {header} is not t, ch_0..ch_{n_channels - 1}, rul")
    rows = lines[1:]
    for num, line in enumerate(rows, 2):
        if line.count(",") != n_channels + 1:
            raise ValueError(f"line {num} has {len(line.split(',')) if line else 0} fields, "
                             f"the header {len(header)}")
    if len(rows) < 2:
        raise ValueError(f"{len(rows)} rows below the header, need at least 2")
    parse = dict(delimiter=",", usecols=range(n_channels + 1), comments=None, ndmin=2)
    try:
        table = np.loadtxt(rows, **parse)
    except ValueError:  # parse line by line to name the one at fault
        for num, line in enumerate(rows, 2):
            try:
                np.loadtxt([line], **parse)
            except ValueError:
                raise ValueError(f"line {num} has a value that is not a number") from None
        raise
    t = table[:, 0]
    if not np.array_equal(t, np.arange(len(t))):
        num = int(np.argmax(t != np.arange(len(t)))) + 2
        raise ValueError(f"line {num} has t {lines[num - 1].split(',')[0]}, not {num - 2}")
    if rec["failure_index"] != len(t) - 1:
        raise ValueError(f"failure_index {rec['failure_index']} is not the last t, {len(t) - 1}")
    return Trajectory(traj_id=rec["id"], mode=FaultMode(rec["mode"]),
                      channels=np.ascontiguousarray(table[:, 1:]))


def _split_ids(ids: Sequence[str],
               rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Seeded shuffle split; the test side always gets at least one id."""
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 trajectories per mode to split")
    n_test = max(1, round((1.0 - TRAIN_FRAC) * n))
    perm = rng.permutation(n)
    test = sorted(ids[i] for i in perm[:n_test])
    train = sorted(ids[i] for i in perm[n_test:])
    return train, test


@dataclass
class Corpus:
    """A loaded corpus: trajectories, split tags and pipeline settings."""

    root: Path
    manifest: dict
    trajectories: dict
    split: dict

    @property
    def n_stw(self) -> int:
        return int(self.manifest["n_stw"])

    @property
    def stride(self) -> int:
        return int(self.manifest["stride"])

    @property
    def rul_cap(self) -> float:
        return float(self.manifest["rul_cap"])

    @property
    def label_config(self) -> LabelConfig:
        return LabelConfig(rul_cap=self.rul_cap)

    @property
    def stats(self) -> NormStats:
        return NormStats.from_dict(self.manifest["norm_stats"])

    @property
    def channels(self) -> list:
        return list(self.manifest["channels"])

    @property
    def contract(self) -> dict:
        return {key: self.manifest[key] for key in CONTRACT_KEYS}

    def ids(self, split: str | None = None) -> list:
        if split is None:
            return sorted(self.trajectories)
        ids = sorted(tid for tid, s in self.split.items() if s == split)
        if not self.trajectories.keys() >= set(ids):
            raise ValueError(f"the {split} split was not loaded from {self.root}")
        return ids

    def subset(self, split: str) -> list:
        return [self.trajectories[tid] for tid in self.ids(split)]

    def train_trajectories(self) -> list:
        return self.subset("train")

    def test_trajectories(self) -> list:
        return self.subset("test")

    def modes_present(self) -> list:
        return sorted({t.mode.value for t in self.trajectories.values()})


def generate_corpus(out_dir, master_seed: int, n_per_mode: int = 10,
                    n_stw: int = 30, stride: int = 1, rul_cap: float = 125.0,
                    noise_scale: float = 1.0,
                    sim_configs: Sequence[SimConfig] | None = None) -> Corpus:
    """Simulate every fault mode, split per mode, fit train-split stats and
    write the corpus. Returns the loaded result. Settings that cannot make a
    corpus raise ValueError before the output directory is created."""
    label_cfg = LabelConfig(rul_cap=rul_cap)
    if sim_configs is None:
        sim_configs = [SimConfig(mode=m, n_trajectories=n_per_mode,
                                 noise_scale=noise_scale) for m in FaultMode]
    if len({cfg.mode for cfg in sim_configs}) < len(sim_configs):
        raise ValueError("sim_configs repeat a fault mode; give each mode one config")
    if len({cfg.noise_scale for cfg in sim_configs}) > 1:
        raise ValueError("sim_configs mix noise_scale values; the manifest records one")

    trajs: dict = {}
    meta: dict = {}
    for cfg in sim_configs:
        mode_idx = list(FaultMode).index(cfg.mode)
        for i in range(cfg.n_trajectories):
            seed = trajectory_seed(master_seed, cfg.mode, i)
            tid = f"{cfg.mode.value}_{i:03d}"
            traj = simulate_trajectory(cfg, seed, traj_id=tid)
            if traj.n_steps < 2 * n_stw:
                raise ValueError(
                    f"trajectory {tid} has {traj.n_steps} steps, "
                    f"need >= {2 * n_stw}; lower n_stw or slow the drift")
            trajs[tid] = traj
            meta[tid] = {"id": tid, "mode": cfg.mode.value, "file": f"{tid}.csv",
                         "n_steps": traj.n_steps, "failure_index": traj.failure_index,
                         "seed_entropy": [int(master_seed), mode_idx, i]}

    split: dict = {}
    split_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(master_seed), 7919)))
    for cfg in sim_configs:
        ids = sorted(t for t in trajs if trajs[t].mode is cfg.mode)
        train, test = _split_ids(ids, split_rng)
        split |= dict.fromkeys(train, "train") | dict.fromkeys(test, "test")
    for tid in meta:
        meta[tid]["split"] = split[tid]

    train_trajs = [trajs[t] for t in sorted(trajs) if split[t] == "train"]
    stats = fit_norm_stats(train_trajs, n_stw, stride)

    manifest = {
        "format": FORMAT_TAG,
        "master_seed": int(master_seed),
        "n_stw": n_stw,
        "stride": stride,
        "rul_cap": float(rul_cap),
        "train_frac": TRAIN_FRAC,
        "noise_scale": float(sim_configs[0].noise_scale),
        "channels": list(simulator.CHANNELS),
        "norm_stats": stats.to_dict(),
        "trajectories": [meta[t] for t in sorted(meta)],
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tid in sorted(trajs):
        _write_trajectory_csv(out / meta[tid]["file"], trajs[tid], label_cfg)
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Corpus(root=out, manifest=manifest, trajectories=trajs, split=split)


def _check_fields(record, types: dict) -> None:
    """Raise naming the first key of ``types`` that ``record`` lacks or mistypes."""
    for key, kind in types.items():
        value = record.get(key) if isinstance(record, dict) else None
        if type(value) is not kind and (kind, type(value)) != (float, int):
            raise ValueError(f"{key} must be {kind.__name__}, got {value!r:.40}")


def _check_manifest(manifest) -> None:
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_TAG:
        raise ValueError(f"not a corpus manifest (format {FORMAT_TAG!r} expected)")
    _check_fields(manifest, _MANIFEST_TYPES)
    seen = set()
    for rec in manifest["trajectories"]:
        _check_fields(rec, _RECORD_TYPES)
        FaultMode(rec["mode"])
        if rec["split"] not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {rec['split']!r:.40}")
        if rec["id"] in seen:
            raise ValueError(f"trajectory id {rec['id']!r:.40} is listed twice")
        seen.add(rec["id"])
    s, stats = len(manifest["channels"]), manifest["norm_stats"]
    for key, size in (("channel_mean", s), ("channel_std", s),
                      ("descriptor_mean", 2 * s), ("descriptor_std", 2 * s)):
        values = np.asarray(stats.get(key), dtype=np.float64)
        low = 0.0 if key.endswith("std") else -np.inf
        if values.shape != (size,) or not np.all(np.isfinite(values) & (values > low)):
            raise ValueError(f"norm_stats {key} must be {size} finite numbers"
                             + (" above 0" if low == 0.0 else ""))


def load_corpus(root, split: str | None = None) -> Corpus:
    """Read a corpus directory, parsing only the CSVs of ``split`` if given
    (the manifest is checked whole). A manifest or trajectory CSV the
    pipeline cannot use raises one ValueError naming that file."""
    root = Path(root)
    path = root / "manifest.json"
    trajs = {}
    try:  # path names the file being read
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        _check_manifest(manifest)
        for rec in manifest["trajectories"]:
            if split in (None, rec["split"]):
                path = root / rec["file"]
                trajs[rec["id"]] = _read_trajectory_csv(path, rec, len(manifest["channels"]))
    except (TypeError, ValueError) as exc:  # TypeError: a norm stat of JSON objects
        raise ValueError(f"{path}: {exc}") from None
    splits = {rec["id"]: rec["split"] for rec in manifest["trajectories"]}
    return Corpus(root=root, manifest=manifest, trajectories=trajs, split=splits)
