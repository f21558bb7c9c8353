#!/usr/bin/env python3
"""One SHA-256 over what the model computes, to show a refactor changed no bit.

Windows are cut by ``build_dataset`` from one simulated trajectory per fault
mode. For the default ``SlatConfig``, ``rank=None``, ``n_global=0`` and
``band_width=0, n_global=0`` (each encoder mask row allows one entry) the
hash covers those windows, ``predict_rul`` at chunks of 1, 7 and 32, and six
clipped Adam steps at batch 32: each step's predictions, pre-clip norm and
gradients (values and key order), then the final parameters, the bytes
``save_checkpoint`` writes for them and the generator's end state. Last come
the names and bytes of every file of two small corpora that ``generate_corpus``
writes (seed 5, two trajectories per mode, noise scales 1 and 0).

``slat`` is imported from ``PYTHONPATH``, so one script fingerprints any
checkout; compare two hashes on one machine, one thread each:

    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/fingerprint.py
"""

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from slat import checkpoint, corpus, model, training
from slat.simulator import FaultMode, SimConfig, simulate_trajectory, trajectory_seed
from slat.windowing import LabelConfig, build_dataset, fit_norm_stats

CONFIGS = ({}, {"rank": None}, {"n_global": 0}, {"band_width": 0, "n_global": 0})
N_PREDICT = 70
STEPS, BATCH = 6, 32


def _windows(cfg: model.SlatConfig):
    trajs = [simulate_trajectory(SimConfig(mode=m), trajectory_seed(5, m, 0), f"{m.value}_000")
             for m in FaultMode]
    stats = fit_norm_stats(trajs, cfg.n_stw, 1)
    return build_dataset(trajs, cfg.n_stw, 1, LabelConfig(rul_cap=cfg.rul_cap), stats)


def _update(h, *arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def fingerprint(work: Path) -> str:
    h = hashlib.sha256()
    windows = _windows(model.SlatConfig())
    _update(h, windows.values, windows.descriptors, windows.targets)
    for overrides in CONFIGS:
        cfg = replace(model.SlatConfig(), **overrides)
        rng = np.random.default_rng(0)
        params = model.init_params(cfg, rng)
        pick = windows[rng.choice(len(windows), N_PREDICT, replace=False)]
        for chunk in (1, 7, 32):
            _update(h, model.predict_rul(params, cfg, (pick.values, pick.descriptors), chunk))
        state = training.AdamState.init(params)
        for _ in range(STEPS):
            batch = windows[rng.choice(len(windows), BATCH, replace=False)]
            preds, cache = model.forward(params, cfg, batch.values, batch.descriptors,
                                         train=True, rng=rng)
            _, gpred = training.mse_loss(preds, batch.targets)
            grads = model.backward(params, cfg, cache, gpred)
            norm = training.clip_gradients(grads, 1.0)
            h.update(repr(norm).encode())
            h.update(" ".join(grads).encode())
            _update(h, preds, *grads.values())
            training.adam_step(params, grads, state, training.TrainConfig())
        h.update(" ".join(params).encode())
        _update(h, *params.values())
        checkpoint.save_checkpoint(work / "model.ckpt", params, cfg, {})
        h.update((work / "model.ckpt").read_bytes())
        h.update(repr(rng.bit_generator.state).encode())
    for noise_scale in (1.0, 0.0):
        root = corpus.generate_corpus(work / f"corpus_{noise_scale}", master_seed=5,
                                      n_per_mode=2, noise_scale=noise_scale).root
        for path in sorted(root.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as work:
        print(fingerprint(Path(work)))


if __name__ == "__main__":
    main()
