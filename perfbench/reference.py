"""Reference outputs recorded from the program, and the checks against them.

One ``reference/seed_<n>.npz`` per recorded seed holds:

* ``train-b32``: the first step's loss and a fingerprint of its gradients
  (per tensor, the squared norm and the dot product with a fixed random
  +/-1 vector; a gradient change of relative size ``RTOL`` moves one of
  them by about ``RTOL`` times the tensor's norm);
* ``eval-heldout``: the per-mode RMSEs that ``slat evaluate --json`` writes;
* ``monitor-b1``: the predicted RUL of every ``MONITOR_EVERY``-th test
  window in evaluation order.

Record with ``python3 perfbench/record.py FIRST_SEED LAST_SEED``. A seed
with no file is checked for finiteness, ranges and counts only.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RTOL = 1e-10
MONITOR_EVERY = 8
DIR = Path(__file__).resolve().parent / "reference"


def _probe(name: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(zlib.crc32(name.encode("utf-8")))
    return rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0


def grad_fingerprint(grads: dict) -> tuple[list, np.ndarray, np.ndarray]:
    names = sorted(grads)
    flat = [np.asarray(grads[n], dtype=np.float64).ravel() for n in names]
    sq = np.array([g @ g for g in flat])
    proj = np.array([_probe(n, g.size) @ g for n, g in zip(names, flat)])
    return names, sq, proj


def _close(a, b, scale) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= RTOL * np.asarray(scale)))


@dataclass
class Reference:
    names: list
    grad_sq: np.ndarray
    grad_proj: np.ndarray
    loss: float
    eval_rmse: np.ndarray
    monitor_pred: np.ndarray

    def train_matches(self, loss: float, grads: dict) -> bool:
        names, sq, proj = grad_fingerprint(grads)
        return (names == self.names and _close(loss, self.loss, abs(self.loss))
                and _close(sq, self.grad_sq, self.grad_sq)
                and _close(proj, self.grad_proj, np.sqrt(self.grad_sq)))

    def eval_matches(self, rmse) -> bool:
        return _close(rmse, self.eval_rmse, self.eval_rmse)

    def monitor_matches(self, k: int, pred: float) -> bool:
        if k % MONITOR_EVERY:
            return True
        ref = self.monitor_pred[k // MONITOR_EVERY]
        return _close(pred, ref, abs(ref))


def path_for(seed: int) -> Path:
    return DIR / f"seed_{seed}.npz"


def load(seed: int) -> Reference | None:
    path = path_for(seed)
    if not path.exists():
        return None
    with np.load(path) as z:
        return Reference(names=[str(n) for n in z["names"]], grad_sq=z["grad_sq"],
                         grad_proj=z["grad_proj"], loss=float(z["loss"]),
                         eval_rmse=z["eval_rmse"], monitor_pred=z["monitor_pred"])


def record(seed: int, work: Path) -> None:
    """Run the first train step and one evaluation for ``seed``; write its file."""
    import shutil

    import slat.evaluation
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    train = workloads.TrainB32()
    out = train.op(train.setup(seed, work / "train"), 0)
    loss, grads = out.value
    names, sq, proj = grad_fingerprint(grads)

    captured = []
    original = slat.evaluation.predict_rul

    def capture(*args, **kwargs):
        preds = original(*args, **kwargs)
        captured.append(preds)
        return preds

    slat.evaluation.predict_rul = capture
    try:
        ev = workloads.EvalHeldout()
        report = ev.op(ev.setup(seed, work / "eval"), 0).value
    finally:
        slat.evaluation.predict_rul = original
    preds = np.concatenate(captured)
    rmse = np.array([report["per_mode_rmse"][m] for m in workloads.MODE_ORDER])
    DIR.mkdir(exist_ok=True)
    np.savez_compressed(path_for(seed), names=np.array(names), grad_sq=sq, grad_proj=proj,
                        loss=np.float64(loss), eval_rmse=rmse,
                        monitor_pred=preds[::MONITOR_EVERY])
    shutil.rmtree(work, ignore_errors=True)
