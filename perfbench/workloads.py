"""The three benchmark workloads.

Each workload is a closed loop: one caller waits for each result before it
issues the next op. ``setup(seed, work)`` builds the workload's inputs from
the seed in the directory ``work``; ``op(state, i)`` runs op ``i`` and
returns an :class:`Output`; ``check(state, out, ref)`` says whether the
output is correct, against the recorded reference when there is one.

Every call into ``slat`` goes through a module attribute (``model.forward``,
not a name imported here), so the tracer's replacements take effect.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slat import checkpoint, cli, corpus, model, training, windowing
from slat.evaluation import MODE_ORDER

CFG = model.SlatConfig()
TRAIN_CFG = training.TrainConfig()
N_PER_MODE = 10
TRAIN_BATCH = 32
EVAL_BATCH = 256
MONITOR_BATCH = 1


@dataclass
class Output:
    windows: int
    value: object = None


def _corpus(seed: int, work: Path):
    corpus.generate_corpus(work, master_seed=seed, n_per_mode=N_PER_MODE,
                           n_stw=CFG.n_stw, stride=1)
    c = corpus.load_corpus(work)
    if (c.n_stw, len(c.channels), c.rul_cap) != (CFG.n_stw, CFG.n_channels, CFG.rul_cap):
        raise RuntimeError("corpus does not match the default SlatConfig")
    return c


def _params(seed: int):
    """``init_params`` under the seed, with the head bias at mid-range. With a
    zero bias most untrained predictions clamp to 0, and a clamped output
    would hide a changed model from the reference check."""
    params = model.init_params(CFG, np.random.default_rng(seed))
    params["head.b"][:] = CFG.rul_cap / 2
    return params


def _checkpoint_round_trip(c, params, path: Path):
    pipeline = {"n_stw": c.n_stw, "stride": c.stride, "rul_cap": c.rul_cap,
                "channels": c.channels, "norm_stats": c.stats.to_dict()}
    checkpoint.save_checkpoint(path, params, CFG, pipeline)
    loaded, cfg, _ = checkpoint.load_checkpoint(path)
    if cfg != CFG or loaded.keys() != params.keys() or not all(
            np.array_equal(loaded[k], params[k]) for k in params):
        raise RuntimeError("checkpoint round trip changed the model")
    return loaded


# -- train-b32 ----------------------------------------------------------------

@dataclass
class TrainState:
    values: np.ndarray
    descriptors: np.ndarray
    targets: np.ndarray
    params: dict
    adam: training.AdamState
    rng: np.random.Generator
    order: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    pos: int = 0


class TrainB32:
    """Optimizer steps at batch 32, the per-batch sequence of ``training.train``."""

    name = "train-b32"
    batch = TRAIN_BATCH

    def setup(self, seed: int, work: Path) -> TrainState:
        c = _corpus(seed, work)
        samples = windowing.build_dataset(c.train_trajectories(), c.n_stw, c.stride,
                                          c.label_config, c.stats)
        values, descriptors, targets = model.stack_samples(samples)
        params = _params(seed)
        return TrainState(values, descriptors, targets, params,
                          training.AdamState.init(params),
                          np.random.default_rng([seed, 1]))

    def op(self, st: TrainState, i: int) -> Output:
        if st.pos + TRAIN_BATCH > st.order.size:
            st.order = st.rng.permutation(st.targets.size)
            st.pos = 0
        idx = st.order[st.pos:st.pos + TRAIN_BATCH]
        st.pos += TRAIN_BATCH
        preds, cache = model.forward(st.params, CFG, st.values[idx], st.descriptors[idx],
                                     train=True, rng=st.rng)
        loss, gpred = training.mse_loss(preds, st.targets[idx])
        grads = model.backward(st.params, CFG, cache, gpred)
        first = dict(grads) if i == 0 else None  # clipping rebinds, never mutates
        training.clip_gradients(grads, TRAIN_CFG.clip_norm)
        training.adam_step(st.params, grads, st.adam, TRAIN_CFG)
        return Output(TRAIN_BATCH, (loss, first))

    def check(self, st: TrainState, out: Output, ref) -> bool:
        loss, first = out.value
        if not np.isfinite(loss):
            return False
        if first is None:
            return True
        if first.keys() != st.params.keys() or not all(
                np.all(np.isfinite(g)) for g in first.values()):
            return False
        return ref is None or ref.train_matches(loss, first)


# -- eval-heldout ---------------------------------------------------------------

@dataclass
class EvalState:
    corpus_dir: Path
    ckpt: Path
    report: Path
    counts: dict


class EvalHeldout:
    """``slat evaluate`` in-process over the test split, from a checkpoint."""

    name = "eval-heldout"
    batch = EVAL_BATCH

    def setup(self, seed: int, work: Path) -> EvalState:
        c = _corpus(seed, work)
        _checkpoint_round_trip(c, _params(seed), work / "model.ckpt")
        counts: dict = {}
        for t in c.test_trajectories():
            counts[t.mode.value] = counts.get(t.mode.value, 0) + t.n_steps - c.n_stw + 1
        return EvalState(work, work / "model.ckpt", work / "report.json", counts)

    def op(self, st: EvalState, i: int) -> Output:
        argv = ["evaluate", "--corpus", str(st.corpus_dir), "--checkpoint", str(st.ckpt),
                "--split", "test", "--json", str(st.report)]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"slat evaluate exited {code}")
        report = json.loads(st.report.read_text(encoding="utf-8"))
        return Output(sum(report["window_counts"].values()), report)

    def check(self, st: EvalState, out: Output, ref) -> bool:
        report = out.value
        if report["window_counts"] != st.counts or sorted(report["per_mode_rmse"]) != sorted(MODE_ORDER):
            return False
        rmse = [report["per_mode_rmse"][m] for m in MODE_ORDER]
        if not np.all(np.isfinite(rmse)):
            return False
        return ref is None or ref.eval_matches(rmse)


# -- monitor-b1 -----------------------------------------------------------------

@dataclass
class MonitorState:
    params: dict
    stats: windowing.NormStats
    schedule: list  # (channels, window end) in evaluation order


class MonitorB1:
    """Online tracking: each new step's latest window, normalized and scored alone."""

    name = "monitor-b1"
    batch = MONITOR_BATCH

    def setup(self, seed: int, work: Path) -> MonitorState:
        c = _corpus(seed, work)
        params = _checkpoint_round_trip(c, _params(seed), work / "model.ckpt")
        schedule = [(t.channels, end) for t in c.test_trajectories()
                    for end in range(c.n_stw, t.n_steps + 1)]
        return MonitorState(params, c.stats, schedule)

    def op(self, st: MonitorState, i: int) -> Output:
        k = i % len(st.schedule)
        channels, end = st.schedule[k]
        raw = channels[end - CFG.n_stw:end]
        desc = st.stats.normalize_descriptors(windowing.compute_descriptors(raw))
        values = st.stats.normalize_values(raw)
        pred = model.predict_rul(st.params, CFG, (values[None], desc[None]),
                                 batch_size=MONITOR_BATCH)
        return Output(1, (k, float(pred[0])))

    def check(self, st: MonitorState, out: Output, ref) -> bool:
        k, pred = out.value
        if not 0.0 <= pred <= CFG.rul_cap:
            return False
        return ref is None or ref.monitor_matches(k, pred)


WORKLOADS = {w.name: w for w in (TrainB32(), EvalHeldout(), MonitorB1())}
