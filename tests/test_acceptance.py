"""Release acceptance gates, one test per gate.

Each test pins the tolerance it enforces and prints the measured numbers so
a failure carries its evidence. The slow gates (overfit capacity, end-to-end
ordering) budget wall-clock time explicitly; everything is seeded, so reruns
reproduce the same numbers bit for bit.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    dense_attention_reference,
    naive_mean_slope,
    naive_rul,
    naive_window_starts,
    single_head_weights,
)
from slat.attention import build_mask, masked_softmax, mha_forward
from slat.corpus import generate_corpus
from slat.checkpoint import save_checkpoint
from slat.evaluation import (
    EvalReport,
    constant_baseline,
    evaluate,
    linear_baseline,
    model_predictor,
)
from slat.gradcheck import check_model_gradients
from slat.model import SlatConfig, param_count, param_shapes
from slat.simulator import MODE_BASE_RATE, SimConfig
from slat.training import TrainConfig, train
from slat.windowing import (
    FaultMode,
    LabelConfig,
    NormStats,
    Trajectory,
    build_dataset,
)


def test_gradients_match_finite_differences():
    """Analytic gradients vs central differences (h=1e-5) on a tiny model:
    max relative error < 1e-3 over every parameter tensor, under 60 s."""
    result = check_model_gradients(seed=0)
    print(f"max rel err {result.max_rel_error:.3e} over "
          f"{len(result.per_tensor)} tensors in {result.seconds:.1f}s; "
          f"worst: {result.worst(3)}")
    assert result.max_rel_error < 1e-3, result.worst(5)
    assert result.seconds < 60.0


def test_full_mask_and_fullrank_factors_recover_dense_attention():
    """With band width >= L-1, no globals, and one head whose factors
    multiply to a dense weight, ``mha_forward`` matches a loop-based dense
    oracle to 1e-9 in its output and its attention weights on 100 random
    instances."""
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(2, i)))
        length = int(rng.integers(2, 13))
        d_model = int(rng.choice([4, 8, 16]))
        d_head = int(rng.integers(2, 7))
        x = rng.normal(size=(length, d_model))
        mats = [rng.normal(size=(d_model, d_head)) / np.sqrt(d_model)
                for _ in range(3)]
        mask = build_mask(length, band_width=length - 1, n_global=0)
        out, cache = mha_forward(x[None], x[None], single_head_weights(mats), mask)
        attn = cache[8][0, 0]  # the cache's attention weights, (B, H, L, L)
        want_out, want_w = dense_attention_reference(
            x @ mats[0], x @ mats[1], x @ mats[2])
        worst = max(worst,
                    float(np.max(np.abs(out[0] - want_out))),
                    float(np.max(np.abs(attn - want_w))))
    print(f"worst abs deviation {worst:.3e} over 100 instances")
    assert worst < 1e-9


def test_mask_gives_exact_zeros_and_stochastic_rows():
    """Off-mask attention weights are exactly zero, rows sum to 1 +- 1e-9,
    and the 5-token band-1 single-global pattern has 19 allowed pairs."""
    reference = build_mask(5, band_width=1, n_global=1)
    assert int(reference.sum()) == 19

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(3,)))
    worst_row = 0.0
    for _ in range(50):
        length = int(rng.integers(2, 40))
        mask = build_mask(length, int(rng.integers(0, 4)),
                          int(rng.integers(0, min(3, length) + 1)))
        logits = rng.normal(scale=5.0, size=(length, length))
        weights = masked_softmax(logits, mask)
        assert np.all(weights[~mask] == 0.0)
        worst_row = max(worst_row,
                        float(np.max(np.abs(weights.sum(axis=-1) - 1.0))))
    print(f"nnz(L=5, w=1, one global) = {int(reference.sum())}; "
          f"worst row-sum deviation {worst_row:.2e}")
    assert worst_row <= 1e-9


def test_lowrank_projection_saves_parameters():
    """In the default config every rank-4 Q/K/V projection of 64 -> 8 costs
    288 scalars per head against 512 in the dense variant, and the whole
    default model is smaller than its dense variant."""
    cfg = SlatConfig()
    low = dict(param_shapes(cfg))
    full = dict(param_shapes(replace(cfg, rank=None)))
    projections = [name[:-2] for name in low if name.endswith(("q_u", "k_u", "v_u"))]
    assert len(projections) == 3 * (cfg.time_blocks + cfg.sensor_blocks + cfg.decoder_blocks)
    for name in projections:
        per_head = math.prod(low[f"{name}_u"][1:]) + math.prod(low[f"{name}_v"][1:])
        dense_per_head = math.prod(full[f"{name}_u"][1:])
        assert f"{name}_v" not in full
        assert (per_head, dense_per_head) == (288, 512), name

    low_total, full_total = param_count(cfg), param_count(replace(cfg, rank=None))
    print(f"per head and projection {per_head} vs {dense_per_head}; "
          f"whole model {low_total} vs {full_total}")
    assert low_total < full_total


@pytest.mark.slow
def test_overfits_32_samples_within_budget(small_corpus):
    """The full-size model drives train RMSE below 1.0 steps on a fixed
    32-window subset within 500 epochs and five minutes."""
    samples = build_dataset(small_corpus.train_trajectories(),
                            small_corpus.n_stw, 1,
                            small_corpus.label_config, small_corpus.stats)
    order = np.random.default_rng(
        np.random.SeedSequence(entropy=(21,))).permutation(len(samples))
    subset = samples[order[:32]]

    cfg = SlatConfig(dropout=0.0)
    start = time.perf_counter()
    result = train(subset, cfg,
                   TrainConfig(learning_rate=3e-3, batch_size=16, epochs=500,
                               val_fraction=0.0, seed=0, stop_train_rmse=1.0))
    elapsed = time.perf_counter() - start
    final_rmse = math.sqrt(result.history[-1].train_loss)
    print(f"train rmse {final_rmse:.3f} after {len(result.history)} epochs "
          f"in {elapsed:.0f}s")
    assert final_rmse < 1.0, f"train rmse {final_rmse}"
    assert len(result.history) <= 500
    assert elapsed < 300.0


@pytest.mark.slow
def test_model_orders_below_baselines_end_to_end(tmp_path):
    """Generate a 4-mode x 10-trajectory corpus, train a reduced model, and
    require model average RMSE < linear baseline < constant baseline on the
    held-out trajectories, all within a 30-minute budget."""
    start = time.perf_counter()
    corpus = generate_corpus(tmp_path / "corpus", master_seed=123)

    train_samples = build_dataset(corpus.train_trajectories(), corpus.n_stw,
                                  2, corpus.label_config, corpus.stats)
    cfg = SlatConfig(d_model=32, time_blocks=2, sensor_blocks=2,
                     decoder_blocks=1, heads=4, ffn_mult=2, rank=4,
                     dropout=0.1)
    result = train(train_samples, cfg,
                   TrainConfig(epochs=12, batch_size=32, learning_rate=1e-3,
                               val_fraction=0.1, seed=0))

    held_out = corpus.test_trajectories()
    model_report = evaluate(model_predictor(result.best_params, cfg),
                            held_out, corpus.stats, corpus.n_stw, 1,
                            corpus.label_config)

    baseline_samples = build_dataset(corpus.train_trajectories(),
                                     corpus.n_stw, 1, corpus.label_config,
                                     corpus.stats)
    linear, _ = linear_baseline(baseline_samples, corpus.rul_cap)
    constant = constant_baseline(baseline_samples, corpus.rul_cap)
    linear_report = evaluate(linear, held_out, corpus.stats,
                             corpus.n_stw, 1, corpus.label_config)
    constant_report = evaluate(constant, held_out, corpus.stats,
                               corpus.n_stw, 1, corpus.label_config)

    elapsed = time.perf_counter() - start
    summary = (f"average rmse: model {model_report.average:.2f} < "
               f"linear {linear_report.average:.2f} < "
               f"constant {constant_report.average:.2f}; {elapsed:.0f}s")
    print(summary)
    assert model_report.average < linear_report.average, summary
    assert linear_report.average < constant_report.average, summary
    assert elapsed < 1800.0


def test_average_of_four_mode_rmses_rounds_to_6_56():
    """The headline number is the unweighted mean of the four per-mode
    RMSEs: {8.93, 7.67, 1.34, 8.29} must round to 6.56."""
    report = EvalReport({"PL": 8.93, "PD": 7.67, "VOA": 1.34, "PC": 8.29})
    print(f"average {report.average!r} renders as {report.average:.2f}")
    assert f"{report.average:.2f}" == "6.56"
    assert report.to_text().splitlines()[-1].split() == ["Average", "6.56"]


def test_pipeline_rerun_is_bit_identical(tmp_path):
    """generate -> train -> evaluate run twice with the same seeds yields
    byte-identical corpora and checkpoints and an identical report."""
    corpus_trees, checkpoints, reports = [], [], []
    for run in ("first", "second"):
        root = tmp_path / run
        sim_cfgs = [SimConfig(mode=m, n_trajectories=2,
                              drift_rate_bounds=(1.8 * MODE_BASE_RATE[m],
                                                 2.0 * MODE_BASE_RATE[m]))
                    for m in FaultMode]
        corpus = generate_corpus(root / "corpus", master_seed=7,
                                 sim_configs=sim_cfgs)
        corpus_trees.append({
            p.relative_to(root / "corpus").as_posix(): p.read_bytes()
            for p in sorted((root / "corpus").rglob("*")) if p.is_file()})

        samples = build_dataset(corpus.train_trajectories(), corpus.n_stw, 1,
                                corpus.label_config, corpus.stats)
        cfg = SlatConfig(d_model=8, time_blocks=1, sensor_blocks=1,
                         decoder_blocks=1, heads=2, ffn_mult=2, rank=2,
                         dropout=0.1)
        result = train(samples, cfg, TrainConfig(epochs=2, batch_size=64,
                                                 seed=3))
        ckpt = root / "model.ckpt"
        save_checkpoint(ckpt, result.best_params, cfg,
                        {"norm_stats": corpus.stats.to_dict()})
        checkpoints.append(ckpt.read_bytes())

        report = evaluate(model_predictor(result.best_params, cfg),
                          corpus.test_trajectories(), corpus.stats,
                          corpus.n_stw, 1, corpus.label_config)
        reports.append(json.dumps(report.to_json_dict(), sort_keys=True))

    assert corpus_trees[0] == corpus_trees[1]
    assert checkpoints[0] == checkpoints[1]
    assert reports[0] == reports[1]
    n_bytes = sum(len(v) for v in corpus_trees[0].values())
    print(f"corpus {n_bytes} bytes over {len(corpus_trees[0])} files, "
          f"checkpoint {len(checkpoints[0])} bytes, report identical")


def test_window_pipeline_matches_bruteforce_oracles():
    """The windows ``build_dataset`` cuts, their descriptor means/slopes and
    their RUL labels agree with loop-based oracles on 1000 random cases to
    1e-10. Channel 0 holds the step index and the statistics are the
    identity, so each window's first value is the step it starts at."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(9,)))
    worst = 0.0
    for _ in range(1000):
        n_stw = int(rng.integers(2, 40))
        n_steps = n_stw + int(rng.integers(0, 160))
        stride = int(rng.integers(1, 7))
        n_channels = int(rng.integers(1, 5))
        cap = float(rng.integers(5, 200))
        series = (rng.normal(scale=3.0, size=(n_steps, n_channels))
                  + rng.normal(scale=0.1) * np.arange(n_steps)[:, None])
        series[:, 0] = np.arange(n_steps)
        identity = NormStats(np.zeros(n_channels), np.ones(n_channels),
                             np.zeros(2 * n_channels), np.ones(2 * n_channels))
        windows = build_dataset(
            [Trajectory(traj_id="case", mode=FaultMode.PumpLaser, channels=series)],
            n_stw, stride, LabelConfig(rul_cap=cap), identity)

        starts = naive_window_starts(n_steps, n_stw, stride)
        assert windows.values[:, 0, 0].tolist() == starts
        assert np.array_equal(windows.values, [series[s:s + n_stw] for s in starts])
        for k, s in enumerate(starts):
            means, slopes = naive_mean_slope(series[s:s + n_stw])
            worst = max(worst, float(np.max(np.abs(
                windows.descriptors[k] - np.concatenate([means, slopes])))))
            assert windows.targets[k] == naive_rul(n_steps - 1, s + n_stw - 1, cap)

    print(f"worst descriptor deviation {worst:.3e} over 1000 cases")
    assert worst < 1e-10
