import filecmp
import json

import numpy as np
import oracles
import pytest

from slat.corpus import (_read_trajectory_csv, _write_trajectory_csv, generate_corpus,
                         load_corpus)
from slat.simulator import CHANNELS, MODE_BASE_RATE, SimConfig, simulate_trajectory
from slat.windowing import FaultMode, LabelConfig, Trajectory


def fast_configs(n=2):
    return [SimConfig(mode=m, n_trajectories=n,
                      drift_rate_bounds=(1.8 * MODE_BASE_RATE[m],
                                         2.0 * MODE_BASE_RATE[m]))
            for m in FaultMode]


class TestManifest:
    def test_fields_and_splits(self, small_corpus):
        m = small_corpus.manifest
        assert m["format"] == "slat-corpus-v1"
        assert m["channels"] == list(CHANNELS)
        assert m["n_stw"] == 30 and m["stride"] == 1
        recs = m["trajectories"]
        assert len(recs) == 8  # 2 per mode
        # 2 per mode -> round(0.2 * 2) = 0 but the test side gets at least 1
        for mode in ("PL", "PD", "VOA", "PC"):
            splits = [r["split"] for r in recs if r["mode"] == mode]
            assert sorted(splits) == ["test", "train"]

    def test_split_sizes_at_larger_counts(self, tmp_path):
        corpus = generate_corpus(tmp_path / "c10", master_seed=3,
                                 sim_configs=fast_configs(5), n_stw=30)
        for mode in FaultMode:
            ids = [t for t in corpus.trajectories
                   if corpus.trajectories[t].mode is mode]
            train = [t for t in ids if corpus.split[t] == "train"]
            assert len(train) == 4  # max(1, round(0.2*5)) = 1 held out

    def test_norm_stats_fitted_on_train_split_only(self, small_corpus):
        from slat.windowing import fit_norm_stats
        stats = small_corpus.stats
        want = fit_norm_stats(small_corpus.train_trajectories(), 30, 1)
        np.testing.assert_allclose(stats.channel_mean, want.channel_mean,
                                   atol=1e-12)
        np.testing.assert_allclose(stats.descriptor_std, want.descriptor_std,
                                   atol=1e-12)


class TestCsvFormat:
    def test_header_and_rul_column(self, small_corpus):
        rec = small_corpus.manifest["trajectories"][0]
        path = small_corpus.root / rec["file"]
        lines = path.read_text().splitlines()
        n_ch = len(CHANNELS)
        assert lines[0] == "t," + ",".join(f"ch_{i}" for i in range(n_ch)) + ",rul"
        last = lines[-1].split(",")
        assert int(last[0]) == rec["failure_index"]
        assert float(last[-1]) == 0.0  # zero remaining life at failure
        first = lines[1].split(",")
        assert float(first[-1]) <= small_corpus.rul_cap

    def test_floats_roundtrip_exactly(self, small_corpus):
        tid = small_corpus.ids()[0]
        reloaded = load_corpus(small_corpus.root)
        np.testing.assert_array_equal(
            reloaded.trajectories[tid].channels,
            small_corpus.trajectories[tid].channels)


def odd_float_trajectory(n_steps=300, seed=0):
    """Finite float64s from random bit patterns (subnormals, huge and tiny
    exponents, negative zero), to test repr writing and parsing exactly."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=(n_steps, len(CHANNELS)),
                                                dtype=np.uint64)
    channels = bits.view(np.float64)
    channels[~np.isfinite(channels)] = -0.0
    channels[:3] = [[5e-324, -0.0, 0.0, 1.7976931348623157e308, -2.2250738585072014e-308,
                     0.1, 1e22, 1e-7, 123456789.0]] * 3
    return Trajectory(traj_id="odd", mode=FaultMode.VOA, channels=channels)


class TestMatchesCsvModuleOracle:
    """One-pass writing and vectorised parsing give the csv module's bytes
    and the ``float`` parse of every value."""

    def trajectories(self):
        yield odd_float_trajectory()
        for mode in FaultMode:
            yield simulate_trajectory(SimConfig(mode=mode), 3)
            yield simulate_trajectory(SimConfig(mode=mode, noise_scale=0.0), 3)

    @pytest.mark.parametrize("cap", [125.0, 1e9, 0.5])
    def test_writer_bytes_and_reader_arrays(self, tmp_path, cap):
        for k, traj in enumerate(self.trajectories()):
            ours, ref = tmp_path / f"{k}.csv", tmp_path / f"{k}_ref.csv"
            _write_trajectory_csv(ours, traj, LabelConfig(rul_cap=cap))
            oracles.write_trajectory_csv_reference(ref, traj.channels, cap)
            assert ours.read_bytes() == ref.read_bytes()
            rec = {"id": "x", "mode": traj.mode.value, "failure_index": traj.failure_index}
            channels = _read_trajectory_csv(ref, rec, len(CHANNELS)).channels
            assert channels.flags.c_contiguous
            assert channels.tobytes() == oracles.read_trajectory_csv_reference(ref).tobytes()
            assert channels.tobytes() == traj.channels.tobytes()

    def test_reader_arrays_on_a_generated_corpus(self, small_corpus):
        loaded = load_corpus(small_corpus.root)
        for rec in small_corpus.manifest["trajectories"]:
            ref = oracles.read_trajectory_csv_reference(small_corpus.root / rec["file"])
            assert loaded.trajectories[rec["id"]].channels.tobytes() == ref.tobytes()


class TestDeterminism:
    def test_regeneration_is_byte_identical(self, tmp_path):
        a = generate_corpus(tmp_path / "a", master_seed=9,
                            sim_configs=fast_configs(), n_stw=30)
        b = generate_corpus(tmp_path / "b", master_seed=9,
                            sim_configs=fast_configs(), n_stw=30)
        files = sorted(p.name for p in a.root.iterdir())
        assert files == sorted(p.name for p in b.root.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a.root, b.root, files,
                                                   shallow=False)
        assert mismatch == [] and errors == []

    def test_master_seed_changes_content(self, tmp_path):
        a = generate_corpus(tmp_path / "s1", master_seed=1,
                            sim_configs=fast_configs(), n_stw=30)
        b = generate_corpus(tmp_path / "s2", master_seed=2,
                            sim_configs=fast_configs(), n_stw=30)
        tid = a.ids()[0]
        assert not np.array_equal(a.trajectories[tid].channels,
                                  b.trajectories[tid].channels)


class TestLoading:
    def test_load_rejects_non_corpus(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_corpus(tmp_path)

    def test_subsets_partition_ids(self, small_corpus):
        train = set(small_corpus.ids("train"))
        test = set(small_corpus.ids("test"))
        assert train | test == set(small_corpus.ids())
        assert train & test == set()

    def test_split_load_parses_only_that_split(self, small_corpus):
        test_only = load_corpus(small_corpus.root, split="test")
        assert test_only.ids() == test_only.ids("test") == small_corpus.ids("test")
        for tid in test_only.ids():
            np.testing.assert_array_equal(test_only.trajectories[tid].channels,
                                          small_corpus.trajectories[tid].channels)
        with pytest.raises(ValueError, match="train split"):
            test_only.ids("train")
        with pytest.raises(ValueError, match="train split"):
            test_only.subset("train")

    def test_too_short_trajectories_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(tmp_path / "short", master_seed=0,
                            sim_configs=fast_configs(), n_stw=200)

    @pytest.mark.parametrize("cfgs, named", [
        # the case that overwrote VOA_000 and VOA_001 and drew the VOA split twice
        ([*fast_configs(), SimConfig(mode=FaultMode.VOA, noise_scale=0.0)], "repeat a fault mode"),
        ([*fast_configs(), SimConfig(mode=FaultMode.VOA)], "repeat a fault mode"),
        # the manifest recorded the first config's noise_scale for every run
        ([*fast_configs()[:3], SimConfig(mode=FaultMode.PassiveComponents, noise_scale=0.0)],
         "mix noise_scale"),
    ], ids=["repeated_mode_other_noise", "repeated_mode", "mixed_noise_scales"])
    def test_bad_sim_configs_refused_before_simulating(self, tmp_path, monkeypatch,
                                                       cfgs, named):
        import slat.corpus
        monkeypatch.setattr(slat.corpus, "simulate_trajectory", None)  # a call would fail
        with pytest.raises(ValueError, match=named):
            generate_corpus(tmp_path / "c", master_seed=0, sim_configs=cfgs, n_stw=30)
        assert not (tmp_path / "c").exists()
