import filecmp
import json

import numpy as np
import pytest

from slat.corpus import generate_corpus, load_corpus
from slat.simulator import CHANNELS, MODE_BASE_RATE, SimConfig
from slat.windowing import FaultMode


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
        from slat.windowing import collect_descriptors, fit_norm_stats
        stats = small_corpus.stats
        want = fit_norm_stats(
            small_corpus.train_trajectories(),
            collect_descriptors(small_corpus.train_trajectories(), 30, 1))
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
