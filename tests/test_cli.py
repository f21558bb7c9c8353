import csv
import json
import math
import shlex
import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import slat.cli
from slat.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from slat.cli import _build_parser, main
from slat.model import Params

TINY_MODEL = {"d_model": 8, "time_blocks": 1, "sensor_blocks": 1,
              "decoder_blocks": 1, "heads": 2, "ffn_mult": 2, "rank": 2,
              "dropout": 0.0}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generated corpus plus one trained checkpoint for all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    run = root / "run"
    # fast drift keeps trajectories near 200 steps
    import slat.corpus as corpus_mod
    corpus_mod.generate_corpus(corpus, master_seed=2, n_per_mode=2, rate_scale=(1.8, 2.0),
                               n_stw=30)
    model_json = root / "model.json"
    model_json.write_text(json.dumps(TINY_MODEL))
    rc = main(["train", "--corpus", str(corpus), "--out", str(run),
               "--epochs", "1", "--batch-size", "64", "--seed", "0",
               "--val-fraction", "0.0", "--model-config", str(model_json)])
    assert rc == 0
    return {"corpus": corpus, "run": run, "model_json": model_json}


def _header(head: bytes, length: int | None = None) -> bytes:
    """A checkpoint header: its stated length (default: the true one), then its bytes."""
    return struct.pack("<Q", len(head) if length is None else length) + head


def _edit_manifest(change):
    """A corpus corruption: rewrite manifest.json as change(manifest)."""
    def corrupt(root):
        path = root / "manifest.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        return path
    return corrupt


def _edit_csv(change):
    """A corpus corruption: rewrite the first trajectory CSV as change(text)."""
    def corrupt(root):
        path = root / "PL_000.csv"
        path.write_text(change(path.read_text()))
        return path
    return corrupt


def _edit_lines(num, change):
    """A corpus corruption: rewrite the first trajectory CSV's lines as
    change(lines). The refusal must name the file and line ``num`` (1-based,
    the header is line 1)."""
    def corrupt(root):
        path = _edit_csv(lambda text: "".join(change(text.splitlines(keepends=True))))(root)
        return f"{path}: line {num} "
    return corrupt


def _without(key):
    return _edit_manifest(lambda m: {k: v for k, v in m.items() if k != key})


def _with_stat(key, change):
    return _edit_manifest(lambda m: {**m, "norm_stats": {**m["norm_stats"],
                                                         key: change(m["norm_stats"][key])}})


CORPUS_CORRUPTIONS = {
    "no_trajectories": _without("trajectories"),
    "no_n_stw": _without("n_stw"),
    "no_norm_stats": _without("norm_stats"),
    "no_channels": _without("channels"),
    "str_rul_cap": _edit_manifest(lambda m: {**m, "rul_cap": "125"}),
    "list_manifest": _edit_manifest(lambda m: [1]),
    "empty_csv": _edit_csv(lambda text: ""),
    "truncated_csv": _edit_csv(lambda text: "".join(text.splitlines(keepends=True)[:-1])),
    "dropped_column": _edit_csv(lambda text: "".join(
        ",".join(line.split(",")[:1] + line.split(",")[2:]) + "\n"
        for line in text.splitlines())),
    "three_channel_means": _with_stat("channel_mean", lambda v: v[:3]),
    "zero_channel_std": _with_stat("channel_std", lambda v: [0.0] * len(v)),
    "unknown_split": _edit_manifest(lambda m: {**m, "trajectories": [
        {**m["trajectories"][0], "split": "tset"}, *m["trajectories"][1:]]}),
    "duplicate_id": _edit_manifest(lambda m: {**m, "trajectories": [
        m["trajectories"][0], {**m["trajectories"][1], "id": m["trajectories"][0]["id"]},
        *m["trajectories"][2:]]}),
    "short_rows": _edit_csv(lambda text: "".join(  # every row below the header loses a channel
        line + "\n" if i == 0 else ",".join(line.split(",")[:-2] + line.split(",")[-1:]) + "\n"
        for i, line in enumerate(text.splitlines()))),
    "swapped_columns": _edit_csv(lambda text: "".join(  # ch_0 and ch_1 trade places
        ",".join([f[0], f[2], f[1], *f[3:]]) + "\n"
        for f in (line.split(",") for line in text.splitlines()))),
    "blank_line": _edit_lines(7, lambda lines: lines[:6] + ["\n"] + lines[6:]),
    "non_numeric_value": _edit_lines(  # line 6 holds t = 4; its ch_0 becomes abc
        6, lambda lines: lines[:5] + ["4,abc," + lines[5].split(",", 2)[2]] + lines[6:]),
    "swapped_rows": _edit_lines(4, lambda lines: lines[:3] + lines[4:2:-1] + lines[5:]),
    "unknown_mode": _edit_manifest(lambda m: {**m, "trajectories": [  # a name, not a value
        {**m["trajectories"][0], "mode": "PumpLaser"}, *m["trajectories"][1:]]}),
}


class TestGenerate:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = main(["generate", "--out", str(out), "--seed", "3",
                   "--trajectories", "2", "--n-stw", "20"])
        assert rc == 0
        assert (out / "manifest.json").exists()
        stdout = capsys.readouterr().out
        assert "8 trajectories" in stdout

    @pytest.mark.parametrize("args, named", [
        (["--noise-scale", "nan"], "noise_scale"),
        (["--noise-scale", "inf"], "noise_scale"),
        (["--rul-cap", "0"], "rul_cap"),
        (["--rul-cap", "nan"], "rul_cap"),
        (["--stride", "0"], "stride"),
        (["--n-stw", "1"], "window length"),
        (["--n-stw", "400", "--seed", "1"], "PL_000 has 397 steps, need >= 800"),
        (["--trajectories", "1"], "need at least 2 trajectories per mode"),
    ], ids=["nan", "inf", "rul_cap_zero", "rul_cap_nan", "stride_zero", "n_stw_one",
            "n_stw_too_long", "one_trajectory"])
    def test_non_finite_noise_scale_is_runtime_error(self, tmp_path, capsys, args, named):
        # a NaN noise scale used to skip the noise and write NaN into
        # manifest.json; every case here used to leave an empty --out behind
        out = tmp_path / "c"
        rc = main(["generate", "--out", str(out), "--seed", "3", "--trajectories", "2", *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", "--out", str(out), "--seed", "5",
                         "--trajectories", "2", "--n-stw", "20"]) == 0
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes(), f


class TestTrain:
    def test_artifacts_written(self, workdir):
        assert (workdir["run"] / "model.ckpt").exists()
        assert (workdir["run"] / "history.csv").exists()
        with open(workdir["run"] / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_checkpoint_carries_pipeline_metadata(self, workdir):
        from slat.checkpoint import load_checkpoint
        _, cfg, pipeline = load_checkpoint(workdir["run"] / "model.ckpt")
        assert cfg.d_model == 8
        assert pipeline["n_stw"] == 30
        assert "norm_stats" in pipeline

    @pytest.mark.parametrize("config, named", [
        ({**TINY_MODEL, "d_modle": 8}, "d_modle"),
        ([8], "JSON object"),
        ({**TINY_MODEL, "d_model": "32"}, "d_model"),
        ({**TINY_MODEL, "dropout": "0.1"}, "dropout"),
        ({**TINY_MODEL, "heads": 8.0}, "heads"),
        ({**TINY_MODEL, "rank": 2.5}, "rank"),
        ({**TINY_MODEL, "band_width": True}, "band_width"),
        ({**TINY_MODEL, "rul_cap": 60.0}, "rul_cap"),
        ({**TINY_MODEL, "n_stw": 20, "n_channels": 9}, "n_channels, n_stw"),
        ({**TINY_MODEL, "mask_mode": "neg_inf"}, "mask_mode"),
    ], ids=["unknown_field", "not_an_object", "str_int", "str_float",
            "float_int", "fractional_rank", "bool_int", "corpus_rul_cap",
            "corpus_window_and_channels", "removed_mask_mode"])
    def test_bad_model_config_is_runtime_error(self, workdir, tmp_path, capsys,
                                               config, named):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        rc = main(["train", "--corpus", str(workdir["corpus"]),
                   "--out", str(tmp_path / "run"), "--epochs", "1",
                   "--model-config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("lr, named", [("inf", "learning_rate"),
                                           ("1e300", "training diverged")])
    def test_bad_learning_rate_is_one_line(self, workdir, tmp_path, capsys, lr, named):
        # the suite turns warnings into errors, so numpy's overflow warnings on
        # the way to the divergence check would fail the command here
        rc = main(["train", "--corpus", str(workdir["corpus"]),
                   "--out", str(tmp_path / "run"), "--epochs", "1", "--lr", lr,
                   "--model-config", str(workdir["model_json"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and len(err.strip().splitlines()) == 1

    def test_unusable_out_fails_before_training(self, workdir, tmp_path, capsys,
                                                monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(slat.cli, "train", lambda *a: pytest.fail("train() ran"))
        rc = main(["train", "--corpus", str(workdir["corpus"]), "--out", str(blocker / "run"),
                   "--epochs", "1", "--model-config", str(workdir["model_json"])])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "Not a directory" in err and len(err.strip().splitlines()) == 1
        assert "trained on" not in out


class TestEvaluate:
    def test_prints_table_and_writes_json(self, workdir, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--corpus", str(workdir["corpus"]),
                   "--checkpoint", str(workdir["run"] / "model.ckpt"),
                   "--json", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Average" in out
        for mode in ("PL", "PD", "VOA", "PC"):
            assert mode in out
        data = json.loads(report.read_text())
        assert set(data["per_mode_rmse"]) == {"PL", "PD", "VOA", "PC"}
        assert data["missing_modes"] == []

    def test_parses_only_the_split_it_scores(self, workdir, tmp_path, capsys):
        """A missing train CSV is harmless to --split test; --split train names it."""
        root = tmp_path / "corpus"
        shutil.copytree(workdir["corpus"], root)
        records = json.loads((root / "manifest.json").read_text())["trajectories"]
        train_csv = root / next(r["file"] for r in records if r["split"] == "train")
        train_csv.unlink()
        args = ["evaluate", "--corpus", str(root),
                "--checkpoint", str(workdir["run"] / "model.ckpt"), "--split"]
        assert main(args + ["test"]) == 0
        capsys.readouterr()
        assert main(args + ["train"]) == 2
        err = capsys.readouterr().err
        assert str(train_csv) in err and len(err.strip().splitlines()) == 1

    def test_mismatched_pipeline_is_runtime_error(self, workdir, tmp_path):
        other = tmp_path / "other_corpus"
        rc = main(["generate", "--out", str(other), "--seed", "9",
                   "--trajectories", "2", "--n-stw", "20"])
        assert rc == 0
        rc = main(["evaluate", "--corpus", str(other),
                   "--checkpoint", str(workdir["run"] / "model.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("change", ["missing", "unexpected"])
    def test_checkpoint_tensors_must_match_its_config(self, workdir, tmp_path,
                                                      change, capsys):
        params, cfg, pipeline = load_checkpoint(workdir["run"] / "model.ckpt")
        if change == "missing":
            del params["head.w"]
        else:
            shapes = [(k, v.shape) for k, v in params.items()] + [("head.extra", (1,))]
            params = Params(shapes, np.zeros(params.flat.size + 1))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, cfg, pipeline)
        rc = main(["evaluate", "--corpus", str(workdir["corpus"]),
                   "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "head." in err and len(err.strip().splitlines()) == 1

    def test_checkpoint_config_must_match_corpus(self, workdir, tmp_path, capsys):
        params, cfg, pipeline = load_checkpoint(workdir["run"] / "model.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, replace(cfg, rul_cap=60.0), pipeline)
        rc = main(["evaluate", "--corpus", str(workdir["corpus"]),
                   "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rul_cap=60.0" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("body", [
        _header(b"{}"),
        _header(b"[1]"),
        _header(b'{"config": {}, "tensors": [{"name": "head.w"}]}'),
        b"\x02\x00\x00",
        _header(b"{}", length=2**64 - 1),
        _header(b"{}", length=2**40),
        _header(b'{"config": {}, "tensors": [{"name": "head.w", "shape": [4611686018427387904]}]}'),
        _header(b'{"config": {}, "tensors": [{"name": "head.w", "shape": [2.5]}]}'),
        _header(b'{"config": {}, "tensors": [{"name": "head.w", "shape": [-1]}]}'),
        _header(b'{"config": {}, "tensors": [{"name": "head.w", "shape": [1024]}]}') + bytes(8),
    ], ids=["empty_object", "list", "tensor_without_shape", "length_cut_short",
            "length_max_u64", "length_2_40", "shape_2_62", "fractional_dim",
            "negative_dim", "tensor_past_end"])
    def test_malformed_checkpoint_header_is_runtime_error(self, workdir, tmp_path,
                                                          body, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(MAGIC + body)
        rc = main(["evaluate", "--corpus", str(workdir["corpus"]),
                   "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and len(err.strip().splitlines()) == 1

    def test_duplicated_tensor_entry_is_runtime_error(self, workdir, tmp_path, capsys):
        """A second head.b entry, with its own bytes, is refused, not read over the first."""
        data = (workdir["run"] / "model.ckpt").read_bytes()
        start = len(MAGIC) + 8
        (head_len,) = struct.unpack("<Q", data[len(MAGIC):start])
        header = json.loads(data[start:start + head_len])
        names = [rec["name"] for rec in header["tensors"]]
        at = names.index("head.b") + 1
        header["tensors"].insert(at, {"name": "head.b", "shape": [1]})
        offset = start + head_len + 8 * sum(
            math.prod(rec["shape"]) for rec in header["tensors"][:at])
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "dup.ckpt"
        bad.write_bytes(MAGIC + _header(head) + data[start + head_len:offset]
                        + struct.pack("<d", 99.0) + data[offset:])
        rc = main(["evaluate", "--corpus", str(workdir["corpus"]), "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "head.b" in err and len(err.strip().splitlines()) == 1

    def test_checkpoint_with_removed_mask_rule_is_runtime_error(self, workdir, tmp_path,
                                                                capsys):
        data = (workdir["run"] / "model.ckpt").read_bytes()
        start = len(MAGIC) + 8
        (head_len,) = struct.unpack("<Q", data[len(MAGIC):start])
        header = json.loads(data[start:start + head_len])
        header["config"]["mask_mode"] = "hadamard"
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(MAGIC + _header(head) + data[start + head_len:])
        rc = main(["evaluate", "--corpus", str(workdir["corpus"]), "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "mask_mode" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["evaluate", "rtf"])
    def test_non_finite_checkpoint_tensor_is_runtime_error(self, workdir, tmp_path,
                                                           capsys, command):
        """A checkpoint holding a NaN would score NaN for every mode."""
        params, cfg, pipeline = load_checkpoint(workdir["run"] / "model.ckpt")
        params["head.b"][...] = np.nan
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, cfg, pipeline)
        out = tmp_path / "out"
        extra = ["--json", str(out)] if command == "evaluate" else ["--out", str(out)]
        rc = main([command, "--corpus", str(workdir["corpus"]), "--checkpoint", str(bad),
                   *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}: tensor head.b" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no_pipeline", "no_norm_stats"])
    def test_checkpoint_without_contract_is_runtime_error(self, workdir, tmp_path,
                                                          capsys, case):
        """A checkpoint that does not record the corpus contract cannot be
        matched to a corpus; without that check it scores any corpus."""
        params, cfg, pipeline = load_checkpoint(workdir["run"] / "model.ckpt")
        corpus = workdir["corpus"]
        if case == "no_pipeline":
            pipeline = None
            corpus = tmp_path / "other_corpus"
            assert main(["generate", "--out", str(corpus), "--seed", "9",
                         "--trajectories", "2", "--n-stw", "30"]) == 0
            capsys.readouterr()
        else:
            del pipeline["norm_stats"]
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, cfg, pipeline)
        rc = main(["evaluate", "--corpus", str(corpus), "--checkpoint", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "records no" in err and len(err.strip().splitlines()) == 1

    def test_checkpoint_from_another_corpus_is_runtime_error(self, workdir, tmp_path):
        other = tmp_path / "other_corpus"
        assert main(["generate", "--out", str(other), "--seed", "9",
                     "--trajectories", "2", "--n-stw", "30"]) == 0
        ckpt = str(workdir["run"] / "model.ckpt")
        assert main(["evaluate", "--corpus", str(other), "--checkpoint", ckpt]) == 2
        assert main(["rtf", "--corpus", str(other), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "trace.csv")]) == 2


class TestRtf:
    def test_writes_trace_csv(self, workdir, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["rtf", "--corpus", str(workdir["corpus"]),
                   "--checkpoint", str(workdir["run"] / "model.ckpt"),
                   "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "true_rul", "pred_rul"]
        assert int(rows[1][0]) == 29  # first full window ends at n_stw - 1

    def test_unknown_trajectory_is_runtime_error(self, workdir, tmp_path):
        rc = main(["rtf", "--corpus", str(workdir["corpus"]),
                   "--checkpoint", str(workdir["run"] / "model.ckpt"),
                   "--trajectory", "nope", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_no_test_trajectory_asks_for_one(self, workdir, tmp_path, capsys):
        """Without --trajectory on a corpus with no test split, rtf exits 2
        with one line asking for --trajectory."""
        root = tmp_path / "corpus"
        shutil.copytree(workdir["corpus"], root)
        _edit_manifest(lambda m: {**m, "trajectories": [
            {**rec, "split": "train"} for rec in m["trajectories"]]})(root)
        rc = main(["rtf", "--corpus", str(root),
                   "--checkpoint", str(workdir["run"] / "model.ckpt"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--trajectory" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()


class TestBaseline:
    @pytest.mark.parametrize("kind", ["constant", "linear"])
    def test_baselines_score(self, workdir, kind, capsys):
        rc = main(["baseline", "--corpus", str(workdir["corpus"]),
                   "--kind", kind])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"baseline: {kind}" in out
        assert "Average" in out

    @pytest.mark.parametrize("corruption", list(CORPUS_CORRUPTIONS))
    def test_corrupted_corpus_is_runtime_error(self, workdir, tmp_path, capsys,
                                               corruption):
        """Each corruption exits 2 with one line naming the file at fault (and
        the line, where the fault is in one)."""
        root = tmp_path / "corpus"
        shutil.copytree(workdir["corpus"], root)
        at_fault = CORPUS_CORRUPTIONS[corruption](root)
        rc = main(["baseline", "--corpus", str(root), "--kind", "constant"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(at_fault) in err and len(err.strip().splitlines()) == 1


class TestGradcheck:
    def test_passes_and_exits_zero(self, capsys):
        rc = main(["gradcheck", "--seed", "0"])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_loose_threshold_still_zero(self):
        assert main(["gradcheck", "--threshold", "1.0"]) == 0

    def test_failure_exits_two(self, capsys):
        assert main(["gradcheck", "--threshold", "1e-30"]) == 2
        assert "gradient check FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1", "inf"])
    def test_bad_threshold_is_named(self, capsys, monkeypatch, threshold):
        # refused before the check runs: nan, 0 and -1 would fail any
        # gradients, and inf would pass any finite error
        monkeypatch.setattr(slat.cli, "check_model_gradients",
                            lambda *args: pytest.fail("the check ran"))
        assert main(["gradcheck", "--threshold", threshold]) == 2
        err = capsys.readouterr().err
        assert err == (f"slat: error: --threshold must be positive and finite, "
                       f"got {float(threshold)}\n")


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as err:
            main(["train"])  # missing required args
        assert err.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as err:
            main(["notacommand"])
        assert err.value.code == 1

    def test_runtime_error_is_two(self, tmp_path):
        rc = main(["evaluate", "--corpus", str(tmp_path / "missing"),
                   "--checkpoint", str(tmp_path / "missing.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["generate", "train", "gradcheck"])
    def test_negative_seed_is_named(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {"generate": ["--out", str(out)],
                "train": ["--corpus", str(workdir["corpus"]), "--out", str(out)],
                "gradcheck": []}[command]
        assert main([command, *argv, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "slat: error: --seed must be >= 0, got -1\n"
        assert not out.exists()


def _readme_walkthrough() -> list:
    """The lines of the README's command-line walkthrough, with backslash
    continuations joined and comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.strip().startswith("#")]


def test_readme_commands_parse():
    """Every ``slat ...`` line of the README's command-line walkthrough, with
    backslash continuations joined, is accepted by the argument parser."""
    commands = [line for line in _readme_walkthrough() if line.startswith("slat ")]
    assert len(commands) >= 9
    for command in commands:
        try:
            _build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit as exc:
            raise AssertionError(f"README command does not parse: {command}") from exc


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    """Every line of the README's walkthrough runs in order and exits 0, with
    only these changes for speed: ``generate`` gets ``--trajectories 2`` and
    each ``train`` gets ``--epochs 1`` and the README's own small.json."""
    monkeypatch.chdir(tmp_path)
    lines = _readme_walkthrough()
    echo = next(line for line in lines if line.startswith("echo "))
    _, config, redirect, config_path = shlex.split(echo)
    assert redirect == ">"
    Path(config_path).write_text(config)
    ran = 0
    for line in lines:
        if line == echo:
            continue
        argv = shlex.split(line)
        assert argv[0] == "slat", line
        argv = argv[1:]
        if argv[0] == "generate":
            argv += ["--trajectories", "2"]
        if argv[0] == "train":
            if "--epochs" in argv:
                argv[argv.index("--epochs") + 1] = "1"
            else:
                argv += ["--epochs", "1"]
            if "--model-config" not in argv:
                argv += ["--model-config", config_path]
        assert main(argv) == 0, line
        ran += 1
    assert ran >= 9
