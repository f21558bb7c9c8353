"""Command line front end.

Subcommands cover the full workflow: ``generate`` a synthetic corpus,
``train`` a model on its train split, ``evaluate`` a checkpoint, ``rtf`` to
dump a remaining-lifetime trace, ``baseline`` for the reference predictors
and ``gradcheck`` for the analytic-gradient self-test at a fixed bound.
Exit codes: 0 on success, 1 on usage errors, 2 on runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import corpus as corpus_mod
from .evaluation import (constant_baseline, evaluate, linear_baseline,
                         model_predictor, write_rtf_csv)
from .gradcheck import MAX_REL_ERROR, TINY_CONFIG, check_model_gradients
from .model import SlatConfig
from .training import TrainConfig, train, write_history
from .windowing import build_dataset


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="slat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="simulate a run-to-failure corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trajectories", type=int, default=10,
                   help="trajectories per fault mode")
    p.add_argument("--n-stw", type=int, default=30)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--rul-cap", type=float, default=125.0)
    p.add_argument("--noise-scale", type=float, default=1.0)

    p = sub.add_parser("train", help="train a model on a corpus train split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--model-config", default=None,
                   help="JSON file overriding model config fields")

    p = sub.add_parser("evaluate", help="score a checkpoint per fault mode")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--json", default=None, help="also write report JSON here")

    p = sub.add_parser("rtf", help="remaining-lifetime trace over a trajectory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trajectory", default=None,
                   help="trajectory id (default: first test trajectory)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("baseline", help="fit and score a reference predictor")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=["constant", "linear"], required=True)
    p.add_argument("--json", default=None)

    p = sub.add_parser("gradcheck", help="analytic vs numeric gradient check")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _corpus_fields(corpus) -> dict:
    """The SlatConfig fields the corpus fixes; a model config may not set them."""
    return {"n_stw": corpus.n_stw, "n_channels": len(corpus.channels),
            "rul_cap": corpus.rul_cap}


def _model_config_for(corpus, overrides_path) -> SlatConfig:
    fields = _corpus_fields(corpus)
    if overrides_path:
        with open(overrides_path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{overrides_path}: model config must be a JSON object")
        owned = sorted(set(fields) & set(overrides))
        if owned:
            raise ValueError(f"{overrides_path}: {', '.join(owned)} taken from the "
                             "corpus manifest, not settable in a model config")
        fields.update(overrides)
    return SlatConfig.from_dict(fields)


def _cmd_generate(args) -> int:
    corpus = corpus_mod.generate_corpus(
        args.out, master_seed=args.seed, n_per_mode=args.trajectories,
        n_stw=args.n_stw, stride=args.stride, rul_cap=args.rul_cap,
        noise_scale=args.noise_scale)
    lengths = [t.n_steps for t in corpus.trajectories.values()]
    print(f"wrote {len(corpus.trajectories)} trajectories to {corpus.root}")
    print(f"modes: {', '.join(corpus.modes_present())}; "
          f"steps min/max: {min(lengths)}/{max(lengths)}; "
          f"train/test: {len(corpus.ids('train'))}/{len(corpus.ids('test'))}")
    return 0


def _cmd_train(args) -> int:
    corpus = corpus_mod.load_corpus(args.corpus)
    model_cfg = _model_config_for(corpus, args.model_config)
    train_cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                            epochs=args.epochs, val_fraction=args.val_fraction,
                            seed=args.seed)
    windows = build_dataset(corpus.train_trajectories(), corpus.n_stw,
                            corpus.stride, corpus.label_config, corpus.stats)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before training
    result = train(windows, model_cfg, train_cfg)
    pipeline = {
        **corpus.contract,
        "train_config": train_cfg.to_dict(),
        "corpus_master_seed": corpus.manifest["master_seed"],
        "best_epoch": result.best_epoch,
        "val_trajectories": result.val_ids,
    }
    ckpt.save_checkpoint(out / "model.ckpt", result.best_params, model_cfg, pipeline)
    write_history(out / "history.csv", result.history)
    print(f"trained on {len(windows)} windows "
          f"({len(corpus.ids('train'))} trajectories)")
    print(f"final train loss: {result.history[-1].train_loss:.4f}")
    if result.val_ids:
        print(f"best val rmse: {result.best_val_rmse:.4f} "
              f"(epoch {result.best_epoch}, held out: {', '.join(result.val_ids)})")
    print(f"checkpoint: {out / 'model.ckpt'}")
    return 0


def _load_predictor(path, corpus):
    """Load a checkpoint (``load_checkpoint`` has matched its tensors to its
    config) and check it against the corpus: the config's corpus-owned fields,
    then every contract key the checkpoint recorded at training, must equal
    the corpus's. A missing or differing value raises one ValueError."""
    params, model_cfg, pipeline = ckpt.load_checkpoint(path)
    pairs = [(name, getattr(model_cfg, name), want)
             for name, want in _corpus_fields(corpus).items()]
    pairs += [(key, pipeline.get(key), want) for key, want in corpus.contract.items()]
    for name, have, want in pairs:
        if have != want:
            raise ValueError(
                f"checkpoint records no {name} to check against the corpus" if have is None
                else f"checkpoint was trained with other {name} than the corpus uses"
                if isinstance(want, (list, dict))
                else f"checkpoint was trained with {name}={have}, corpus uses {want}")
    return model_predictor(params, model_cfg)


def _print_report(report, json_path) -> None:
    print(report.to_text())
    if json_path:
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cmd_evaluate(args) -> int:
    corpus = corpus_mod.load_corpus(args.corpus, split=args.split)
    predict = _load_predictor(args.checkpoint, corpus)
    report = evaluate(predict, corpus.subset(args.split), corpus.stats,
                      corpus.n_stw, corpus.stride, corpus.label_config)
    _print_report(report, args.json)
    return 0


def _cmd_rtf(args) -> int:
    corpus = corpus_mod.load_corpus(args.corpus)
    predict = _load_predictor(args.checkpoint, corpus)
    tid = args.trajectory or next(iter(corpus.ids("test")), None)
    if tid is None:
        raise ValueError("corpus has no test trajectory to default to; pass --trajectory")
    if tid not in corpus.trajectories:
        raise ValueError(f"unknown trajectory id {tid!r}; "
                         f"have {', '.join(corpus.ids())}")
    traj = corpus.trajectories[tid]
    report = evaluate(predict, [traj], corpus.stats, corpus.n_stw, 1, corpus.label_config)
    t, true_rul, pred_rul = report.series[tid]
    write_rtf_csv(args.out, t, true_rul, pred_rul)
    print(f"wrote {len(t)} rows for {tid} ({traj.mode.value}) to {args.out}")
    return 0


def _cmd_baseline(args) -> int:
    corpus = corpus_mod.load_corpus(args.corpus)
    windows = build_dataset(corpus.train_trajectories(), corpus.n_stw,
                            corpus.stride, corpus.label_config, corpus.stats)
    if args.kind == "constant":
        predict = constant_baseline(windows, corpus.rul_cap)
    else:
        predict, used_ridge = linear_baseline(windows, corpus.rul_cap)
        if used_ridge:
            print("note: normal equations were singular, used ridge fallback")
    report = evaluate(predict, corpus.test_trajectories(), corpus.stats,
                      corpus.n_stw, corpus.stride, corpus.label_config)
    print(f"baseline: {args.kind}")
    _print_report(report, args.json)
    return 0


def _cmd_gradcheck(args) -> int:
    start = time.perf_counter()
    errors = check_model_gradients(TINY_CONFIG, args.seed)
    # stable, so ties keep params order; a nan error sorts first and fails
    worst = sorted(errors.items(), key=lambda kv: -np.nan_to_num(kv[1], nan=np.inf))
    for name, err in worst[:5]:
        print(f"{name:<40s} {err:.3e}")
    print(f"max relative error: {worst[0][1]:.3e} "
          f"(threshold {MAX_REL_ERROR:g}, {time.perf_counter() - start:.1f}s)")
    if not worst[0][1] < MAX_REL_ERROR:
        print("gradient check FAILED", file=sys.stderr)
        return 2
    print("gradient check passed")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "rtf": _cmd_rtf,
    "baseline": _cmd_baseline,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # generate, train and gradcheck take one
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"slat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
