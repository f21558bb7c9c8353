"""SLAT benchmark: one closed-loop workload per run, or all three in turn.

    python3 perfbench/run.py --workload train-b32 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The workload is set up ``SETUPS`` times from the seed (corpus generation,
load, windowing, parameter init and, for eval-heldout and monitor-b1, a
checkpoint round trip) and ``setup_s`` is the median. Ops then run, one
caller waiting for each, until the next op would end past ``--seconds``.
Every op's output is checked; an op fails if it raises, returns non-finite
output or disagrees with the recorded reference (``reference.py``).
``step_ms_p50``/``step_ms_p90`` are op latencies per batch of the workload's
size (32, 256 or 1 windows). All times are scaled to a reference CPU speed
measured during the run (``speed.py``); the record keeps the raw ones.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sets up once
under the tracer, then alternates untraced and traced ops, and reports the
per-layer metrics from the traced ones plus the tracing overhead. Both print
a readable report, write a record to ``.bench_work/`` and end with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import benchenv

benchenv.pin_threads()
benchenv.add_src_path()

import numpy as np  # noqa: E402  (loads only after the threads are pinned)

import kernels  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5

# Per-layer times in the result line cover only functions that every
# workload runs, so that no time reads 0 on every run of some workload. The
# record file and the printed table hold every wrapped function.
LOOP_SELF_MS = ("attention.mha_forward", "attention.masked_softmax", "layers.linear",
                "layers.layer_norm", "layers.gelu", "layers.dropout", "model.forward")
# Functions that only set-up calls: their calls are counted per set-up.
SETUP_ONLY = ("simulator.simulate_trajectory", "corpus.generate_corpus",
              "checkpoint.save_checkpoint")
SETUP_SELF_MS = ("simulator.simulate_trajectory", "corpus.generate_corpus",
                 "corpus.load_corpus", "windowing.compute_descriptors")
MODULE_SELF_MS = ("attention", "layers", "model")
# The CPU speed is probed, when due, on calls of these as well as between
# set-ups and ops, so that long set-ups and ops hold probes too: simulation,
# the corpus's CSV writes and reads, descriptors and the model's layers.
PROBED = ("simulator.simulate_trajectory", "corpus._write_trajectory_csv",
          "corpus._read_trajectory_csv", "windowing.compute_descriptors",
          "model.forward", "model.backward", "attention.mha_forward",
          "attention.mha_backward", "layers.linear", "layers.linear_backward")


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_loop(wl, st, ref, seconds, sp, tr=None):
    """Closed loop until the next op would end past ``seconds``. With a tracer,
    even ops run untraced and odd ops traced, and the loop ends on a traced op.
    Latencies come back scaled to the reference speed (``speed.py``)."""
    starts, ends, lat, traced, windows, failed = [], [], [], [], [], 0
    errors = []
    start = time.perf_counter()
    i = 0
    while True:
        sp.probe_if_due()
        if tr is not None:
            tr.op = i
            if i % 2:
                tr.install()
        spent = sp.spent
        t0 = time.perf_counter()
        try:
            out = wl.op(st, i)
        except Exception:  # a failed op is counted, and the loop goes on
            out = None
            errors.append(traceback.format_exc())
        t1 = time.perf_counter()
        if tr is not None:
            tr.uninstall()
        ok = out is not None and _checked(wl, st, out, ref, errors)
        failed += not ok
        starts.append(t0)
        ends.append(t1)
        lat.append(t1 - t0 - (sp.spent - spent))
        traced.append(tr is not None and i % 2 == 1)
        windows.append(out.windows if ok else 0)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > seconds and (tr is None or i % 2 == 0):
            break
    wall = time.perf_counter() - start
    sp.probe()
    for err in errors[:1]:
        print(err, file=sys.stderr, end="")
    raw = np.array(lat)
    return {"lat": raw * sp.scale(starts, ends), "raw_lat": raw, "traced": np.array(traced),
            "windows": np.array(windows), "failed": failed, "wall": wall}


def _checked(wl, st, out, ref, errors) -> bool:
    try:
        return wl.check(st, out, ref)
    except Exception:
        errors.append(traceback.format_exc())
        return False


def _setups(wl, seed, work, n, sp):
    """Set up ``n`` times; returns the last state and the scaled and raw times."""
    starts, ends, spent, st = [], [], [], None
    for k in range(n):
        st = None  # the previous set-up's inputs are freed before the next
        sp.probe()
        before = sp.spent
        starts.append(time.perf_counter())
        st = wl.setup(seed, work / f"setup{k}")
        ends.append(time.perf_counter())
        spent.append(sp.spent - before)
    sp.probe()
    raw = np.array(ends) - np.array(starts) - np.array(spent)
    return st, raw * sp.scale(starts, ends), raw


def end_to_end(wl, seed, seconds, work, ref) -> tuple[dict, dict]:
    sp = speed.Speed()
    with sp.inside(PROBED):
        st, setup_times, setup_raw = _setups(wl, seed, work, SETUPS, sp)
        loop = run_loop(wl, st, ref, seconds, sp)
    # per batch of the workload's size: an eval-heldout op is a whole test
    # split, whose window count differs from seed to seed
    windows = np.where(loop["windows"] > 0, loop["windows"], wl.batch)
    lat_ms = 1e3 * loop["lat"] * wl.batch / windows
    p50, p90 = np.percentile(lat_ms, [50, 90])
    n = lat_ms.size
    raw_ms = 1e3 * loop["raw_lat"] * wl.batch / windows
    metrics = {
        "windows_per_s": _metric(loop["windows"].sum() / loop["lat"].sum(), "windows/s"),
        "step_ms_p50": _metric(p50, "ms"),
        "step_ms_p90": _metric(p90, "ms"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"windows_per_s": loop["windows"].sum() / loop["raw_lat"].sum(),
           "step_ms_p50": float(np.median(raw_ms)), "step_ms_p90": float(np.percentile(raw_ms, 90)),
           "setup_s": float(np.median(setup_raw))}
    detail = {"ops": n, "beyond_p90": int((lat_ms > p90).sum()), "failed": loop["failed"],
              "windows": int(loop["windows"].sum()), "wall_s": loop["wall"], "raw": raw,
              "speed_factor": float(np.median(loop["lat"] / loop["raw_lat"])),
              "probe_ms": [1e3 * t for t in sp.probes()],
              "setup_s": setup_times.tolist(), "step_ms": lat_ms.tolist()}
    return metrics, detail


def traced_run(wl, seed, seconds, work, ref, trace_path) -> tuple[dict, dict]:
    sp = speed.Speed()
    with sp.inside(PROBED):
        # Built inside the probing, the tracer wraps the probing wrappers, and
        # its clock leaves out the time spent probing.
        tr = tracer.Tracer(clock=lambda: time.perf_counter() - sp.spent)
        run_t0 = tr.clock()
        tr.install()
        try:
            st = wl.setup(seed, work / "setup0")
        finally:
            tr.uninstall()
        loop = run_loop(wl, st, ref, seconds, sp, tr)
    on, off = loop["traced"], ~loop["traced"]
    n_traced = int(on.sum())
    wps_on = loop["windows"][on].sum() / loop["lat"][on].sum()
    wps_off = loop["windows"][off].sum() / loop["lat"][off].sum()
    table = tr.table(n_traced)
    ops = table["op"]
    step_ms = 1e3 * loop["raw_lat"][on].mean()  # raw, as the span times are
    metrics = {}
    for name in tracer.function_names():
        if name in SETUP_ONLY:
            metrics[f"setup.{name}.calls"] = _metric(
                table["setup"].get(name, {}).get("calls", 0), "count")
        else:
            metrics[f"{name}.calls"] = _metric(ops.get(name, {}).get("calls", 0), "count")
    for name in LOOP_SELF_MS:
        metrics[f"{name}.self_ms"] = _metric(ops.get(name, {}).get("self_ms", 0.0), "ms")
    for name in SETUP_SELF_MS:
        metrics[f"setup.{name}.self_ms"] = _metric(
            table["setup"].get(name, {}).get("self_ms", 0.0), "ms")
    for module in MODULE_SELF_MS:
        metrics[f"{module}.self_ms"] = _metric(
            sum(v["self_ms"] for k, v in ops.items() if k.startswith(module + ".")), "ms")
    for name in ("attention.mha_forward", "layers.linear"):
        metrics[f"{name}.gflops"] = _metric(ops.get(name, {}).get("gflops", 0.0), "GMAC/s")
    metrics["attention.score_useful_frac"] = _metric(
        ops.get("attention.masked_softmax", {}).get("score_useful_frac", 0.0), "frac")
    metrics["trace.overhead_frac"] = _metric(1.0 - wps_on / wps_off, "frac")
    metrics["trace.accounted_frac"] = _metric(
        tr.accounted_s() / loop["raw_lat"][on].sum(), "frac")
    tr.write(trace_path, run_t0)
    fwd_bwd = sum(ops.get(k, {}).get("incl_ms", 0.0) for k in ("model.forward", "model.backward"))
    detail = {"ops": int(loop["lat"].size), "traced_ops": n_traced, "failed": loop["failed"],
              "traced_step_ms": step_ms, "forward_backward_ms": fwd_bwd,
              "windows_per_s_traced": wps_on, "windows_per_s_untraced": wps_off,
              "table": table, "spans": str(trace_path.relative_to(benchenv.ROOT))}
    return metrics, detail


def _print_report(name, env, ref_note, counts, metrics, detail, trace):
    print(f"perfbench {name}: seed {env['seed']}, "
          f"{'traced' if trace else 'untraced'}, closed loop, one caller")
    print(f"environment: numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas_name']} {env['blas_version']}, nproc {env['nproc']}, "
          f"threads {env['threads']}, cpu {env['cpu']}")
    print(f"reference: {ref_note}")
    for part in ("attention", "ffn", "other"):
        c = counts[part]
        print(f"computed at batch {counts['batch']}: {part:<9} forward "
              f"{c['forward']['macs'] / 1e6:9.2f} Mmac {c['forward']['bytes'] / 1e6:8.2f} MB, "
              f"backward {c['backward']['macs'] / 1e6:9.2f} Mmac {c['backward']['bytes'] / 1e6:8.2f} MB")
    if trace:
        print(f"{'function (per op)':<36}{'calls':>10}{'self ms':>11}{'incl ms':>11}{'GMAC/s':>9}")
        for phase in ("op", "setup"):
            for fn, row in detail["table"][phase].items():
                label = fn if phase == "op" else f"setup.{fn}"
                gf = f"{row['gflops']:9.2f}" if "gflops" in row else ""
                print(f"{label:<36}{row['calls']:>10.1f}{row['self_ms']:>11.3f}"
                      f"{row['incl_ms']:>11.3f}{gf}")
        print(f"traced step {detail['traced_step_ms']:.3f} ms; model.forward + model.backward "
              f"spans {detail['forward_backward_ms']:.3f} ms of it")
    else:
        print(f"ops {detail['ops']} ({detail['beyond_p90']} beyond p90), "
              f"windows {detail['windows']} in {detail['wall_s']:.2f} s; times below are "
              f"scaled by {detail['speed_factor']:.4f} to the reference speed; raw "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["raw"].items()))
    for key, m in metrics.items():
        if trace and not key.startswith(("trace.", "attention.score")) and "gflops" not in key:
            continue
        print(f"{key:<36}{m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_ops_frac':<36}{detail['failed'] / detail['ops']:>14.6g} frac "
          f"({detail['failed']}/{detail['ops']})")


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    env = benchenv.environment(args.seed)
    ref = reference.load(args.seed)
    ref_note = (f"recorded, {reference.path_for(args.seed).name}, rtol {reference.RTOL:g}"
                if ref else "none recorded for this seed: finiteness, ranges and counts only")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = benchenv.WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, detail = traced_run(wl, args.seed, args.seconds, work, ref,
                                         benchenv.WORK / f"spans-{tag}.csv.gz")
        else:
            metrics, detail = end_to_end(wl, args.seed, args.seconds, work, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counts = kernels.model_counts(workloads.CFG, wl.batch)
    _print_report(args.workload, env, ref_note, counts, metrics, detail, args.trace)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "reference": ref_note, "kernel_counts": counts,
              "metrics": metrics, "detail": detail}
    record_path = benchenv.WORK / f"record-{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {record_path.relative_to(benchenv.ROOT)}")
    print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["ops"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchenv.WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
