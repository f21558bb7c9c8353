"""Repeat the benchmark over seeds and summarize its run-to-run spread.

    python3 perfbench/prove.py --seeds 0-9 [--trace-seed 0]
                               [--out perfbench/BENCH_0.json]
                               [--against perfbench/BENCH_0.json]

Runs ``run.py`` once per seed and workload (seeds outer, so slow drift of
the machine touches every workload alike) with ``run_seconds`` from
``BENCHMARK.json``. For each end-to-end metric it prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, against a third of the metric's bound. With
``--trace-seed`` it adds one traced run per workload. With ``--out`` it
writes the summary as a baseline record. With ``--against`` it compares each
median with that of an earlier record and fails a metric that got worse by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record_line = next(line for line in lines if line.startswith("record: "))
    record = json.loads((ROOT / record_line.split(": ", 1)[1]).read_text(encoding="utf-8"))
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = [m["name"] for m in bench["per_layer"]]

    runs = {w: [] for w in names}
    for seed in _seeds(args.seeds):
        for w in names:
            result, record = _run(w, seed, seconds, 0)
            if sorted(result["metrics"]) != sorted(e2e):
                raise SystemExit(f"{w}: metrics {sorted(result['metrics'])} != BENCHMARK.json")
            runs[w].append((seed, result, record))
            m = result["metrics"]
            print(f"{w} seed {seed}: correct {result['correct']} failed "
                  f"{result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()), flush=True)

    summary = {}
    steady = True
    for w in names:
        rows = {}
        for name, spec in e2e.items():
            values = [r[1]["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < spec["bound"] / 3
            steady &= ok
            rows[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                          "median": med, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(values), "values": values}
            print(f"{w:<13}{name:<15}median {med:12.5g} q1 {q1:12.5g} q3 {q3:12.5g} "
                  f"spread {spread:7.4f} (bound/3 {spec['bound'] / 3:.4f}){'' if ok else '  WIDE'}")
        records = [r[2] for r in runs[w]]
        summary[w] = {
            "why": next(x["why"] for x in bench["workloads"] if x["name"] == w),
            "end_to_end": rows,
            "ops_per_run": [rec["detail"]["ops"] for rec in records],
            "beyond_p90_per_run": [rec["detail"]["beyond_p90"] for rec in records],
            "attempted": sum(r[1]["attempted"] for r in runs[w]),
            "failed": sum(r[1]["failed"] for r in runs[w]),
            "reference": [rec["reference"] for rec in records],
            "kernel_counts": records[0]["kernel_counts"],
        }
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")

    if args.trace_seed is not None:
        for w in names:
            result, record = _run(w, args.trace_seed, seconds, 1)
            if sorted(result["metrics"]) != sorted(per_layer):
                raise SystemExit(f"{w}: traced metrics differ from BENCHMARK.json per_layer")
            summary[w]["traced"] = {"seed": args.trace_seed, "correct": result["correct"],
                                    "metrics": result["metrics"],
                                    "detail": record["detail"]}
            d = record["detail"]
            print(f"{w} traced: overhead {result['metrics']['trace.overhead_frac']['value']:.4f}, "
                  f"step {d['traced_step_ms']:.2f} ms, forward+backward {d['forward_backward_ms']:.2f} ms")

    agrees = True
    if args.against:
        before = json.loads(args.against.read_text(encoding="utf-8"))["workloads"]
        for w in names:
            for name, spec in e2e.items():
                old = before[w]["end_to_end"][name]["median"]
                new = summary[w]["end_to_end"][name]["median"]
                worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
                ok = worse <= spec["bound"]
                agrees &= ok
                print(f"{w:<13}{name:<15}median {old:12.5g} -> {new:12.5g} worse by {worse:+8.4f} "
                      f"(bound {spec['bound']:.2f}){'' if ok else '  WORSE'}")
        print(f"against {args.against}: " + ("within bounds" if agrees else
                                             "a median got worse by more than its bound"))

    if args.out:
        env = runs[names[0]][0][2]["environment"]
        out = {"about": "Baseline record: median and quartiles of each end-to-end metric over "
                        "one run per seed, plus one traced run per workload.",
               "run_seconds": seconds, "seeds": _seeds(args.seeds),
               "environment": {k: v for k, v in env.items() if k != "seed"},
               "layer_map": "perfbench/layer_map.json", "workloads": summary}
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if steady and agrees else 1


if __name__ == "__main__":
    sys.exit(main())
