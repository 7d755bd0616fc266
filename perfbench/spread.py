"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads scan,certify,chain --seeds 1-10

Each run is ``run.py --trace 0`` with ``run_seconds`` of ``BENCHMARK.json``.
For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``; it also counts operations attempted and failed. The
per-run results and the summary go to ``perfbench/out/spread-*.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="scan,certify,chain")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
                return 1
            out = json.loads(res.stdout.strip().splitlines()[-1])
            out["seed"], out["run_s"] = seed, time.monotonic() - t0
            runs.append(out)
            print(f"{workload} seed {seed}: {out['run_s']:.0f} s, failed {out['failed']}/"
                  f"{out['attempted']}, " + ", ".join(
                      f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report[workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = bounds[name]
            flag = "ok" if s["spread"] < bound / 3 else "WIDE" if s["spread"] > bound else ">1/3"
            print(f"  {workload:8s} {name:24s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}  bound {bound}  {flag}")
    tag = time.strftime("%Y%m%d-%H%M%S")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
