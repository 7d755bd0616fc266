"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan|certify|chain --seed N --seconds S --trace 0|1

Runs the workload in its own process (``worker.py``) against the package in
this checkout's ``src/``, with one BLAS thread, for about ``S`` seconds of
timed passes, and checks every operation's output. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` (operations
whose check failed) and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``, each with the unit given there. The full record of the run (the
environment stamp, every pass, every check, per-row trip paths) is written to
``perfbench/out/``; a traced run also writes its spans there.

Exits non-zero, without a result line, when the workload cannot run (for
example when ``src/`` is missing).
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
BLAS_THREADS = "1"
SETUP_PROBES = 2            # set-up-only processes per run, besides the measured one
DEADLINE_S = 170.0          # a run must end within 180 s


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args, deadline, extra=()):
    """Start a worker; return (process, seconds from start to its READY line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", os.path.join(OUT, "work"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(left, 0.0))
        chunk = os.read(proc.stdout.fileno(), 1) if ready else b""
        if not chunk:
            stop(proc)
            raise RunFailed(f"worker ended or timed out before set-up finished: {cmd}")
        line += chunk
    elapsed = time.perf_counter() - t0
    if line.strip() != b"READY":
        stop(proc)
        raise RunFailed(f"unexpected worker output {line!r}")
    return proc, elapsed


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_worker(proc, deadline):
    """Wait for the worker; return its result line parsed, or None if it printed none."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunFailed("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def summarize(args, setup_samples, result):
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c["ok"] for c in checks)
    if args.trace:
        # median_low keeps counts whole: it returns one of the traced passes' values
        values = {name: statistics.median_low(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["steps"] = statistics.median_low(p["steps"] for p in plain)
        values["steps_per_s"] = statistics.median(p["steps"] / p["wall_s"] for p in plain)
        values["artifacts.bytes_written"] = statistics.median_low(
            p["bytes_written"] for p in traced)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    else:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        named = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    # a metric whose entry point is missing has no value and is left out
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named
               if m["name"] in values}
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "certify", "chain"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-check's miniature sizes")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-tiny" if args.size == "tiny" else "")

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, elapsed = start_worker(args, deadline, ["--setup-only"])
                finish_worker(probe, deadline)
                setup_samples.append(elapsed)
        spans_out = os.path.join(OUT, f"spans-{tag}.json")
        proc, elapsed = start_worker(args, deadline, ["--spans-out", spans_out])
        setup_samples.append(elapsed)
        result = finish_worker(proc, deadline)
        if result is None:
            raise RunFailed("worker printed no result")
    except (RunFailed, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    summary = summarize(args, setup_samples, result)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "setup_samples_s": setup_samples,
              **result, "summary": summary}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for p in result["passes"]:
        for c in p["checks"]:
            if not c["ok"]:
                print(f"# FAILED {c['op']}: {c['detail']}")
    if result["missing_entry_points"]:
        print("# missing entry points (their metrics are left out): "
              + ", ".join(result["missing_entry_points"]))
    print("# env " + json.dumps(result["env"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
