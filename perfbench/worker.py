"""The workload process: set up, signal readiness, run timed passes, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS thread count fixed in the environment. Protocol on stdout: one
``READY`` line as soon as the first timed pass could start (the parent times
set-up up to it), then, unless ``--setup-only``, one JSON line with every
pass. Everything else the program prints goes to stderr.

Untraced runs time every pass with tracing off. Traced runs alternate an
untraced and a traced pass, so the tracing overhead is measured in the same
process under the same conditions; per-layer numbers come from the traced
passes only.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def env_stamp():
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }
    # the thread count OpenBLAS itself reports, when its library is loaded
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                stamp["blas_threads"] = fn()
                return stamp
    return stamp


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or "unknown"


def _src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    proto = sys.stdout
    sys.stdout = sys.stderr

    import numpy as np

    import dgbo

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(dgbo.__file__).startswith(src):
        print(f"dgbo imported from {dgbo.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.size, args.work_dir)
    np.fft.ifft(np.fft.fft(np.ones(wl.fft_size)))
    print("READY", file=proto, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if wl.prepare:
            wl.prepare(state)
        if traced:
            tracer.install()
            first = tracer.begin(len(passes))
        t0 = time.perf_counter()
        out = wl.run(state)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if wl.finish:
            wl.finish(state, out)
        checks = wl.check(state, out)
        rec = {
            "traced": traced,
            "wall_s": wall,
            "steps": out.steps,
            "bytes_written": out.bytes_written,
            "checks": [c.__dict__ for c in checks],
            "record": out.record,
        }
        if traced:
            rec["layers"] = layer_metrics(tracer.spans, tracer.counters, first,
                                          tracer.missing_spans)
        passes.append(rec)
        # start another pass only if it is expected to end within the budget
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if tracer else 1)
        if enough and elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env_stamp(),
        "missing_entry_points": tracer.missing if tracer else [],
    }
    if tracer and args.spans_out:
        with open(args.spans_out, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result, default=_jsonable), file=proto, flush=True)
    return 0


def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


if __name__ == "__main__":
    sys.exit(main())
