"""Self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

1. Runs every workload through ``run.py --size tiny`` with tracing off and
   on, and confirms that the last line carries exactly the result keys, that
   every metric named in ``BENCHMARK.json`` is printed with its unit (and no
   other), and that every operation passed.
2. Corrupts one output of each workload on purpose (a flipped scan-row
   verdict, a Pohozaev residual above tolerance, a failed CLI stage) and
   confirms that the checks count exactly that one failure and that the
   result line reports it in ``failed``.
3. Points one traced entry point at a function that does not exist and
   confirms that it is reported as missing and only its metrics are left out.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_printed_metrics(bench):
    for workload in ("scan", "certify", "chain"):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{workload} trace={trace}"
            lines = res.stdout.strip().splitlines()
            expect(res.returncode == 0 and lines, f"{tag}: exits 0 with output")
            if res.returncode != 0 or not lines:
                print(res.stderr[-2000:])
                continue
            out = json.loads(lines[-1])
            expect(set(out) == RESULT_KEYS, f"{tag}: result keys {sorted(out)}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in out["metrics"].items()}
            expect(got == want, f"{tag}: every {section} metric printed with its unit"
                   + ("" if got == want else f" (missing {sorted(set(want) - set(got))},"
                      f" extra {sorted(set(got) - set(want))},"
                      f" unit mismatch {[k for k in want if k in got and got[k] != want[k]]})"))
            expect(all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                   f"{tag}: every value is a number")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{tag}: {out['attempted']} operations, {out['failed']} failed")


def check_corruption_is_counted():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    from workloads import WORKLOADS

    work = os.path.join(run.OUT, "work")
    os.makedirs(work, exist_ok=True)

    def corrupt_scan(out):
        row = next(r for r in out.checks_input if r.supercritical)
        row.tripped = not row.tripped

    def corrupt_certify(out):
        next(iter(out.checks_input["ground_states"].values()))["pohozaev"] = 1.0

    def corrupt_chain(out):
        out.checks_input["codes"]["evolve"] = 3

    for name, corrupt in (("scan", corrupt_scan), ("certify", corrupt_certify),
                          ("chain", corrupt_chain)):
        wl = WORKLOADS[name]
        state = wl.setup(1, "tiny", work)
        if wl.prepare:
            wl.prepare(state)
        out = wl.run(state)
        if wl.finish:
            wl.finish(state, out)
        clean = wl.check(state, out)
        corrupt(out)
        dirty = wl.check(state, out)
        n_clean = sum(not c.ok for c in clean)
        n_dirty = sum(not c.ok for c in dirty)
        expect(n_clean == 0 and n_dirty == 1 and len(dirty) == len(clean),
               f"{name}: corrupted output gives 1 failed check of {len(dirty)} (clean {n_clean})")
        passes = [{"traced": False, "wall_s": 1.0, "steps": 0, "bytes_written": 0,
                   "checks": [c.__dict__ for c in dirty]}]
        summary = run.summarize(_Args(), [1.0], {"passes": passes, "peak_rss_mb": 1.0})
        expect(summary["failed"] == 1 and not summary["correct"]
               and summary["attempted"] == len(dirty),
               f"{name}: result line reports failed={summary['failed']} of "
               f"{summary['attempted']}")


def check_missing_entry_point():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing

    saved = tracing.ENTRY_POINTS
    tracing.ENTRY_POINTS = tuple(
        (name, mod, "Gone.track", hook) if name == "modulation.track" else (name, mod, path, hook)
        for name, mod, path, hook in saved)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        tracing.ENTRY_POINTS = saved
    metrics = tracing.layer_metrics([], tracer.counters, 0, tracer.missing_spans)
    expect(tracer.missing == ["dgbo.modulation.Gone.track"]
           and tracer.missing_spans == ["modulation.track"]
           and "modulation.track.s" not in metrics and "modulation.decompose.calls" in metrics,
           "a missing entry point is reported and only its metrics are left out")


class _Args:
    trace = 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_printed_metrics(bench)
    check_corruption_is_counted()
    check_missing_entry_point()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
