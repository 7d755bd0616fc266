"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a ``Workload`` with three steps:

- ``setup(seed, size, work_root)`` builds the inputs from the seed alone and
  returns a state object; ``work_root`` is the directory a workload may write
  in;
- ``run(state)`` is one timed pass and returns the outputs;
- ``check(state, outputs)`` turns the outputs into one ``Check`` per
  operation, using the tolerances of ``tests/test_acceptance.py`` unchanged.

``size="tiny"`` shrinks every grid and time span so that the self-check
(``selfcheck.py``) runs in seconds; the benchmark itself always uses
``size="full"``.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

# entry points are called through their modules, so that the traced run,
# which rebinds them there, sees the benchmark's own calls too
import dgbo
import dgbo.cli
from dgbo import Grid
from dgbo.ground_state import gkdv_profile

# tolerances copied from tests/test_acceptance.py (criteria 1, 2, 4)
SOLITON_LINF_TOL = 1e-6
POHOZAEV_TOL = 1e-5
QPRIME_COSINE_MIN = 0.999
CHI0_EVEN_DEFECT_TOL = 1e-8
CHI0_SIGN_TOL = 1e-8


@dataclass
class Check:
    op: str
    ok: bool
    detail: str = ""


@dataclass
class Outputs:
    checks_input: object             # what check() reads
    steps: int = 0                   # ETDRK4 steps, counted from the outputs
    bytes_written: int = 0           # artifact bytes left by the pass
    record: dict = field(default_factory=dict)   # per-pass facts kept in the results


def _ground_state(alpha, grid):
    """The conftest recipe: direct solve at alpha = 2, ladder of step 0.25 below."""
    if alpha >= 2.0:
        return dgbo.solve_ground_state(alpha, grid)
    return dgbo.continuation_ladder(alpha, grid, step=0.25)


# -- scan ----------------------------------------------------------------------------
#
# Criterion-10 traffic in miniature at alpha = 2 on the default scan grid:
# rows of unequal lifetime, two bounded (a = 0.9 leaves the modulation tube
# at once, a = 1 stays in it) and two that trip early. The seed draws a
# translation of the initial data by a whole number of grid cells, which
# leaves mass and energy unchanged; no noise is ever added, because noise
# can push the a = 1 row below the energy floor and make it run to
# t_end_super = 80. Rows with 1 < a <= 1.04 are left out: their trip reason
# and time change with the translation (a = 1.04 trips at t = 0.65 or 2.1,
# a = 1.02 at 2.2 or 4.85), so the work of a pass would depend on the seed.

SCAN = {
    "full": dict(grid=(48.0, 1024), amplitudes=(0.9, 1.0, 1.06, 1.08), t_end_bounded=1.0,
                 dt=5e-4, max_cells=128),
    "tiny": dict(grid=(48.0, 512), amplitudes=(1.0, 1.08), t_end_bounded=0.2,
                 dt=5e-4, max_cells=16),
}
SCAN_ALPHA = 2.0


@dataclass
class ScanState:
    grid: Grid
    translate: float
    cells: int
    params: dict


def scan_setup(seed, size, work_root):
    p = SCAN[size]
    grid = Grid(*p["grid"])
    cells = int(np.random.default_rng(seed).integers(-p["max_cells"], p["max_cells"] + 1))
    return ScanState(grid=grid, translate=cells * grid.h, cells=cells, params=p)


def scan_run(st: ScanState) -> Outputs:
    p = st.params
    rows, context = dgbo.cli.blowup_scan(
        SCAN_ALPHA,
        list(p["amplitudes"]),
        grid=st.grid,
        dt=p["dt"],
        t_end_bounded=p["t_end_bounded"],
        perturbation={"translate": st.translate},
    )
    steps = 0
    row_facts = []
    for r in rows:
        end_t = r.trip_time if r.trip_time is not None else (
            context["t_end_super"] if r.supercritical else context["t_end_bounded"])
        n = _steps(end_t, context["dt"])
        steps += n
        row_facts.append({
            "amplitude": r.amplitude, "supercritical": r.supercritical,
            "trip_reason": r.trip_reason, "trip_time": r.trip_time,
            "tube_exit_t": r.tube_exit_t, "steps": n,
        })
    return Outputs(checks_input=rows, steps=steps,
                   record={"translate": st.translate, "cells": st.cells, "rows": row_facts})


def scan_row_ok(row):
    """Criterion 10: supercritical rows trip with beta > 0 and monotone lambda."""
    if row.supercritical:
        return row.beta > 0.0 and row.lambda_monotone and row.tripped and row.trip_time is not None
    return row.bounded and row.sign_relation_ok


def scan_check(st: ScanState, out: Outputs):
    return [
        Check(f"row a={r.amplitude}", scan_row_ok(r),
              f"supercritical={r.supercritical} trip={r.trip_reason}@{r.trip_time}")
        for r in out.checks_input
    ]


# -- certify ---------------------------------------------------------------------------
#
# Criteria 1, 2 and 4 without any time stepping: the control workload for
# stepper and scan work. The alpha = 1 rung (N = 2^19, about 34 s alone) is
# left out so that a pass fits several times into one run.

CERTIFY = {
    "full": dict(
        ground_states={2.0: (100.0, 4096), 1.75: (400.0, 16384), 1.5: (600.0, 32768),
                       1.25: (1200.0, 65536)},
        spectra=(1.9, 1.95, 2.0), spectrum_grid=(50.0, 1024), coercivity_trials=500),
    "tiny": dict(
        ground_states={2.0: (100.0, 4096), 1.75: (400.0, 16384)},
        spectra=(2.0,), spectrum_grid=(25.0, 512), coercivity_trials=20),
}


@dataclass
class CertifyState:
    seed: int
    params: dict


def certify_setup(seed, size, work_root):
    return CertifyState(seed=seed, params=CERTIFY[size])


def certify_run(st: CertifyState) -> Outputs:
    p = st.params
    rng = np.random.default_rng(st.seed)
    solved = {}
    for alpha, spec in p["ground_states"].items():
        gs = _ground_state(alpha, Grid(*spec))
        solved[alpha] = {
            "pohozaev": max(gs.pohozaev_residuals),
            "linf": float(np.max(np.abs(gs.values - gkdv_profile(gs.grid.x))))
            if alpha == 2.0 else None,
        }
    spectra = {}
    for alpha in p["spectra"]:
        op = dgbo.assemble(_ground_state(alpha, Grid(*p["spectrum_grid"])))
        rep = dgbo.spectrum(op)
        coer = dgbo.coercivity_probe(op, rep, trials=p["coercivity_trials"], rng=rng)
        spectra[alpha] = {
            "structure_ok": rep.structure_ok,
            "negative": int(np.sum(rep.eigenvalues < -rep.kernel_tol)),
            "near_kernel": len(rep.near_kernel),
            "qprime_cosine": rep.qprime_cosine,
            "chi0_even_defect": rep.chi0_even_defect,
            "chi0_min_rel": float(np.min(rep.chi0) / np.max(rep.chi0)),
            "coercivity_violation": coer.violation,
        }
    return Outputs(checks_input={"ground_states": solved, "spectra": spectra},
                   record={"ground_states": solved, "spectra": spectra})


def certify_check(st: CertifyState, out: Outputs):
    checks = []
    for alpha, s in out.checks_input["ground_states"].items():
        ok = s["pohozaev"] < POHOZAEV_TOL
        detail = f"pohozaev {s['pohozaev']:.1e}"
        if s["linf"] is not None:
            ok = ok and s["linf"] < SOLITON_LINF_TOL
            detail += f", soliton Linf {s['linf']:.1e}"
        checks.append(Check(f"ground state a={alpha}", ok, detail))
    for alpha, s in out.checks_input["spectra"].items():
        structure = (
            s["structure_ok"]
            and s["negative"] == 1
            and s["near_kernel"] == 1
            and s["qprime_cosine"] > QPRIME_COSINE_MIN
            and s["chi0_even_defect"] < CHI0_EVEN_DEFECT_TOL
            and s["chi0_min_rel"] > -CHI0_SIGN_TOL
        )
        checks.append(Check(f"spectrum a={alpha}", structure, f"negative={s['negative']}"))
        checks.append(Check(f"coercivity a={alpha}", not s["coercivity_violation"]))
    return checks


# -- chain -------------------------------------------------------------------------------
#
# The README CLI chain run in-process through dgbo.cli.main, on the compact
# grid (50, 1024) that the tests use for dense spectra and modulation: it has
# the README's grid spacing in a quarter of its box, so that a pass fits
# several times into one run. The seed draws the bump offset.

CHAIN = {
    "full": dict(alpha=1.5, half_length=50.0, n=1024, t_end=0.1, liouville_t_end=0.5,
                 x0="10,20,40", max_offset=2.0),
    "tiny": dict(alpha=2.0, half_length=25.0, n=512, t_end=0.02, liouville_t_end=0.05,
                 x0="5,10", max_offset=2.0),
}


@dataclass
class ChainState:
    work_root: str
    offset: float
    params: dict
    out_dir: str | None = None


def chain_setup(seed, size, work_root):
    p = CHAIN[size]
    offset = float(np.random.default_rng(seed).uniform(-p["max_offset"], p["max_offset"]))
    return ChainState(work_root=work_root, offset=offset, params=p)


def chain_stages(st: ChainState, d):
    p = st.params
    pert = json.dumps({"bump": {"amplitude": 0.01, "width": 2, "offset": st.offset}})
    q, spec, run = os.path.join(d, "q"), os.path.join(d, "spec"), os.path.join(d, "run")
    tr, mono = os.path.join(d, "track"), os.path.join(d, "mono.json")
    return [
        ("ground-state", ["ground-state", "--alpha", str(p["alpha"]), "--half-length",
                          str(p["half_length"]), "--n", str(p["n"]), "--out", q]),
        ("spectrum", ["spectrum", "--state", q, "--out", spec]),
        ("evolve", ["evolve", "--state", q, "--t-end", str(p["t_end"]),
                    "--perturbation", pert, "--out", run]),
        ("modulate", ["modulate", "--run", run, "--state", q, "--chi0", spec, "--out", tr]),
        ("monotonicity", ["monotonicity", "--run", run, "--track", tr, "--x0", p["x0"],
                          "--mu", "0.5", "--r", "1.25", "--A", "10", "--state", q,
                          "--chi0", spec, "--out", mono]),
        ("liouville-probe", ["liouville-probe", "--state", q, "--chi0", spec,
                             "--t-end", str(p["liouville_t_end"]),
                             "--out", os.path.join(d, "liouville")]),
    ]


def chain_prepare(st: ChainState):
    """A fresh artifact directory for the next pass (untimed)."""
    st.out_dir = tempfile.mkdtemp(prefix="chain-", dir=st.work_root)


def chain_run(st: ChainState) -> Outputs:
    d = st.out_dir
    codes = {}
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for name, argv in chain_stages(st, d):
            codes[name] = dgbo.cli.main(argv)
    return Outputs(checks_input={"codes": codes, "log": log.getvalue()},
                   record={"offset": st.offset, "codes": codes})


def chain_finish(st: ChainState, out: Outputs):
    """Count what the pass left on disk, then remove it (untimed)."""
    d = st.out_dir
    out.bytes_written = sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(d) for f in files)
    header_path = os.path.join(d, "run", "header.json")
    header = _read_json(header_path)
    liouville = _read_json(os.path.join(d, "liouville.json"))
    # the evolve run, plus the full linearized flow of liouville-probe and the
    # free one whose outcome it reports as free_flow_decayed
    flows = 1 + ("free_flow_decayed" in liouville)
    evolve_steps = _steps(header.get("final_t"), header.get("config", {}).get("dt"))
    out.steps = evolve_steps + flows * _steps(liouville.get("t_end"), liouville.get("dt"))
    out.checks_input["artifacts"] = {
        "spectrum": _read_json(os.path.join(d, "spec.spectrum.json")),
        "run": _read_json(header_path),
        "track": _read_json(os.path.join(d, "track.json")),
        "monotonicity": _read_json(os.path.join(d, "mono.json")),
    }
    shutil.rmtree(d, ignore_errors=True)
    st.out_dir = None


def _steps(end_t, dt):
    return int(round(end_t / dt)) if end_t and dt else 0


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def chain_check(st: ChainState, out: Outputs):
    codes = out.checks_input["codes"]
    art = out.checks_input.get("artifacts", {})
    extra = {
        "spectrum": ("structure_ok", art.get("spectrum", {}).get("structure_ok") is True),
        "evolve": ("status completed", art.get("run", {}).get("status") == "completed"),
        "modulate": ("track not truncated", art.get("track", {}).get("truncated") is False),
        "monotonicity": ("0 violations", bool(art.get("monotonicity", {}).get("reports"))
                         and all(r["all_true"] for r in art["monotonicity"]["reports"])),
    }
    checks = []
    for name, _ in chain_stages(st, ""):
        code = codes.get(name)
        ok = code == 0
        detail = f"exit {code}"
        if name in extra:
            what, good = extra[name]
            ok = ok and good
            detail += f", {what}: {good}"
        if not ok:
            detail += f"; output: {out.checks_input['log'][-300:]!r}"
        checks.append(Check(f"stage {name}", ok, detail))
    return checks


# -- registry -------------------------------------------------------------------------------


@dataclass
class Workload:
    setup: object
    run: object
    check: object
    prepare: object = None          # untimed, before each pass
    finish: object = None           # untimed, after each pass and before check
    fft_size: int = 1024            # size of the set-up FFT warm-up


WORKLOADS = {
    "scan": Workload(scan_setup, scan_run, scan_check, fft_size=1024),
    "certify": Workload(certify_setup, certify_run, certify_check, fft_size=65536),
    "chain": Workload(chain_setup, chain_run, chain_check,
                      prepare=chain_prepare, finish=chain_finish, fft_size=1024),
}
