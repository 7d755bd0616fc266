"""Config-driven experiment runner.

Subcommands: ground-state, evolve, spectrum, modulate, monotonicity,
blowup-scan, liouville-probe. A JSON config file may supply any parameter;
command-line flags override it. Identical configs (same seed) produce
byte-identical CSV artifacts.

Exit codes: 0 success, 2 config error, 3 convergence failure, 4 resolution
failure, 5 divergence detected outside a scan (inside a scan a divergence
indicator is a successful finding).
"""

import argparse
import json
import os
import sys
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import __version__
from .artifacts import (
    read_chi0,
    read_ground_state,
    read_run,
    write_csv,
    write_ground_state,
    write_json,
    write_monotonicity,
    write_run,
    write_spectrum,
    write_track,
)
from .dynamics import EvolutionConfig, conserved, evolve
from .errors import (
    ClosenessError,
    ConfigError,
    ContractError,
    ConvergenceError,
    DecompositionError,
    DgboError,
    ResolutionError,
)
from .ground_state import continuation_ladder, solve_ground_state
from .linearized import assemble, evolve_linearized, spectrum
from .modulation import beta as beta_fn
from .modulation import decompose, track
from .monotonicity import (
    build_weight,
    calibrate_budget,
    calibrate_eta_budget,
    check_eta_monotonicity,
    check_left_monotonicity,
    check_right_monotonicity,
)
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_RESOLUTION = 4
EXIT_DIVERGENCE = 5


# -- initial data vocabulary ---------------------------------------------------


def build_initial_data(grid: Grid, gs, recipe: dict, rng):
    """Perturbation vocabulary: scale, translate, gaussian bump, band noise."""
    u = recipe.get("scale", 1.0) * gs.values
    if recipe.get("translate"):
        u = grid.shift(u, float(recipe["translate"]))
    if "bump" in recipe:
        b = recipe["bump"]
        amp, width, offset = b.get("amplitude", 0.01), b.get("width", 1.0), b.get("offset", 0.0)
        u = u + amp * np.exp(-(((grid.x - offset) / width) ** 2))
    if "noise" in recipe:
        nz = recipe["noise"]
        band = nz.get("band", 0.25)
        amp = nz.get("amplitude", 1e-3)
        F = (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)).astype(complex)
        F[np.abs(grid.k) > band * grid.k_max] = 0.0
        F[0] = 0.0
        w = np.fft.ifft(F + np.conj(F[np.r_[0, grid.n - 1 : 0 : -1]])).real
        peak = np.max(np.abs(w))
        if peak > 0:
            u = u + amp * w / peak
    return u


# -- blow-up scan ---------------------------------------------------------------


@dataclass
class ScanRow:
    amplitude: float
    beta: float
    energy: float
    supercritical: bool          # energy below the discrete certification floor
    status: str
    lambda_min: float
    lambda_monotone: bool
    sobolev_growth: float
    linf_growth: float
    trip_time: float | None
    trip_reason: str
    tripped: bool
    tube_exit_t: float | None
    sign_relation_ok: bool

    @property
    def bounded(self):
        return self.status == "completed" and not self.tripped


SCAN_COLUMNS = tuple(f.name for f in fields(ScanRow))


def blowup_scan(
    alpha: float,
    amplitudes,
    *,
    grid: Grid | None = None,
    dt: float = 5e-4,
    t_end_super: float = 80.0,
    t_end_bounded: float = 20.0,
    lam_stop: float = 0.75,
    sobolev_trip: float = 1.3,
    checkpoint_every: int = 100,
    rng_seed: int = 0,
    perturbation: dict | None = None,
):
    """Scan a*Q initial data; a divergence indicator on a row is a finding.

    Divergence indicators: modulation-scale contraction below ``lam_stop``,
    H^{alpha/2} growth beyond ``sobolev_trip``, and the solver's own
    diverged/resolution flags. Leaving the modulation tube merely ends the
    lambda tracking (subcritical data disperses away from the family); it is
    recorded but is not an indicator. Runs are observed in the frame moving
    at the unit soliton speed so the scan box can stay small.
    """
    grid = grid if grid is not None else Grid(48.0, 1024)
    gs = continuation_ladder(alpha, grid)
    rep = spectrum(assemble(gs))
    chi0 = rep.chi0
    # E(Q) vanishes analytically; its discrete value sets the resolution floor
    # below which an energy sign is not certifiable on this grid
    energy_floor = 10.0 * abs(conserved(grid, gs.values, alpha).energy) + 1e-12
    rng = np.random.default_rng(rng_seed)
    rows = []
    for a in amplitudes:
        u0 = build_initial_data(grid, gs, {"scale": a, **(perturbation or {})}, rng)
        b = beta_fn(u0, gs)
        d0 = conserved(grid, u0, alpha)
        supercritical = d0.energy < -energy_floor
        cfg = EvolutionConfig(
            alpha=alpha,
            dt=dt,
            t_end=t_end_super if supercritical else t_end_bounded,
            frame_speed=1.0,
            checkpoint_every=checkpoint_every,
        )
        lam_hist = []
        trip = {"time": None, "reason": ""}
        tube = {"inside": True, "exit_t": None}
        guess = [(1.0, float(grid.x[int(np.argmax(np.abs(u0)))]))]

        def observer(t, u, rec):
            if tube["inside"]:
                try:
                    st = decompose(u, gs, chi0, guess=guess[0])
                    guess[0] = (st.lam, st.rho)
                    lam_hist.append((t, st.lam))
                    if st.lam < lam_stop:
                        trip.update(time=t, reason="lambda_contraction")
                        return True
                except (DecompositionError, ClosenessError):
                    tube.update(inside=False, exit_t=t)
            d = rec.samples[-1]
            if d.sobolev_norm > sobolev_trip * d0.sobolev_norm:
                trip.update(time=t, reason="sobolev_growth")
                return True
            return False

        rec = evolve(grid, u0, cfg, observer=observer)
        if rec.status != "completed" and trip["time"] is None:
            trip.update(time=rec.status_t, reason=rec.status)
        lam_vals = np.array([l for _, l in lam_hist]) if lam_hist else np.array([1.0])
        lam_min = float(np.min(lam_vals))
        monotone = bool(
            np.all(np.diff(lam_vals) <= 5e-3 * lam_vals[:-1]) and lam_vals[-1] <= lam_vals[0]
        )
        sob = rec.column("sobolev_norm")
        linf = rec.column("linf")
        rows.append(
            ScanRow(
                amplitude=float(a),
                beta=float(b),
                energy=float(d0.energy),
                supercritical=supercritical,
                status=rec.status,
                lambda_min=lam_min,
                lambda_monotone=monotone,
                sobolev_growth=float(np.max(sob) / sob[0]),
                linf_growth=float(np.max(linf) / linf[0]),
                trip_time=trip["time"],
                trip_reason=trip["reason"],
                tripped=trip["time"] is not None,
                tube_exit_t=tube["exit_t"],
                sign_relation_ok=bool(b > 0.0 if supercritical else True),
            )
        )
    rows.sort(key=lambda r: r.beta)
    context = {
        "alpha": alpha,
        "grid": grid,
        "dt": dt,
        "t_end_super": t_end_super,
        "t_end_bounded": t_end_bounded,
        "lam_stop": lam_stop,
        "energy_floor": energy_floor,
        "sobolev_trip": sobolev_trip,
        "rng_seed": rng_seed,
        "ground_state_residual": gs.residual,
        "spectrum_structure_ok": rep.structure_ok,
    }
    return rows, context


def write_scan(out_dir, rows, context):
    from .artifacts import write_plot_script

    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "scan.json"), {"kind": "blowup_scan", **context})
    write_plot_script(
        os.path.join(out_dir, "plot.gp"), "scan.csv",
        ("amplitude",), title="blow-up indicators",
        indices=[2, 3, 6, 8],  # beta, energy, lambda_min, sobolev_growth
    )
    write_csv(os.path.join(out_dir, "scan.csv"), SCAN_COLUMNS, (astuple(r) for r in rows))


# -- subcommand implementations ---------------------------------------------------


def _cmd_ground_state(args):
    grid = Grid(args.half_length, args.n)
    if args.continue_from:
        seed_gs = read_ground_state(args.continue_from)
        if seed_gs.grid != grid:
            raise ConfigError("continuation seed grid does not match requested grid")
        gs = solve_ground_state(args.alpha, grid, seed=seed_gs.values)
    else:
        gs = continuation_ladder(args.alpha, grid, step=args.ladder_step)
    write_ground_state(args.out, gs)
    print(f"ground state alpha={args.alpha}: residual {gs.residual:.3e}, "
          f"{gs.iterations} iterations -> {args.out}")
    return EXIT_OK


def _cmd_evolve(args):
    gs = read_ground_state(args.state)
    grid = gs.grid
    rng = np.random.default_rng(args.rng_seed)
    pert = json.loads(args.perturbation) if args.perturbation else {}
    u0 = build_initial_data(grid, gs, pert, rng)
    cfg = EvolutionConfig(
        alpha=gs.alpha,
        dt=args.dt if args.dt else 1e-4,
        t_end=args.t_end,
        sign=args.sign,
        frame_speed=args.frame_speed,
        checkpoint_every=args.checkpoint_every,
        store_states=True,
    )
    rec = evolve(grid, u0, cfg)
    write_run(args.out, rec, header_extra={"rng_seed": args.rng_seed, "perturbation": pert})
    print(f"run status {rec.status} at t={rec.final_t} -> {args.out}")
    if rec.status == "diverged":
        return EXIT_DIVERGENCE
    if rec.status == "resolution_lost":
        return EXIT_RESOLUTION
    return EXIT_OK


def _cmd_spectrum(args):
    gs = read_ground_state(args.state)
    if args.dense_n and args.dense_n != gs.grid.n:
        # re-solve at the requested dense resolution
        gs = continuation_ladder(gs.alpha, Grid(gs.grid.half_length, args.dense_n))
    rep = spectrum(assemble(gs))
    write_spectrum(args.out, rep)
    flag = "ok" if rep.structure_ok else "STRUCTURE VIOLATION"
    print(f"spectrum mu0={rep.mu0:.6f} near-kernel dim {len(rep.near_kernel)} [{flag}] -> {args.out}")
    return EXIT_OK if rep.structure_ok else EXIT_CONVERGENCE


def _cmd_modulate(args):
    gs = read_ground_state(args.state)
    cgrid, chi0 = read_chi0(args.chi0)
    if cgrid != gs.grid:
        raise ConfigError("chi0 grid does not match ground-state grid")
    _header, _samples, states, grid = read_run(args.run)
    if not states:
        raise ConfigError(f"run directory {args.run} holds no checkpointed states")
    if grid != gs.grid:
        raise ConfigError("run grid does not match ground-state grid")
    times = [t for t, _ in states]
    fields = [u for _, u in states]
    tr = track(times, fields, gs, chi0)
    write_track(args.out, tr, header_extra={"run": args.run})
    print(f"track: {len(tr.t)} frames, fitted C {tr.fitted_c:.3g}, "
          f"truncated={tr.truncated} -> {args.out}")
    return EXIT_OK


def _cmd_monotonicity(args):
    _header, _samples, states, grid = read_run(args.run)
    if not states:
        raise ConfigError(f"run directory {args.run} holds no checkpointed states")
    import csv as _csv

    with open(args.track + ".csv") as fh:
        rows = list(_csv.DictReader(fh))
    times = [float(r["t"]) for r in rows]
    rhos = [float(r["rho"]) for r in rows]
    state_times = [t for t, _ in states]
    if len(times) > len(state_times):
        times = times[: len(state_times)]
        rhos = rhos[: len(state_times)]
    fields = [u for _, u in states][: len(times)]
    weight = build_weight(args.r, args.A, grid)
    x0_list = [float(v) for v in args.x0.split(",")]
    reports = []
    for x0 in x0_list:
        c0 = args.c0 if args.c0 is not None else calibrate_budget(
            times, fields, rhos, weight, [x0], args.mu, grid, kind="right"
        )
        reports.append(
            check_right_monotonicity(times, fields, rhos, weight, x0, args.mu, c0, grid)
        )
        c0l = args.c0 if args.c0 is not None else calibrate_budget(
            times, fields, rhos, weight, [x0], args.mu, grid, kind="left"
        )
        reports.append(
            check_left_monotonicity(times, fields, rhos, weight, x0, args.mu, c0l, grid)
        )
    if args.state and args.chi0:
        gs = read_ground_state(args.state)
        _, chi0 = read_chi0(args.chi0)
        tr = track(times, fields, gs, chi0)
        for x0 in x0_list:
            c = calibrate_eta_budget(tr, weight, [x0], args.mu, grid)
            reports.append(check_eta_monotonicity(tr, weight, x0, args.mu, c, grid))
    write_monotonicity(args.out, reports, header_extra={"run": args.run, "track": args.track})
    bad = [r for r in reports if not r.all_true]
    print(f"{len(reports)} reports, {len(bad)} with violations -> {args.out}")
    return EXIT_OK


def _cmd_blowup_scan(args):
    lo, hi, step = (float(v) for v in args.amplitudes.split(":"))
    amps = list(np.arange(lo, hi + 0.5 * step, step))
    if args.include_bounded:
        amps = [0.9, 1.0] + amps
    grid = Grid(args.half_length, args.n)
    rows, context = blowup_scan(
        args.alpha,
        amps,
        grid=grid,
        dt=args.dt,
        t_end_super=args.t_end,
        rng_seed=args.rng_seed,
    )
    write_scan(args.out, rows, context)
    n_trip = sum(r.tripped for r in rows)
    print(f"scan alpha={args.alpha}: {len(rows)} rows, {n_trip} tripped -> {args.out}")
    bad_sign = [r for r in rows if not r.sign_relation_ok]
    if bad_sign:
        print(f"WARNING: {len(bad_sign)} rows violate the E<0 => beta>0 relation")
    return EXIT_OK


def _cmd_liouville_probe(args):
    gs = read_ground_state(args.state)
    grid = gs.grid
    _, chi0 = read_chi0(args.chi0)
    qp = gs.derivative()
    w0 = np.exp(-(((grid.x - args.offset) / args.width) ** 2))
    for basis in (chi0 / grid.norm_l2(chi0), qp / grid.norm_l2(qp)):
        w0 = w0 - grid.inner(w0, basis) * basis
    rec = evolve_linearized(gs, w0, args.t_end, args.dt, window=args.window)
    free = evolve_linearized(
        gs, w0, args.t_end, args.dt, window=args.window, include_potential=False
    )
    base = args.out
    write_csv(
        base + ".csv",
        ("t", "l2", "sobolev", "local_mass", "local_mass_deflated", "free_local_mass"),
        zip(rec.times, rec.l2, rec.sobolev, rec.local_mass, rec.local_mass_defl, free.local_mass),
    )
    secular_fraction = float(1.0 - rec.local_mass_defl[-1] / max(rec.local_mass[-1], 1e-300))
    write_json(
        base + ".json",
        {
            "kind": "liouville_probe",
            "alpha": gs.alpha,
            "grid": grid,
            "window": args.window,
            "t_end": args.t_end,
            "dt": args.dt,
            "free_flow_decayed": bool(free.local_mass[-1] < free.local_mass[0]),
            "full_flow_window_growth": float(rec.local_mass[-1] / rec.local_mass[0]),
            "secular_fraction": secular_fraction,
        },
    )
    print(f"liouville probe: full-flow window mass x{rec.local_mass[-1]/rec.local_mass[0]:.3g}, "
          f"free baseline x{free.local_mass[-1]/free.local_mass[0]:.3g} over t={args.t_end} -> {base}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------------


def _apply_config_defaults(parser, args_list):
    """If --config FILE appears, use its entries as defaults (flags still win)."""
    if "--config" not in args_list:
        return args_list
    i = args_list.index("--config")
    try:
        path = args_list[i + 1]
    except IndexError:
        raise ConfigError("--config needs a file argument") from None
    with open(path) as fh:
        payload = json.load(fh)
    params = payload.get("parameters", payload)
    out = list(args_list[:i]) + list(args_list[i + 2 :])
    # a flag given bare or as --flag=value beats the config entry
    present = {a.split("=", 1)[0] for a in out if a.startswith("--")}
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if flag not in present:
            if isinstance(value, bool):
                if value:
                    out.append(flag)
            else:
                out.extend([flag, str(value)])
    return out


def build_parser():
    p = argparse.ArgumentParser(prog="dgbo", description=__doc__)
    p.add_argument("--version", action="version", version=f"dgbo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ground-state", help="compute and certify a ground state")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--half-length", type=float, default=200.0)
    g.add_argument("--n", type=int, default=4096)
    g.add_argument("--continue-from", default=None)
    g.add_argument("--ladder-step", type=float, default=0.25)
    g.add_argument("--out", default="ground_state")
    g.set_defaults(func=_cmd_ground_state)

    e = sub.add_parser("evolve", help="time-integrate from a perturbed ground state")
    e.add_argument("--state", required=True)
    e.add_argument("--t-end", type=float, default=1.0)
    e.add_argument("--dt", type=float, default=None)
    e.add_argument("--sign", choices=["focusing", "defocusing"], default="focusing")
    e.add_argument("--frame-speed", type=float, default=0.0)
    e.add_argument("--checkpoint-every", type=int, default=100)
    e.add_argument("--perturbation", default=None, help="JSON perturbation spec")
    e.add_argument("--rng-seed", type=int, default=0)
    e.add_argument("--out", default="run")
    e.set_defaults(func=_cmd_evolve)

    s = sub.add_parser("spectrum", help="dense eigendecomposition of the linearized operator")
    s.add_argument("--state", required=True)
    s.add_argument("--dense-n", type=int, default=None)
    s.add_argument("--out", default="spectrum")
    s.set_defaults(func=_cmd_spectrum)

    m = sub.add_parser("modulate", help="modulation track of a stored run")
    m.add_argument("--run", required=True)
    m.add_argument("--state", required=True)
    m.add_argument("--chi0", required=True)
    m.add_argument("--out", default="track")
    m.set_defaults(func=_cmd_modulate)

    mo = sub.add_parser("monotonicity", help="monotonicity reports along a stored run")
    mo.add_argument("--run", required=True)
    mo.add_argument("--track", required=True)
    mo.add_argument("--x0", default="10,20,40")
    mo.add_argument("--mu", type=float, default=0.5)
    mo.add_argument("--r", type=float, required=True)
    mo.add_argument("--A", type=float, required=True)
    mo.add_argument("--c0", type=float, default=None, help="frozen budget constant")
    mo.add_argument("--state", default=None)
    mo.add_argument("--chi0", default=None)
    mo.add_argument("--out", default="monotonicity.json")
    mo.set_defaults(func=_cmd_monotonicity)

    b = sub.add_parser("blowup-scan", help="amplitude scan with divergence indicators")
    b.add_argument("--alpha", type=float, required=True)
    b.add_argument("--amplitudes", default="1.01:1.10:0.01", help="lo:hi:step")
    b.add_argument("--include-bounded", action="store_true")
    b.add_argument("--half-length", type=float, default=48.0)
    b.add_argument("--n", type=int, default=1024)
    b.add_argument("--dt", type=float, default=5e-4)
    b.add_argument("--t-end", type=float, default=80.0)
    b.add_argument("--rng-seed", type=int, default=0)
    b.add_argument("--out", default="scan")
    b.set_defaults(func=_cmd_blowup_scan)

    lp = sub.add_parser("liouville-probe", help="localization decay of the linearized flow")
    lp.add_argument("--state", required=True)
    lp.add_argument("--chi0", required=True)
    lp.add_argument("--t-end", type=float, default=5.0)
    lp.add_argument("--dt", type=float, default=1e-3)
    lp.add_argument("--window", type=float, default=10.0)
    lp.add_argument("--offset", type=float, default=0.0)
    lp.add_argument("--width", type=float, default=2.0)
    lp.add_argument("--out", default="liouville")
    lp.set_defaults(func=_cmd_liouville_probe)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_defaults(build_parser(), argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ContractError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except DgboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
