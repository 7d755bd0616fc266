"""Config-driven experiment runner.

Subcommands: ground-state, evolve, spectrum, modulate, monotonicity,
blowup-scan, liouville-probe. A JSON config file may supply any parameter;
command-line flags override it. Identical configs (same seed) produce
byte-identical CSV artifacts.

Exit codes: 0 success, 2 config error, 3 convergence failure (also a
modulation solve that left the soliton tube: DecompositionError,
ClosenessError), 4 resolution failure, 5 divergence detected outside a scan
(inside a scan a divergence indicator is a successful finding).
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .artifacts import (
    read_chi0,
    read_ground_state,
    read_run,
    read_track,
    write_csv,
    write_ground_state,
    write_json,
    write_monotonicity,
    write_run,
    write_spectrum,
    write_track,
)
from .dynamics import STATUS_DIVERGED, STATUS_RESOLUTION_LOST, EvolutionConfig, evolve
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DecompositionError,
    DgboError,
    ResolutionError,
)
from .ground_state import LADDER_STEP, continuation_ladder
from .linearized import assemble, evolve_linearized, liouville_readout, spectrum
from .modulation import track
from .monotonicity import (
    build_weight,
    calibrate,
    check_eta_monotonicity,
    check_left_monotonicity,
    check_right_monotonicity,
)
from .scan import T_END_SUPER, blowup_scan, build_initial_data, write_scan
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_RESOLUTION = 4
EXIT_DIVERGENCE = 5

PROBE_WIDTH = 2.0    # liouville-probe: w0 is exp(-(x / PROBE_WIDTH)^2) before deflation
PROBE_WINDOW = 10.0  # liouville-probe: the local masses are taken over |x| < PROBE_WINDOW


# -- subcommand implementations ---------------------------------------------------


def _read_state_and_chi0(state, chi0):
    """A ground state and a chi0 of the same grid and alpha (ConfigError otherwise)."""
    gs = read_ground_state(state)
    cgrid, chi0_values, calpha = read_chi0(chi0)
    if (cgrid, calpha) != (gs.grid, gs.alpha):
        raise ConfigError(f"chi0 grid or alpha ({calpha}) does not match the ground state's ({gs.alpha})")
    return gs, chi0_values


def _read_run_states(run, alpha, gs):
    """Times, fields and grid of a run's checkpoints (ConfigError: none, not of ``alpha``, or not on gs's grid)."""
    header, _samples, states, grid = read_run(run)
    if not states:
        raise ConfigError(f"run directory {run} holds no checkpointed states")
    run_alpha = header["config"]["alpha"]
    if run_alpha != alpha or (gs is not None and grid != gs.grid):
        raise ConfigError(f"run grid or alpha ({run_alpha}) does not match its inputs' (alpha {alpha})")
    return [t for t, _ in states], [u for _, u in states], grid


def _parse_numbers(text, sep, flag):
    """The numbers of a ``sep``-separated flag value (ConfigError: an entry not a finite number)."""
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError:
        raise ConfigError(f"{flag} {text!r} has an empty or non-numeric entry") from None
    if not all(np.isfinite(values)):
        raise ConfigError(f"{flag} {text!r} has a non-finite entry")
    return values


def _amplitudes(text):
    """lo:hi:step as lo, lo + step, ... up to hi (ConfigError unless step > 0 and hi >= lo)."""
    values = _parse_numbers(text, ":", "--amplitudes")
    if len(values) != 3 or not (values[2] > 0.0 and values[1] >= values[0]):
        raise ConfigError(f"--amplitudes needs lo:hi:step with step > 0 and hi >= lo, got {text!r}")
    lo, hi, step = values
    return list(np.arange(lo, hi + 0.5 * step, step))


def _cmd_ground_state(args):
    gs = continuation_ladder(args.alpha, Grid(args.half_length, args.n), step=args.ladder_step)
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
        dt=args.dt,
        t_end=args.t_end,
        sign=args.sign,
        checkpoint_every=args.checkpoint_every,
        store_states=True,
    )
    rec = evolve(grid, u0, cfg)
    write_run(args.out, rec, header_extra={"rng_seed": args.rng_seed, "perturbation": pert})
    print(f"run status {rec.status} at t={rec.final_t} -> {args.out}")
    if rec.status == STATUS_DIVERGED:
        return EXIT_DIVERGENCE
    if rec.status == STATUS_RESOLUTION_LOST:
        return EXIT_RESOLUTION
    return EXIT_OK


def _cmd_spectrum(args):
    gs = read_ground_state(args.state)
    rep = spectrum(assemble(gs))
    write_spectrum(args.out, rep)
    if not rep.structure_ok:
        flag, code = "STRUCTURE VIOLATION", EXIT_CONVERGENCE
    elif not rep.chi0_resolved:
        flag, code = "CHI0 UNRESOLVED", EXIT_RESOLUTION
    else:
        flag, code = "ok", EXIT_OK
    print(f"spectrum mu0={rep.mu0:.6f} near-kernel dim {len(rep.near_kernel)} [{flag}] -> {args.out}")
    return code


def _cmd_modulate(args):
    gs, chi0 = _read_state_and_chi0(args.state, args.chi0)
    times, fields, _grid = _read_run_states(args.run, gs.alpha, gs)
    tr = track(times, fields, gs, chi0)
    write_track(args.out, tr, header_extra={"run": args.run})
    print(f"track: {len(tr.t)} frames, fitted C {tr.fitted_c:.3g}, "
          f"truncated={tr.truncated} -> {args.out}")
    return EXIT_OK


def _cmd_monotonicity(args):
    if (args.state is None) != (args.chi0 is None):
        raise ConfigError("the eta reports need --state and --chi0 together; got only one")
    x0_list = _parse_numbers(args.x0, ",", "--x0")
    gs = _read_state_and_chi0(args.state, args.chi0)[0] if args.state else None
    tr = read_track(args.track)
    if gs is not None and gs.alpha != tr.alpha:
        raise ConfigError(f"ground state alpha ({gs.alpha}) does not match the track's ({tr.alpha})")
    run_times, fields, grid = _read_run_states(args.run, tr.alpha, gs)
    times, rhos = list(tr.t), list(tr.rho)
    if times != run_times[: len(times)]:
        raise ConfigError(
            f"track {args.track} times are not a prefix of the checkpoint times of {args.run}"
        )
    fields = fields[: len(times)]
    weight = build_weight(args.r, args.A)
    # each check runs once at c0 = 0 and is re-budgeted with its own calibration
    # (or --c0 for the sided checks); the eta constant is always calibrated
    sided = [check(times, fields, rhos, weight, x0, args.mu, 0.0, grid)
             for x0 in x0_list for check in (check_right_monotonicity, check_left_monotonicity)]
    reports = [replace(rep, c0=args.c0 if args.c0 is not None else calibrate([rep]))
               for rep in sided]
    if gs is not None:
        reports += [replace(rep, c0=calibrate([rep]))
                    for rep in check_eta_monotonicity(tr, fields, gs, weight, x0_list, args.mu, 0.0)]
    write_monotonicity(args.out, reports, header_extra={"run": args.run, "track": args.track})
    bad = [r for r in reports if not r.all_true]
    print(f"{len(reports)} reports, {len(bad)} with violations -> {args.out}")
    return EXIT_OK


def _cmd_blowup_scan(args):
    amps = _amplitudes(args.amplitudes)
    if args.include_bounded:
        amps = [0.9, 1.0] + amps
    grid = Grid(args.half_length, args.n)
    rows, context = blowup_scan(
        args.alpha,
        amps,
        grid=grid,
        dt=args.dt,
        t_end_super=args.t_end,
    )
    write_scan(args.out, rows, context)
    n_trip = sum(r.tripped for r in rows)
    print(f"scan alpha={args.alpha}: {len(rows)} rows, {n_trip} tripped -> {args.out}")
    bad_sign = [r for r in rows if not r.sign_relation_ok]
    if bad_sign:
        print(f"WARNING: {len(bad_sign)} rows violate the E<0 => beta>0 relation")
    if not context["structure_ok"]:
        print("WARNING: the structure of L (one negative even mode chi0, kernel Q') is not "
              "certified: " + "; ".join(context["notes"]))
    return EXIT_OK


def _cmd_liouville_probe(args):
    gs, chi0 = _read_state_and_chi0(args.state, args.chi0)
    grid = gs.grid
    qp = gs.derivative()
    w0 = np.exp(-((grid.x / PROBE_WIDTH) ** 2))
    for basis in (chi0 / grid.norm_l2(chi0), qp / grid.norm_l2(qp)):
        w0 = w0 - grid.inner(w0, basis) * basis
    rec = evolve_linearized(gs, w0, args.t_end, args.dt)
    r = liouville_readout(gs, rec, PROBE_WINDOW)
    base = args.out
    write_csv(
        base + ".csv",
        ("t", "l2", "sobolev", "local_mass", "local_mass_deflated", "free_local_mass"),
        zip(rec.times, r.l2, r.sobolev, r.local_mass, r.local_mass_defl, r.free_local_mass),
    )
    secular_fraction = float(1.0 - r.local_mass_defl[-1] / max(r.local_mass[-1], 1e-300))
    free = r.free_local_mass
    write_json(
        base + ".json",
        {
            "kind": "liouville_probe",
            "alpha": gs.alpha,
            "grid": grid,
            "window": PROBE_WINDOW,
            "t_end": args.t_end,
            "dt": args.dt,
            "free_flow_decayed": bool(free[-1] < free[0]),
            "full_flow_window_growth": float(r.local_mass[-1] / r.local_mass[0]),
            "secular_fraction": secular_fraction,
            "final_tail_fraction": grid.spectral_tail_fraction(grid.transform(rec.states[-1])),
        },
    )
    print(f"liouville probe: full-flow window mass x{r.local_mass[-1]/r.local_mass[0]:.3g}, "
          f"free baseline x{free[-1]/free[0]:.3g} over t={args.t_end} -> {base}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------------


def _apply_config_defaults(args_list):
    """If --config FILE or --config=FILE appears, use the entries of FILE, a
    JSON object or one whose "parameters" is one, as defaults (flags still win)."""
    i = next((i for i, a in enumerate(args_list) if a.split("=", 1)[0] == "--config"), None)
    if i is None:
        return args_list
    inline = "=" in args_list[i]
    if not inline and i + 1 == len(args_list):
        raise ConfigError("--config needs a file argument")
    path = args_list[i].split("=", 1)[1] if inline else args_list[i + 1]
    with open(path) as fh:
        payload = json.load(fh)
    params = payload.get("parameters", payload) if isinstance(payload, dict) else payload
    if not isinstance(params, dict):
        raise ConfigError(f'config {path} must be a JSON object, or hold one under "parameters"')
    out = list(args_list[:i]) + list(args_list[i + (1 if inline else 2) :])
    # a flag given bare or as --flag=value beats the config entry
    present = {a.split("=", 1)[0] for a in out if a.startswith("--")}
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if flag not in present and value is not None:  # a null entry leaves the flag's default
            if isinstance(value, bool):
                if value:
                    out.append(flag)
            else:
                # an object or a list goes on as JSON, the form its flag parses
                text = json.dumps(value) if isinstance(value, (dict, list)) else str(value)
                out.extend([flag, text])
    return out


def build_parser():
    p = argparse.ArgumentParser(prog="dgbo", description=__doc__)
    p.add_argument("--version", action="version", version=f"dgbo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ground-state", help="compute and certify a ground state")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--half-length", type=float, default=200.0)
    g.add_argument("--n", type=int, default=4096)
    g.add_argument("--ladder-step", type=float, default=LADDER_STEP)
    g.add_argument("--out", default="ground_state")
    g.set_defaults(func=_cmd_ground_state)

    e = sub.add_parser("evolve", help="time-integrate from a perturbed ground state")
    e.add_argument("--state", required=True)
    e.add_argument("--t-end", type=float, default=1.0)
    e.add_argument("--dt", type=float, default=1e-4)
    e.add_argument("--sign", choices=["focusing", "defocusing"], default="focusing")
    e.add_argument("--checkpoint-every", type=int, default=100)
    e.add_argument("--perturbation", default=None, help="JSON perturbation spec")
    e.add_argument("--rng-seed", type=int, default=0)
    e.add_argument("--out", default="run")
    e.set_defaults(func=_cmd_evolve)

    s = sub.add_parser("spectrum", help="matrix-free structural certificate of the linearized operator")
    s.add_argument("--state", required=True)
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
    b.add_argument("--t-end", type=float, default=T_END_SUPER)
    b.add_argument("--out", default="scan")
    b.set_defaults(func=_cmd_blowup_scan)

    lp = sub.add_parser("liouville-probe", help="localization decay of the linearized flow")
    lp.add_argument("--state", required=True)
    lp.add_argument("--chi0", required=True)
    lp.add_argument("--t-end", type=float, default=5.0)
    lp.add_argument("--dt", type=float, default=1e-3)
    lp.add_argument("--out", default="liouville")
    lp.set_defaults(func=_cmd_liouville_probe)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_defaults(argv))
        return args.func(args)
    except (ConfigError, ContractError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DecompositionError as exc:
        print(f"modulation error (left the soliton tube): {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except DgboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
