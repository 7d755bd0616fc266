"""On-disk artifact formats.

Fields are raw little-endian float64 arrays (``.f64``) with a JSON sidecar
carrying the grid and provenance; time series are CSV with ``%.17g`` floats
(bit-stable for identical runs); every artifact directory gets a JSON header
echoing the producing configuration.
"""

import json
import os
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .dynamics import FILTER_STRENGTH, LINF_CEILING, Diagnostics, RunRecord
from .errors import ContractError
from .ground_state import GroundState, Rung
from .linearized import SpectrumReport
from .modulation import ModulationTrack
from .monotonicity import WINDOW_FRACTION
from .spectral import Grid

FLOAT_FMT = "%.17g"


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_, str)):
        return str(v)
    return FLOAT_FMT % float(v)


def write_csv(path, columns, rows):
    """Header line, then one line per row: floats as FLOAT_FMT, None as an empty
    cell, bools and strings as str()."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def read_csv(path, columns):
    """The rows of a CSV file with header ``columns``, each cell parsed with float."""
    with open(path) as fh:
        header = tuple(fh.readline().strip().split(","))
        if header != tuple(columns):
            raise ContractError(f"unexpected columns {list(header)} in {path}")
        return [[float(v) for v in line.strip().split(",")] for line in fh]


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Grid):
        return {"half_length": obj.half_length, "n_points": obj.n}
    return obj


def write_json(path, payload):
    """Strict JSON: a NaN or infinity raises ContractError before the file is opened."""
    payload = dict(payload)
    payload.setdefault("format_version", 1)
    payload.setdefault("package_version", __version__)
    try:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ContractError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- fields -----------------------------------------------------------------


def write_field(base, grid: Grid, values, **meta):
    """base.f64 (little-endian float64) plus base.json sidecar."""
    arr = np.asarray(values, dtype="<f8")
    if arr.shape != (grid.n,):
        raise ContractError("field length does not match grid")
    with open(base + ".f64", "wb") as fh:
        fh.write(arr.tobytes())
    write_json(base + ".json", {"grid": grid, "kind": meta.pop("kind", "field"), **meta})


def read_field(base):
    meta = read_json(base + ".json")
    g = meta["grid"]
    grid = Grid(g["half_length"], g["n_points"])
    with open(base + ".f64", "rb") as fh:
        values = np.frombuffer(fh.read(), dtype="<f8").copy()
    if values.shape != (grid.n,):
        raise ContractError(f"field file length {values.shape} does not match sidecar grid")
    return grid, values, meta


# -- ground states ------------------------------------------------------------


def write_ground_state(base, gs: GroundState):
    write_field(base, gs.grid, gs.values, kind="ground_state", alpha=gs.alpha)
    cert = {
        "alpha": gs.alpha,
        "grid": gs.grid,
        "iterations": gs.iterations,
        "residual_l2": gs.residual,
        "sup_diff": gs.sup_diff,
        "pohozaev_residuals": list(gs.pohozaev_residuals),
        "mass": gs.mass(),
        "ladder": gs.ladder,
    }
    write_json(base + ".cert.json", cert)


def read_ground_state(base) -> GroundState:
    grid, values, _meta = read_field(base)
    cert = read_json(base + ".cert.json")
    return GroundState(
        alpha=cert["alpha"],
        grid=grid,
        values=values,
        iterations=cert["iterations"],
        residual=cert["residual_l2"],
        sup_diff=cert["sup_diff"],
        pohozaev_residuals=tuple(cert["pohozaev_residuals"]),
        ladder=tuple(Rung(**r) for r in cert.get("ladder", ())),
    )


# -- run records ---------------------------------------------------------------


RUN_COLUMNS = ("t", "mass", "energy", "mean", "sobolev", "linf")


def write_plot_script(path, csv_name, columns, title, indices=None):
    """Small gnuplot script plotting CSV columns against the first.

    ``indices`` selects 1-based file columns when the CSV interleaves
    non-numeric fields; by default every column after the first is plotted.
    """
    if indices is None:
        indices = list(range(2, len(columns) + 1))
    lines = [
        "# gnuplot script; run from this directory",
        "set datafile separator ','",
        "set key autotitle columnhead outside",
        f"set title '{title}'",
        f"set xlabel '{columns[0]}'",
        "plot " + ", \\\n     ".join(
            f"'{csv_name}' using 1:{i} with lines" for i in indices
        ),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_run(run_dir, record: RunRecord, header_extra):
    os.makedirs(run_dir, exist_ok=True)
    header = {
        "kind": "run",
        "config": record.config,
        "grid": record.grid,
        "status": record.status,
        "status_t": record.status_t,
        "final_t": record.final_t,
        "linf_ceiling": LINF_CEILING,
        "filter_strength": FILTER_STRENGTH,
        "n_samples": len(record.samples),
        "n_states": len(record.states),
        **header_extra,
    }
    write_json(os.path.join(run_dir, "header.json"), header)
    write_csv(
        os.path.join(run_dir, "series.csv"), RUN_COLUMNS,
        ((d.t, d.mass, d.energy, d.mean, d.sobolev_norm, d.linf) for d in record.samples),
    )
    if record.states:
        sdir = os.path.join(run_dir, "states")
        os.makedirs(sdir, exist_ok=True)
        for i, (t, u) in enumerate(record.states):
            write_field(
                os.path.join(sdir, f"state_{i:06d}"), record.grid, u,
                kind="checkpoint", t=t, alpha=record.config.alpha,
            )
    if record.final_state is not None:
        write_field(
            os.path.join(run_dir, "final"), record.grid, record.final_state,
            kind="final", t=record.final_t, alpha=record.config.alpha,
        )
    write_plot_script(
        os.path.join(run_dir, "plot.gp"), "series.csv", RUN_COLUMNS,
        title="conserved quantities and norms",
    )


def read_run(run_dir):
    """Header, diagnostics samples, and checkpointed states of a stored run."""
    header = read_json(os.path.join(run_dir, "header.json"))
    rows = read_csv(os.path.join(run_dir, "series.csv"), RUN_COLUMNS)
    samples = [Diagnostics(*row) for row in rows]
    states = []
    grid = None
    sdir = os.path.join(run_dir, "states")
    if os.path.isdir(sdir):
        for name in sorted(os.listdir(sdir)):
            if name.endswith(".f64"):
                grid, values, meta = read_field(os.path.join(sdir, name[:-4]))
                states.append((meta["t"], values))
    return header, samples, states, grid


# -- spectrum -------------------------------------------------------------------


def spectrum_certificate(report: SpectrumReport) -> dict:
    """The structure certificate of ``report`` under ``.spectrum.json``'s key
    names, which the blow-up scan's header shares."""
    edge = report.essential_edge_estimate  # -inf when an inertia count is capped: no bound
    return {
        "mu0": report.mu0,
        "lowest_eigenvalues": report.eigenvalues,
        "inertia": report.inertia,
        "kernel_tol": report.kernel_tol,
        "near_kernel_eigenvalues": [ev for ev, _ in report.near_kernel],
        "essential_edge_estimate": edge if np.isfinite(edge) else None,
        "qprime_cosine": report.qprime_cosine,
        "chi0_even_defect": report.chi0_even_defect,
        "parity_gap": report.parity_gap,
        "chi0_resolved": report.chi0_resolved,
        "chi0_iterations": report.chi0_iterations,
        "max_eig_residual": report.max_eig_residual,
        "structure_ok": report.structure_ok,
        "notes": report.notes,
    }


def write_spectrum(base, report: SpectrumReport):
    write_field(base + ".chi0", report.grid, report.chi0, kind="chi0", alpha=report.alpha)
    for i, (ev, vec) in enumerate(report.near_kernel):
        write_field(base + f".kernel{i}", report.grid, vec, kind="near_kernel", eigenvalue=ev)
    write_json(
        base + ".spectrum.json",
        {"kind": "spectrum", "alpha": report.alpha, "grid": report.grid,
         **spectrum_certificate(report)},
    )


def read_chi0(base):
    """Grid, values and alpha of a stored chi0."""
    grid, values, meta = read_field(base + ".chi0")
    return grid, values, meta["alpha"]


# -- modulation tracks -----------------------------------------------------------


TRACK_COLUMNS = (
    "t", "s", "lambda", "rho", "eta_l2", "eta_sobolev", "eta_weighted", "dlambda_rel", "drho_rel",
)


def write_track(base, record: ModulationTrack, header_extra):
    header = {
        "kind": "modulation_track",
        "alpha": record.alpha,
        "fitted_c": record.fitted_c,
        "truncated": record.truncated,
        "truncated_at": record.truncated_at,
        "n_frames": len(record.t),
        # weighted remainder (int eta^2/(1+y^2))^{1/2}: sharper control
        # quantity than the plain L2 norm; logged for comparison
        "eta_weighted_max": float(np.max(record.eta_weighted)) if len(record.t) else 0.0,
        "eta_l2_max": float(np.max(record.eta_l2)) if len(record.t) else 0.0,
        **header_extra,
    }
    write_json(base + ".json", header)
    write_csv(base + ".csv", TRACK_COLUMNS, zip(
        record.t, record.s, record.lam, record.rho,
        record.eta_l2, record.eta_sobolev, record.eta_weighted, record.dlam_rel, record.drho_rel,
    ))
    write_plot_script(
        base + ".gp", os.path.basename(base) + ".csv", TRACK_COLUMNS,
        title="modulation parameters",
    )


def read_track(base) -> ModulationTrack:
    """The stored track; ``check_eta_monotonicity`` rebuilds its remainders
    from the run's states at the stored (lambda, rho)."""
    header = read_json(base + ".json")
    rows = np.array(read_csv(base + ".csv", TRACK_COLUMNS)).reshape(-1, len(TRACK_COLUMNS))
    t, s, lam, rho, eta_l2, eta_sob, eta_w, dlam, drho = rows.T
    return ModulationTrack(
        alpha=header["alpha"], t=t, s=s, lam=lam, rho=rho,
        eta_l2=eta_l2, eta_sobolev=eta_sob, eta_weighted=eta_w,
        dlam_rel=dlam, drho_rel=drho, fitted_c=header["fitted_c"],
        truncated=header["truncated"], truncated_at=header["truncated_at"],
    )


# -- monotonicity reports ----------------------------------------------------------


def write_monotonicity(path, reports, header_extra):
    payload = {
        "kind": "monotonicity",
        "reports": [
            {
                "check": r.kind,
                "x0": r.x0,
                "mu": r.mu,
                "r": r.r,
                "A": r.A,
                "c0": r.c0,
                "pairs": r.pairs,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "slack": r.slack,
                "error_budget": r.error_budget,
                "verdicts": r.verdicts.astype(bool),
                "all_true": r.all_true,
                "window_fraction": WINDOW_FRACTION,
            }
            for r in reports
        ],
        **header_extra,
    }
    write_json(path, payload)
