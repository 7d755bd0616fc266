"""Blow-up indicator scans over amplitudes of soliton initial data.

``blowup_scan`` evolves a*Q (optionally perturbed) for each amplitude a and
records, per row, the mass excess, the energy sign and which divergence
indicator tripped; ``write_scan`` stores the rows as a byte-stable CSV with a
JSON header. ``build_initial_data`` is the perturbation vocabulary shared
with the ``evolve`` subcommand.
"""

import math
import numbers
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .artifacts import write_csv, write_json, write_plot_script
from .dynamics import STATUS_COMPLETED, EvolutionConfig, conserved, evolve_batch
from .errors import ContractError, DecompositionError
from .ground_state import continuation_ladder
from .linearized import assemble, spectrum
from .modulation import beta as beta_fn
from .modulation import decompose
from .spectral import Grid

LAM_STOP = 0.75      # a row trips when the modulation scale contracts below this
LAM_NET_SLACK = 1e-9  # relative slack of lambda's net comparison, above decompose's ~2e-11 noise
SOBOLEV_TRIP = 1.3   # ... or when its H^{alpha/2} norm grows by more than this factor
CHECKPOINT_EVERY = 100  # steps between the checkpoints of a scan row
# the perturbation vocabulary: a number, or an object of numbers under the listed keys
PERTURBATION_KEYS = {"scale": None, "translate": None,
                     "bump": ("amplitude", "width", "offset"), "noise": ("band", "amplitude")}


def _check_recipe(recipe):
    """ContractError unless ``recipe`` is an object of PERTURBATION_KEYS whose
    entries are finite numbers (objects of them, under the listed keys, for
    bump and noise)."""
    if not isinstance(recipe, dict):
        raise ContractError(f"a perturbation is a JSON object, got {recipe!r}")
    entries = []
    for key, value in recipe.items():
        if key not in PERTURBATION_KEYS:
            raise ContractError(f"unknown perturbation key {key!r}; "
                                f"known: {list(PERTURBATION_KEYS)}")
        sub = PERTURBATION_KEYS[key]
        if sub is None:
            entries.append((key, value))
        elif isinstance(value, dict) and set(value) <= set(sub):
            entries += [(f"{key}.{name}", v) for name, v in value.items()]
        else:
            raise ContractError(f"perturbation {key!r} is an object with keys among {list(sub)}, "
                                f"got {value!r}")
    for name, v in entries:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ContractError(f"perturbation entry {name} must be a finite number, got {v!r}")


def build_initial_data(grid: Grid, gs, recipe: dict, rng):
    """Perturbation vocabulary: scale, translate, gaussian bump, band noise
    (PERTURBATION_KEYS; anything else raises ``ContractError``)."""
    _check_recipe(recipe)
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
        F = rng.standard_normal(len(grid.k)) + 1j * rng.standard_normal(len(grid.k))
        F[grid.k > band * grid.k_max] = 0.0
        F[0] = 0.0
        w = grid.field(F)
        peak = np.max(np.abs(w))
        if peak > 0:
            u = u + amp * w / peak
    return u


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
        return self.status == STATUS_COMPLETED and not self.tripped


SCAN_COLUMNS = tuple(f.name for f in fields(ScanRow))


class _RowWatch:
    """The divergence indicators of one scan row, as an ``evolve`` observer.

    While the row stays in the modulation tube, each checkpoint is decomposed
    (warm-started from the previous one) and lambda is recorded; the row
    trips on lambda below LAM_STOP or on H^{alpha/2} growth beyond
    SOBOLEV_TRIP.
    """

    def __init__(self, gs, chi0, u0, d0):
        self.gs, self.chi0, self.d0 = gs, chi0, d0
        self.guess = (1.0, float(gs.grid.x[int(np.argmax(np.abs(u0)))]))
        self.lam_hist = []
        self.trip_time, self.trip_reason = None, ""
        self.inside, self.exit_t = True, None

    def __call__(self, t, u, rec):
        if self.inside:
            try:
                st = decompose(u, self.gs, self.chi0, guess=self.guess)
                self.guess = (st.lam, st.rho)
                self.lam_hist.append(st.lam)
                if st.lam < LAM_STOP:
                    self.trip_time, self.trip_reason = t, "lambda_contraction"
                    return True
            except DecompositionError:
                self.inside, self.exit_t = False, t
        d = rec.samples[-1]
        if d.sobolev_norm > SOBOLEV_TRIP * self.d0.sobolev_norm:
            self.trip_time, self.trip_reason = t, "sobolev_growth"
            return True
        return False


def lambda_monotone(lam_vals) -> bool:
    """True when a lambda track rises by at most 0.5 % per checkpoint and ends
    no higher than it started, up to LAM_NET_SLACK relative."""
    lam = np.asarray(lam_vals, dtype=float)
    return bool(np.all(np.diff(lam) <= 5e-3 * lam[:-1])
                and lam[-1] <= lam[0] * (1.0 + LAM_NET_SLACK))


def blowup_scan(
    alpha: float,
    amplitudes,
    *,
    grid: Grid | None = None,
    dt: float = 5e-4,
    t_end_super: float = 80.0,
    t_end_bounded: float = 20.0,
    rng_seed: int = 0,
    perturbation: dict | None = None,
):
    """Scan a*Q initial data; a divergence indicator on a row is a finding.

    Divergence indicators: modulation-scale contraction below LAM_STOP,
    H^{alpha/2} growth beyond SOBOLEV_TRIP, and the solver's own
    diverged/resolution flags. Leaving the modulation tube merely ends the
    lambda tracking (subcritical data disperses away from the family); it is
    recorded but is not an indicator. Runs are observed in the frame moving
    at the unit soliton speed so the scan box can stay small. Rows not
    certified supercritical run to ``min(t_end_bounded, t_end_super)``. The
    decomposition's chi0 comes from the matrix-free ``spectrum`` of the
    ground state; the context records its structure certificate under the
    keys of the spectrum artifact. A failed certificate is recorded, not raised.
    ``perturbation``, in the vocabulary of ``build_initial_data``, applies to
    every row; it may not set ``scale``, the scan's axis (``ContractError``).
    """
    if not all(0 < v < np.inf for v in (dt, t_end_super, t_end_bounded)):
        raise ContractError("dt, t_end_super and t_end_bounded must be finite and positive")
    perturbation = {} if perturbation is None else perturbation
    _check_recipe(perturbation)
    if "scale" in perturbation:
        raise ContractError("a scan's perturbation may not set scale: the amplitude is the scan's axis")
    grid = grid if grid is not None else Grid(48.0, 1024)
    t_end_bounded = min(t_end_bounded, t_end_super)
    gs = continuation_ladder(alpha, grid)
    rep = spectrum(assemble(gs))
    # E(Q) vanishes analytically; its discrete value sets the resolution floor
    # below which an energy sign is not certifiable on this grid
    energy_floor = 10.0 * abs(conserved(grid, gs.values, alpha).energy) + 1e-12
    rng = np.random.default_rng(rng_seed)
    starts, cfgs, watches = [], [], []
    for a in amplitudes:
        u0 = build_initial_data(grid, gs, {"scale": a, **perturbation}, rng)
        d0 = conserved(grid, u0, alpha)
        supercritical = d0.energy < -energy_floor
        starts.append((a, u0, d0, supercritical))
        cfgs.append(EvolutionConfig(
            alpha=alpha,
            dt=dt,
            t_end=t_end_super if supercritical else t_end_bounded,
            frame_speed=1.0,
            checkpoint_every=CHECKPOINT_EVERY,
        ))
        watches.append(_RowWatch(gs, rep.chi0, u0, d0))
    recs = evolve_batch(grid, [u0 for _, u0, _, _ in starts], cfgs, watches)
    rows = []
    for (a, u0, d0, supercritical), rec, w in zip(starts, recs, watches):
        b = beta_fn(u0, gs)
        if rec.status != STATUS_COMPLETED and w.trip_time is None:
            w.trip_time, w.trip_reason = rec.status_t, rec.status
        lam_vals = np.array(w.lam_hist) if w.lam_hist else np.array([1.0])
        lam_min = float(np.min(lam_vals))
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
                lambda_monotone=lambda_monotone(lam_vals),
                sobolev_growth=float(np.max(sob) / sob[0]),
                linf_growth=float(np.max(linf) / linf[0]),
                trip_time=w.trip_time,
                trip_reason=w.trip_reason,
                tripped=w.trip_time is not None,
                tube_exit_t=w.exit_t,
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
        "lam_stop": LAM_STOP,
        "energy_floor": energy_floor,
        "sobolev_trip": SOBOLEV_TRIP,
        "rng_seed": rng_seed,
        "ground_state_residual": gs.residual,
        "structure_ok": rep.structure_ok,
        "inertia": rep.inertia,
        "chi0_resolved": rep.chi0_resolved,
        "mu0": rep.mu0,
        "max_eig_residual": rep.max_eig_residual,
        "chi0_iterations": rep.chi0_iterations,
        "notes": rep.notes,
    }
    return rows, context


def write_scan(out_dir, rows, context):
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "scan.json"), {"kind": "blowup_scan", **context})
    write_plot_script(
        os.path.join(out_dir, "plot.gp"), "scan.csv",
        ("amplitude",), title="blow-up indicators",
        indices=[2, 3, 6, 8],  # beta, energy, lambda_min, sobolev_growth
    )
    write_csv(os.path.join(out_dir, "scan.csv"), SCAN_COLUMNS, (astuple(r) for r in rows))
