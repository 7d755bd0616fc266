"""Time integration of u_t - dx |D|^alpha u +/- |u|^{2 alpha} u_x = 0.

The linear group exp(i t k |k|^alpha) is applied exactly in Fourier space;
the nonlinear term is advanced with the four-stage exponential integrator of
Cox & Matthews, coefficients evaluated by contour averaging (Kassam &
Trefethen). Products are formed on a padded grid and a smooth exponential
high-k filter is applied once per step. ``evolve_batch`` advances runs that
share a config but for t_end as one stack of spectra, each row with the bits
it would have alone.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError
from .spectral import Grid, _check_alpha

STATUS_COMPLETED = "completed"
STATUS_DIVERGED = "diverged"
STATUS_RESOLUTION_LOST = "resolution_lost"

N_CONTOUR = 32     # contour points of the ETDRK4 coefficient averages
TAIL_ENERGY_LIMIT = 1e-6  # spectral tail fraction beyond which a run has lost resolution


@dataclass
class EvolutionConfig:
    alpha: float
    dt: float
    t_end: float
    sign: str = "focusing"          # focusing: +|u|^{2a} u_x in the equation
    filter_strength: float = 1.0    # scales the exp(-36 (|k|/kmax)^36) exponent
    checkpoint_every: int = 100
    frame_speed: float = 0.0        # observe in x - frame_speed * t
    linf_ceiling: float = 1e4
    store_states: bool = False

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.dt <= 0 or self.t_end <= 0:
            raise ContractError("dt and t_end must be positive")
        if self.sign not in ("focusing", "defocusing"):
            raise ContractError(f"sign must be focusing|defocusing, got {self.sign!r}")
        if self.checkpoint_every < 1:
            raise ContractError("checkpoint_every must be >= 1")

    def stability_margin(self, grid: Grid) -> float:
        """dt * kmax^(alpha+1): linear phase rotation per step (recorded, not enforced)."""
        return self.dt * grid.k_max ** (self.alpha + 1.0)


@dataclass
class Diagnostics:
    t: float
    mass: float
    energy: float
    mean: float
    sobolev_norm: float
    linf: float

    def is_finite(self):
        return all(
            np.isfinite(v) for v in (self.mass, self.energy, self.mean, self.sobolev_norm, self.linf)
        )


@dataclass
class RunRecord:
    config: EvolutionConfig
    grid: Grid
    samples: list = field(default_factory=list)       # Diagnostics, strictly increasing t
    states: list = field(default_factory=list)        # (t, values) checkpoints when stored
    final_state: np.ndarray | None = None
    final_t: float = 0.0
    status: str = STATUS_COMPLETED
    status_t: float | None = None

    def column(self, name):
        return np.array([getattr(d, name) for d in self.samples])


def conserved(grid: Grid, u, alpha: float, t: float = 0.0) -> Diagnostics:
    """Mass, energy, mean, H^{alpha/2} norm and sup norm of a field."""
    u = grid.check_field(u)
    mass = grid.inner(u, u)
    grad2 = grid.sobolev_seminorm_sq(u, alpha)
    p = 2.0 * alpha + 2.0
    energy = grad2 - grid.quadrature(np.abs(u) ** p) / ((alpha + 1.0) * (2.0 * alpha + 1.0))
    return Diagnostics(
        t=t,
        mass=mass,
        energy=energy,
        mean=grid.quadrature(u),
        sobolev_norm=float(np.sqrt(mass + grad2)),
        linf=float(np.max(np.abs(u))),
    )


def _abs_power_into(v, p: float):
    """|v|^p, by multiplication when p = 2 alpha is an integer (2, 3 or 4).

    v is overwritten where it can hold the result; the result is returned.
    """
    if p == 4.0:
        v *= v
        v *= v
        return v
    if p == 2.0:
        v *= v
        return v
    r = np.abs(v)
    if p == 3.0:
        r *= v
        r *= v
    else:
        r **= p
    return r


def _padded_flux(grid: Grid, F, alpha: float, weight):
    """Spectrum of |u|^{2 alpha} u_x times a multiplier, products formed in
    place on the padded grid.

    F may stack spectra along leading axes. ``weight``, from
    ``grid.truncation``, folds the multiplier into the truncation.
    """
    v, vx = grid.fine_pair(F)
    w = _abs_power_into(v, 2.0 * alpha)
    w *= vx
    return grid.coarse(w, weight)


class Stepper:
    """ETDRK4 (Cox & Matthews) for F_t = symbol * F + nonlinear(F) in Fourier space.

    The phi-function coefficients are averaged over a circle of contour points
    around each dt * symbol (Kassam & Trefethen), which stays accurate where
    dt * symbol is near zero. ``filter``, when given, multiplies every step.
    """

    def __init__(self, symbol, dt: float, nonlinear, filter=None):
        z = dt * symbol
        r = np.exp(2j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR)
        zc = z[:, None] + r[None, :]
        ez = np.exp(zc)
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        self.Q = dt * np.mean((np.exp(zc / 2.0) - 1.0) / zc, axis=1)
        self.f1 = dt * np.mean((-4.0 - zc + ez * (4.0 - 3.0 * zc + zc**2)) / zc**3, axis=1)
        self.f2 = dt * np.mean((2.0 + zc + ez * (zc - 2.0)) / zc**3, axis=1)
        self.f3 = dt * np.mean((-4.0 - 3.0 * zc - zc**2 + ez * (4.0 - zc)) / zc**3, axis=1)
        self.nonlinear = nonlinear
        self.filter = filter

    def step_spectrum(self, F):
        Nv = self.nonlinear(F)
        e2f = self.E2 * F
        a = e2f + self.Q * Nv
        Na = self.nonlinear(a)
        b = e2f + self.Q * Na
        Nb = self.nonlinear(b)
        c = self.E2 * a + self.Q * (2.0 * Nb - Nv)
        Nc = self.nonlinear(c)
        out = self.E * F + self.f1 * Nv + 2.0 * self.f2 * (Na + Nb) + self.f3 * Nc
        if self.filter is not None:
            out = out * self.filter
        return out


def flow_stepper(grid: Grid, cfg: EvolutionConfig) -> Stepper:
    """The ETDRK4 update of the dgBO flow for a fixed (grid, config).

    The update acts on one spectrum or on a stack of them, row by row.
    """
    sym = grid.multiplier(cfg.alpha, "dispersion") + cfg.frame_speed * grid.ik
    nl_sign = -1.0 if cfg.sign == "focusing" else +1.0
    # -sign times the flux, its zero mode pinned to the exact value 0 (the
    # flux is a perfect derivative), folded into the truncation's multiply
    weight = grid.truncation(nl_sign * (grid.k != 0.0))

    def nonlinear(F):
        """Spectrum of -sign * |u|^{2a} u_x, zero mode pinned to its exact value 0."""
        return _padded_flux(grid, F, cfg.alpha, weight)

    filt = None
    if cfg.filter_strength > 0.0:
        ka = np.abs(grid.k)
        filt = np.exp(-36.0 * cfg.filter_strength * (ka / ka.max()) ** 36)
    return Stepper(sym, cfg.dt, nonlinear, filt)


def _checkpoint(grid: Grid, F, t: float, rec: RunRecord, observer) -> bool:
    """Diagnostics, status checks and observer of one run at time t; True when it stops."""
    cfg = rec.config
    u = grid.field(F)
    d = conserved(grid, u, cfg.alpha, t=t)
    rec.samples.append(d)
    if cfg.store_states:
        rec.states.append((t, u.copy()))
    rec.final_state, rec.final_t = u, t
    if not d.is_finite() or d.linf > cfg.linf_ceiling:
        rec.status, rec.status_t = STATUS_DIVERGED, t
    elif grid.spectral_tail_fraction(F) > TAIL_ENERGY_LIMIT:
        rec.status, rec.status_t = STATUS_RESOLUTION_LOST, t
    else:
        return observer is not None and bool(observer(t, u, rec))
    return True


def evolve_batch(grid: Grid, u0s, cfgs, observers=None) -> list[RunRecord]:
    """Evolve several runs as one stack of spectra; one RunRecord per run.

    The configs must agree in everything but ``t_end`` (ContractError
    otherwise), so that one stepper advances every row. Each run keeps its
    own checkpoints, status checks and observer, exactly as ``evolve`` would
    give it alone, and leaves the stack when it stops or reaches its t_end.
    """
    u0s = [grid.check_field(u) for u in u0s]
    cfgs = list(cfgs)
    observers = [None] * len(u0s) if observers is None else list(observers)
    if not len(cfgs) == len(observers) == len(u0s):
        raise ContractError("need one config and one observer entry per initial field")
    if not u0s:
        return []
    cfg = cfgs[0]
    if any(replace(c, t_end=cfg.t_end) != cfg for c in cfgs):
        raise ContractError("the runs of one batch may differ only in t_end")
    st = flow_stepper(grid, cfg)
    recs = [RunRecord(config=c, grid=grid) for c in cfgs]
    n_steps = [int(round(c.t_end / c.dt)) for c in cfgs]
    for rec, u0 in zip(recs, u0s):
        rec.samples.append(conserved(grid, u0, cfg.alpha, t=0.0))
        if cfg.store_states:
            rec.states.append((0.0, u0.copy()))
    F = grid.transform(np.stack(u0s))
    for r in range(len(recs)):
        if n_steps[r] == 0:
            recs[r].final_state = grid.field(F[r])
    live = [r for r in range(len(recs)) if n_steps[r] > 0]  # the run of each row of F
    F = F[live]
    i = 0
    while live:
        i += 1
        F = st.step_spectrum(F)
        keep = []
        for j, r in enumerate(live):
            if i % cfg.checkpoint_every == 0 or i == n_steps[r]:
                if _checkpoint(grid, F[j], i * cfg.dt, recs[r], observers[r]) or i == n_steps[r]:
                    continue  # the run stopped here or reached its t_end
            keep.append(j)
        if len(keep) < len(live):
            F = F[keep]
            live = [live[j] for j in keep]
    return recs


def evolve(grid: Grid, u0, cfg: EvolutionConfig, observer=None) -> RunRecord:
    """Run to t_end or a divergence/resolution flag, sampling diagnostics.

    ``observer(t, u, record)`` is called at every checkpoint and may return
    True to stop the run early (recorded as completed at that time). This is
    the one-run case of ``evolve_batch``.
    """
    return evolve_batch(grid, [u0], [cfg], [observer])[0]
