"""Time integration of u_t - dx |D|^alpha u +/- |u|^{2 alpha} u_x = 0.

The linear group exp(i t k |k|^alpha) is applied exactly in Fourier space;
the nonlinear term is advanced with the four-stage exponential integrator of
Cox & Matthews, coefficients evaluated by contour averaging (Kassam &
Trefethen). The nonlinear term is taken in conservation form,
|u|^{2 alpha} u_x = dx(|u|^{2 alpha} u) / (2 alpha + 1): the product comes from
one inverse transform of u on a padded grid, and its truncation applies dx,
so the mean is conserved with no special case. A smooth exponential high-k
filter is applied once per step. ``evolve_batch`` advances runs that
share a config but for t_end as one stack of spectra, each row with the bits
it would have alone, in ``_step_rows``: the one time loop of either flow.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError
from .spectral import Grid, _abs_power_times, _check_alpha

STATUS_COMPLETED = "completed"
STATUS_DIVERGED = "diverged"
STATUS_RESOLUTION_LOST = "resolution_lost"

N_CONTOUR = 32     # contour points of the ETDRK4 coefficient averages
TAIL_ENERGY_LIMIT = 1e-6  # spectral tail fraction beyond which a run has lost resolution
LINF_CEILING = 1e4  # a checkpoint with sup |u| above this has diverged
FILTER_STRENGTH = 1.0  # scales the exp(-36 (|k|/kmax)^36) exponent of the high-k filter


def _step_count(dt: float, t_end: float, checkpoint_every: int) -> int:
    """round(t_end / dt), once dt and t_end are finite and positive and
    checkpoint_every is at least 1 (ContractError otherwise)."""
    if not (0 < dt < np.inf and 0 < t_end < np.inf):
        raise ContractError("dt and t_end must be finite and positive")
    if checkpoint_every < 1:
        raise ContractError("checkpoint_every must be >= 1")
    return int(round(t_end / dt))


@dataclass
class EvolutionConfig:
    alpha: float
    dt: float
    t_end: float
    checkpoint_every: int
    sign: str = "focusing"          # focusing: +|u|^{2a} u_x in the equation
    frame_speed: float = 0.0        # observe in x - frame_speed * t
    store_states: bool = False

    def __post_init__(self):
        _check_alpha(self.alpha)
        _step_count(self.dt, self.t_end, self.checkpoint_every)
        if self.sign not in ("focusing", "defocusing"):
            raise ContractError(f"sign must be focusing|defocusing, got {self.sign!r}")


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


def _padded_flux(grid: Grid, F, alpha: float, weight):
    """Spectrum of |u|^{2 alpha} u times a multiplier, the product formed on
    the padded grid.

    F may stack spectra along leading axes. ``weight``, from
    ``grid.truncation``, folds the multiplier into the truncation; the
    multiplier ik / (2 alpha + 1) gives |u|^{2 alpha} u_x in conservation form.
    """
    return grid.coarse(_abs_power_times(grid.fine(F), 2.0 * alpha), weight)


class Stepper:
    """ETDRK4 (Cox & Matthews) for F_t = symbol * F + nonlinear(F) in Fourier space.

    The phi-function coefficients are averaged over a circle of contour points
    around each dt * symbol (Kassam & Trefethen), which stays accurate where
    dt * symbol is near zero; the sums run one contour point at a time, so no
    temporary is larger than the symbol. ``filter``, when given, multiplies
    every step.
    """

    def __init__(self, symbol, dt: float, nonlinear, filter=None):
        z = dt * symbol
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        Q, f1, f2, f3 = (np.zeros(z.shape, dtype=complex) for _ in range(4))
        for r in np.exp(2j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR):
            zc = z + r
            ez = np.exp(zc)
            zc3 = zc**3
            Q += (np.exp(zc / 2.0) - 1.0) / zc
            f1 += (-4.0 - zc + ez * (4.0 - 3.0 * zc + zc**2)) / zc3
            f2 += (2.0 + zc + ez * (zc - 2.0)) / zc3
            f3 += (-4.0 - 3.0 * zc - zc**2 + ez * (4.0 - zc)) / zc3
        self.Q = dt * (Q / N_CONTOUR)
        self.f1 = dt * (f1 / N_CONTOUR)
        self.f2 = dt * (f2 / N_CONTOUR)
        self.twice_f2 = 2.0 * self.f2
        self.f3 = dt * (f3 / N_CONTOUR)
        self.nonlinear = nonlinear
        self.filter = filter

    def step_spectrum(self, F):
        """One step of F (a spectrum or a stack of them); F is left unchanged.

        The stages a, b, c and the update
        E F + f1 Nv + 2 f2 (Na + Nb) + f3 Nc are accumulated in two scratch
        arrays and the output. Every product keeps its operands in order and
        every sum its terms in order (or swapped, which IEEE addition allows),
        so the bits are those of the formula written out with temporaries.
        """
        Q = self.Q
        Nv = self.nonlinear(F)
        b = np.multiply(self.E2, F)              # E2 F, then b
        a = np.multiply(Q, Nv)
        a += b                                   # a = E2 F + Q Nv
        Na = self.nonlinear(a)
        tmp = np.multiply(Q, Na)
        b += tmp                                 # b = E2 F + Q Na
        Nb = self.nonlinear(b)
        np.multiply(2.0, Nb, out=tmp)
        tmp -= Nv
        np.multiply(Q, tmp, out=tmp)
        np.multiply(self.E2, a, out=a)
        a += tmp                                 # c = E2 a + Q (2 Nb - Nv)
        Nc = self.nonlinear(a)
        out = np.multiply(self.E, F)
        np.multiply(self.f1, Nv, out=tmp)
        out += tmp
        np.add(Na, Nb, out=tmp)
        np.multiply(self.twice_f2, tmp, out=tmp)
        out += tmp
        np.multiply(self.f3, Nc, out=tmp)
        out += tmp
        if self.filter is not None:
            np.multiply(out, self.filter, out=out)
        return out


def flow_stepper(grid: Grid, cfg: EvolutionConfig) -> Stepper:
    """The ETDRK4 update of the dgBO flow for a fixed (grid, config).

    The update acts on one spectrum or on a stack of them, row by row.
    """
    sym = grid.ik * grid.riesz(cfg.alpha) + cfg.frame_speed * grid.ik
    nl_sign = -1.0 if cfg.sign == "focusing" else +1.0
    # -sign |u|^{2a} u_x = -sign dx(|u|^{2a} u) / (2a + 1), the sign, the
    # factor and dx folded into the truncation's multiply
    weight = grid.truncation(nl_sign / (2.0 * cfg.alpha + 1.0) * grid.ik)

    def nonlinear(F):
        """Spectrum of -sign * |u|^{2a} u_x, from the flux |u|^{2a} u."""
        return _padded_flux(grid, F, cfg.alpha, weight)

    filt = np.exp(-36.0 * FILTER_STRENGTH * (grid.k / grid.k.max()) ** 36)
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
    if not d.is_finite() or d.linf > LINF_CEILING:
        rec.status, rec.status_t = STATUS_DIVERGED, t
    elif grid.spectral_tail_fraction(F) > TAIL_ENERGY_LIMIT:
        rec.status, rec.status_t = STATUS_RESOLUTION_LOST, t
    else:
        return observer is not None and bool(observer(t, u, rec))
    return True


def _step_rows(st: Stepper, F, n_steps, checkpoint_every: int, checkpoint) -> None:
    """Step row r of the stack F n_steps[r] times (none if 0): the one time loop.

    ``checkpoint(r, i, F_r)`` sees row r after every ``checkpoint_every``-th
    step i and after its last, and returns True when the row stops there.
    """
    live = [r for r in range(len(F)) if n_steps[r] > 0]  # the input row of each row of F
    F = F[live]
    i = 0
    while live:
        i += 1
        F = st.step_spectrum(F)
        keep = []
        for j, r in enumerate(live):
            if i % checkpoint_every == 0 or i == n_steps[r]:
                if checkpoint(r, i, F[j]) or i == n_steps[r]:
                    continue  # the row stopped here or took its last step
            keep.append(j)
        if len(keep) < len(live):
            F = F[keep]
            live = [live[j] for j in keep]


def evolve_batch(grid: Grid, u0s, cfgs, observers) -> list[RunRecord]:
    """Evolve several runs as one stack of spectra; one RunRecord per run.

    The configs must agree in everything but ``t_end`` (ContractError
    otherwise), so that one stepper advances every row. Each run keeps its
    own checkpoints, status checks and observer, exactly as ``evolve`` would
    give it alone, and leaves the stack when it stops or reaches its t_end.
    """
    u0s = [grid.check_field(u) for u in u0s]
    cfgs, observers = list(cfgs), list(observers)
    if not len(cfgs) == len(observers) == len(u0s):
        raise ContractError("need one config and one observer entry per initial field")
    if not u0s:
        return []
    cfg = cfgs[0]
    if any(replace(c, t_end=cfg.t_end) != cfg for c in cfgs):
        raise ContractError("the runs of one batch may differ only in t_end")
    st = flow_stepper(grid, cfg)
    recs = [RunRecord(config=c, grid=grid) for c in cfgs]
    n_steps = [_step_count(c.dt, c.t_end, c.checkpoint_every) for c in cfgs]
    for rec, u0 in zip(recs, u0s):
        rec.samples.append(conserved(grid, u0, cfg.alpha, t=0.0))
        if cfg.store_states:
            rec.states.append((0.0, u0.copy()))
    F = grid.transform(np.stack(u0s))
    for r in range(len(recs)):
        if n_steps[r] == 0:
            recs[r].final_state = grid.field(F[r])
    _step_rows(st, F, n_steps, cfg.checkpoint_every,
               lambda r, i, Fr: _checkpoint(grid, Fr, i * cfg.dt, recs[r], observers[r]))
    return recs


def evolve(grid: Grid, u0, cfg: EvolutionConfig, observer=None) -> RunRecord:
    """Run to t_end or a divergence/resolution flag, sampling diagnostics.

    ``observer(t, u, record)`` is called at every checkpoint and may return
    True to stop the run early (recorded as completed at that time). This is
    the one-run case of ``evolve_batch``.
    """
    return evolve_batch(grid, [u0], [cfg], [observer])[0]
