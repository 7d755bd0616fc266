"""The operator L = |D|^alpha + 1 - Q^{2 alpha} around a ground state.

Dense collocation assembly (|D|^alpha is a symmetric circulant), full
eigendecomposition, structural certification (a single negative eigenvalue
with an even positive eigenfunction; a one-dimensional near-kernel carried by
Q'), coercivity probes, and evolution of the associated flow w_t = dx(L w).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dynamics import Stepper
from .errors import CapacityError, ContractError
from .ground_state import GroundState
from .spectral import Grid

DENSE_N_LIMIT = 4096


def apply_operator(gs: GroundState, v):
    """L v = |D|^alpha v + v - Q^{2 alpha} v, applied spectrally/pointwise."""
    grid = gs.grid
    v = grid.check_field(v)
    pot = np.abs(gs.values) ** (2.0 * gs.alpha)
    return grid.apply_multiplier(v, gs.alpha, "riesz") + v - pot * v


@dataclass
class LinearizedOperator:
    alpha: float
    grid: Grid
    gs: GroundState
    matrix: np.ndarray


def assemble(gs: GroundState) -> LinearizedOperator:
    """Dense symmetric N x N collocation matrix of L (N <= 4096)."""
    grid = gs.grid
    n = grid.n
    if n > DENSE_N_LIMIT:
        raise CapacityError(
            f"dense assembly limited to N <= {DENSE_N_LIMIT}, got {n}; "
            "use apply_operator for matrix-free application"
        )
    col = grid.field(grid.multiplier(gs.alpha, "riesz"))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    mat = col[idx] + np.eye(n) - np.diag(np.abs(gs.values) ** (2.0 * gs.alpha))
    mat = 0.5 * (mat + mat.T)
    return LinearizedOperator(alpha=gs.alpha, grid=grid, gs=gs, matrix=mat)


@dataclass
class SpectrumReport:
    alpha: float
    grid: Grid
    eigenvalues: np.ndarray
    mu0: float
    chi0: np.ndarray                 # unit L2 norm, sign-fixed positive
    near_kernel: list                # (eigenvalue, eigenvector) with |ev| <= kernel_tol
    kernel_tol: float
    essential_edge_estimate: float   # smallest eigenvalue above the near-kernel band
    qprime_cosine: float             # |cos| similarity of the near-kernel mode with Q'
    chi0_even_defect: float
    chi0_resolved: bool              # False: chi0's sign change is within its resolution floor
    max_eig_residual: float
    structure_ok: bool
    notes: list = field(default_factory=list)


def spectrum(op: LinearizedOperator, kernel_tol_rel: float = 1e-6) -> SpectrumReport:
    """Full symmetric eigendecomposition with structural certification.

    Violations of the expected structure (wrong negative count, wrong
    near-kernel dimension, non-even or sign-changing ground eigenfunction,
    poor Q' match) are reported in ``notes`` with ``structure_ok=False``;
    they are never silently accepted. A sign change of chi0 no deeper than
    chi0's own resolution floor, sqrt(spectral tail fraction) * max chi0, is
    not a finding about the operator: it sets ``chi0_resolved=False``
    instead, with a note.
    """
    grid = op.grid
    evals, evecs = sla.eigh(op.matrix)
    norm = float(np.max(np.abs(evals)))
    ktol = kernel_tol_rel * norm
    notes = []
    ok = True

    neg = np.where(evals < -ktol)[0]
    if len(neg) != 1:
        ok = False
        notes.append(f"expected exactly one negative eigenvalue, found {len(neg)}")
    mu0 = float(evals[0])
    chi0 = evecs[:, 0].copy()
    if chi0[np.argmax(np.abs(chi0))] < 0:
        chi0 = -chi0
    chi0 = chi0 / grid.norm_l2(chi0)
    even_defect = float(np.max(np.abs(chi0 - grid.reflect(chi0)))) / float(np.max(np.abs(chi0)))
    if even_defect > 1e-8:
        ok = False
        notes.append(f"chi0 evenness defect {even_defect:.2e}")
    peak, dip = float(np.max(chi0)), -float(np.min(chi0))
    resolved = True
    if dip > 1e-8 * peak:
        floor = np.sqrt(grid.spectral_tail_fraction(grid.transform(chi0))) * peak
        if dip <= floor:
            resolved = False
            notes.append(
                f"chi0 changes sign (min {-dip:.2e}) within its resolution floor "
                f"{floor:.2e}; increase N or L"
            )
        else:
            ok = False
            notes.append(f"chi0 changes sign (min {-dip:.2e})")

    near_idx = np.where(np.abs(evals) <= ktol)[0]
    near_kernel = [(float(evals[i]), evecs[:, i].copy()) for i in near_idx]
    if len(near_idx) != 1:
        ok = False
        notes.append(f"near-kernel dimension {len(near_idx)}, expected 1")
    qp = op.gs.derivative()
    qcos = 0.0
    for _, v in near_kernel:
        c = abs(float(np.dot(v, qp))) / np.sqrt(float(np.dot(v, v)) * float(np.dot(qp, qp)))
        qcos = max(qcos, c)
    if near_kernel and qcos < 0.999:
        ok = False
        notes.append(f"near-kernel mode poorly aligned with Q' (cos {qcos:.6f})")

    above = evals[evals > ktol]
    edge = float(above[0]) if len(above) else np.inf

    # eigenpair residuals against the assembled matrix
    sample = list(range(min(8, grid.n))) + list(near_idx)
    resid = 0.0
    for i in sample:
        v = evecs[:, i]
        resid = max(resid, float(np.max(np.abs(op.matrix @ v - evals[i] * v))))

    return SpectrumReport(
        alpha=op.alpha,
        grid=grid,
        eigenvalues=evals,
        mu0=mu0,
        chi0=chi0,
        near_kernel=near_kernel,
        kernel_tol=ktol,
        essential_edge_estimate=edge,
        qprime_cosine=qcos,
        chi0_even_defect=even_defect,
        chi0_resolved=resolved,
        max_eig_residual=resid,
        structure_ok=ok,
        notes=notes,
    )


@dataclass
class CoercivityReport:
    mu_est: float                    # min (Lv,v)/||v||_H1^2 over v orthogonal to {chi0, Q'}
    min_q_orthogonal: float          # min eigenvalue of L restricted orthogonal to Q
    violation: bool
    trials: int


def _h1_norm_sq(grid: Grid, v):
    return grid.inner(v, v) + grid.sobolev_seminorm_sq(v, 2.0)


def coercivity_probe(
    op: LinearizedOperator,
    report: SpectrumReport,
    trials: int = 500,
    rng=None,
    tol: float = 1e-6,
) -> CoercivityReport:
    """Probe the two quadratic-form statements attached to L.

    Randomized smooth fields projected orthogonal to {chi0, Q'} should give a
    strictly positive H1-relative quotient; the exact minimum of (Lv,v) over
    the Q-orthogonal unit sphere (a projected eigenvalue problem) should sit
    at zero from above, up to discretization.
    """
    rng = np.random.default_rng(1) if rng is None else rng
    grid = op.grid
    qp = op.gs.derivative()
    qp = qp / grid.norm_l2(qp)
    chi0 = report.chi0
    mu_est = np.inf
    for _ in range(trials):
        width = rng.uniform(0.5, grid.half_length / 4.0)
        center = rng.uniform(-grid.half_length / 2.0, grid.half_length / 2.0)
        freq = rng.uniform(0.0, 2.0)
        v = np.exp(-(((grid.x - center) / width) ** 2)) * np.cos(freq * grid.x + rng.uniform(0, 7))
        v = v - grid.inner(v, chi0) * chi0 - grid.inner(v, qp) * qp
        nrm = _h1_norm_sq(grid, v)
        if nrm < 1e-12:
            continue
        quot = grid.inner(apply_operator(op.gs, v), v) / nrm
        mu_est = min(mu_est, quot)

    # exact minimum of (Lv,v)/||v||^2 restricted orthogonal to Q
    q = op.gs.values / grid.norm_l2(op.gs.values)
    proj = np.eye(grid.n) - grid.h * np.outer(q, q)
    pm = proj @ op.matrix @ proj
    pm = 0.5 * (pm + pm.T)
    evals = sla.eigh(pm, eigvals_only=True)
    # drop the artificial zero introduced by the projector direction itself
    min_qo = float(np.sort(evals)[0])
    if abs(min_qo) < 1e-12:
        min_qo = float(np.sort(evals)[1])
    return CoercivityReport(
        mu_est=float(mu_est),
        min_q_orthogonal=min_qo,
        violation=bool(mu_est < -tol or min_qo < -1e-4 * max(1.0, abs(report.mu0))),
        trials=trials,
    )


# -- linearized flow ----------------------------------------------------------


def linearized_rhs(gs: GroundState, w):
    """dx(L w) with spectral dx."""
    return gs.grid.derivative(apply_operator(gs, w))


@dataclass
class LinearizedRunRecord:
    times: np.ndarray
    l2: np.ndarray
    sobolev: np.ndarray
    local_mass: np.ndarray           # int_{|x|<B} w^2
    local_mass_defl: np.ndarray      # same with the Q' projection removed
    states: list
    final_state: np.ndarray
    window: float


def evolve_linearized(
    gs: GroundState,
    w0,
    t_end: float,
    dt: float,
    *,
    window: float = 10.0,
    checkpoint_every: int = 100,
    store_states: bool = False,
    include_potential: bool = True,
) -> LinearizedRunRecord:
    """Evolve w_t = dx(L w), recording norms and localization diagnostics.

    ``local_mass_defl`` removes the Q' component before measuring the window
    mass. On the periodic surrogate the flow genuinely pumps norm into the
    soliton's secular directions (radiation re-enters through the seam and
    exchanges energy with the indefinite quadratic form on every transit), so
    raw window mass grows; the deflated curve and the free-flow baseline
    (``include_potential=False``) are the meaningful localization readouts.
    """
    grid = gs.grid
    if dt <= 0 or t_end <= 0:
        raise ContractError("dt and t_end must be positive")
    sym = grid.multiplier(gs.alpha, "dispersion") + grid.ik
    # the potential stage -dx(Q^{2 alpha} w), products on the padded grid;
    # without it the step is the exact free dispersive group
    pot = np.abs(gs.values) ** (2.0 * gs.alpha) if include_potential else np.zeros(grid.n)
    pot_fine = grid.fine(grid.transform(pot))

    def potential_term(F):
        return -grid.ik * grid.coarse(pot_fine * grid.fine(F))

    st = Stepper(sym, dt, potential_term)
    qp = gs.derivative()
    qp_n2 = grid.inner(qp, qp)
    if qp_n2 == 0.0:
        qp_n2 = 1.0
    mask = np.abs(grid.x) < window
    times, l2s, sobs, locm, locd = [], [], [], [], []
    states = []
    F = grid.transform(grid.check_field(w0))

    def record(t):
        w = grid.field(F)
        times.append(t)
        l2s.append(grid.norm_l2(w))
        sobs.append(grid.h_alpha_half_norm(w, gs.alpha))
        locm.append(grid.h * float(np.sum(w[mask] ** 2)))
        wd = w - grid.inner(w, qp) / qp_n2 * qp
        locd.append(grid.h * float(np.sum(wd[mask] ** 2)))
        if store_states:
            states.append((t, w.copy()))
        return w

    record(0.0)
    n_steps = int(round(t_end / dt))
    w = None
    for i in range(1, n_steps + 1):
        F = st.step_spectrum(F)
        if i % checkpoint_every == 0 or i == n_steps:
            w = record(i * dt)
            if not np.isfinite(l2s[-1]):
                break
    return LinearizedRunRecord(
        times=np.array(times),
        l2=np.array(l2s),
        sobolev=np.array(sobs),
        local_mass=np.array(locm),
        local_mass_defl=np.array(locd),
        states=states,
        final_state=w if w is not None else grid.field(F),
        window=window,
    )
