"""The operator L = |D|^alpha + 1 - Q^{2 alpha} around a ground state.

Dense collocation assembly (|D|^alpha is a symmetric circulant), one full
eigendecomposition by LAPACK's divide-and-conquer solver (``numpy.linalg.eigh``,
Cuppen's method, which suits the clustered continuum of L), structural
certification (a single negative eigenvalue with an even positive
eigenfunction; a one-dimensional near-kernel carried by Q'), coercivity probes
whose minimum over the Q-orthogonal sphere is the smallest root of a secular
equation on that same eigendecomposition, and evolution of the associated
flow w_t = dx(L w).
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Stepper
from .errors import CapacityError, ContractError
from .ground_state import GroundState
from .spectral import Grid

DENSE_N_LIMIT = 4096
KERNEL_TOL_REL = 1e-6  # near-kernel band |eigenvalue| <= KERNEL_TOL_REL * max |eigenvalue|
COERCIVITY_BLOCK = 64  # random trial fields per stacked transform in coercivity_probe
COERCIVITY_TOL = 1e-6  # mu_est below -COERCIVITY_TOL is a violation


def _potential(gs: GroundState):
    """Q^{2 alpha}, the multiplication part of L."""
    return np.abs(gs.values) ** (2.0 * gs.alpha)


def apply_operator(gs: GroundState, v):
    """L v = |D|^alpha v + v - Q^{2 alpha} v, applied spectrally/pointwise."""
    grid = gs.grid
    v = grid.check_field(v)
    return grid.apply_multiplier(v, gs.alpha, "riesz") + v - _potential(gs) * v


@dataclass
class LinearizedOperator:
    alpha: float
    grid: Grid
    gs: GroundState
    matrix: np.ndarray


def assemble(gs: GroundState) -> LinearizedOperator:
    """Dense symmetric N x N collocation matrix of L (N <= 4096).

    The circulant part is symmetrized through its column (the average of col
    and its reflection) and the diagonal is written in place, so the only
    N x N arrays formed are the matrix and its int32 index.
    """
    grid = gs.grid
    n = grid.n
    if n > DENSE_N_LIMIT:
        raise CapacityError(
            f"dense assembly limited to N <= {DENSE_N_LIMIT}, got {n}; "
            "use apply_operator for matrix-free application"
        )
    col = grid.field(grid.multiplier(gs.alpha, "riesz"))
    col = 0.5 * (col + grid.reflect(col))
    i = np.arange(n, dtype=np.int32)
    mat = col[(i[:, None] - i) % n]
    mat.flat[:: n + 1] = (col[0] + 1.0) - _potential(gs)
    return LinearizedOperator(alpha=gs.alpha, grid=grid, gs=gs, matrix=mat)


@dataclass
class SpectrumReport:
    alpha: float
    grid: Grid
    eigenvalues: np.ndarray
    q_weights: np.ndarray            # (v_i . Q)^2 / |Q|^2 per eigenvector v_i: Q's spectral measure
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


def spectrum(op: LinearizedOperator) -> SpectrumReport:
    """Full symmetric eigendecomposition with structural certification.

    One divide-and-conquer solve (LAPACK ``syevd`` through ``numpy.linalg.eigh``)
    gives every eigenpair. Besides the certified modes, only the spectral
    measure of Q (``q_weights``) is kept from the eigenvectors; it is all that
    ``coercivity_probe`` needs.

    Violations of the expected structure (wrong negative count, wrong
    near-kernel dimension, non-even or sign-changing ground eigenfunction,
    poor Q' match) are reported in ``notes`` with ``structure_ok=False``;
    they are never silently accepted. A sign change of chi0 no deeper than
    chi0's own resolution floor, sqrt(spectral tail fraction) * max chi0, is
    not a finding about the operator: it sets ``chi0_resolved=False``
    instead, with a note.
    """
    grid = op.grid
    evals, evecs = np.linalg.eigh(op.matrix)
    norm = float(np.max(np.abs(evals)))
    ktol = KERNEL_TOL_REL * norm
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

    q = op.gs.values
    q_weights = (q @ evecs) ** 2 / float(np.dot(q, q))

    return SpectrumReport(
        alpha=op.alpha,
        grid=grid,
        eigenvalues=evals,
        q_weights=q_weights,
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
    trials: int                      # random trial fields that entered mu_est


def secular_min(eigenvalues, weights) -> float:
    """Smallest eigenvalue of a symmetric matrix compressed to the complement of a vector q.

    ``eigenvalues`` ascend and ``weights`` are w_i = (v_i . q)^2 / |q|^2 over
    the eigenvectors v_i. The compressed eigenvalues that are not eigenvalues
    of the matrix are the roots of the secular function
    f(mu) = sum_i w_i / (lambda_i - mu) (Golub, SIAM Rev. 15, 1973), and by
    Cauchy interlacing the smallest lies in [lambda_0, lambda_1]. There f is
    increasing, and bisection on its sign closes on the answer to the last
    bit: on the root if f changes sign; on lambda_0 if w_0 = 0 (f > 0, v_0 is
    orthogonal to q); on lambda_1 if f < 0 throughout (then w_1 = 0 and v_1
    is orthogonal to q). Inside the bracket lambda_0 < mu < lambda_1, so no
    term divides by zero.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    lo, hi = float(lam[0]), float(lam[1])
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if np.sum(w / (lam - mid)) < 0.0:
            lo = mid
        else:
            hi = mid


def coercivity_probe(
    op: LinearizedOperator,
    report: SpectrumReport,
    trials: int = 500,
    rng=None,
) -> CoercivityReport:
    """Probe the two quadratic-form statements attached to L.

    Randomized smooth fields projected orthogonal to {chi0, Q'} should give a
    strictly positive H1-relative quotient; they are evaluated in stacks of at
    most COERCIVITY_BLOCK, one transform per stack. The exact minimum of
    (Lv,v) over the Q-orthogonal unit sphere, the smallest root of the secular
    equation on the spectrum's eigenvalues and ``q_weights`` (``secular_min``),
    should sit at zero from above, up to discretization.
    """
    rng = np.random.default_rng(1) if rng is None else rng
    grid = op.grid
    qp = op.gs.derivative()
    qp = qp / grid.norm_l2(qp)
    chi0 = report.chi0
    pot = _potential(op.gs)
    L = grid.half_length
    mu_est, used = np.inf, 0
    for start in range(0, trials, COERCIVITY_BLOCK):
        # rows are trials; per trial the draws come in the order width,
        # center, frequency, phase, as rng.uniform(low, high) = low + (high - low) * u
        u = rng.random((min(COERCIVITY_BLOCK, trials - start), 4)).T[:, :, None]
        width = 0.5 + (L / 4.0 - 0.5) * u[0]
        center = -L / 2.0 + L * u[1]
        v = np.exp(-(((grid.x - center) / width) ** 2)) * np.cos(2.0 * u[2] * grid.x + 7.0 * u[3])
        v = v - grid.h * (v @ chi0)[:, None] * chi0 - grid.h * (v @ qp)[:, None] * qp
        # (Lv, v) and ||v||_H1^2 by Parseval from one stacked transform
        F = grid.transform(v)
        mass = grid.h * np.sum(v * v, axis=-1)
        form = grid.seminorm_sq_of_spectrum(F, op.alpha) + mass
        form -= grid.h * np.sum(pot * v * v, axis=-1)
        h1 = mass + grid.seminorm_sq_of_spectrum(F, 2.0)
        ok = h1 >= 1e-12
        if np.any(ok):
            mu_est = min(mu_est, float(np.min(form[ok] / h1[ok])))
            used += int(np.sum(ok))

    min_qo = secular_min(report.eigenvalues, report.q_weights)
    return CoercivityReport(
        mu_est=float(mu_est),
        min_q_orthogonal=min_qo,
        violation=bool(mu_est < -COERCIVITY_TOL or min_qo < -1e-4 * max(1.0, abs(report.mu0))),
        trials=used,
    )


# -- linearized flow ----------------------------------------------------------


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
    if include_potential:
        # the potential stage -dx(Q^{2 alpha} w), products on the padded grid,
        # the -dx folded into the truncation's multiply
        pot_fine = grid.fine(grid.transform(_potential(gs)))
        weight = grid.truncation(-grid.ik)

        def potential_term(F):
            return grid.coarse(pot_fine * grid.fine(F), weight)
    else:
        # a zero stage: the step is the exact free dispersive group
        potential_term = np.zeros_like

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
