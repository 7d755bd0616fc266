"""The operator L = |D|^alpha + 1 - Q^{2 alpha} around a ground state.

Collocation L (|D|^alpha is a symmetric circulant) in its two parity blocks
(Q is even, so L commutes with x -> -x), each built straight from the
circulant column and the potential and solved on its own by LAPACK's
divide-and-conquer solver (``numpy.linalg.eigh``, Cuppen's method, which
suits the clustered continuum of L), so the N x N matrix is never formed;
structural certification per parity (one negative eigenvalue, with a
positive eigenfunction, in the even block; a one-dimensional near-kernel,
carried by Q', in the odd block), coercivity probes whose minimum over the
Q-orthogonal sphere is the smallest root of a secular equation on that same
eigendecomposition, and evolution of the associated flow w_t = dx(L w),
read out against the exact free-dispersion group. The negative direction
chi0 alone comes matrix-free from ``negative_mode``, a block iteration
preconditioned by S^{-1} = (1 + |D|^alpha)^{-1}.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import Stepper, _step_count, _step_rows
from .errors import CapacityError, ContractError, ConvergenceError
from .ground_state import GroundState
from .spectral import Grid

DENSE_N_LIMIT = 4096
KERNEL_TOL_REL = 1e-6  # near-kernel band |eigenvalue| <= KERNEL_TOL_REL * (1 + k_max^alpha)
COERCIVITY_BLOCK = 64  # random trial fields per stacked transform in coercivity_probe
COERCIVITY_TOL = 1e-6  # mu_est below -COERCIVITY_TOL is a violation
CHECKPOINT_EVERY = 100  # steps between the kept states of evolve_linearized
MODE_TOL_REL = 1e-14  # negative_mode stops at max|L x - mu x| <= MODE_TOL_REL (1 + k_max^alpha) max|x|
MODE_MAX_ITERS = 100  # Rayleigh-Ritz steps of negative_mode before ConvergenceError


def _potential(gs: GroundState):
    """Q^{2 alpha}, the multiplication part of L."""
    return np.abs(gs.values) ** (2.0 * gs.alpha)


def _check_even_potential(gs: GroundState):
    """ContractError unless Q^{2 alpha} is reflection-even, as the parity split needs."""
    pot = _potential(gs)
    pot_defect = float(np.max(np.abs(pot - gs.grid.reflect(pot))))
    if pot_defect > 1e-12 * float(np.max(pot)):
        raise ContractError(
            f"potential Q^(2 alpha) not reflection-even (defect {pot_defect:.2e}); "
            "the parity split needs a ground state centred at x = 0"
        )


def apply_operator(gs: GroundState, v):
    """L v = |D|^alpha v + v - Q^{2 alpha} v, applied spectrally/pointwise.

    v may stack fields along leading axes; each row gives one L v.
    """
    grid = gs.grid
    v = grid.check_field(v, stacked=True)
    return grid.apply_riesz(v, gs.alpha) + v - _potential(gs) * v


@dataclass
class LinearizedOperator:
    """L around ``gs`` in collocation form, as its parity blocks (``parity_block``)."""

    gs: GroundState

    @property
    def alpha(self):
        return self.gs.alpha

    @property
    def grid(self):
        return self.gs.grid

    def _column(self):
        """The circulant column of |D|^alpha, symmetrized (the average of col and
        its reflection, so col[j] == col[N - j] bit for bit), and the diagonal
        d = (col[0] + 1) - Q^{2 alpha}."""
        grid = self.grid
        col = grid.symmetrize(grid.field(grid.riesz(self.alpha)))
        return col, (col[0] + 1.0) - _potential(self.gs)

    def parity_block(self, odd: bool) -> np.ndarray:
        """The even (odd=False) or odd block of the collocation matrix of L.

        In the bases of ``_to_grid`` with j = 1 .. N/2 - 1 the interior is
        col[|i - j|] + col[i + j] (even) or col[|i - j|] - col[i + j] (odd), a
        Toeplitz plus or minus a Hankel matrix, both read as strided views of
        the column; its diagonal is d_j + col[2j] or d_j - col[2j]. The even
        block's border rows i = 0 and N/2 are sqrt 2 col[|i - j|], with corners
        d_0, d_{N/2} and col[N/2]. No N x N array is formed.
        """
        col, d = self._column()
        n = len(col)
        h = n // 2
        # col[|i - j|] for i, j = 1 .. h - 1: windows of col[h-2 .. 1, 0, 1 .. h-2]
        toeplitz = sliding_window_view(np.concatenate([col[h - 2 : 0 : -1], col[: h - 1]]), h - 1)[::-1]
        hankel = sliding_window_view(col[2 : n - 1], h - 1)  # col[i + j]
        if odd:
            block = np.subtract(toeplitz, hankel)
            np.fill_diagonal(block, d[1:h] - col[2:n:2])
            return block
        block = np.empty((h + 1, h + 1))
        np.add(toeplitz, hankel, out=block[1:h, 1:h])
        np.fill_diagonal(block, np.concatenate([d[:1], d[1:h] + col[2:n:2], d[h : h + 1]]))
        block[0, 1:h] = block[1:h, 0] = np.sqrt(2.0) * col[1:h]
        block[h, 1:h] = block[1:h, h] = np.sqrt(2.0) * col[h - 1 : 0 : -1]
        block[0, h] = block[h, 0] = col[h]
        return block

    @property
    def matrix(self) -> np.ndarray:
        """The dense symmetric N x N collocation matrix of L, built on each read.

        ``spectrum`` never reads it; it is the dense reference that tests and
        tracers compare against. The circulant entries come from the
        symmetrized column and the diagonal is written in place.
        """
        col, d = self._column()
        n = len(col)
        i = np.arange(n, dtype=np.int32)
        mat = col[(i[:, None] - i) % n]
        mat.flat[:: n + 1] = d
        return mat


def assemble(gs: GroundState) -> LinearizedOperator:
    """The collocation L of ``gs`` (N <= 4096), ready for ``spectrum``."""
    n = gs.grid.n
    if n > DENSE_N_LIMIT:
        raise CapacityError(
            f"dense assembly limited to N <= {DENSE_N_LIMIT}, got {n}; "
            "use apply_operator for matrix-free application"
        )
    return LinearizedOperator(gs=gs)


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
    parity_gap: float                # lowest odd minus lowest even eigenvalue
    chi0_resolved: bool              # False: chi0's sign change is within its resolution floor
    max_eig_residual: float
    structure_ok: bool
    notes: list = field(default_factory=list)


def _orient_chi0(grid, v, notes):
    """chi0 from an eigenvector v of the bottom of L: sign-fixed positive at
    its peak and scaled to unit L2 norm. Returns (chi0, resolved, sign_ok).

    A sign change no deeper than chi0's resolution floor, sqrt(spectral tail
    fraction) * max chi0, leaves chi0 unresolved (``resolved`` False); a
    deeper one clears ``sign_ok``. Either appends a line to ``notes``.
    """
    chi0 = -v if v[np.argmax(np.abs(v))] < 0 else v
    chi0 = chi0 / grid.norm_l2(chi0)
    peak, dip = float(np.max(chi0)), -float(np.min(chi0))
    if dip <= 1e-8 * peak:
        return chi0, True, True
    floor = np.sqrt(grid.spectral_tail_fraction(grid.transform(chi0))) * peak
    if dip <= floor:
        notes.append(f"chi0 changes sign (min {-dip:.2e}) within its resolution floor "
                     f"{floor:.2e}; increase N or L")
        return chi0, False, True
    notes.append(f"chi0 changes sign (min {-dip:.2e})")
    return chi0, True, False


def _to_grid(c, n, odd):
    """The grid vector with coordinates c in the even (odd=False) or odd block's basis."""
    h = n // 2
    v = np.zeros(n)
    v[1:h] = (c if odd else c[1:h]) / np.sqrt(2.0)
    v[n - 1 : h : -1] = -v[1:h] if odd else v[1:h]
    if not odd:
        v[0], v[h] = c[0], c[h]
    return v


@dataclass
class _BlockSolve:
    """What ``spectrum`` keeps of one parity block's eigendecomposition."""

    eigenvalues: np.ndarray
    near_kernel: list                # (eigenvalue, eigenvector on the grid) with |ev| <= tol
    bottom: np.ndarray               # the lowest eigenvector on the grid
    projections: np.ndarray | None   # project @ eigenvectors
    residual: float                  # max |L v - lambda v| over the sampled modes


def _solve_block(op, odd, tol, project=None) -> _BlockSolve:
    """``eigh`` of one parity block of ``op``; the block and its eigenvectors
    are dropped on return.

    The band is |eigenvalue| <= tol. The residual is sampled on the four
    lowest and the band modes as B c - lambda c mapped to the grid, which is
    L v - lambda v for v = ``_to_grid(c)``. ``project``, a vector in the
    block's basis, is projected on every eigenvector.
    """
    n = op.grid.n
    block = op.parity_block(odd)
    ev, vec = np.linalg.eigh(block)
    band = np.flatnonzero(np.abs(ev) <= tol)
    sample = sorted(set(range(min(4, len(ev)))) | set(band))
    resid = max(float(np.max(np.abs(_to_grid(block @ vec[:, j] - ev[j] * vec[:, j], n, odd))))
                for j in sample)
    return _BlockSolve(
        eigenvalues=ev,
        near_kernel=[(float(ev[j]), _to_grid(vec[:, j], n, odd)) for j in band],
        bottom=_to_grid(vec[:, 0], n, odd),
        projections=None if project is None else project @ vec,
        residual=resid,
    )


def spectrum(op: LinearizedOperator) -> SpectrumReport:
    """Full symmetric eigendecomposition, per parity, with structural certification.

    Q is even, so L commutes with x -> -x and its matrix splits into an even
    block of size N/2 + 1 and an odd block of size N/2 - 1. Each block is
    built from the circulant column and the potential
    (``LinearizedOperator.parity_block``) and solved by divide and conquer
    (``syevd`` through ``numpy.linalg.eigh``, which suits the clustered
    continuum of L), one after the other: no N x N array is formed. The
    eigenvalues and Q's spectral measure ``q_weights`` are merged into one
    ascending order; Q is exactly even (every Petviashvili iterate is
    symmetrized), so its odd weights are zeros. Block eigenvectors reach the
    grid only for chi0 (the even block's lowest mode), the near-kernel modes
    (each block's band columns) and the residual sample. A potential that is
    not reflection-even raises ``ContractError``.

    The structure is tallied per parity (ker L = span{Q'}, Frank & Lenzmann,
    Acta Math. 210, 2013): the even block has one eigenvalue below
    -kernel_tol and none in the band |lambda| <= kernel_tol, the odd block
    none below and one in the band, which implies ``parity_gap`` > 0. kernel_tol
    = KERNEL_TOL_REL (1 + k_max^alpha) is fixed before either block is solved:
    1 + k_max^alpha tops 1 + |D|^alpha on the grid, hence L (Q^{2 alpha} >= 0). A
    failed tally, a near-kernel mode poorly aligned with Q' or a
    sign-changing chi0 sets ``structure_ok=False`` with a note; a sign change
    no deeper than chi0's resolution floor, sqrt(spectral tail fraction) *
    max chi0, sets ``chi0_resolved=False`` instead.
    """
    grid = op.grid
    n = grid.n
    h = n // 2
    _check_even_potential(op.gs)
    # Q's coordinates in the even basis; the odd ones are zeros
    q = op.gs.values
    q_even = np.concatenate([q[:1], (q[1:h] + q[n - 1 : h : -1]) / np.sqrt(2.0), q[h : h + 1]])
    ktol = KERNEL_TOL_REL * (1.0 + grid.k_max ** op.alpha)
    even, odd = _solve_block(op, False, ktol, q_even), _solve_block(op, True, ktol)
    ev_even, ev_odd = even.eigenvalues, odd.eigenvalues
    merged = np.concatenate([ev_even, ev_odd])
    order = np.argsort(merged, kind="stable")
    evals = merged[order]
    tally = [(int(np.sum(s.eigenvalues < -ktol)), len(s.near_kernel)) for s in (even, odd)]
    parity_gap = float(ev_odd[0] - ev_even[0])
    ok = tally == [(1, 0), (0, 1)]
    notes = [] if ok else [
        f"parity gap {parity_gap:.2e}; (negative, near-kernel) counts: even block {tally[0]}, "
        f"odd block {tally[1]}, expected (1, 0) and (0, 1)"
    ]

    chi0, resolved, sign_ok = _orient_chi0(grid, even.bottom, notes)
    ok = ok and sign_ok
    even_defect = float(np.max(np.abs(chi0 - grid.reflect(chi0)))) / float(np.max(np.abs(chi0)))

    near_kernel = even.near_kernel + odd.near_kernel
    qp = op.gs.derivative()
    qcos = max((abs(float(np.dot(v, qp))) / np.sqrt(float(np.dot(v, v)) * float(np.dot(qp, qp)))
                for _, v in near_kernel), default=0.0)
    if near_kernel and qcos < 0.999:
        ok = False
        notes.append(f"near-kernel mode poorly aligned with Q' (cos {qcos:.6f})")

    above = evals[evals > ktol]
    edge = float(above[0]) if len(above) else np.inf

    q_weights = np.concatenate([even.projections, np.zeros(len(ev_odd))])[order] ** 2 / float(q @ q)

    return SpectrumReport(
        alpha=op.alpha,
        grid=grid,
        eigenvalues=evals,
        q_weights=q_weights,
        mu0=float(evals[0]),
        chi0=chi0,
        near_kernel=near_kernel,
        kernel_tol=ktol,
        essential_edge_estimate=edge,
        qprime_cosine=qcos,
        chi0_even_defect=even_defect,
        parity_gap=parity_gap,
        chi0_resolved=resolved,
        max_eig_residual=max(even.residual, odd.residual),
        structure_ok=ok,
        notes=notes,
    )


@dataclass
class NegativeMode:
    chi0: np.ndarray                 # unit L2 norm, sign-fixed positive
    mu0: float
    residual: float                  # max |L chi0 - mu0 chi0|
    iterations: int                  # Rayleigh-Ritz steps taken
    chi0_resolved: bool              # as in SpectrumReport
    chi0_sign_ok: bool               # False: chi0 changes sign deeper than its resolution floor
    notes: list                      # the sign-change note of chi0, if any


def negative_mode(gs: GroundState) -> NegativeMode:
    """The lowest eigenpair (mu0, chi0) of L on the reflection-even fields,
    matrix-free.

    L = S - Q^{2 alpha} with S = 1 + |D|^alpha, so S^{-1} L is the identity
    plus a compact operator, and a block iteration preconditioned by S^{-1}
    (one real-FFT pair) converges at a rate that does not degrade with N
    (LOBPCG, Knyazev, SIAM J. Sci. Comput. 23, 2001). Each step is a
    Rayleigh-Ritz on the span of [x, S^{-1} r, p]: the iterate, its
    preconditioned residual r = L x - mu x and the previous step's
    direction, orthonormalized by a QR and solved by a 3 x 3 ``eigh``; L is
    applied to the stack by ``apply_operator`` and every new direction is
    projected on the even fields with ``Grid.symmetrize``. The seed is
    Q^{alpha + 1}, the exact chi0 at alpha = 2 (a Poschl-Teller ground state,
    mu0 = -8). The iteration stops at max|L x - mu x| <= MODE_TOL_REL
    (1 + k_max^alpha) max|x|, the top of S on the grid times a margin of
    about fifty over the roundoff floor; a solve not stopped within
    MODE_MAX_ITERS steps raises ``ConvergenceError`` with the residual
    history. chi0 is oriented, normalised and judged as in ``spectrum``: a
    sign change within its resolution floor clears ``chi0_resolved``, a
    deeper one ``chi0_sign_ok``. A potential that is not reflection-even
    raises ``ContractError``.
    """
    _check_even_potential(gs)
    grid = gs.grid
    s_inv = 1.0 / (1.0 + grid.riesz(gs.alpha))
    x = grid.symmetrize(np.abs(gs.values) ** (gs.alpha + 1.0))
    x = x / np.linalg.norm(x)
    lx = apply_operator(gs, x)
    mu, p = float(x @ lx), None
    tol = MODE_TOL_REL * (1.0 + grid.k_max ** gs.alpha)
    history = []
    for it in range(MODE_MAX_ITERS + 1):
        r = lx - mu * x
        history.append(float(np.max(np.abs(r))) / float(np.max(np.abs(x))))
        if history[-1] <= tol:
            break
        if it == MODE_MAX_ITERS:
            raise ConvergenceError(
                f"negative_mode: residual {history[-1]:.2e} above {tol:.2e} "
                f"after {MODE_MAX_ITERS} steps", history)
        w = grid.symmetrize(grid.field(s_inv * grid.transform(r)))
        basis = np.linalg.qr(np.stack([x, w] if p is None else [x, w, p]).T)[0].T
        l_basis = apply_operator(gs, basis)
        small = basis @ l_basis.T
        c = np.linalg.eigh(0.5 * (small + small.T))[1][:, 0]
        x, lx = c @ basis, c @ l_basis
        p = c[1:] @ basis[1:]  # the step, orthogonal to the previous x (basis[0])
        mu = float(x @ lx)
    notes = []
    chi0, resolved, sign_ok = _orient_chi0(grid, x, notes)
    return NegativeMode(
        chi0=chi0,
        mu0=mu,
        residual=float(np.max(np.abs(apply_operator(gs, chi0) - mu * chi0))),
        iterations=it,
        chi0_resolved=resolved,
        chi0_sign_ok=sign_ok,
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
    term divides by zero; but a term overflows when its gap lambda_i - mu is
    tiny (subnormal), and two overflowing terms of opposite sign would sum to
    nan. Then f's sign is taken from f times the smallest gap, whose terms
    are all at most w_i in size.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    lo, hi = float(lam[0]), float(lam[1])
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        gap = lam - mid
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.sum(w / gap)
        if not np.isfinite(f):
            f = np.sum(w * (np.min(np.abs(gap)) / gap))
        if f < 0.0:
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
    states: list                     # the field w at each of times


def evolve_linearized(gs: GroundState, w0, t_end: float, dt: float) -> LinearizedRunRecord:
    """Evolve w_t = dx(L w) by ETDRK4, keeping w at t = 0, every
    CHECKPOINT_EVERY steps and at t_end; a non-finite checkpoint ends the run.

    The potential stage -dx(Q^{2 alpha} w) forms its product pointwise on the
    grid: the collocation L of ``assemble`` and ``apply_operator``. It is stepped
    as a one-row stack by ``dynamics._step_rows``; ``liouville_readout`` reads it.
    """
    grid = gs.grid
    n_steps = _step_count(dt, t_end, CHECKPOINT_EVERY)
    pot, minus_ik = _potential(gs), -grid.ik

    def potential_term(F):
        return minus_ik * grid.transform(pot * grid.field(F))

    st = Stepper(grid.ik * grid.riesz(gs.alpha) + grid.ik, dt, potential_term)
    F = grid.transform(grid.check_field(w0))
    times, states = [0.0], [grid.field(F)]

    def checkpoint(_row, i, F_row):
        times.append(i * dt)
        states.append(grid.field(F_row))
        return not np.isfinite(grid.norm_l2(states[-1]))

    _step_rows(st, F[None], [n_steps], CHECKPOINT_EVERY, checkpoint)
    return LinearizedRunRecord(times=np.array(times), states=states)


@dataclass
class LiouvilleReadout:
    l2: np.ndarray
    sobolev: np.ndarray              # H^{alpha/2} norm
    local_mass: np.ndarray           # int_{|x|<B} w^2
    local_mass_defl: np.ndarray      # same with the Q' projection removed
    free_local_mass: np.ndarray      # same for the free flow of w(0)


def liouville_readout(gs: GroundState, rec: LinearizedRunRecord, window: float) -> LiouvilleReadout:
    """Norms and window masses (over |x| < B = ``window``) of a linearized run's states.

    ``local_mass_defl`` removes the Q' component before measuring the window
    mass. On the periodic surrogate the flow genuinely pumps norm into the
    soliton's secular directions (radiation re-enters through the seam and
    exchanges energy with the indefinite quadratic form on every transit), so
    raw window mass grows; the deflated curve and the free-flow baseline are
    the meaningful localization readouts. The baseline is the exact free
    group exp(t dx(|D|^alpha + 1)), Fourier-diagonal, applied to w(0) at the
    run's times; nothing is stepped.
    """
    grid, ws = gs.grid, rec.states
    qp = gs.derivative()
    qp_n2 = grid.inner(qp, qp) or 1.0
    mask = np.abs(grid.x) < window
    sym, F0 = grid.ik * grid.riesz(gs.alpha) + grid.ik, grid.transform(ws[0])

    def window_mass(w):
        return grid.h * float(np.sum(w[mask] ** 2))

    return LiouvilleReadout(
        l2=np.array([grid.norm_l2(w) for w in ws]),
        sobolev=np.array([grid.h_alpha_half_norm(w, gs.alpha) for w in ws]),
        local_mass=np.array([window_mass(w) for w in ws]),
        local_mass_defl=np.array([window_mass(w - grid.inner(w, qp) / qp_n2 * qp) for w in ws]),
        free_local_mass=np.array([window_mass(grid.field(np.exp(t * sym) * F0))
                                  for t in rec.times]),
    )
