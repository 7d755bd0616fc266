"""The operator L = |D|^alpha + 1 - Q^{2 alpha} around a ground state, matrix-free.

L is applied in collocation form (|D|^alpha spectrally, the potential
pointwise) by ``LinearizedOperator.apply`` and by nothing else. Q is even, so
L commutes with x -> -x and every solve runs on the even or on the odd
fields. The structure (one negative eigenvalue, with a positive
eigenfunction chi0, on the even fields; a one-dimensional near-kernel,
carried by Q', on the odd ones) is certified by Birman-Schwinger inertia
counts; the eigenpairs reported, and the coercivity minimum on the
Q-orthogonal fields, come from one block iteration preconditioned by
S^{-1} = (1 + |D|^alpha)^{-1}. The module also evolves the associated flow
w_t = dx(L w), read out against the exact free-dispersion group. The dense
collocation matrix (``LinearizedOperator.matrix``) is a test reference only.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import Stepper, _step_count, _step_rows
from .errors import CapacityError, ContractError, ConvergenceError
from .ground_state import GroundState
from .spectral import Grid

DENSE_N_LIMIT = 4096  # largest N whose dense matrix LinearizedOperator.matrix builds
KERNEL_TOL_REL = 1e-6  # near-kernel band |eigenvalue| <= KERNEL_TOL_REL * (1 + k_max^alpha)
COERCIVITY_BLOCK = 64  # random trial fields per stacked transform in coercivity_probe
COERCIVITY_TOL = 1e-6  # mu_est below -COERCIVITY_TOL is a violation
CHECKPOINT_EVERY = 100  # steps between the kept states of evolve_linearized
MODE_TOL_REL = 1e-14  # a block iteration converges at max|A x - mu x| <= MODE_TOL_REL (1 + k_max^alpha) max|x|
MODE_MAX_ITERS = 200  # Rayleigh-Ritz steps of a block iteration before ConvergenceError
INERTIA_ROWS = 3  # Birman-Schwinger eigenvalues per inertia count; a count of INERTIA_ROWS is capped


def _potential(gs: GroundState):
    """Q^{2 alpha}, the multiplication part of L."""
    return np.abs(gs.values) ** (2.0 * gs.alpha)


@dataclass
class LinearizedOperator:
    """L around ``gs``, applied matrix-free by ``apply``."""

    gs: GroundState

    @property
    def alpha(self):
        return self.gs.alpha

    @property
    def grid(self):
        return self.gs.grid

    @cached_property
    def potential(self):
        """``_potential`` of ``gs``, formed on the first read only."""
        return _potential(self.gs)

    def apply(self, v):
        """L v = |D|^alpha v + v - Q^{2 alpha} v, spectrally and pointwise; v may
        stack fields along leading axes. The one way ``spectrum`` and
        ``coercivity_probe`` apply L."""
        v = self.grid.check_field(v, stacked=True)
        return self.grid.apply_riesz(v, self.alpha) + v - self.potential * v

    @property
    def matrix(self) -> np.ndarray:
        """The dense symmetric N x N collocation matrix of L, built on each
        read; N > DENSE_N_LIMIT raises ``CapacityError``.

        Nothing in the package reads it: it is the dense reference that tests
        and tracers compare against. The circulant column of |D|^alpha is
        symmetrized (col[j] == col[N - j] bit for bit) and the diagonal
        (col[0] + 1) - Q^{2 alpha} is written in place.
        """
        grid = self.grid
        n = grid.n
        if n > DENSE_N_LIMIT:
            raise CapacityError(f"the dense matrix is limited to N <= {DENSE_N_LIMIT}, got {n}; "
                                "apply L matrix-free with LinearizedOperator.apply")
        col = grid.symmetrize(grid.field(grid.riesz(self.alpha)))
        i = np.arange(n, dtype=np.int32)
        mat = col[(i[:, None] - i) % n]
        mat.flat[:: n + 1] = (col[0] + 1.0) - self.potential
        return mat


def assemble(gs: GroundState) -> LinearizedOperator:
    """L around ``gs``, ready for ``spectrum`` on any grid."""
    return LinearizedOperator(gs=gs)


# -- block iteration -------------------------------------------------------------


def _parity(grid, f, odd):
    """The odd (odd=True) or even part of f about x = 0; f may stack fields."""
    return 0.5 * (f - grid.reflect(f)) if odd else grid.symmetrize(f)


def _seeds(gs, odd, m):
    """m start fields of one parity: Q^{alpha + 1} (even; the exact chi0 at
    alpha = 2, a Poschl-Teller ground state) or Q' (odd; the kernel), then
    x^{2j} e^{-x^2/2}, times x for the odd ones, for j = 1 .. m - 1."""
    x = gs.grid.x
    first = gs.derivative() if odd else np.abs(gs.values) ** (gs.alpha + 1.0)
    rest = [x ** (2 * j + odd) * np.exp(-0.5 * x * x) for j in range(1, m)]
    return _parity(gs.grid, np.stack([first] + rest), odd)


def _block_iteration(apply, x, direction, stop, what):
    """The lowest len(x) eigenpairs of a symmetric operator A, from the start rows x.

    Each step is a Rayleigh-Ritz on the span of [X, W, P] (LOBPCG, Knyazev,
    SIAM J. Sci. Comput. 23, 2001): the rows, the directions W =
    ``direction(R)`` made from their residuals R = A X - diag(mu) X, and the
    previous step's directions P, orthonormalized by a QR and solved by a
    small ``eigh``. ``apply`` applies A to stacked rows. ``stop(mu, res)``
    reads the ascending Ritz values and the row residuals max|A x - mu x| /
    max|x|; it is asked from the start for one row, and from the first step
    on for a block, whose start rows are not Ritz vectors. Returns (mu, X, R,
    steps); a solve not stopped within MODE_MAX_ITERS steps raises
    ``ConvergenceError`` with the history of the largest row residual.
    """
    x = np.stack([row / np.linalg.norm(row) for row in x])
    ax = apply(x)
    mu = np.array([float(a @ b) for a, b in zip(x, ax)])
    m, p, history = len(x), None, []
    for it in range(MODE_MAX_ITERS + 1):
        r = ax - mu[:, None] * x
        res = [float(np.max(np.abs(ri))) / float(np.max(np.abs(xi))) for ri, xi in zip(r, x)]
        history.append(max(res))
        if (m == 1 or p is not None) and stop(mu, res):
            break
        if it == MODE_MAX_ITERS:
            raise ConvergenceError(
                f"{what}: residual {history[-1]:.2e} after {MODE_MAX_ITERS} steps", history)
        w = direction(r)
        basis = np.linalg.qr(np.concatenate([x, w] if p is None else [x, w, p]).T)[0].T
        a_basis = apply(basis)
        small = basis @ a_basis.T
        c = np.linalg.eigh(0.5 * (small + small.T))[1][:, :m].T
        # row by row, so that a one-row block takes the arithmetic of a vector
        x, ax = np.stack([ci @ basis for ci in c]), np.stack([ci @ a_basis for ci in c])
        p = np.stack([ci[m:] @ basis[m:] for ci in c])  # the step, orthogonal to the previous rows
        mu = np.array([float(a @ b) for a, b in zip(x, ax)])
    return mu, x, r, it


def _low_modes(op, apply, start, project, what):
    """The lowest len(start) eigenpairs of L on the fields that ``project``
    keeps, by ``_block_iteration`` preconditioned by S^{-1} (one real-FFT
    pair): S^{-1} L is the identity plus a compact operator, so the step
    count does not grow with N. ``apply`` is L, or L followed by ``project``
    where L does not keep those fields. Every row converges at max|L x - mu x|
    <= MODE_TOL_REL (1 + k_max^alpha) max|x|: the top of S on the grid times a
    margin of about fifty over the roundoff floor.
    """
    grid = op.grid
    s_inv = 1.0 / (1.0 + grid.riesz(op.alpha))
    tol = MODE_TOL_REL * (1.0 + grid.k_max ** op.alpha)
    return _block_iteration(apply, start, lambda r: project(grid.field(s_inv * grid.transform(r))),
                            lambda mu, res: max(res) <= tol, what)


def _parity_modes(op, odd, m):
    """The lowest m eigenpairs of L on the even (odd=False) or odd fields, from ``_seeds``."""
    return _low_modes(op, op.apply, _seeds(op.gs, odd, m), lambda f: _parity(op.grid, f, odd),
                      f"lowest {m} {'odd' if odd else 'even'} modes")


def _birman_schwinger(op, sigma):
    """y -> S^{-1/2} (L - sigma) S^{-1/2} y = (I - K_sigma) y, with S = 1 + |D|^alpha.

    K_sigma = S^{-1/2} (Q^{2 alpha} + sigma) S^{-1/2} is compact: it is the
    Birman-Schwinger operator (Reed & Simon IV, XIII.3). L is applied by
    ``op.apply`` and S^{-1/2} by a real-FFT pair on each side; y may stack
    fields.
    """
    grid = op.grid
    s_half = (1.0 + grid.riesz(op.alpha)) ** -0.5

    def shifted(y):
        z = grid.field(s_half * grid.transform(y))
        return grid.field(s_half * grid.transform(op.apply(z) - sigma * z))

    return shifted


def _inertia(op, sigma, odd):
    """#{eigenvalues of L below sigma} on the even (odd=False) or odd fields,
    matrix-free and capped at INERTIA_ROWS; returns (count, kappa_next).

    By Sylvester's law of inertia the count is #{kappa > 1} over the
    eigenvalues kappa of K_sigma (``_birman_schwinger``), taken from the top
    of its spectrum by ``_block_iteration`` on I - K_sigma. The solve stops
    once the count is settled: a row whose Ritz value is above 1 counts as it
    stands (Ritz values bound the kappa from below), and the first row at or
    below 1 has converged as in ``_low_modes``; the other rows need not
    converge. kappa_next is that row's kappa (nan when every row counts):
    since S >= 1, no eigenvalue of L at or above sigma lies below
    sigma + 1 - kappa_next.
    """
    grid = op.grid
    tol = MODE_TOL_REL * (1.0 + grid.k_max ** op.alpha)

    def settled(nu, res):
        j = int(np.sum(nu < 0.0))
        return j == len(nu) or res[j] <= tol

    nu = _block_iteration(_birman_schwinger(op, sigma), _seeds(op.gs, odd, INERTIA_ROWS),
                          lambda f: _parity(grid, f, odd), settled, f"inertia below {sigma:.3e}")[0]
    j = int(np.sum(nu < 0.0))
    return j, (1.0 - nu[j] if j < len(nu) else np.nan)


# -- spectrum ----------------------------------------------------------------------


@dataclass
class SpectrumReport:
    alpha: float
    grid: Grid
    eigenvalues: np.ndarray          # the low modes found, ascending: per parity those below kernel_tol, or its lowest
    inertia: list                    # per parity, even then odd: #{ev < -kernel_tol}, #{ev < kernel_tol}, capped
    mu0: float
    chi0: np.ndarray                 # unit L2 norm, sign-fixed positive
    near_kernel: list                # (eigenvalue, eigenvector) with |ev| <= kernel_tol
    kernel_tol: float
    essential_edge_estimate: float   # no eigenvalue above the band lies below it; -inf when a count is capped
    qprime_cosine: float             # |cos| similarity of the near-kernel mode with Q'
    chi0_even_defect: float
    parity_gap: float                # lowest odd minus lowest even eigenvalue
    chi0_resolved: bool              # False: chi0's sign change is within its resolution floor
    chi0_iterations: int             # Rayleigh-Ritz steps of the even low-mode solve that gave chi0
    max_eig_residual: float          # max |L v - ev v| over the modes found (unit v)
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


def spectrum(op: LinearizedOperator) -> SpectrumReport:
    """Structural certification of L per parity, matrix-free on any grid.

    Q is even, so L commutes with x -> -x. kernel_tol = KERNEL_TOL_REL
    (1 + k_max^alpha) is fixed first: 1 + k_max^alpha tops 1 + |D|^alpha on
    the grid, hence L (Q^{2 alpha} >= 0). Each parity's inertia, the number of
    eigenvalues below -kernel_tol and below kernel_tol, comes from two
    Birman-Schwinger counts (``_inertia``); L is applied only by
    ``op.apply`` and no LAPACK routine sees more than a Rayleigh-Ritz block.
    The structure is the tally per parity (ker L = span{Q'}, Frank &
    Lenzmann, Acta Math. 210, 2013): the even fields have one eigenvalue below
    -kernel_tol and none in the band |lambda| <= kernel_tol, the odd fields
    none below and one in the band, which implies ``parity_gap`` > 0.

    The eigenpairs reported are each parity's modes below kernel_tol (its
    lowest alone if there are none, or if the count is capped), from
    ``_low_modes`` seeded per parity (``_seeds``): the even seed Q^{alpha + 1}
    is the exact chi0 at alpha = 2 (a Poschl-Teller ground state, mu0 = -8).
    chi0 is the lowest even mode, oriented and normalised by ``_orient_chi0``,
    and the package's one chi0: the blow-up scan decomposes along it too.
    Modes that disagree with the counts, a failed tally, a near-kernel mode
    poorly aligned with Q' or a sign-changing chi0 set ``structure_ok=False``
    with a note; a sign change no deeper than chi0's resolution floor sets
    ``chi0_resolved=False`` instead. A potential that is not reflection-even
    raises ``ContractError``.
    """
    grid = op.grid
    pot = op.potential
    pot_defect = float(np.max(np.abs(pot - grid.reflect(pot))))
    if pot_defect > 1e-12 * float(np.max(pot)):
        raise ContractError(f"potential Q^(2 alpha) not reflection-even (defect {pot_defect:.2e}); "
                            "the parity split needs a ground state centred at x = 0")
    ktol = KERNEL_TOL_REL * (1.0 + grid.k_max ** op.alpha)
    counts = [[_inertia(op, s, odd) for s in (-ktol, ktol)] for odd in (False, True)]
    inertia = [(lo[0], hi[0]) for lo, hi in counts]
    capped = any(n == INERTIA_ROWS for _, n in inertia)
    modes = [_parity_modes(op, odd, n if 0 < n < INERTIA_ROWS else 1)
             for odd, (_, n) in zip((False, True), inertia)]
    (ev_even, vec_even, r_even, steps), (ev_odd, vec_odd, r_odd, _) = modes
    tally = [(lo, n - lo) for lo, n in inertia]
    parity_gap = float(ev_odd[0] - ev_even[0])
    ok = tally == [(1, 0), (0, 1)]
    notes = [] if ok else [
        f"parity gap {parity_gap:.2e}; (negative, near-kernel) counts: even block {tally[0]}, "
        f"odd block {tally[1]}, expected (1, 0) and (0, 1)"
        + (f"; a count of {INERTIA_ROWS} is capped" if capped else "")
    ]
    found = [(int(np.sum(ev < -ktol)), int(np.sum(np.abs(ev) <= ktol))) for ev in (ev_even, ev_odd)]
    if not capped and found != tally:
        ok = False
        notes.append(f"the modes found, (negative, near-kernel) {found[0]} even and {found[1]} "
                     "odd, disagree with the inertia counts")

    chi0, resolved, sign_ok = _orient_chi0(grid, vec_even[0], notes)
    ok = ok and sign_ok
    even_defect = float(np.max(np.abs(chi0 - grid.reflect(chi0)))) / float(np.max(np.abs(chi0)))

    near_kernel = [(float(ev), v) for ev, v in zip(np.concatenate([ev_even, ev_odd]),
                                                   np.concatenate([vec_even, vec_odd]))
                   if abs(ev) <= ktol]
    qp = op.gs.derivative()
    qcos = max((abs(float(np.dot(v, qp))) / np.sqrt(float(np.dot(v, v)) * float(np.dot(qp, qp)))
                for _, v in near_kernel), default=0.0)
    if near_kernel and qcos < 0.999:
        ok = False
        notes.append(f"near-kernel mode poorly aligned with Q' (cos {qcos:.6f})")

    kappa_next = [hi[1] for _, hi in counts]
    edge = -np.inf if np.isnan(kappa_next).any() else ktol + 1.0 - max(kappa_next)

    return SpectrumReport(
        alpha=op.alpha,
        grid=grid,
        eigenvalues=np.sort(np.concatenate([ev_even, ev_odd])),
        inertia=inertia,
        mu0=float(ev_even[0]),
        chi0=chi0,
        near_kernel=near_kernel,
        kernel_tol=ktol,
        essential_edge_estimate=edge,
        qprime_cosine=qcos,
        chi0_even_defect=even_defect,
        parity_gap=parity_gap,
        chi0_resolved=resolved,
        chi0_iterations=steps,
        max_eig_residual=max(float(np.max(np.abs(r))) for r in (r_even, r_odd)),
        structure_ok=ok,
        notes=notes,
    )


@dataclass
class CoercivityReport:
    mu_est: float                    # min (Lv,v)/||v||_H1^2 over v orthogonal to {chi0, Q'}
    min_q_orthogonal: float          # min eigenvalue of L restricted orthogonal to Q
    violation: bool
    trials: int                      # random trial fields that entered mu_est


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
    (Lv,v) over the Q-orthogonal unit sphere should sit at zero from above, up
    to discretization: it is the lowest eigenvalue of L compressed to the
    fields orthogonal to Q, from ``_low_modes`` on a block of two rows seeded
    with the even seed of chi0 and with Q' (the odd fields are all orthogonal
    to the even Q, and the minimum is near zero on both parities).
    """
    rng = np.random.default_rng(1) if rng is None else rng
    grid = op.grid
    qp = op.gs.derivative()
    qp = qp / grid.norm_l2(qp)
    chi0 = report.chi0
    pot = op.potential
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

    q = op.gs.values / np.linalg.norm(op.gs.values)

    def q_perp(f):
        return f - (f @ q)[..., None] * q

    start = q_perp(np.concatenate([_seeds(op.gs, False, 1), _seeds(op.gs, True, 1)]))
    min_qo = float(_low_modes(op, lambda v: q_perp(op.apply(v)), start, q_perp,
                              "Q-orthogonal minimum")[0][0])
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


def _free_symbol(gs: GroundState):
    """ik(|k|^alpha + 1): the symbol of dx(|D|^alpha + 1), the linearized flow without its potential."""
    return gs.grid.ik * gs.grid.riesz(gs.alpha) + gs.grid.ik


def evolve_linearized(gs: GroundState, w0, t_end: float, dt: float) -> LinearizedRunRecord:
    """Evolve w_t = dx(L w) by ETDRK4, keeping w at t = 0, every
    CHECKPOINT_EVERY steps and at t_end; a non-finite checkpoint ends the run.

    The potential stage -dx(Q^{2 alpha} w) forms its product pointwise on the
    grid: the collocation L of ``LinearizedOperator.apply``. It is stepped
    as a one-row stack by ``dynamics._step_rows``; ``liouville_readout`` reads it.
    """
    grid = gs.grid
    n_steps = _step_count(dt, t_end, CHECKPOINT_EVERY)
    pot, minus_ik = _potential(gs), -grid.ik

    def potential_term(F):
        return minus_ik * grid.transform(pot * grid.field(F))

    st = Stepper(_free_symbol(gs), dt, potential_term)
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
    sym, F0 = _free_symbol(gs), grid.transform(ws[0])

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
