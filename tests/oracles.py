"""Slow or closed-form references that only the tests compare against."""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

from dgbo.dynamics import N_CONTOUR, Stepper, _padded_flux
from dgbo.ground_state import TOL_DIFF, gkdv_profile, ladder_rungs
from dgbo.linearized import KERNEL_TOL_REL, LinearizedOperator, assemble
from dgbo.spectral import PAD

EVALUATE_BLOCK = 1 << 20  # complex entries of the phase matrix evaluate forms at once


def dense_dft(grid, f):
    """O(N^2) reference DFT: all N modes in numpy's full FFT order."""
    j = np.arange(grid.n)
    return np.exp(-2j * np.pi * np.outer(j, j) / grid.n).T @ f


def full_wavenumbers(grid):
    """k_m = pi*m/L for the N modes of ``dense_dft``, negative half included."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)


def full_spectrum(grid, F):
    """All N coefficients of a real field from its n//2 + 1 stored ones (conjugate symmetry)."""
    return np.concatenate([F, np.conj(F[grid.n // 2 - 1 : 0 : -1])])


def parseval_residual(grid, f):
    """Relative defect of h*sum f^2 == (h^2/2L)*sum |F|^2 over all N modes."""
    lhs = grid.h * float(np.sum(np.asarray(f) ** 2))
    F = full_spectrum(grid, grid.transform(f))
    rhs = grid.h**2 / (2 * grid.half_length) * float(np.sum(np.abs(F) ** 2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def sobolev_seminorm_sq(grid, f, alpha):
    """int ||D|^{alpha/2} f|^2 by Parseval over the dense DFT's N modes."""
    F = dense_dft(grid, f)
    return grid.h / grid.n * float(np.sum(np.abs(full_wavenumbers(grid)) ** alpha * np.abs(F) ** 2))


def spectral_tail_fraction(grid, f, frac):
    """Share of the dense DFT's energy at |k| >= (1 - frac) k_max."""
    p = np.abs(dense_dft(grid, f)) ** 2
    total = float(np.sum(p))
    if total == 0.0:
        return 0.0
    return float(np.sum(p[np.abs(full_wavenumbers(grid)) >= (1.0 - frac) * grid.k_max])) / total


def pad(grid, F, factor=PAD):
    """Coefficients of the same trigonometric interpolant on the factor-times-finer grid.

    The reference of ``Grid.fine``'s scaling at the default factor PAD. The
    coarse Nyquist mode is an interior mode of the fine grid, where it stands
    for the pair +-n/2: it is halved, which splits it evenly over both. The
    m/n factor keeps the sampled values unchanged under numpy's 1/m inverse
    normalisation. F may stack spectra along leading axes.
    """
    m = factor * grid.n
    Fp = np.zeros(F.shape[:-1] + (m // 2 + 1,), dtype=complex)
    Fp[..., : grid.n // 2 + 1] = F * (m / grid.n)
    Fp[..., grid.n // 2] *= 0.5
    return Fp


def truncate(grid, W, factor=PAD):
    """Inverse of ``pad``: keep the modes 0 .. n/2 of factor*n-point coefficients.

    The reference of ``Grid.coarse``. The pair +-n/2 folds back into this
    grid's Nyquist mode, so its entry is doubled. Each entry is scaled by one
    multiply, 1/factor or 2/factor at the Nyquist mode, so a subnormal is not
    rounded away between two scalings.
    """
    weight = np.full(grid.n // 2 + 1, 1.0 / factor)
    weight[-1] = 2.0 / factor
    return W[..., : grid.n // 2 + 1] * weight


def fine(grid, F, factor=PAD):
    """Values on the factor-times-finer grid of the interpolant with coefficients F."""
    return np.fft.irfft(pad(grid, F, factor), factor * grid.n)


def power_flux(grid, F, degree):
    """Spectrum of dx(u^degree) / degree with no aliasing, for degree <= 6.

    The reference of the flow's flux when 2 alpha = degree - 1 is even. The
    product has modes up to degree * n/2; on the grid 4 times finer none of
    them folds back onto the modes 0 .. n/2 kept. dx is ``grid.ik``, whose
    Nyquist entry is 0.
    """
    w = fine(grid, F, factor=4) ** degree
    return grid.ik / degree * truncate(grid, np.fft.rfft(w), factor=4)


def evaluate(grid, f, points):
    """Trigonometric interpolation of f at arbitrary points (dense, O(N*M)).

    The reference of ``Grid.resample_scaled``. The Nyquist coefficient is
    dropped. Points are taken in blocks of at most EVALUATE_BLOCK phase
    entries, so whatever M and N the working memory stays at a few arrays of
    EVALUATE_BLOCK entries (16 MiB each as complex) on top of the input and
    output.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    F = grid.transform(f)[:-1] / grid.n
    F[1:] *= 2.0  # an interior mode stands for the pair +-m
    k = grid.k[:-1]
    rows = max(1, EVALUATE_BLOCK // len(k))
    vals = np.empty(len(pts))
    for i in range(0, len(pts), rows):
        block = pts[i : i + rows] + grid.half_length
        vals[i : i + rows] = (np.exp(1j * np.outer(block, k)) @ F).real
    return vals if np.ndim(points) else float(vals[0])


def nonlinear_term(grid, u, alpha):
    """|u|^{2 alpha} u_x as a field: the flow's padded flux with no sign, in
    conservation form dx(|u|^{2 alpha} u) / (2 alpha + 1), the truncation
    weight ``truncation(ik / (2 alpha + 1))``.
    """
    weight = grid.truncation(grid.ik / (2.0 * alpha + 1.0))
    return grid.field(_padded_flux(grid, grid.transform(u), alpha, weight))


def petviashvili(alpha, grid, seed=None, max_iters=2000):
    """The unmixed Petviashvili loop u <- G(u) until sup|G(u) - u| < TOL_DIFF.

    The reference of ``solve_ground_state``: the same map G, with no
    Anderson mixing. Returns the last image and the number of maps.
    """
    u = gkdv_profile(grid.x) if seed is None else seed.copy()
    p = 2.0 * alpha + 1.0
    riesz = grid.riesz(alpha)
    for it in range(1, max_iters + 1):
        nl = np.abs(u) ** (2.0 * alpha) * u / p
        lin = grid.field(riesz * grid.transform(u)) + u
        m = float(np.sum(lin * u) / np.sum(nl * u))
        unew = grid.symmetrize(grid.field(m ** (p / (p - 1.0)) * grid.transform(nl) / (1.0 + riesz)))
        diff = float(np.max(np.abs(unew - u)))
        u = unew
        if diff < TOL_DIFF:
            return u, it
    raise AssertionError(f"plain Petviashvili stalled at alpha={alpha}: sup diff {diff:.3e}")


def plain_ladder(alpha, grid, step=0.25):
    """The reference of ``continuation_ladder``: every rung of ``ladder_rungs``
    solved on ``grid`` itself by the unmixed loop. Returns the profile and
    each rung's number of maps.
    """
    u, iterations = None, []
    for a in ladder_rungs(alpha, step):
        u, it = petviashvili(a, grid, seed=u)
        iterations.append(it)
    return u, iterations


def rescaled_config(cfg, lam0):
    """Config for the critically rescaled run u_{lam0}: times scale by lam0^(2+2/alpha)."""
    s = lam0 ** (2.0 + 2.0 / cfg.alpha)
    return replace(cfg, dt=cfg.dt * s, t_end=cfg.t_end * s)


def linearized_rhs(gs, w):
    """dx(L w) with spectral dx."""
    return gs.grid.derivative(assemble(gs).apply(w))


def fit_shift(grid, f, g):
    """Maximizer of the correlation of f and g, Newton over the dense DFT's N modes.

    Starts, like ``Grid.fit_shift``, from the best grid offset.
    """
    k = full_wavenumbers(grid)
    A = dense_dft(grid, f) * np.conj(dense_dft(grid, g))
    j0 = int(np.argmax(np.fft.ifft(A).real))
    L = grid.half_length
    s = (j0 * grid.h + L) % (2 * L) - L
    A = A / grid.n
    for _ in range(60):
        e = np.exp(1j * k * s)
        d1 = float(np.sum(1j * k * A * e).real)
        d2 = float(np.sum(-(k**2) * A * e).real)
        if d2 == 0.0:
            break
        step = d1 / d2
        s -= step
        if abs(step) < 1e-14 * max(1.0, abs(s)):
            break
    return s


def periodized_poisson_kernel(grid):
    """Closed form of the periodized alpha=1 kernel (geometric image sum)."""
    L = grid.half_length
    q = np.exp(-np.pi / L)
    theta = np.pi * grid.x / L
    return (1.0 - q * q) / (2.0 * L * (1.0 - 2.0 * q * np.cos(theta) + q * q))


def periodized_gauss_kernel(grid, n_images: int = 8):
    """Periodized alpha=2 kernel (1/(2 sqrt(pi))) exp(-x^2/4) with images."""
    L = grid.half_length
    out = np.zeros(grid.n)
    for m in range(-n_images, n_images + 1):
        out += np.exp(-((grid.x + 2 * L * m) ** 2) / 4.0)
    return out / (2.0 * np.sqrt(np.pi))


def scan_decompose(u, gs, chi0, lam_window=(0.7, 1.4), rho_halfwidth=5.0, n_coarse=41):
    """Brute-force (lam, rho) solve of <eta, Q'> = <eta, chi0> = 0.

    A coarse grid on the squared orthogonality residual followed by a
    Nelder-Mead polish; the reference for the Newton solve in ``decompose``.
    """
    grid, alpha = gs.grid, gs.alpha
    u = grid.check_field(u)
    qp = gs.derivative()
    rho_c = float(grid.x[int(np.argmax(np.abs(u)))])

    def objective(p):
        lam, rho = p
        if lam <= 0.05:
            return 1e12
        v = lam ** (1.0 / alpha) * grid.resample_scaled(u, scale=lam ** (2.0 / alpha), shift=rho)
        eta = v - gs.values
        return grid.inner(eta, qp) ** 2 + grid.inner(eta, chi0) ** 2

    lams = np.linspace(lam_window[0], lam_window[1], n_coarse)
    rhos = rho_c + np.linspace(-rho_halfwidth, rho_halfwidth, n_coarse)
    best, best_val = None, np.inf
    for lam in lams:
        for rho in rhos:
            val = objective((lam, rho))
            if val < best_val:
                best, best_val = (lam, rho), val
    res = minimize(
        objective,
        np.array(best),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-24, "maxiter": 2000},
    )
    return float(res.x[0]), float(res.x[1])


def q_orthogonal_min(matrix, q):
    """Smallest eigenvalue of a symmetric matrix compressed to the complement of q.

    A Householder reflection H = I - 2 v v^T maps q/|q| to a multiple of e_0,
    so H A H without its first row and column is A on q's orthogonal
    complement. Every eigenvalue of that (N-1) x (N-1) block counts: no
    direction is dropped as artificial.
    """
    A = np.asarray(matrix, dtype=float)
    u = np.asarray(q, dtype=float) / np.linalg.norm(q)
    v = u.copy()
    v[0] += np.copysign(1.0, u[0])
    v /= np.linalg.norm(v)
    Av = A @ v
    B = A - 2.0 * np.outer(v, Av) - 2.0 * np.outer(Av, v) + 4.0 * float(v @ Av) * np.outer(v, v)
    B = B[1:, 1:]
    return float(sla.eigvalsh(0.5 * (B + B.T))[0])


def etdrk4_step(stepper, F):
    """One ``Stepper`` step as the ETDRK4 formula written out with temporaries.

    The bitwise reference of ``Stepper.step_spectrum``, which accumulates the
    same operations in place.
    """
    Nv = stepper.nonlinear(F)
    e2f = stepper.E2 * F
    a = e2f + stepper.Q * Nv
    Na = stepper.nonlinear(a)
    b = e2f + stepper.Q * Na
    Nb = stepper.nonlinear(b)
    c = stepper.E2 * a + stepper.Q * (2.0 * Nb - Nv)
    Nc = stepper.nonlinear(c)
    out = stepper.E * F + stepper.f1 * Nv + 2.0 * stepper.f2 * (Na + Nb) + stepper.f3 * Nc
    if stepper.filter is not None:
        out = out * stepper.filter
    return out


def contour_tables(symbol, dt):
    """The ETDRK4 tables (E, E2, Q, f1, f2, f3) of ``Stepper(symbol, dt, ...)``
    averaged over the whole (N/2 + 1) x N_CONTOUR contour matrix with
    ``np.mean``: the reference of ``Stepper``'s one-point-at-a-time sums.
    """
    z = dt * symbol
    r = np.exp(2j * np.pi * (np.arange(N_CONTOUR) + 0.5) / N_CONTOUR)
    zc = z[:, None] + r[None, :]
    ez = np.exp(zc)
    return SimpleNamespace(
        E=np.exp(z),
        E2=np.exp(z / 2.0),
        Q=dt * np.mean((np.exp(zc / 2.0) - 1.0) / zc, axis=1),
        f1=dt * np.mean((-4.0 - zc + ez * (4.0 - 3.0 * zc + zc**2)) / zc**3, axis=1),
        f2=dt * np.mean((2.0 + zc + ez * (zc - 2.0)) / zc**3, axis=1),
        f3=dt * np.mean((-4.0 - 3.0 * zc - zc**2 + ez * (4.0 - zc)) / zc**3, axis=1),
    )


def linearized_flow_loop(gs, w0, t_end, dt, checkpoint_every=100):
    """w_t = dx(L w) stepped by its own one-spectrum ETDRK4 loop.

    The bitwise reference of ``evolve_linearized``, which steps a one-row
    stack through the time loop of ``dynamics``: w at t = 0, every
    ``checkpoint_every`` steps and at t_end, a non-finite checkpoint ending
    the run.
    """
    grid = gs.grid
    pot, minus_ik = np.abs(gs.values) ** (2.0 * gs.alpha), -grid.ik

    def potential_term(F):
        return minus_ik * grid.transform(pot * grid.field(F))

    st = Stepper(grid.ik * grid.riesz(gs.alpha) + grid.ik, dt, potential_term)
    F = grid.transform(w0)
    times, states = [0.0], [grid.field(F)]
    n_steps = int(round(t_end / dt))
    for i in range(1, n_steps + 1):
        F = st.step_spectrum(F)
        if i % checkpoint_every == 0 or i == n_steps:
            times.append(i * dt)
            states.append(grid.field(F))
            if not np.isfinite(grid.norm_l2(states[-1])):
                break
    return np.array(times), states


def _parity_blocks(mat):
    """The even and odd blocks of a reflection-invariant N x N matrix.

    The reflection j -> (N - j) mod N fixes 0 and N/2. The even block acts on
    the basis e_0, (e_j + e_{N-j})/sqrt 2 for j = 1 .. N/2 - 1, then e_{N/2};
    the odd block on (e_j - e_{N-j})/sqrt 2 for the same j (``parity_basis``).
    """
    n = mat.shape[0]
    h = n // 2
    a = mat[1:h, 1:h]
    b = mat[1:h, n - 1 : h : -1]
    even = np.empty((h + 1, h + 1))
    np.add(a, b, out=even[1:h, 1:h])
    for i in (0, h):
        even[i, 1:h] = even[1:h, i] = np.sqrt(2.0) * mat[i, 1:h]
        even[i, 0], even[i, h] = mat[i, 0], mat[i, h]
    return even, a - b


def parity_basis(n, odd):
    """The basis of ``_parity_blocks`` as the columns of an N x (N/2 + 1)
    (even) or N x (N/2 - 1) (odd) matrix."""
    h = n // 2
    j = np.arange(1, h)
    basis = np.zeros((n, h - 1 if odd else h + 1))
    cols = j - 1 if odd else j
    basis[j, cols] = 1.0 / np.sqrt(2.0)
    basis[n - j, cols] = -1.0 / np.sqrt(2.0) if odd else 1.0 / np.sqrt(2.0)
    if not odd:
        basis[0, 0] = basis[h, h] = 1.0
    return basis


def block_inertia(mat, ktol, cap):
    """Per parity, even then odd, the numbers of eigenvalues of a
    reflection-invariant matrix below -ktol and below ktol, each capped at
    ``cap``: the dense reference of ``SpectrumReport.inertia``."""
    counts = []
    for block in _parity_blocks(mat):
        ev = np.linalg.eigvalsh(block)
        counts.append((min(int(np.sum(ev < -ktol)), cap), min(int(np.sum(ev < ktol)), cap)))
    return counts


def secular_min(eigenvalues, weights) -> float:
    """Smallest eigenvalue of a symmetric matrix compressed to the complement of a vector q.

    ``eigenvalues`` ascend and ``weights`` are w_i = (v_i . q)^2 / |q|^2 over
    the eigenvectors v_i (the ``q_weights`` of ``full_eigh_spectrum``). The
    compressed eigenvalues that are not eigenvalues of the matrix are the
    roots of the secular function f(mu) = sum_i w_i / (lambda_i - mu) (Golub,
    SIAM Rev. 15, 1973), and by Cauchy interlacing the smallest lies in
    [lambda_0, lambda_1]. There f is increasing, and bisection on its sign
    closes on the answer to the last bit: on the root if f changes sign; on
    lambda_0 if w_0 = 0 (f > 0, v_0 is orthogonal to q); on lambda_1 if f < 0
    throughout (then w_1 = 0 and v_1 is orthogonal to q). Inside the bracket
    lambda_0 < mu < lambda_1, so no term divides by zero; but a term
    overflows when its gap lambda_i - mu is tiny (subnormal), and two
    overflowing terms of opposite sign would sum to nan. Then f's sign is
    taken from f times the smallest gap, whose terms are all at most w_i in
    size. A second reference, beside ``q_orthogonal_min``, of
    ``coercivity_probe``'s ``min_q_orthogonal``.
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


@dataclass
class _DenseOperator(LinearizedOperator):
    dense: np.ndarray = None

    @property
    def matrix(self):
        return self.dense

    def apply(self, v):
        return (self.dense @ np.asarray(v).T).T


def with_matrix(op, mat):
    """``op`` with its collocation matrix replaced by ``mat``, which must be
    reflection-invariant: ``matrix`` is mat and ``apply`` is mat @ v, so
    ``spectrum``, ``coercivity_probe`` and ``full_eigh_spectrum`` see the same
    operator.
    """
    return _DenseOperator(gs=op.gs, dense=mat)


def full_eigh_spectrum(op):
    """The spectrum of L from one N x N ``eigh`` of the assembled matrix.

    The dense reference of the matrix-free ``spectrum``: all eigenvalues,
    ``q_weights`` (Q's spectral measure, for ``secular_min``), mu0, chi0
    (unit L2 norm, sign-fixed positive), the near-kernel pairs and
    the parity gap, each eigenvector's parity read from the sign of (v, Rv)
    with R the grid reflection, and ``spectrum``'s band rule
    kernel_tol = KERNEL_TOL_REL * (1 + k_max^alpha). ``coercivity_probe``
    accepts the result in place of a ``SpectrumReport``.
    """
    grid = op.grid
    evals, evecs = np.linalg.eigh(op.matrix)
    ktol = KERNEL_TOL_REL * (1.0 + grid.k_max ** op.alpha)
    chi0 = evecs[:, 0].copy()
    if chi0[np.argmax(np.abs(chi0))] < 0:
        chi0 = -chi0
    chi0 = chi0 / grid.norm_l2(chi0)
    near_kernel = [(float(evals[i]), evecs[:, i].copy()) for i in np.where(np.abs(evals) <= ktol)[0]]
    q = op.gs.values
    reflected = evecs[(-np.arange(grid.n)) % grid.n]
    even = np.sum(evecs * reflected, axis=0) > 0.0
    return SimpleNamespace(
        eigenvalues=evals,
        q_weights=(q @ evecs) ** 2 / float(np.dot(q, q)),
        mu0=float(evals[0]),
        chi0=chi0,
        near_kernel=near_kernel,
        kernel_tol=ktol,
        parity_gap=float(evals[~even][0] - evals[even][0]),
    )


def global_structure_ok(op, ref):
    """The structure rule stated over the merged spectrum of a ``full_eigh_spectrum``.

    The reference of ``spectrum``'s per-parity tally: exactly one eigenvalue
    below -kernel_tol, exactly one near-kernel vector, a positive parity gap,
    that vector aligned with Q' (|cos| >= 0.999), and chi0 even (defect
    <= 1e-8) with no sign change deeper than 1e-8 * max chi0 and its
    resolution floor sqrt(spectral tail fraction) * max chi0.
    """
    grid = op.grid
    evals, ktol = ref.eigenvalues, ref.kernel_tol
    if np.sum(evals < -ktol) != 1 or len(ref.near_kernel) != 1 or not ref.parity_gap > 0.0:
        return False
    v, qp = ref.near_kernel[0][1], op.gs.derivative()
    if abs(float(v @ qp)) / np.sqrt(float(v @ v) * float(qp @ qp)) < 0.999:
        return False
    chi0 = ref.chi0
    if np.max(np.abs(chi0 - grid.reflect(chi0))) > 1e-8 * np.max(np.abs(chi0)):
        return False
    peak, dip = float(np.max(chi0)), -float(np.min(chi0))
    floor = np.sqrt(grid.spectral_tail_fraction(grid.transform(chi0))) * peak
    return dip <= max(1e-8 * peak, floor)
