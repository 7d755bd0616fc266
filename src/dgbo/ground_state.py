"""Solitary-wave ground states of |D|^alpha Q + Q = |Q|^{2 alpha} Q / (2 alpha + 1).

The profile is computed by a stabilized Petviashvili fixed-point iteration and
certified against the integral identities any solution must satisfy, against
positivity/evenness/monotonicity, and against the expected tail law: algebraic
|x|^(-(1+alpha)) for alpha < 2, exponential e^(-|x|) at alpha = 2.
The same module exposes the Gagliardo-Nirenberg quotient whose minimizer the
ground state is.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ConvergenceError, ResolutionError, SeedError
from .spectral import Grid, _check_alpha

TOL_DIFF = 1e-12         # Petviashvili stop: successive sup-norm difference
TOL_RESIDUAL = 1e-9      # convergence: L2 norm of the equation residual
MAX_ITERS = 2000
DECAY_WINDOW = (0.25, 0.5)   # decay_fit's window, as fractions of the half-length
TAIL_GUARD = 0.05        # shape_certificate skips this fraction of (0, L) at the seam
TAPER = (0.5, 0.95)      # scaling_generator's cutoff: 1 up to TAPER[0] L, 0 from TAPER[1] L


def sech(z):
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def gkdv_profile(x):
    """Explicit alpha=2 profile 15^(1/4) / cosh^(1/2)(2x)."""
    return 15.0**0.25 * np.sqrt(sech(2.0 * x))


def equation_residual(grid: Grid, u, alpha: float):
    """|D|^alpha u + u - |u|^{2a} u/(2a+1), evaluated spectrally/pointwise."""
    p = 2.0 * alpha + 1.0
    return grid.apply_multiplier(u, alpha, "riesz") + u - np.abs(u) ** (2.0 * alpha) * u / p


@dataclass
class GroundState:
    alpha: float
    grid: Grid
    values: np.ndarray
    iterations: int
    converged: bool
    residual: float                 # L2 norm of the equation residual
    sup_diff: float                 # last successive sup-norm difference
    pohozaev_residuals: tuple       # (mass/gradient, mass/potential, energy) relative
    energy_residual: float

    def derivative(self):
        return self.grid.derivative(self.values)

    def mass(self):
        return self.grid.inner(self.values, self.values)


def pohozaev_residuals(grid: Grid, u, alpha: float):
    """Relative defects of the three identities forced on any solution:
    int Q^2 = a int ||D|^{a/2}Q|^2 = a/((2a+1)(a+1)) int Q^{2a+2}, and E(Q)=0.
    """
    q2 = grid.inner(u, u)
    grad2 = grid.sobolev_seminorm_sq(u, alpha)
    pot = grid.quadrature(np.abs(u) ** (2.0 * alpha + 2.0))
    ra = abs(q2 - alpha * grad2) / q2
    rb = abs(q2 - alpha / ((2.0 * alpha + 1.0) * (alpha + 1.0)) * pot) / q2
    energy = grad2 - pot / ((alpha + 1.0) * (2.0 * alpha + 1.0))
    rc = abs(energy) / grad2
    return ra, rb, rc


def solve_ground_state(alpha: float, grid: Grid, seed=None) -> GroundState:
    """Petviashvili iteration with stabilizer exponent (2a+1)/(2a).

    Each iterate is symmetrized about x = 0, pinning the profile to the even
    class. Converged when the successive sup difference drops below
    TOL_DIFF within MAX_ITERS iterations and the equation residual below
    TOL_RESIDUAL in L2.
    """
    _check_alpha(alpha)
    if seed is None:
        u = gkdv_profile(grid.x)
    else:
        u = grid.check_field(seed).copy()
    p = 2.0 * alpha + 1.0
    gamma = p / (p - 1.0)
    riesz = grid.multiplier(alpha, "riesz")
    denom = 1.0 + riesz
    history = []
    diff = np.inf
    for it in range(1, MAX_ITERS + 1):
        if np.min(u) < -0.1 * np.max(u):
            raise SeedError(f"sign-indefinite iterate at step {it} (alpha={alpha})")
        nl = np.abs(u) ** (2.0 * alpha) * u / p
        lin = grid.field(riesz * grid.transform(u)) + u
        m = float(np.sum(lin * u) / np.sum(nl * u))
        unew = grid.field(m**gamma * grid.transform(nl) / denom)
        unew = grid.symmetrize(unew)
        diff = float(np.max(np.abs(unew - u)))
        u = unew
        history.append(diff)
        if diff < TOL_DIFF:
            break
    res = equation_residual(grid, u, alpha)
    res_l2 = grid.norm_l2(res)
    converged = diff < TOL_DIFF and res_l2 < TOL_RESIDUAL
    if not converged:
        raise ConvergenceError(
            f"Petviashvili stalled at alpha={alpha}: sup diff {diff:.3e}, "
            f"residual {res_l2:.3e} after {it} iterations",
            history=history,
        )
    ra, rb, rc = pohozaev_residuals(grid, u, alpha)
    return GroundState(
        alpha=alpha,
        grid=grid,
        values=u,
        iterations=it,
        converged=True,
        residual=res_l2,
        sup_diff=diff,
        pohozaev_residuals=(ra, rb, rc),
        energy_residual=rc,
    )


def continuation_ladder(alpha: float, grid: Grid, step: float = 0.25) -> GroundState:
    """Walk alpha down from 2.0, each converged profile seeding the next rung."""
    _check_alpha(alpha)
    rungs = list(np.arange(2.0, alpha, -step)) + [alpha]
    gs = None
    for a in rungs:
        seed = None if gs is None else gs.values
        gs = solve_ground_state(float(a), grid, seed=seed)
    return gs


# -- certification helpers ----------------------------------------------------


def decay_fit(gs: GroundState):
    """Least-squares slope of log Q against log x on DECAY_WINDOW, in units of L.

    Expected near -(1+alpha) for alpha < 2. Raises ResolutionError when the
    tail sits at the spectral noise floor (notably the exponentially decaying
    alpha=2 profile, whose tail underflows any double-precision grid).
    """
    grid, u = gs.grid, gs.values
    L = grid.half_length
    w0, w1 = DECAY_WINDOW
    mask = (grid.x >= w0 * L) & (grid.x <= w1 * L)
    tail = u[mask]
    floor = 1e3 * np.finfo(float).eps * float(np.max(u))
    if np.min(tail) <= floor:
        raise ResolutionError(
            f"tail below noise floor on [{w0}L, {w1}L]; "
            "increase L, or the decay is faster than algebraic"
        )
    slope = float(np.polyfit(np.log(grid.x[mask]), np.log(tail), 1)[0])
    return slope


def shape_certificate(gs: GroundState):
    """Positivity, evenness and monotone decrease on (0, (1 - TAIL_GUARD) L).

    Checks apply on the resolved domain: values at the spectral roundoff
    floor (the case for the exponentially decaying alpha=2 tail) are exempt.
    """
    grid, u = gs.grid, gs.values
    floor = 100.0 * np.finfo(float).eps * float(np.max(u))
    even_defect = float(np.max(np.abs(u - grid.reflect(u))))
    positive = bool(np.min(u) > -floor and np.all(u[np.abs(u) > floor] > 0.0))
    n_guard = int((1.0 - TAIL_GUARD) * grid.n / 2)
    right = u[grid.n // 2 : grid.n // 2 + n_guard]
    monotone = bool(np.all(np.diff(right) < floor))
    return {"positive": positive, "even_defect": even_defect, "monotone_right": monotone}


def scaling_generator(gs: GroundState):
    """(Q + 2 x Q')/alpha with x tapered to zero near the periodic seam.

    The cutoff equals 1 on |x| <= TAPER[0]*L and falls smoothly to 0 by
    TAPER[1]*L; identities involving this field are only meaningful on the
    inner half-domain.
    """
    grid = gs.grid
    qp = gs.derivative()
    ax = np.abs(grid.x) / grid.half_length
    t = np.clip((ax - TAPER[0]) / (TAPER[1] - TAPER[0]), 0.0, 1.0)
    cut = 0.5 + 0.5 * np.cos(np.pi * t)
    return (gs.values + 2.0 * (grid.x * cut) * qp) / gs.alpha


# -- Gagliardo-Nirenberg ------------------------------------------------------


def j1(grid: Grid, v, alpha: float):
    """(int ||D|^{a/2} v|^2)(int v^2)^a / int |v|^{2a+2}; the ground state minimizes it."""
    _check_alpha(alpha)
    denom = grid.quadrature(np.abs(v) ** (2.0 * alpha + 2.0))
    if denom <= 0.0:
        raise ContractError("j1 undefined: int |v|^{2a+2} vanishes")
    return grid.sobolev_seminorm_sq(v, alpha) * grid.inner(v, v) ** alpha / denom


@dataclass
class GNReport:
    alpha: float
    j1_value: float          # j1 at the certified ground state
    sharp_constant: float    # best constant 1/j1(Q) in the inequality
    test_values: list        # (description, j1(v)) pairs
    minimal: bool            # j1(Q) <= j1(v) for every trial


def random_smooth_field(grid: Grid, rng):
    """Gaussians, wave packets and bump sums used as variational trial fields."""
    L = grid.half_length
    kind = rng.choice(["gaussian", "packet", "bumps"])
    x = grid.x

    def bump():
        a = rng.uniform(0.2, 2.0)
        w = rng.uniform(0.5, L / 8.0)
        c = rng.uniform(-L / 3.0, L / 3.0)
        return a * np.exp(-(((x - c) / w) ** 2))

    if kind == "gaussian":
        v = bump()
    elif kind == "packet":
        v = bump() * np.cos(rng.uniform(0.3, 3.0) * x + rng.uniform(0.0, 2.0 * np.pi))
    else:
        v = sum(bump() for _ in range(rng.integers(2, 5)))
    return v, kind


def gn_report(gs: GroundState, trials: int = 100, rng=None) -> GNReport:
    """Evaluate j1 on the ground state and on randomized smooth trial fields."""
    rng = np.random.default_rng(0) if rng is None else rng
    grid, alpha = gs.grid, gs.alpha
    j1_q = j1(grid, gs.values, alpha)
    vals = []
    for i in range(trials):
        v, kind = random_smooth_field(grid, rng)
        vals.append((f"{kind}-{i}", j1(grid, v, alpha)))
    minimal = all(val >= j1_q for _, val in vals)
    return GNReport(
        alpha=alpha,
        j1_value=j1_q,
        sharp_constant=1.0 / j1_q,
        test_values=vals,
        minimal=minimal,
    )
