"""Solitary-wave ground states of |D|^alpha Q + Q = |Q|^{2 alpha} Q / (2 alpha + 1).

The profile is computed by a stabilized, Anderson-mixed Petviashvili
fixed-point iteration, walked down in alpha from the explicit alpha = 2
profile on the half grid before one solve on the full grid. Each map is
taken in Fourier space with one forward and one inverse real FFT: the
Rayleigh quotient by Parseval, the symmetrization as the real part of the
image's spectrum, the mixed iterate's spectrum as the mixing's combination
of the images' spectra, and the Gram matrix of the mixing one row per map;
|u|^{2 alpha} u comes from the power kernel the flow uses. It is certified
against the integral identities any solution must satisfy, against
positivity/evenness/monotonicity, and against the expected tail law: algebraic
|x|^(-(1+alpha)) for alpha < 2, exponential e^(-|x|) at alpha = 2.
The same module exposes the Gagliardo-Nirenberg quotient whose minimizer the
ground state is.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ConvergenceError, ResolutionError, SeedError
from .spectral import PAD, Grid, _abs_power_times, _check_alpha

TOL_DIFF = 1e-12         # Petviashvili stop: sup|G(u) - u| of the map G
TOL_RESIDUAL = 1e-9      # convergence: L2 norm of the equation residual
MAX_ITERS = 2000
ANDERSON_DEPTH = 3       # differences of past iterates the Petviashvili mixing keeps
LADDER_STEP = 0.25       # continuation_ladder's spacing of the rungs in alpha
RUNG_MERGE = 1e-9        # a ladder rung this close above the target alpha is dropped
DECAY_WINDOW = (0.25, 0.5)   # decay_fit's window, as fractions of the half-length
TAIL_GUARD = 0.05        # shape_certificate skips this fraction of (0, L) at the seam
TAPER = (0.5, 0.95)      # scaling_generator's cutoff: 1 up to TAPER[0] L, 0 from TAPER[1] L
GN_TRIALS = 100          # random trial fields of gn_report


def sech(z):
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def gkdv_profile(x):
    """Explicit alpha=2 profile 15^(1/4) / cosh^(1/2)(2x)."""
    return 15.0**0.25 * np.sqrt(sech(2.0 * x))


def equation_residual(grid: Grid, u, alpha: float):
    """|D|^alpha u + u - |u|^{2a} u/(2a+1), evaluated spectrally/pointwise."""
    return grid.apply_riesz(u, alpha) + u - _abs_power_times(u, 2.0 * alpha) / (2.0 * alpha + 1.0)


@dataclass(frozen=True)
class Rung:
    """One solve of a continuation ladder."""

    alpha: float
    n: int              # grid points
    iterations: int     # Petviashvili maps
    sup_diff: float     # final sup|G(u) - u|


@dataclass
class GroundState:
    alpha: float
    grid: Grid
    values: np.ndarray
    iterations: int
    residual: float                 # L2 norm of the equation residual
    sup_diff: float                 # final sup|G(u) - u|
    pohozaev_residuals: tuple       # (mass/gradient, mass/potential, energy) relative
    ladder: tuple = ()              # the Rung of every solve that made it, last one this

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


def _sign_indefinite(u):
    return np.min(u) < -0.1 * np.max(u)


def _petviashvili(alpha: float, grid: Grid, u):
    """The Anderson-mixed Petviashvili loop of ``solve_ground_state`` from the
    seed u: (the last image, the number of maps, its sup|G(u) - u|, the
    history of sup|G(u) - u|).

    Each map takes one forward and one inverse real FFT. The Rayleigh quotient
    comes from the spectra U of u and NL of |u|^{2a} u by Parseval. Since
    x_{N-j} = -x_j, a field's reflection has the conjugate spectrum, so the
    image's even part is the field of the quotient's multiple of
    Re NL / (1 + |k|^a). The mixed iterate and its spectrum are the same
    combination of the images and of their spectra, so U needs no transform,
    and the Gram matrix of the residual differences gains one row per map.
    """
    p = 2.0 * alpha + 1.0
    gamma = p / (p - 1.0)
    denom = 1.0 + grid.riesz(alpha)
    weight = grid._parseval_weight
    lin_weight = weight * denom

    def image(u, U, out):
        """The spectrum of G(u) into out, which may be U, the spectrum of u."""
        NL = grid.transform(_abs_power_times(u, 2.0 * alpha))
        # sum (|D|^a u + u) u over sum |u|^{2a} u u / p, the 1/N of both sums
        # dropped, as numpy's pairwise sums of real products: a BLAS dot adds the
        # small high modes to the large low ones one by one, and its roundoff
        # biases m, and so the converged profile's scale, by 3e-14 at N = 2^19
        re, im = U.real, U.imag
        m = p * np.sum(lin_weight * (re * re + im * im)) / np.sum(weight * (NL.real * re + NL.imag * im))
        np.multiply(NL.real, m**gamma / p, out=out)
        out /= denom

    # one block per solve, so that mixing allocates no full-length array: the
    # ring buffers of the last differences of G(u) and of the residual G(u) - u,
    # then the residuals of this map and the last; the mixed iterate is written
    # where the next residual goes, which overwrites it in place. Then the ring
    # buffer of the differences of the images' (real) spectra, and two spectra:
    # the last image's and the other, which takes the mixed iterate's and then
    # the next image's
    depth_max, n, nk = ANDERSON_DEPTH, grid.n, len(grid.k)
    work = np.empty((2 * depth_max + 2) * n + (depth_max + 2) * nk)
    fields = work[: (2 * depth_max + 2) * n].reshape(-1, n)
    spectra = work[(2 * depth_max + 2) * n :].reshape(-1, nk)
    dg, df, (resid, f) = fields[:depth_max], fields[depth_max:-2], fields[-2:]
    dG, (G, spare) = spectra[:depth_max], spectra[depth_max:]
    gram = np.empty((depth_max, depth_max))
    U = grid.transform(u)
    g = None
    added = 0
    mixed = False
    history = []
    for it in range(1, MAX_ITERS + 1):
        if mixed and _sign_indefinite(u):
            u, U, g, added, mixed = g, G, None, 0, False
        if _sign_indefinite(u):
            raise SeedError(f"sign-indefinite iterate at step {it} (alpha={alpha})")
        image(u, U, spare)
        g_new = grid.field(spare)
        np.subtract(g_new, u, out=resid)
        diff = float(np.max(np.abs(resid)))
        history.append(diff)
        if not diff >= TOL_DIFF:  # converged, or NaN, which fails the check of the caller
            return g_new, it, diff, history
        if g is not None:
            j = added % depth_max
            np.subtract(g_new, g, out=dg[j])
            np.subtract(spare, G, out=dG[j])
            np.subtract(resid, f, out=df[j])
            added += 1
            depth = min(added, depth_max)
            gram[j, :depth] = gram[:depth, j] = df[:depth] @ df[j]
        u, g = g_new, g_new
        U, G, spare = spare, spare, G  # the old image's spectrum is free now
        resid, f = f, resid
        depth = min(added, depth_max)
        mixed = depth > 0
        if mixed:
            coef = np.linalg.lstsq(gram[:depth, :depth], df[:depth] @ f, rcond=None)[0]
            u = np.subtract(g, np.dot(coef, dg[:depth], out=resid), out=resid)
            U = np.subtract(G, np.dot(coef, dG[:depth], out=spare), out=spare)
    return u, it, diff, history


def solve_ground_state(alpha: float, grid: Grid, seed=None) -> GroundState:
    """Anderson-mixed Petviashvili iteration with stabilizer exponent (2a+1)/(2a).

    The map G(u) is one Petviashvili step followed by symmetrization about
    x = 0, which pins the profile to the even class; ``_petviashvili`` takes
    it in Fourier space. The next iterate is G(u) minus the combination of
    the last ANDERSON_DEPTH differences of G whose residual differences best
    cancel G(u) - u in least squares (type-II Anderson mixing; Walker & Ni,
    SIAM J. Numer. Anal. 49, 2011). A sign-indefinite mixed iterate drops the
    history for the plain image G(u); an unmixed one raises SeedError.
    Converged when sup|G(u) - u| < TOL_DIFF within MAX_ITERS maps and the
    equation residual of G(u), which is returned, is below TOL_RESIDUAL in L2.
    """
    _check_alpha(alpha)
    seed = gkdv_profile(grid.x) if seed is None else grid.check_field(seed)
    u, it, diff, history = _petviashvili(alpha, grid, seed)
    res = equation_residual(grid, u, alpha)
    res_l2 = grid.norm_l2(res)
    if not (diff < TOL_DIFF and res_l2 < TOL_RESIDUAL):
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
        residual=res_l2,
        sup_diff=diff,
        pohozaev_residuals=(ra, rb, rc),
        ladder=(Rung(alpha, grid.n, it, diff),),
    )


def ladder_rungs(alpha: float, step: float):
    """The rungs 2 - k*step for as long as they stay above alpha, then alpha itself.

    A rung within RUNG_MERGE of alpha is alpha's own rung.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ContractError(f"ladder step must be finite and positive, got {step}")
    rungs = []
    while 2.0 - len(rungs) * step > alpha + RUNG_MERGE:
        rungs.append(2.0 - len(rungs) * step)
    return rungs + [alpha]


def continuation_ladder(alpha: float, grid: Grid, step: float = LADDER_STEP) -> GroundState:
    """Walk alpha down from 2.0, each converged profile seeding the next rung.

    With more than one rung, every rung, alpha included, is solved on the
    grid PAD times coarser, Grid(L, N/PAD), and alpha once more on ``grid``,
    seeded by the spectrally padded coarse profile. A ladder of one rung
    (alpha = 2) is one solve on ``grid``. The result's ``ladder`` records every solve.
    """
    _check_alpha(alpha)
    rungs = ladder_rungs(alpha, step)
    walk = grid if len(rungs) == 1 else Grid(grid.half_length, grid.n // PAD)
    record = []
    gs = None
    for a in rungs:
        seed = None if gs is None else gs.values
        gs = solve_ground_state(float(a), walk, seed=seed)
        record += gs.ladder
    if walk != grid:
        gs = solve_ground_state(alpha, grid, seed=walk.fine(walk.transform(gs.values)))
        record += gs.ladder
    return replace(gs, ladder=tuple(record))


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


def gn_report(gs: GroundState, rng) -> GNReport:
    """Evaluate j1 on the ground state and on randomized smooth trial fields drawn from ``rng``."""
    grid, alpha = gs.grid, gs.alpha
    j1_q = j1(grid, gs.values, alpha)
    vals = []
    for i in range(GN_TRIALS):
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
