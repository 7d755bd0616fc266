"""Algebraic weights and local-mass monotonicity functionals.

The weight is phi(x) = int_{-inf}^x <s>^{-2r} ds with 1/2 < r, dilated by A:
phi_A(x) = phi(x/A). Local mass across the soliton is almost non-increasing
(right check) / non-decreasing (left check) up to an error budget C0/x0^{2r-1}
calibrated once per (mu, r, A) on a reference run and then frozen, turning the
qualitative statements into regression checks. The Kato-identity breakdown of
d/dt of the weighted mass is exposed term by term.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ContractError, ConvergenceError
from .modulation import ModulationTrack, remainder
from .spectral import Grid

WINDOW_FRACTION = 0.05     # seam_window ramp width, as a fraction of the half-length
MAX_PAIRS = 64
CALIBRATION_MARGIN = 2.0
CALIBRATION_FLOOR = 1e-10
TABLE_DEGREE = 32          # highest Chebyshev degree a weight table may keep
TABLE_CUT = np.finfo(float).eps / 16   # series terms and table coefficients below this share are dropped
SERIES_MAX_TERMS = 120     # 2F1 Taylor terms a table may use


@dataclass
class Weight:
    """phi(x) = int_{-inf}^x <s>^{-2r} ds from two Chebyshev tables, a = r - 1/2.

    With t = 1/(1+x^2), Pfaff's transformation (DLMF 15.8.1) gives
    phi = phi_total/2 + x t^{1/2} 2F1(1-a, 1/2; 3/2; 1-t) for |x| <= 1, and
    the tail int_{|x|}^inf <s>^{-2r} ds = t^a 2F1(1/2, a; a+1; t) / (2a)
    (DLMF 8.17.7) gives phi for |x| > 1: the tail for x < 0 and phi_total
    minus it for x > 0. All terms of both series are positive, and both are
    needed on w in [0, 1/2] only, away from their branch point w = 1, so
    ``tables`` holds their Chebyshev coefficients in v = 1 - 4w (rows inner,
    outer), cut at rounding level by ``build_weight``.
    """

    r: float
    A: float
    phi_total: float         # int_R <s>^{-2r} ds = sqrt(pi) Gamma(r - 1/2) / Gamma(r)
    tables: np.ndarray = field(repr=False, compare=False)

    # -- unscaled profile -----------------------------------------------------

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        t = 1.0 / (1.0 + x * x)
        inner = t >= 0.5
        # v = 1 - 4w, with w = 1 - t inside and w = t outside
        both = _chebyshev_sums(self.tables, np.abs(4.0 * t - 2.0) - 1.0)
        h = np.where(inner, both[0], both[1])
        a = self.r - 0.5
        tail = t**a * h / (2.0 * a)
        return np.where(
            inner,
            0.5 * self.phi_total + x * np.sqrt(t) * h,
            np.where(x < 0.0, tail, self.phi_total - tail),
        )

    def dphi(self, x):
        return (1.0 + np.asarray(x, dtype=float) ** 2) ** (-self.r)

    # -- dilated weight -------------------------------------------------------

    def phi_a(self, x):
        return self.phi(np.asarray(x) / self.A)

    def dphi_a(self, x):
        return self.dphi(np.asarray(x) / self.A) / self.A

    def sqrt_dphi_a(self, x):
        """(phi_A')^{1/2} = A^{-1/2} <x/A>^{-r}."""
        return (1.0 + (np.asarray(x) / self.A) ** 2) ** (-self.r / 2.0) / np.sqrt(self.A)


def _chebyshev_sums(tables, v):
    """Each row of ``tables`` summed as a Chebyshev series at v, |v| <= 1; shape (rows,) + v.shape.

    The basis T_k(v) comes from its three-term recurrence, two in-place ufunc
    calls per degree, and one matrix product sums both tables.
    """
    flat = v.reshape(-1)
    basis = np.empty((tables.shape[1], flat.size))
    basis[0] = 1.0
    basis[1] = flat
    v2 = flat + flat
    for k in range(2, len(basis)):
        np.multiply(v2, basis[k - 1], out=basis[k])
        basis[k] -= basis[k - 2]
    return (tables @ basis).reshape((len(tables),) + v.shape)


def _chebyshev_table(a, b, c):
    """Chebyshev coefficients of 2F1(a, b; c; w) on 0 <= w <= 1/2, in T_k(v) with v = 1 - 4w.

    For the two series of Weight the Taylor coefficients p_n are positive and
    decreasing, so at w = 1/2 the series is summed until p_n 2^-n falls below
    TABLE_CUT of the partial sum. Each power w^n = ((1 - v)/4)^n re-expands
    exactly: its T_k coefficient is (-1)^k C(2n, n-k) 2^(1-3n), half that for
    k = 0, so each table coefficient is a sum of terms of one sign.
    Coefficients below TABLE_CUT of the coefficients' absolute sum are dropped.
    ConvergenceError is raised when the series needs more than
    SERIES_MAX_TERMS terms or the table a degree above TABLE_DEGREE, so that a
    table is never truncated silently.
    """
    n = np.arange(SERIES_MAX_TERMS - 1)
    p = np.cumprod(np.concatenate([[1.0], (a + n) * (b + n) / ((c + n) * (n + 1.0))]))
    terms = p * 0.5 ** np.arange(SERIES_MAX_TERMS)
    done = terms < TABLE_CUT * np.cumsum(terms)
    if not done.any():
        raise ConvergenceError(f"2F1({a}, {b}; {c}; 1/2) not converged in {SERIES_MAX_TERMS} terms")
    n_terms = int(np.argmax(done)) + 1
    basis = np.zeros((n_terms, n_terms))
    for m in range(n_terms):
        basis[: m + 1, m] = [(-1) ** k * math.comb(2 * m, m - k) * 2.0 ** (1 - 3 * m) for k in range(m + 1)]
    basis[0] *= 0.5
    coef = basis @ p[:n_terms]
    keep = np.flatnonzero(np.abs(coef) >= TABLE_CUT * np.sum(np.abs(coef)))
    if keep[-1] > TABLE_DEGREE:
        raise ConvergenceError(
            f"2F1({a}, {b}; {c}; w) needs a Chebyshev table of degree {keep[-1]} > {TABLE_DEGREE}"
        )
    return coef[: keep[-1] + 1]


def build_weight(r: float, A: float) -> Weight:
    """The weight of exponent r, 1/2 < r <= 3/2, dilated by A >= 1."""
    if not r > 0.5:
        raise ContractError(f"r must exceed 1/2, got {r}")
    if r > 1.5:
        raise ContractError(f"r must not exceed (alpha+1)/2 <= 3/2, got {r}")
    if not 1.0 <= A < math.inf:
        raise ContractError(f"A must be finite and >= 1, got {A}")
    a = float(r) - 0.5
    inner = _chebyshev_table(1.0 - a, 0.5, 1.5)
    outer = _chebyshev_table(0.5, a, a + 1.0)
    tables = np.zeros((2, max(len(inner), len(outer), 2)))
    tables[0, : len(inner)] = inner
    tables[1, : len(outer)] = outer
    phi_total = math.sqrt(math.pi) * math.gamma(a) / math.gamma(r)
    return Weight(r=float(r), A=float(A), phi_total=phi_total, tables=tables)


def seam_window(grid: Grid):
    """1 on the inner part of the box, cosine ramp to 0 on the outer WINDOW_FRACTION."""
    ax = np.abs(grid.x) / grid.half_length
    t = np.clip((ax - (1.0 - 2.0 * WINDOW_FRACTION)) / WINDOW_FRACTION, 0.0, 1.0)
    return 0.5 + 0.5 * np.cos(np.pi * t)


# -- Kato identity breakdown ---------------------------------------------------


@dataclass
class KatoTerms:
    transport: float
    dispersive: float
    nonlinear: float
    total: float
    dissipative_surrogate: float   # |||D|^{a/2}(u sqrt(phi_A'))||^2
    functional: float              # M_phi = (1/2) int u^2 phi_A


def weighted_mass(grid: Grid, u, weight: Weight, center: float):
    """M_phi = (1/2) int u^2 phi_A(x - center)."""
    return 0.5 * grid.quadrature(u**2 * weight.phi_a(grid.x - center))


def kato_terms(grid: Grid, u, weight: Weight, center: float, alpha: float, rho_t: float) -> KatoTerms:
    """Terms of d/dt (1/2) int u^2 phi_A(x - center(t)) along the focusing flow."""
    u = grid.check_field(u)
    xt = grid.x - center
    phi = weight.phi_a(xt)
    dphi = weight.dphi_a(xt)
    ux = grid.derivative(u)
    du = grid.apply_riesz(u, alpha)
    transport = -0.5 * rho_t * grid.quadrature(u**2 * dphi)
    dispersive = grid.quadrature(-du * (ux * phi + u * dphi))
    nonlinear = grid.quadrature(np.abs(u) ** (2.0 * alpha + 2.0) * dphi) / (2.0 * (alpha + 1.0))
    surrogate = grid.sobolev_seminorm_sq(u * weight.sqrt_dphi_a(xt), alpha)
    return KatoTerms(
        transport=transport,
        dispersive=dispersive,
        nonlinear=nonlinear,
        total=transport + dispersive + nonlinear,
        dissipative_surrogate=surrogate,
        functional=weighted_mass(grid, u, weight, center),
    )


def commutator_residual(grid: Grid, u, weight: Weight, alpha: float):
    """int(-|D|^a u) u phi_A' + |||D|^{a/2}(u sqrt(phi_A'))||^2 and its budget integral.

    The weight is centered at x = 0. The residual is bounded by
    (C/A^a) int u^2 phi_A'; returns (residual, budget_integral) so callers
    can fit or check C.
    """
    dphi = weight.dphi_a(grid.x)
    du = grid.apply_riesz(u, alpha)
    lhs = grid.quadrature(-du * u * dphi)
    sur = grid.sobolev_seminorm_sq(u * weight.sqrt_dphi_a(grid.x), alpha)
    return lhs + sur, grid.quadrature(u**2 * dphi)


# -- monotonicity checks --------------------------------------------------------


@dataclass
class MonotonicityReport:
    """Pairwise statements lhs <= base + c0 * unit_budget.

    Everything that depends on the budget constant is derived from ``c0``, so
    ``dataclasses.replace(report, c0=c)`` re-budgets a report without
    recomputing a functional.
    """

    kind: str                      # right | left | eta
    x0: float
    mu: float
    r: float
    A: float
    c0: float
    pairs: list                    # (t1, t2) or (s1, s2)
    lhs: np.ndarray
    base: np.ndarray               # right-hand side before the error budget
    unit_budget: np.ndarray        # error budget at c0 = 1

    @property
    def error_budget(self):
        return self.c0 * self.unit_budget

    @property
    def rhs(self):
        return self.base + self.error_budget

    @property
    def slack(self):
        """rhs - lhs, reported even when negative."""
        return self.rhs - self.lhs

    @property
    def verdicts(self):
        return self.lhs <= self.rhs

    @property
    def all_true(self):
        return bool(np.all(self.verdicts))


def _select_pairs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > MAX_PAIRS:
        stride = int(np.ceil(len(pairs) / MAX_PAIRS))
        pairs = pairs[::stride]
    return pairs


def _check_domain(x0, mu, times, *per_frame):
    """ContractError unless x0 > 1, 0 < mu < 1 and ``per_frame`` has one entry per time."""
    if x0 <= 1.0:
        raise ContractError(f"x0 must exceed 1, got {x0}")
    if not 0.0 < mu < 1.0:
        raise ContractError(f"mu must lie in (0,1), got {mu}")
    if any(len(v) != len(times) for v in per_frame):
        raise ContractError("times/states/rhos length mismatch")


def _report(kind, times, pair_terms, weight: Weight, x0, mu, c0):
    """Evaluate pair_terms(i, j) -> (lhs, base, unit_budget) on the sampled pairs."""
    pairs = _select_pairs(len(times))
    lhs, base, unit = np.array([pair_terms(i, j) for i, j in pairs], dtype=float).reshape(-1, 3).T
    return MonotonicityReport(
        kind=kind, x0=x0, mu=mu, r=weight.r, A=weight.A, c0=c0,
        pairs=[(times[i], times[j]) for i, j in pairs], lhs=lhs, base=base, unit_budget=unit,
    )


def _mass_functional(grid, u, weight, center, window):
    return grid.quadrature(u**2 * weight.phi_a(grid.x - center) * window)


def _check_sided(
    kind, times, states, rhos, weight: Weight, x0: float, mu: float, c0: float, grid: Grid,
) -> MonotonicityReport:
    """Weighted mass at t2 against its t1 value, x0 to the right or left of rho.

    lhs(t2) <= base(t1) + c0/x0^{2r-1} for all sampled pairs t1 < t2. The
    mu-shift of the center moves the t1 functional on the right and the t2
    functional on the left; the unshifted side is evaluated once per frame.
    """
    _check_domain(x0, mu, times, states, rhos)
    side = 1.0 if kind == "right" else -1.0
    win = seam_window(grid)
    unit = x0 ** (1.0 - 2.0 * weight.r)

    def functional(k, shift):
        return _mass_functional(grid, states[k], weight, rhos[k] + shift + side * x0, win)

    unshifted = cache(lambda k: functional(k, 0.0))

    def pair_terms(i, j):
        shift = side * mu * (rhos[j] - rhos[i])
        if kind == "right":
            return unshifted(j), functional(i, shift), unit
        return functional(j, shift), unshifted(i), unit

    return _report(kind, times, pair_terms, weight, x0, mu, c0)


def check_right_monotonicity(
    times, states, rhos, weight: Weight, x0: float, mu: float, c0: float, grid: Grid,
) -> MonotonicityReport:
    """Weighted mass on the right of the soliton, mu-shift at t1."""
    return _check_sided("right", times, states, rhos, weight, x0, mu, c0, grid)


def check_left_monotonicity(
    times, states, rhos, weight: Weight, x0: float, mu: float, c0: float, grid: Grid,
) -> MonotonicityReport:
    """Mirror statement on the left, mu-shift at t2."""
    return _check_sided("left", times, states, rhos, weight, x0, mu, c0, grid)


def check_eta_monotonicity(
    track: ModulationTrack, states, gs, weight: Weight, x0s, mu: float, c_err: float,
) -> list:
    """Weighted remainder mass in rescaled time, bounded-soliton regime: one
    report per x0 of ``x0s``.

    ``states`` are the frames of ``track``, one per track time; each remainder
    is rebuilt once per call, for all of ``x0s``, by ``modulation.remainder``
    at the frame's stored (lam, rho), on the grid of the ground state ``gs``.
    The error budget is c_err * int_{s1}^{s2} ||eta(s)||^2 (x0+mu(s2-s))^{-2r} ds,
    quadratured over the track samples.
    """
    for x0 in x0s:
        _check_domain(x0, mu, track.t, states)
    grid, a = gs.grid, gs.alpha
    if track.alpha != a:
        raise ContractError(f"track of alpha {track.alpha} against a ground state of alpha {a}")
    win = seam_window(grid)
    eta = cache(lambda i: remainder(states[i], gs, track.lam[i], track.rho[i]))

    def report(x0):
        def functional(i, shift):
            scale = track.lam[i] ** (2.0 / a)
            arg = scale * grid.x - x0 - shift
            w = (weight.phi_a(arg) - weight.phi_a(-x0 - shift)) * win
            return grid.quadrature(eta(i) ** 2 * w)

        unshifted = cache(lambda j: functional(j, 0.0))

        def pair_terms(i, j):
            s1, s2 = track.s[i], track.s[j]
            ss = track.s[i:j + 1]
            integrand = track.eta_l2[i:j + 1] ** 2 / (x0 + mu * (s2 - ss)) ** (2.0 * weight.r)
            return unshifted(j), functional(i, mu * (s2 - s1)), np.trapezoid(integrand, ss)

        return _report("eta", track.s, pair_terms, weight, x0, mu, c_err)

    return [report(x0) for x0 in x0s]


# -- calibration -----------------------------------------------------------------


def calibrate(reports):
    """The budget constant covering the worst deficit of ``reports``, with margin.

    Each report's deficit per unit budget is (lhs - base) / unit_budget over
    its pairs with a positive unit budget. On the c0 = 0 reports of a
    reference run, one per x0, this is the constant that later checks take
    as their c0; they are then regression checks against that run.
    """
    worst = [CALIBRATION_FLOOR]
    for rep in reports:
        covered = rep.unit_budget > 0
        worst.extend((rep.lhs - rep.base)[covered] / rep.unit_budget[covered])
    return CALIBRATION_MARGIN * float(max(worst))


calibrate_budget = calibrate_eta_budget = calibrate  # the names perfbench/tracing.py traces
