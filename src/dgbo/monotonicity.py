"""Algebraic weights and local-mass monotonicity functionals.

The weight is phi(x) = int_{-inf}^x <s>^{-2r} ds with 1/2 < r, dilated by A:
phi_A(x) = phi(x/A). Local mass across the soliton is almost non-increasing
(right check) / non-decreasing (left check) up to an error budget C0/x0^{2r-1}
calibrated once per (mu, r, A) on a reference run and then frozen, turning the
qualitative statements into regression checks. The Kato-identity breakdown of
d/dt of the weighted mass is exposed term by term.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.special import betainc
from scipy.special import gamma as gamma_fn

from .errors import ContractError, WindowError
from .modulation import ModulationTrack
from .spectral import Grid

WINDOW_FRACTION = 0.05     # seam_window ramp width, as a fraction of the half-length
MAX_PAIRS = 64
CALIBRATION_MARGIN = 2.0
CALIBRATION_FLOOR = 1e-10


@dataclass
class Weight:
    r: float
    A: float
    phi_total: float         # int_R <s>^{-2r} ds = sqrt(pi) Gamma(r - 1/2) / Gamma(r)

    # -- unscaled profile -----------------------------------------------------

    def phi(self, x):
        """Closed form through t = 1/(1+s^2): the tail int_{|x|}^inf <s>^{-2r} ds
        is (phi_total/2) I_{1/(1+x^2)}(r - 1/2, 1/2), I the regularized incomplete beta."""
        x = np.asarray(x, dtype=float)
        tail = 0.5 * self.phi_total * betainc(self.r - 0.5, 0.5, 1.0 / (1.0 + x**2))
        return np.where(x <= 0.0, tail, self.phi_total - tail)

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


def build_weight(r: float, A: float) -> Weight:
    """The weight of exponent r, 1/2 < r <= 3/2, dilated by A >= 1."""
    if not r > 0.5:
        raise ContractError(f"r must exceed 1/2, got {r}")
    if r > 1.5:
        raise ContractError(f"r must not exceed (alpha+1)/2 <= 3/2, got {r}")
    if A < 1.0:
        raise ContractError(f"A must be >= 1, got {A}")
    phi_total = float(np.sqrt(np.pi) * gamma_fn(r - 0.5) / gamma_fn(r))
    return Weight(r=float(r), A=float(A), phi_total=phi_total)


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
    du = grid.apply_multiplier(u, alpha, "riesz")
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
    du = grid.apply_multiplier(u, alpha, "riesz")
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


def _select_pairs(n, max_pairs):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > max_pairs:
        stride = int(np.ceil(len(pairs) / max_pairs))
        pairs = pairs[::stride]
    return pairs


def _check_domain(x0, mu):
    if x0 <= 1.0:
        raise ContractError(f"x0 must exceed 1, got {x0}")
    if not 0.0 < mu < 1.0:
        raise ContractError(f"mu must lie in (0,1), got {mu}")


def _report(kind, times, pair_terms, weight: Weight, x0, mu, c0, max_pairs):
    """Evaluate pair_terms(i, j) -> (lhs, base, unit_budget) on the sampled pairs."""
    pairs = _select_pairs(len(times), max_pairs)
    lhs, base, unit = np.array([pair_terms(i, j) for i, j in pairs], dtype=float).reshape(-1, 3).T
    return MonotonicityReport(
        kind=kind, x0=x0, mu=mu, r=weight.r, A=weight.A, c0=c0,
        pairs=[(times[i], times[j]) for i, j in pairs], lhs=lhs, base=base, unit_budget=unit,
    )


def _mass_functional(grid, u, weight, center, window):
    return grid.quadrature(u**2 * weight.phi_a(grid.x - center) * window)


def _check_sided(
    kind, times, states, rhos, weight: Weight, x0: float, mu: float, c0: float,
    grid: Grid, max_pairs: int,
) -> MonotonicityReport:
    """Weighted mass at t2 against its t1 value, x0 to the right or left of rho.

    lhs(t2) <= base(t1) + c0/x0^{2r-1} for all sampled pairs t1 < t2. The
    mu-shift of the center moves the t1 functional on the right and the t2
    functional on the left; the unshifted side is evaluated once per frame.
    """
    _check_domain(x0, mu)
    if len(times) != len(states) or len(times) != len(rhos):
        raise WindowError("times/states/rhos length mismatch")
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

    return _report(kind, times, pair_terms, weight, x0, mu, c0, max_pairs)


def check_right_monotonicity(
    times, states, rhos, weight: Weight, x0: float, mu: float, c0: float,
    grid: Grid, *, max_pairs: int = MAX_PAIRS,
) -> MonotonicityReport:
    """Weighted mass on the right of the soliton, mu-shift at t1."""
    return _check_sided("right", times, states, rhos, weight, x0, mu, c0, grid, max_pairs)


def check_left_monotonicity(
    times, states, rhos, weight: Weight, x0: float, mu: float, c0: float,
    grid: Grid, *, max_pairs: int = MAX_PAIRS,
) -> MonotonicityReport:
    """Mirror statement on the left, mu-shift at t2."""
    return _check_sided("left", times, states, rhos, weight, x0, mu, c0, grid, max_pairs)


def check_eta_monotonicity(
    track: ModulationTrack, weight: Weight, x0: float, mu: float, c_err: float,
    grid: Grid, *, max_pairs: int = MAX_PAIRS,
) -> MonotonicityReport:
    """Weighted remainder mass in rescaled time, bounded-soliton regime.

    The error budget is c_err * int_{s1}^{s2} ||eta(s)||^2 (x0+mu(s2-s))^{-2r} ds,
    quadratured over the track samples.
    """
    _check_domain(x0, mu)
    if not track.eta_fields:
        raise WindowError("track carries no remainder fields")
    win = seam_window(grid)
    a = track.alpha

    def functional(i, shift):
        scale = track.lam[i] ** (2.0 / a)
        arg = scale * grid.x - x0 - shift
        w = (weight.phi_a(arg) - weight.phi_a(-x0 - shift)) * win
        return grid.quadrature(track.eta_fields[i] ** 2 * w)

    unshifted = cache(lambda j: functional(j, 0.0))

    def pair_terms(i, j):
        s1, s2 = track.s[i], track.s[j]
        ss = track.s[i:j + 1]
        integrand = track.eta_l2[i:j + 1] ** 2 / (x0 + mu * (s2 - ss)) ** (2.0 * weight.r)
        return unshifted(j), functional(i, mu * (s2 - s1)), np.trapezoid(integrand, ss)

    return _report("eta", track.s, pair_terms, weight, x0, mu, c_err, max_pairs)


# -- calibration -----------------------------------------------------------------


def calibrate(reports):
    """The budget constant covering the worst deficit of ``reports``, with margin.

    Each report's deficit per unit budget is (lhs - base) / unit_budget over
    its pairs with a positive unit budget.
    """
    worst = [CALIBRATION_FLOOR]
    for rep in reports:
        covered = rep.unit_budget > 0
        worst.extend((rep.lhs - rep.base)[covered] / rep.unit_budget[covered])
    return CALIBRATION_MARGIN * float(max(worst))


def calibrate_budget(
    times, states, rhos, weight: Weight, x0_list, mu: float, grid: Grid, kind: str = "right",
):
    """C0 from a reference run, with margin.

    Later checks take it as their c0 and are then regression checks against
    the reference run.
    """
    check = check_right_monotonicity if kind == "right" else check_left_monotonicity
    return calibrate([check(times, states, rhos, weight, x0, mu, 0.0, grid) for x0 in x0_list])


def calibrate_eta_budget(track: ModulationTrack, weight: Weight, x0_list, mu: float, grid: Grid):
    """Reference constant for the eta-monotonicity error term."""
    return calibrate([check_eta_monotonicity(track, weight, x0, mu, 0.0, grid) for x0 in x0_list])
