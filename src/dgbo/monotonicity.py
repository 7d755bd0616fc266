"""Algebraic weights and local-mass monotonicity functionals.

The weight is phi(x) = int_{-inf}^x <s>^{-2r} ds with 1/2 < r, dilated by A:
phi_A(x) = phi(x/A). Local mass across the soliton is almost non-increasing
(right check) / non-decreasing (left check) up to an error budget C0/x0^{2r-1}
calibrated once per (mu, r, A) on a reference run and then frozen, turning the
qualitative statements into regression checks. The Kato-identity breakdown of
d/dt of the weighted mass is exposed term by term.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from .errors import ContractError, WindowError
from .modulation import ModulationTrack
from .spectral import Grid

_GL_NODES, _GL_WEIGHTS = roots_legendre(12)


@dataclass
class Weight:
    r: float
    A: float
    phi_total: float
    knot_spacing: float
    knots: np.ndarray        # cumulative integral of <s>^{-2r} from 0 at uniform knots
    table_edge: float

    # -- unscaled profile -----------------------------------------------------

    def _cumulative(self, y):
        """int_0^y <s>^{-2r} ds for y >= 0, table knot + per-point GL remainder."""
        y = np.asarray(y, dtype=float)
        idx = np.minimum((y / self.knot_spacing).astype(int), len(self.knots) - 1)
        base = self.knots[idx]
        lo = idx * self.knot_spacing
        halft = 0.5 * (y - lo)
        mid = lo + halft
        nodes = mid[..., None] + halft[..., None] * _GL_NODES
        rem = halft * np.sum(_GL_WEIGHTS * (1.0 + nodes**2) ** (-self.r), axis=-1)
        out = base + rem
        big = y > self.table_edge
        if np.any(big):
            out = np.where(big, 0.5 * self.phi_total - self._tail(np.maximum(y, 1.0)), out)
        return out

    def _tail(self, y):
        """int_y^inf <s>^{-2r} ds by asymptotic expansion (y > table edge)."""
        r = self.r
        t1 = y ** (1.0 - 2.0 * r) / (2.0 * r - 1.0)
        t2 = -r * y ** (-1.0 - 2.0 * r) / (2.0 * r + 1.0)
        t3 = 0.5 * r * (r + 1.0) * y ** (-3.0 - 2.0 * r) / (2.0 * r + 3.0)
        return t1 + t2 + t3

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        p = self._cumulative(np.abs(x))
        return 0.5 * self.phi_total + np.sign(x) * p

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


def build_weight(r: float, A: float, grid: Grid | None = None) -> Weight:
    """Tabulate the weight; the table covers the grid extent with margin."""
    if not r > 0.5:
        raise ContractError(f"r must exceed 1/2, got {r}")
    if r > 1.5:
        raise ContractError(f"r must not exceed (alpha+1)/2 <= 3/2, got {r}")
    if A < 1.0:
        raise ContractError(f"A must be >= 1, got {A}")
    phi_total = float(np.sqrt(np.pi) * gamma_fn(r - 0.5) / gamma_fn(r))
    span = 4.0 * grid.half_length / A if grid is not None else 0.0
    edge = max(256.0, span)
    spacing = 0.25
    n_panels = int(np.ceil(edge / spacing))
    edges = spacing * np.arange(n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * spacing
    nodes = mid[:, None] + halfw * _GL_NODES[None, :]
    panels = halfw * np.sum(_GL_WEIGHTS * (1.0 + nodes**2) ** (-r), axis=1)
    knots = np.concatenate([[0.0], np.cumsum(panels)])
    return Weight(
        r=float(r),
        A=float(A),
        phi_total=phi_total,
        knot_spacing=spacing,
        knots=knots,
        table_edge=float(edges[-1]),
    )


def seam_window(grid: Grid, fraction: float = 0.05):
    """1 on the inner part of the box, cosine ramp to 0 on the outer fraction."""
    ax = np.abs(grid.x) / grid.half_length
    t = np.clip((ax - (1.0 - 2.0 * fraction)) / fraction, 0.0, 1.0)
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


def weighted_mass(grid: Grid, u, weight: Weight, center: float, window=None):
    w = weight.phi_a(grid.x - center)
    if window is not None:
        w = w * window
    return 0.5 * grid.quadrature(u**2 * w)


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


def commutator_residual(grid: Grid, u, weight: Weight, alpha: float, center: float = 0.0):
    """int(-|D|^a u) u phi_A' + |||D|^{a/2}(u sqrt(phi_A'))||^2 and its budget integral.

    The residual is bounded by (C/A^a) int u^2 phi_A'; returns (residual,
    budget_integral) so callers can fit or check C.
    """
    xt = grid.x - center
    dphi = weight.dphi_a(xt)
    du = grid.apply_multiplier(u, alpha, "riesz")
    lhs = grid.quadrature(-du * u * dphi)
    sur = grid.sobolev_seminorm_sq(u * weight.sqrt_dphi_a(xt), alpha)
    return lhs + sur, grid.quadrature(u**2 * dphi)


# -- monotonicity checks --------------------------------------------------------


@dataclass
class MonotonicityReport:
    kind: str                      # right | left | eta
    x0: float
    mu: float
    r: float
    A: float
    c0: float
    pairs: list                    # (t1, t2) or (s1, s2)
    lhs: np.ndarray
    rhs: np.ndarray                # including the error budget
    slack: np.ndarray              # rhs - lhs, reported even when negative
    error_budget: np.ndarray
    verdicts: np.ndarray
    all_true: bool
    window_fraction: float
    metadata: dict = field(default_factory=dict)


def _select_pairs(n, max_pairs=64):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > max_pairs:
        stride = int(np.ceil(len(pairs) / max_pairs))
        pairs = pairs[::stride]
    return pairs


def _mass_functional(grid, u, weight, center, window):
    return grid.quadrature(u**2 * weight.phi_a(grid.x - center) * window)


def _check_sided(
    kind, times, states, rhos, weight: Weight, x0: float, mu: float, c0: float,
    grid: Grid, window_fraction: float, max_pairs: int,
) -> MonotonicityReport:
    """Weighted mass at t2 against its t1 value, x0 to the right or left of rho.

    lhs(t2) <= rhs(t1) + c0/x0^{2r-1} for all sampled pairs t1 < t2. The
    mu-shift of the center moves the t1 functional on the right and the t2
    functional on the left.
    """
    if x0 <= 1.0:
        raise ContractError(f"x0 must exceed 1, got {x0}")
    if not 0.0 < mu < 1.0:
        raise ContractError(f"mu must lie in (0,1), got {mu}")
    if len(times) != len(states) or len(times) != len(rhos):
        raise WindowError("times/states/rhos length mismatch")
    side = 1.0 if kind == "right" else -1.0
    win = seam_window(grid, window_fraction)
    pairs = _select_pairs(len(times), max_pairs)
    budget = c0 / x0 ** (2.0 * weight.r - 1.0)
    lhs, rhs, tpairs = [], [], []
    for i, j in pairs:
        shift = side * mu * (rhos[j] - rhos[i])
        shift1, shift2 = (shift, 0.0) if kind == "right" else (0.0, shift)
        l = _mass_functional(grid, states[j], weight, rhos[j] + shift2 + side * x0, win)
        r0 = _mass_functional(grid, states[i], weight, rhos[i] + shift1 + side * x0, win)
        lhs.append(l)
        rhs.append(r0 + budget)
        tpairs.append((times[i], times[j]))
    lhs = np.array(lhs)
    rhs = np.array(rhs)
    verdicts = lhs <= rhs
    return MonotonicityReport(
        kind=kind, x0=x0, mu=mu, r=weight.r, A=weight.A, c0=c0,
        pairs=tpairs, lhs=lhs, rhs=rhs, slack=rhs - lhs,
        error_budget=np.full(len(pairs), budget), verdicts=verdicts,
        all_true=bool(np.all(verdicts)), window_fraction=window_fraction,
    )


def check_right_monotonicity(
    times, states, rhos, weight: Weight, x0: float, mu: float, c0: float,
    grid: Grid, *, window_fraction: float = 0.05, max_pairs: int = 64,
) -> MonotonicityReport:
    """Weighted mass on the right of the soliton, mu-shift at t1."""
    return _check_sided("right", times, states, rhos, weight, x0, mu, c0, grid,
                        window_fraction, max_pairs)


def check_left_monotonicity(
    times, states, rhos, weight: Weight, x0: float, mu: float, c0: float,
    grid: Grid, *, window_fraction: float = 0.05, max_pairs: int = 64,
) -> MonotonicityReport:
    """Mirror statement on the left, mu-shift at t2."""
    return _check_sided("left", times, states, rhos, weight, x0, mu, c0, grid,
                        window_fraction, max_pairs)


def check_eta_monotonicity(
    track: ModulationTrack, weight: Weight, x0: float, mu: float, c_err: float,
    grid: Grid, *, window_fraction: float = 0.05, max_pairs: int = 64,
) -> MonotonicityReport:
    """Weighted remainder mass in rescaled time, bounded-soliton regime.

    The error budget is c_err * int_{s1}^{s2} ||eta(s)||^2 (x0+mu(s2-s))^{-2r} ds,
    quadratured over the track samples.
    """
    if x0 <= 1.0:
        raise ContractError(f"x0 must exceed 1, got {x0}")
    if not track.eta_fields:
        raise WindowError("track carries no remainder fields")
    win = seam_window(grid, window_fraction)
    n = len(track.eta_fields)
    pairs = _select_pairs(n, max_pairs)
    a = track.alpha
    lhs, rhs, budgets, spairs = [], [], [], []

    def functional(i, shift):
        scale = track.lam[i] ** (2.0 / a)
        arg = scale * grid.x - x0 - shift
        w = (weight.phi_a(arg) - weight.phi_a(-x0 - shift)) * win
        return grid.quadrature(track.eta_fields[i] ** 2 * w)

    for i, j in pairs:
        s1, s2 = track.s[i], track.s[j]
        l = functional(j, 0.0)
        r0 = functional(i, mu * (s2 - s1))
        seg = slice(i, j + 1)
        ss = track.s[seg]
        integrand = track.eta_l2[seg] ** 2 / (x0 + mu * (s2 - ss)) ** (2.0 * weight.r)
        budget = c_err * float(np.trapezoid(integrand, ss)) if j > i else 0.0
        lhs.append(l)
        rhs.append(r0 + budget)
        budgets.append(budget)
        spairs.append((s1, s2))
    lhs = np.array(lhs)
    rhs = np.array(rhs)
    verdicts = lhs <= rhs
    return MonotonicityReport(
        kind="eta", x0=x0, mu=mu, r=weight.r, A=weight.A, c0=c_err,
        pairs=spairs, lhs=lhs, rhs=rhs, slack=rhs - lhs,
        error_budget=np.array(budgets), verdicts=verdicts,
        all_true=bool(np.all(verdicts)), window_fraction=window_fraction,
    )


# -- calibration -----------------------------------------------------------------


def calibrate_budget(
    times, states, rhos, weight: Weight, x0_list, mu: float, grid: Grid,
    kind: str = "right", margin: float = 2.0, floor: float = 1e-10,
):
    """C0 from a reference run: the worst budget-normalized deficit, with margin.

    The result is frozen into report metadata; later runs are regression
    checks against it.
    """
    check = check_right_monotonicity if kind == "right" else check_left_monotonicity
    worst = floor
    for x0 in x0_list:
        rep = check(times, states, rhos, weight, x0, mu, 0.0, grid)
        deficit = np.max(rep.lhs - rep.rhs)  # rhs has zero budget here
        worst = max(worst, float(deficit) * x0 ** (2.0 * weight.r - 1.0))
    return margin * worst


def calibrate_eta_budget(
    track: ModulationTrack, weight: Weight, x0_list, mu: float, grid: Grid,
    margin: float = 2.0, floor: float = 1e-10,
):
    """Reference constant for the eta-monotonicity error term."""
    worst = floor
    for x0 in x0_list:
        rep = check_eta_monotonicity(track, weight, x0, mu, 0.0, grid)
        # normalize deficits by the (unit-constant) error integral
        unit = check_eta_monotonicity(track, weight, x0, mu, 1.0, grid)
        integrals = unit.error_budget
        for d, q in zip(rep.lhs - rep.rhs, integrals):
            if q > 0:
                worst = max(worst, float(d) / float(q))
    return margin * worst
