"""Modulation decomposition around the soliton family.

A near-soliton field is written u(x) = lam^{-1/a} (Q + eta)(lam^{-2/a} (x - rho))
by solving the two orthogonality conditions <eta, Q'> = <eta, chi0> = 0 for
(lam, rho) with a damped Newton iteration (analytic Jacobian, warm starts).
The remainder eta lives on the reference grid of the ground state. chi0 is
the negative direction of L on the same (alpha, grid), from
``linearized.spectrum``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClosenessError, ContractError, DecompositionError, ResolutionError
from .ground_state import GroundState
from .spectral import Grid

MAX_ITERS = 50
STALL_ITERS = 5  # consecutive iterations without a new residual minimum that end a solve
EPS0 = 0.3  # closeness ceiling of the remainder, relative to ||Q||_{H^{a/2}}


@dataclass
class ModulationState:
    lam: float
    rho: float
    eta: np.ndarray
    ortho_qprime: float
    ortho_chi0: float
    eta_l2: float
    eta_sobolev: float
    eta_weighted: float      # (int eta^2/(1+y^2))^{1/2}
    iterations: int


def remainder(u, gs: GroundState, lam: float, rho: float):
    """eta = v - Q with v(y) = lam^{1/a} u(lam^{2/a} y + rho) on the reference grid.

    One resample, no solve: at the (lam, rho) that ``decompose`` returns, or
    that a stored track holds, this is the decomposition's remainder.
    """
    s = lam ** (2.0 / gs.alpha)
    return lam ** (1.0 / gs.alpha) * gs.grid.resample_scaled(u, scale=s, shift=rho) - gs.values


def _orthogonality(grid, eta, qp, chi0):
    return grid.inner(eta, qp), grid.inner(eta, chi0)


def decompose(u, gs: GroundState, chi0, guess=None) -> ModulationState:
    """Solve the orthogonality conditions for (lam, rho).

    ``guess`` defaults to (1, argmax |u|), which targets the unit-scale tube;
    pass an informed guess for data far from lam = 1. The one stop rule is
    the residual test max |<eta, Q'>|, |<eta, chi0>| < max(1e-12, 1e-14 *
    ||u|| * max(||Q'||, ||chi0||)), which the exact-phase resampler reaches
    in a few Newton steps, each lowering the residual. Raises
    DecompositionError when the iteration fails within MAX_ITERS or its
    residual sets no new minimum in STALL_ITERS consecutive iterations (the
    caller treats this as leaving the soliton tube) and ClosenessError when
    the converged remainder exceeds the closeness ceiling EPS0 (relative to
    ||Q||_{H^{a/2}}).

    Torus geometry: the rescaled frame periodizes u with image spacing
    2L / lam^{2/a} in y, so for lam^{2/a} approaching 2 a soliton image
    enters near the y-seam and inflates the global remainder norm; the
    parameters themselves stay accurate since the orthogonality weights are
    localized at the origin.
    """
    grid, alpha = gs.grid, gs.alpha
    u = grid.check_field(u)
    qp = gs.derivative()
    chi0 = grid.check_field(chi0)
    uprime = grid.derivative(u)
    if guess is None:
        lam, rho = 1.0, float(grid.x[int(np.argmax(np.abs(u)))])
    else:
        lam, rho = float(guess[0]), float(guess[1])

    # the residuals are inner products of u against Q' and chi0: their
    # roundoff scales with ||u|| times the larger weight
    scale_floor = grid.norm_l2(u) * max(grid.norm_l2(qp), grid.norm_l2(chi0))
    tol = max(1e-12, 1e-14 * scale_floor)
    g_norm_prev = g_best = np.inf
    stalled = 0
    eta = None  # the remainder at (lam, rho), when the line search already formed it
    for it in range(1, MAX_ITERS + 1):
        if lam <= 0:
            raise DecompositionError(f"scale parameter left (0, inf): lam={lam}")
        if eta is None:
            eta = remainder(u, gs, lam, rho)
            g1, g2 = _orthogonality(grid, eta, qp, chi0)
        gn = max(abs(g1), abs(g2))
        if gn < tol:
            break
        if gn < g_best:
            g_best, stalled = gn, 0
        else:
            stalled += 1
            if stalled == STALL_ITERS:
                raise DecompositionError(
                    f"modulation Newton stalled: residual {gn:.3e}, no new minimum "
                    f"below {g_best:.3e} in {STALL_ITERS} iterations"
                )
        # v_y = lam^{3/a} u'(lam^{2/a} y + rho), needed only for a Newton step
        s = lam ** (2.0 / alpha)
        vy = lam ** (1.0 / alpha) * s * grid.resample_scaled(uprime, scale=s, shift=rho)
        lam_v = (eta + gs.values + 2.0 * grid.x * vy) / alpha
        d_lam = lam_v / lam
        d_rho_factor = lam ** (-2.0 / alpha)
        J = np.array(
            [
                [grid.inner(d_lam, qp), d_rho_factor * grid.inner(vy, qp)],
                [grid.inner(d_lam, chi0), d_rho_factor * grid.inner(vy, chi0)],
            ]
        )
        try:
            step = np.linalg.solve(J, -np.array([g1, g2]))
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"singular modulation Jacobian: {exc}") from exc
        # damped update: halve until the residual does not grow; the accepted
        # trial's remainder and residuals carry over to the next iteration
        scale = 1.0
        eta = None
        for _ in range(8):
            lam_try = lam + scale * step[0]
            rho_try = rho + scale * step[1]
            if lam_try > 0:
                trial = remainder(u, gs, lam_try, rho_try)
                t1, t2 = _orthogonality(grid, trial, qp, chi0)
                if max(abs(t1), abs(t2)) < max(gn, g_norm_prev):
                    eta, g1, g2 = trial, t1, t2
                    break
            scale *= 0.5
        lam, rho = lam + scale * step[0], rho + scale * step[1]
        g_norm_prev = gn
    else:
        raise DecompositionError(
            f"modulation Newton did not converge in {MAX_ITERS} iterations "
            f"(residual {gn:.3e})"
        )

    eta_l2 = grid.norm_l2(eta)
    eta_sob = grid.h_alpha_half_norm(eta, alpha)
    ceiling = EPS0 * grid.h_alpha_half_norm(gs.values, alpha)
    if eta_sob > ceiling:
        raise ClosenessError(
            f"remainder H^{{a/2}} norm {eta_sob:.3e} exceeds closeness ceiling {ceiling:.3e}"
        )
    weighted = float(np.sqrt(grid.quadrature(eta**2 / (1.0 + grid.x**2))))
    return ModulationState(
        lam=lam,
        rho=((rho + grid.half_length) % (2.0 * grid.half_length)) - grid.half_length,
        eta=eta,
        ortho_qprime=g1,
        ortho_chi0=g2,
        eta_l2=eta_l2,
        eta_sobolev=eta_sob,
        eta_weighted=weighted,
        iterations=it,
    )


@dataclass
class ModulationTrack:
    alpha: float
    t: np.ndarray
    s: np.ndarray               # rescaled time, ds = dt / lam^{2 + 2/a}
    lam: np.ndarray
    rho: np.ndarray             # unwrapped
    eta_l2: np.ndarray
    eta_sobolev: np.ndarray
    eta_weighted: np.ndarray
    dlam_rel: np.ndarray        # lam_s / lam
    drho_rel: np.ndarray        # rho_s / lam^{2/a} - 1
    fitted_c: float             # max (|lam_s/lam| + |drho_rel|) / ||eta||_L2
    truncated: bool
    truncated_at: float | None


def _central_derivative(y, s):
    d = np.empty_like(y)
    if len(y) < 2:
        return np.zeros_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (s[2:] - s[:-2])
    d[0] = (y[1] - y[0]) / (s[1] - s[0])
    d[-1] = (y[-1] - y[-2]) / (s[-1] - s[-2])
    return d


def track(times, states, gs: GroundState, chi0) -> ModulationTrack:
    """Per-frame decomposition with warm starts; rho is unwrapped across the seam.

    Frames after the first decomposition failure are dropped and the track is
    flagged truncated. The remainder fields are not kept: ``remainder`` at a
    frame's (lam, rho) rebuilds them.
    """
    grid, alpha = gs.grid, gs.alpha
    if len(times) != len(states):
        raise ContractError("times and states length mismatch")
    rows = []
    guess = None
    truncated, trunc_at = False, None
    for t, u in zip(times, states):
        try:
            st = decompose(u, gs, chi0, guess=guess)
        except DecompositionError:
            truncated, trunc_at = True, float(t)
            break
        rows.append((float(t), st))
        guess = (st.lam, st.rho)
    if not rows:
        raise DecompositionError("no frame of the run was decomposable")
    t_arr = np.array([r[0] for r in rows])
    lam = np.array([r[1].lam for r in rows])
    rho_raw = np.array([r[1].rho for r in rows])
    # unwrap rho over the periodic seam
    period = 2.0 * grid.half_length
    rho = rho_raw.copy()
    for i in range(1, len(rho)):
        jump = rho[i] - rho[i - 1]
        if jump > period / 2:
            rho[i:] -= period
        elif jump < -period / 2:
            rho[i:] += period
    eta_l2 = np.array([r[1].eta_l2 for r in rows])
    eta_sob = np.array([r[1].eta_sobolev for r in rows])
    eta_w = np.array([r[1].eta_weighted for r in rows])
    # s(t) by trapezoid on ds/dt = lam^{-(2+2/a)}
    rate = lam ** (-(2.0 + 2.0 / alpha))
    s = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t_arr))])
    if len(t_arr) >= 2:
        lam_s = _central_derivative(lam, s)
        rho_s = _central_derivative(rho, s)
        dlam_rel = lam_s / lam
        drho_rel = rho_s / lam ** (2.0 / alpha) - 1.0
    else:
        dlam_rel = np.zeros(1)
        drho_rel = np.zeros(1)
    denom = np.maximum(eta_l2, 1e-14)
    fitted_c = float(np.max((np.abs(dlam_rel) + np.abs(drho_rel)) / denom))
    return ModulationTrack(
        alpha=alpha,
        t=t_arr,
        s=s,
        lam=lam,
        rho=rho,
        eta_l2=eta_l2,
        eta_sobolev=eta_sob,
        eta_weighted=eta_w,
        dlam_rel=dlam_rel,
        drho_rel=drho_rel,
        fitted_c=fitted_c,
        truncated=truncated,
        truncated_at=trunc_at,
    )


def beta(u, gs: GroundState) -> float:
    """Mass excess int u^2 - int Q^2."""
    grid = gs.grid
    u = grid.check_field(u)
    return grid.inner(u, u) - gs.mass()


def renormalize(u, gs: GroundState):
    """Rescale u so its |D|^{a/2} seminorm matches the ground state's.

    Returns (ubar, lam_bar) with ubar(x) = lam^{1/a} u(lam^{2/a} x) resampled
    on the reference grid; certifies that the critical rescaling preserved the
    mass and hit the gradient target to 1e-8 relative, else raises.
    """
    grid, alpha = gs.grid, gs.alpha
    u = grid.check_field(u)
    gu = grid.sobolev_seminorm_sq(u, alpha)
    if gu <= 0:
        raise ContractError("renormalize needs a nonzero |D|^{a/2} seminorm")
    gq = grid.sobolev_seminorm_sq(gs.values, alpha)
    lam_bar = float(np.sqrt(gq / gu))
    ubar = lam_bar ** (1.0 / alpha) * grid.resample_scaled(u, scale=lam_bar ** (2.0 / alpha))
    mass_defect = abs(grid.inner(ubar, ubar) - grid.inner(u, u)) / grid.inner(u, u)
    grad_defect = abs(np.sqrt(grid.sobolev_seminorm_sq(ubar, alpha)) - np.sqrt(gq)) / np.sqrt(gq)
    if mass_defect > 1e-8 or grad_defect > 1e-8:
        raise ResolutionError(
            f"renormalization not certified: mass defect {mass_defect:.2e}, "
            f"gradient defect {grad_defect:.2e} (rescaled support may leave the grid)"
        )
    return ubar, lam_bar
