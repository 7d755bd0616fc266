"""Slow or closed-form references that only the tests compare against."""

import numpy as np
from scipy.optimize import minimize


def parseval_residual(grid, f):
    """Relative defect of h*sum f^2 == (h^2/2L)*sum |F|^2."""
    lhs = grid.h * float(np.sum(np.asarray(f) ** 2))
    F = grid.transform(f)
    rhs = grid.h**2 / (2 * grid.half_length) * float(np.sum(np.abs(F) ** 2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


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
