"""Periodic pseudo-spectral substrate.

A field is a real numpy array of length ``grid.n`` sampled at the collocation
points of a ``Grid``; its discrete Fourier coefficients follow the numpy FFT
layout, which no module but this one sees. All fractional operators are
diagonal Fourier multipliers:

    riesz       |k|^alpha          (the fractional derivative |D|^alpha)
    half_riesz  |k|^(alpha/2)
    dispersion  i k |k|^alpha      (odd; Nyquist mode set to 0)
    semigroup   exp(-|k|^alpha)

Quadrature is the trapezoid rule, which is spectrally exact for band-limited
periodic integrands.
"""

from functools import cached_property

import numpy as np
from scipy.signal import czt

from .errors import ContractError, ResolutionError

ALPHA_MIN = 1.0
ALPHA_MAX = 2.0
PAD = 2  # nonlinear products are formed on a grid PAD times finer

MULTIPLIER_KINDS = ("riesz", "half_riesz", "dispersion", "semigroup")


def _check_alpha(alpha):
    if not (ALPHA_MIN <= alpha <= ALPHA_MAX):
        raise ContractError(f"alpha={alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")


class Grid:
    """Uniform periodic grid on [-L, L) with N points, N an even power of two.

    x_j = -L + j*h with h = 2L/N, and wavenumbers k_m = pi*m/L in FFT order.
    """

    def __init__(self, half_length: float, n_points: int):
        if half_length <= 0:
            raise ContractError(f"half_length must be positive, got {half_length}")
        n = int(n_points)
        if n <= 0 or n % 2 != 0 or (n & (n - 1)) != 0:
            raise ContractError(f"n_points must be a positive even power of two, got {n_points}")
        self.half_length = float(half_length)
        self.n = n
        self.h = 2.0 * self.half_length / n

    @cached_property
    def x(self):
        return -self.half_length + self.h * np.arange(self.n)

    @cached_property
    def k(self):
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def ik(self):
        """The d/dx symbol i k with the Nyquist mode zeroed (read-only)."""
        ik = 1j * self.k
        # no real antisymmetric assignment exists for an odd symbol at Nyquist
        ik[self.n // 2] = 0.0
        ik.flags.writeable = False
        return ik

    @property
    def k_max(self):
        return np.pi * (self.n // 2) / self.half_length

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.half_length == other.half_length
        )

    def __hash__(self):
        return hash((self.half_length, self.n))

    def __repr__(self):
        return f"Grid(half_length={self.half_length}, n_points={self.n})"

    # -- transforms ---------------------------------------------------------

    def check_field(self, f):
        """A real field on this grid: real fields in, real fields out."""
        f = np.asarray(f)
        if f.shape != (self.n,) or np.iscomplexobj(f):
            raise ContractError(f"need a real field of length {self.n}, got {f.dtype} {f.shape}")
        return f

    def transform(self, f):
        """Forward DFT of a real field."""
        return np.fft.fft(self.check_field(f))

    def field(self, F):
        """The real field with coefficients F (the imaginary residue is dropped)."""
        return np.fft.ifft(F).real

    def pad(self, F):
        """Coefficients of the same trigonometric interpolant on the PAD-times-finer grid.

        The Nyquist coefficient goes to the negative side; the m/n factor keeps
        the sampled values unchanged under numpy's 1/m inverse normalisation.
        """
        n, m = self.n, PAD * self.n
        Fp = np.zeros(m, dtype=complex)
        Fp[: n // 2] = F[: n // 2]
        Fp[m - n // 2 :] = F[n // 2 :]
        Fp *= m / n
        return Fp

    def truncate(self, W):
        """Inverse of ``pad``: keep the n lowest modes of m-point coefficients."""
        n, m = self.n, len(W)
        return np.concatenate([W[: n // 2], W[m - n // 2 :]]) * (n / m)

    def fine(self, F):
        """Values on the PAD-times-finer grid of the interpolant with coefficients F."""
        return self.field(self.pad(F))

    def coarse(self, w):
        """Coefficients on this grid of values ``w`` on the PAD-times-finer grid."""
        return self.truncate(np.fft.fft(w))

    # -- multipliers --------------------------------------------------------

    def multiplier(self, alpha: float, kind: str):
        """Return the diagonal symbol array for one of MULTIPLIER_KINDS."""
        _check_alpha(alpha)
        ka = np.abs(self.k)
        if kind == "riesz":
            return ka**alpha
        if kind == "half_riesz":
            return ka ** (alpha / 2.0)
        if kind == "dispersion":
            return self.ik * ka**alpha
        if kind == "semigroup":
            return np.exp(-(ka**alpha))
        raise ContractError(f"unknown multiplier kind {kind!r}")

    def apply_multiplier(self, f, alpha: float, kind: str = "riesz"):
        """F^{-1}[ m(k) F[f] ] for the requested symbol, returned as a real field."""
        mult = self.multiplier(alpha, kind)
        return self.field(mult * self.transform(f))

    def derivative(self, f):
        """Spectral d/dx; the Nyquist mode is zeroed."""
        return self.field(self.ik * self.transform(f))

    # -- quadrature and norms -----------------------------------------------

    def quadrature(self, f):
        return self.h * float(np.sum(self.check_field(f)))

    def inner(self, f, g):
        f = self.check_field(f)
        g = self.check_field(g)
        return self.h * float(np.sum(f * g))

    def norm_l2(self, f):
        return float(np.sqrt(self.inner(f, f)))

    def sobolev_seminorm_sq(self, f, alpha: float):
        """int ||D|^{alpha/2} f|^2 via Parseval."""
        _check_alpha(alpha)
        F = self.transform(f)
        return self.h / self.n * float(np.sum(np.abs(self.k) ** alpha * np.abs(F) ** 2))

    def h_alpha_half_norm(self, f, alpha: float):
        """H^{alpha/2} norm sqrt(||f||^2 + |||D|^{alpha/2} f||^2)."""
        return float(np.sqrt(self.inner(f, f) + self.sobolev_seminorm_sq(f, alpha)))

    def spectral_tail_fraction(self, F, frac: float = 0.1):
        """Share of spectral energy carried by the top `frac` of |k|."""
        p = np.abs(F) ** 2
        total = float(np.sum(p))
        if total == 0.0:
            return 0.0
        cut = (1.0 - frac) * self.k_max
        return float(np.sum(p[np.abs(self.k) >= cut])) / total

    # -- resampling and shifts ----------------------------------------------

    def shift(self, f, delta: float):
        """f(x - delta) by exact Fourier phase."""
        F = self.transform(f) * np.exp(-1j * self.k * delta)
        F[self.n // 2] = F[self.n // 2].real  # keep conjugate symmetry at Nyquist
        return self.field(F)

    def reflect(self, f):
        """f(-x) on the periodic grid."""
        f = self.check_field(f)
        return np.roll(f[::-1], 1)

    def symmetrize(self, f):
        """Even part about x = 0."""
        return 0.5 * (self.check_field(f) + self.reflect(f))

    def resample_scaled(self, f, scale: float = 1.0, shift: float = 0.0):
        """Trigonometric interpolation of f at the points scale*x_j + shift.

        Evaluation points wrap periodically. The target points form a uniform
        grid, so the sum is a chirp-z transform and costs O(N log N); the
        Nyquist coefficient is dropped (negligible for resolved fields).
        """
        n, L = self.n, self.half_length
        F = self.transform(f)
        F[n // 2] = 0.0
        c = shift + L - scale * L
        G = np.fft.fftshift(F * np.exp(1j * self.k * c))
        w = np.exp(2j * np.pi * scale / n)
        S = czt(G, m=n, w=w)
        j = np.arange(n)
        return (S * np.exp(-1j * np.pi * scale * j)).real / n

    def evaluate(self, f, points):
        """Trigonometric interpolation of f at arbitrary points (dense, O(N*M))."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        F = self.transform(f)
        F[self.n // 2] = 0.0
        phase = np.exp(1j * np.outer(pts + self.half_length, self.k))
        vals = (phase @ (F / self.n)).real
        return vals if np.ndim(points) else float(vals[0])

    def fit_shift(self, f, g, guess: float | None = None):
        """Shift s maximizing int f(x) g(x - s) dx, to interpolation accuracy.

        Coarse stage: the cross-correlation over grid offsets; refinement by
        Newton on the spectral derivative of the correlation.
        """
        Ff = self.transform(f)
        Fg = self.transform(g)
        A = Ff * np.conj(Fg)
        corr = self.field(A)  # corr[j] = sum_m f_m g_{m-j} ordering
        if guess is None:
            j0 = int(np.argmax(corr))
            s = (j0 * self.h + self.half_length) % (2 * self.half_length) - self.half_length
        else:
            s = float(guess)
        A = A / self.n
        for _ in range(60):
            e = np.exp(1j * self.k * s)
            d1 = float(np.sum(1j * self.k * A * e).real)
            d2 = float(np.sum(-(self.k**2) * A * e).real)
            if d2 == 0.0:
                break
            step = d1 / d2
            s -= step
            if abs(step) < 1e-14 * max(1.0, abs(s)):
                break
        return s


def parseval_residual(grid: Grid, f):
    """Relative defect of h*sum f^2 == (h^2/2L)*sum |F|^2 (diagnostic)."""
    lhs = grid.h * float(np.sum(np.asarray(f) ** 2))
    F = grid.transform(f)
    rhs = grid.h**2 / (2 * grid.half_length) * float(np.sum(np.abs(F) ** 2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


# -- stable semigroup kernel -------------------------------------------------


def stable_kernel(alpha: float, grid: Grid, certify: bool = True):
    """Kernel K on the grid with Fourier transform exp(-|xi|^alpha).

    Synthesized from samples of the continuous transform, i.e. the periodized
    whole-line kernel. With ``certify`` the result is required to be even,
    strictly positive and unimodal away from x = 0 (discrete differences);
    failure raises ResolutionError.
    """
    _check_alpha(alpha)
    n, L = grid.n, grid.half_length
    khat = np.exp(-np.abs(grid.k) ** alpha)
    # K_j = (1/2L) sum_m khat(k_m) e^{i k_m x_j}; the e^{-i pi m} grid phase
    # is (+1) at Nyquist since n/2 is even for n a power of two >= 4
    phase = np.ones(n)
    phase[1::2] = -1.0
    K = grid.field(phase * khat) * (n / (2 * L))
    if certify:
        peak = float(np.max(K))
        floor = 100.0 * np.finfo(float).eps * peak  # roundoff level of the synthesis
        even_defect = np.max(np.abs(K - grid.reflect(K)))
        if even_defect > 1e-12 * peak:
            raise ResolutionError(f"stable kernel not even (defect {even_defect:.2e})")
        if np.min(K) <= -floor or np.any((K <= 0.0) & (np.abs(K) > floor)):
            raise ResolutionError(
                f"stable kernel not positive on the resolved domain "
                f"(min {np.min(K):.2e}); increase N or L"
            )
        right = K[n // 2 + 1 :]  # x in (0, L)
        if np.any(np.diff(right) >= floor):
            raise ResolutionError("stable kernel not unimodal on (0, L); increase N or L")
    return K


def periodized_poisson_kernel(grid: Grid):
    """Closed form of the periodized alpha=1 kernel (geometric image sum)."""
    L = grid.half_length
    q = np.exp(-np.pi / L)
    theta = np.pi * grid.x / L
    return (1.0 - q * q) / (2.0 * L * (1.0 - 2.0 * q * np.cos(theta) + q * q))


def periodized_gauss_kernel(grid: Grid, n_images: int = 8):
    """Periodized alpha=2 kernel (1/(2 sqrt(pi))) exp(-x^2/4) with images."""
    L = grid.half_length
    out = np.zeros(grid.n)
    for m in range(-n_images, n_images + 1):
        out += np.exp(-((grid.x + 2 * L * m) ** 2) / 4.0)
    return out / (2.0 * np.sqrt(np.pi))
