"""Periodic pseudo-spectral substrate.

A field is a real numpy array of length ``grid.n`` sampled at the collocation
points of a ``Grid``; its discrete Fourier coefficients follow the numpy
real-FFT layout, which no module but this one sees: the n//2 + 1 modes
m = 0 .. n/2, the last one the Nyquist mode, so every stored wavenumber is
k >= 0. Interior modes stand for the pair +-m, so the Parseval sums weight
them twice. All fractional operators are diagonal Fourier multipliers built
from two symbols: ``riesz(alpha)``, |k|^alpha (the fractional derivative
|D|^alpha), and ``ik`` (d/dx, Nyquist mode set to 0). The dispersion is
ik |k|^alpha and the stable semigroup exp(-|k|^alpha).

Quadrature is the trapezoid rule, which is spectrally exact for band-limited
periodic integrands.
"""

import math
from functools import cached_property

import numpy as np

from .errors import ContractError, ResolutionError

ALPHA_MIN = 1.0
ALPHA_MAX = 2.0
PAD = 2  # nonlinear products are formed on a grid PAD times finer
TAIL_FRACTION = 0.1  # spectral_tail_fraction measures the top tenth of |k|


def _check_alpha(alpha):
    if not (ALPHA_MIN <= alpha <= ALPHA_MAX):
        raise ContractError(f"alpha={alpha} outside [{ALPHA_MIN}, {ALPHA_MAX}]")


def _exp_i_pi(a: float, q):
    """exp(i pi a q) for an integer array q, with a*q reduced mod 2 exactly.

    a is split as a_hi + a_lo with a_hi short enough that a_hi*q is exact in
    binary64, so reducing that large part loses nothing; a_lo*q is small and
    carries only its own roundoff. The phase error is then O(eps), not
    O(eps*|a*q|).
    """
    q = np.asarray(q, dtype=float)
    bits = 52 - int(np.max(np.abs(q))).bit_length()
    e = math.frexp(a)[1] - bits
    a_hi = math.ldexp(round(math.ldexp(a, -e)), e)
    half_turns = np.fmod(a_hi * q, 2.0) + (a - a_hi) * q
    return np.exp(1j * np.pi * np.fmod(half_turns, 2.0))


def _abs_power_times(v, p: float):
    """|v|^p v in a new array, v left unchanged: the nonlinearity |u|^{2 alpha} u
    of the flow and of the ground-state equation, p = 2 alpha.

    By multiplication alone when p is an integer (2, 3 or 4), with one square
    root more when it is a half-integer (2.5 or 3.5), by a float power otherwise.
    """
    if p == 2.0 or p == 4.0:
        w = v * v
        if p == 4.0:
            w *= w
    else:
        w = np.abs(v)
        if p == 2.5:
            np.sqrt(w, out=w)
        elif p == 3.5:
            w *= np.sqrt(w)
        if p in (2.5, 3.0, 3.5):  # |v|^(p - 2) v v = |v|^p
            w *= v
            w *= v
        else:
            w **= p
    w *= v
    return w


class Grid:
    """Uniform periodic grid on [-L, L) with N points, N an even power of two.

    x_j = -L + j*h with h = 2L/N, and wavenumbers k_m = pi*m/L for m = 0 .. N/2.
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
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)

    @cached_property
    def ik(self):
        """The d/dx symbol i k with the Nyquist mode zeroed (read-only)."""
        ik = 1j * self.k
        # no real antisymmetric assignment exists for an odd symbol at Nyquist
        ik[-1] = 0.0
        ik.flags.writeable = False
        return ik

    @cached_property
    def _parseval_weight(self):
        """Full-spectrum modes per stored mode: 2 for the pair +-m, 1 at 0 and at Nyquist."""
        w = np.full(len(self.k), 2.0)
        w[0] = w[-1] = 1.0
        w.flags.writeable = False
        return w

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

    def check_field(self, f, stacked: bool = False):
        """A real field on this grid: real fields in, real fields out.

        With ``stacked`` the fields may also be stacked along leading axes.
        """
        f = np.asarray(f)
        shape_ok = f.shape[-1:] == (self.n,) if stacked else f.shape == (self.n,)
        if not shape_ok or np.iscomplexobj(f):
            raise ContractError(f"need a real field of length {self.n}, got {f.dtype} {f.shape}")
        return f

    def transform(self, f):
        """Forward real DFT of a real field: the n//2 + 1 coefficients of modes 0 .. n/2.

        f may stack fields along leading axes; each row gives one spectrum.
        """
        return np.fft.rfft(self.check_field(f, stacked=True))

    def field(self, F):
        """The real field with coefficients F (imaginary parts at 0 and Nyquist are dropped)."""
        return np.fft.irfft(F, self.n)

    @cached_property
    def _pad_weight(self):
        """Scaling onto the PAD-times-finer grid as one exact multiply: m/n, which
        keeps the values under numpy's 1/m inverse normalisation, halved at the
        coarse Nyquist mode, which the fine grid holds as the pair +-n/2.
        """
        w = np.full(len(self.k), float(PAD))
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    @cached_property
    def _truncate_weight(self):
        """Inverse of ``_pad_weight`` on the modes 0 .. n/2: n/m, doubled at the Nyquist mode."""
        w = np.full(len(self.k), 1.0 / PAD)
        w[-1] *= 2.0
        w.flags.writeable = False
        return w

    def truncation(self, symbol):
        """The truncation's scaling times a multiplier ``symbol``: the weight of ``coarse``."""
        return self._truncate_weight * symbol

    def fine(self, F):
        """Values on the PAD-times-finer grid of the field with coefficients F.

        F may stack spectra along leading axes. ``irfft`` zero-pads the
        weighted coefficients itself.
        """
        return np.fft.irfft(F * self._pad_weight, PAD * self.n)

    def coarse(self, w, weight):
        """Coefficients on this grid of values ``w`` on the PAD-times-finer grid,
        times a multiplier.

        ``weight``, from ``truncation``, folds the multiplier into the
        truncation's scaling, applied in place on the transform's output.
        """
        W = np.fft.rfft(w)[..., : self.n // 2 + 1]
        W *= weight
        return W

    # -- multipliers --------------------------------------------------------

    def riesz(self, alpha: float):
        """The symbol |k|^alpha of the fractional derivative |D|^alpha."""
        _check_alpha(alpha)
        return self.k**alpha

    def apply_riesz(self, f, alpha: float):
        """|D|^alpha f as a real field."""
        return self.field(self.riesz(alpha) * self.transform(f))

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
        return float(self.seminorm_sq_of_spectrum(self.transform(f), alpha))

    def seminorm_sq_of_spectrum(self, F, alpha: float):
        """int ||D|^{alpha/2} f|^2 from the coefficients F of f, by Parseval.

        F may stack spectra along leading axes; the result has one entry per row.
        """
        return self.h / self.n * np.sum(
            self._parseval_weight * self.riesz(alpha) * np.abs(F) ** 2, axis=-1
        )

    def h_alpha_half_norm(self, f, alpha: float):
        """H^{alpha/2} norm sqrt(||f||^2 + |||D|^{alpha/2} f||^2)."""
        return float(np.sqrt(self.inner(f, f) + self.sobolev_seminorm_sq(f, alpha)))

    def spectral_tail_fraction(self, F):
        """Share of spectral energy carried by the top TAIL_FRACTION of |k|."""
        p = self._parseval_weight * np.abs(F) ** 2
        total = float(np.sum(p))
        if total == 0.0:
            return 0.0
        cut = (1.0 - TAIL_FRACTION) * self.k_max
        return float(np.sum(p[self.k >= cut])) / total

    # -- resampling and shifts ----------------------------------------------

    def shift(self, f, delta: float):
        """f(x - delta) by exact Fourier phase."""
        return self.field(self.transform(f) * np.exp(-1j * self.k * delta))

    def reflect(self, f):
        """f(-x) on the periodic grid; f may stack fields along leading axes."""
        f = self.check_field(f, stacked=True)
        return np.roll(f[..., ::-1], 1, axis=-1)

    def symmetrize(self, f):
        """Even part about x = 0; f may stack fields along leading axes."""
        return 0.5 * (self.check_field(f, stacked=True) + self.reflect(f))

    def resample_scaled(self, f, scale: float = 1.0, shift: float = 0.0):
        """Trigonometric interpolation of f at the points scale*x_j + shift.

        Evaluation points wrap periodically; the Nyquist coefficient is
        dropped (negligible for resolved fields). With x_j = j'h and modes
        m, j' in [-N/2, N/2) the sum is over exp(2 pi i scale m j' / N), a
        chirp-z transform: Bluestein's identity 2mj' = m^2 + j'^2 - (j'-m)^2
        turns it into one circular convolution of length 2N against the
        chirp exp(i pi scale t^2 / N), O(N log N). Every phase is reduced
        mod 2 pi exactly before exponentiation (``_exp_i_pi``), so the error
        stays at roundoff of the field instead of growing like N^2 eps.
        """
        n = self.n
        m = np.arange(-(n // 2), n // 2)
        H = self.transform(f)
        F = np.zeros(n, dtype=complex)  # modes m = -N/2 .. N/2 - 1, Nyquist left at 0
        F[n // 2 :] = H[: n // 2]
        F[1 : n // 2] = np.conj(H[n // 2 - 1 : 0 : -1])
        chirp = _exp_i_pi(scale / n, np.arange(n + 1) ** 2)  # t = 0 .. N
        chirp_m = chirp[np.abs(m)]
        # e^{i k_m (shift + L)} = (-1)^m e^{i pi m shift / L}
        sign = np.where(m % 2, -1.0, 1.0)
        a = np.zeros(2 * n, dtype=complex)
        a[:n] = F * sign * _exp_i_pi(shift / self.half_length, m) * chirp_m
        kernel = np.conj(np.concatenate([chirp[:n], chirp[:0:-1]]))  # offsets 0..N-1, -N..-1
        conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(kernel))[:n]
        return (chirp_m * conv).real / n

    def fit_shift(self, f, g):
        """Shift s maximizing int f(x) g(x - s) dx, to interpolation accuracy.

        Coarse stage: the cross-correlation over grid offsets; refinement by
        Newton on the spectral derivative of the correlation.
        """
        Ff = self.transform(f)
        Fg = self.transform(g)
        A = Ff * np.conj(Fg)
        corr = self.field(A)  # corr[j] = sum_m f_m g_{m-j} ordering
        j0 = int(np.argmax(corr))
        s = (j0 * self.h + self.half_length) % (2 * self.half_length) - self.half_length
        A = self._parseval_weight * A / self.n
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


# -- stable semigroup kernel -------------------------------------------------


def stable_kernel(alpha: float, grid: Grid):
    """Kernel K on the grid with Fourier transform exp(-|xi|^alpha).

    Synthesized from samples of the continuous transform, i.e. the periodized
    whole-line kernel. The result is required to be even, strictly positive
    and unimodal away from x = 0 (discrete differences); failure raises
    ResolutionError.
    """
    n, L = grid.n, grid.half_length
    khat = np.exp(-grid.riesz(alpha))
    # K_j = (1/2L) sum_m khat(k_m) e^{i k_m x_j}; the e^{-i pi m} grid phase
    # is (+1) at Nyquist since n/2 is even for n a power of two >= 4
    phase = np.ones(len(grid.k))
    phase[1::2] = -1.0
    K = grid.field(phase * khat) * (n / (2 * L))
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
