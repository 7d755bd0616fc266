import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dgbo
from dgbo import spectral
from dgbo import Grid, stable_kernel
from dgbo.errors import ContractError, ResolutionError
from dgbo.ground_state import gkdv_profile
import oracles
from oracles import (
    dense_dft,
    full_wavenumbers,
    parseval_residual,
    periodized_gauss_kernel,
    periodized_poisson_kernel,
)


@pytest.mark.parametrize("bad", [(0.0, 64), (-1.0, 64), (10.0, 63), (10.0, 96), (10.0, 0),
                                 (np.nan, 64), (np.inf, 64), (48.0, 1024.5)])
def test_grid_validation(bad):
    with pytest.raises(ContractError):
        Grid(*bad)


def test_grid_geometry():
    g = Grid(50.0, 128)
    assert g.h == pytest.approx(100.0 / 128)
    assert g.x[0] == -50.0
    assert g.x[64] == 0.0
    # wavenumbers are pi*m/L for m = 0 .. N/2; the negative half is implied
    assert g.k[1] == pytest.approx(np.pi / 50.0)
    assert np.allclose(g.k, np.pi * np.arange(65) / 50.0)
    assert g.k[-1] == g.k_max


def test_transform_zero():
    g = Grid(30.0, 64)
    assert np.all(g.transform(np.zeros(64)) == 0.0)


def test_transform_single_mode():
    g = Grid(30.0, 64)
    F = g.transform(np.cos(np.pi * g.x / g.half_length))
    nonzero = np.where(np.abs(F) > 1e-10)[0]
    assert set(nonzero) == {1}


def test_roundtrip_against_dense_dft(rng):
    g = Grid(25.0, 256)
    f = rng.standard_normal(256)
    assert np.max(np.abs(g.transform(f) - dense_dft(g, f)[: g.n // 2 + 1])) < 1e-10
    assert np.max(np.abs(g.field(g.transform(f)) - f)) < 1e-12


@pytest.mark.parametrize("n", [64, 256, 1024, 8192])
def test_parseval(n, rng):
    g = Grid(40.0, n)
    f = rng.standard_normal(n)
    assert parseval_residual(g, f) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 16, 64, 256]).flatmap(
    lambda n: hnp.arrays(float, n, elements=st.floats(-1e3, 1e3))))
@example(f=np.array([5e-324, 0.0]))  # a subnormal Nyquist coefficient, halved by the transform
@example(f=np.array([0.0, 5e-324]))
def test_pad_truncate_roundtrip(f):
    g = Grid(10.0, len(f))
    F = g.transform(f)
    Fp = oracles.pad(g, F)
    assert np.array_equal(oracles.truncate(g, Fp), F)
    # the padded interpolant takes the original values on the even fine points
    err = np.max(np.abs(np.fft.irfft(Fp, 2 * g.n)[::2] - np.fft.irfft(F, g.n)))
    assert err <= 1e-12 * (1.0 + np.max(np.abs(f)))


def test_fine_and_coarse_match_pad_and_truncate(rng):
    # the one-multiply weights give the bits of the explicit pad and truncate,
    # row by row on stacked spectra
    g = Grid(15.0, 64)
    F = g.transform(rng.standard_normal((3, 64)))
    assert np.array_equal(g.fine(F), oracles.fine(g, F))
    w = rng.standard_normal((3, 2 * g.n))
    W = g.coarse(w, g.truncation(1.0))
    assert np.array_equal(W, oracles.truncate(g, np.fft.rfft(w)))
    symbol = -1.0 * (g.k != 0.0)
    assert np.array_equal(g.coarse(w, g.truncation(symbol)), symbol * W)
    for row, Wrow in zip(w, W):
        assert np.array_equal(g.coarse(row, g.truncation(1.0)), Wrow)


def test_stacked_transform_and_seminorm_match_rows(rng):
    g = Grid(15.0, 64)
    f = rng.standard_normal((3, 64))
    F = g.transform(f)
    for row, Frow in zip(f, F):
        assert np.array_equal(Frow, g.transform(row))
    s = g.seminorm_sq_of_spectrum(F, 1.5)
    assert s.shape == (3,)
    for row, srow in zip(f, s):
        assert srow == g.sobolev_seminorm_sq(row, 1.5)
    with pytest.raises(ContractError):
        g.transform(np.zeros((3, 65)))


def test_length_mismatch():
    g = Grid(10.0, 64)
    with pytest.raises(ContractError):
        g.transform(np.zeros(65))
    with pytest.raises(ContractError):
        g.inner(np.zeros(64), np.zeros(32))


def test_complex_field_rejected():
    g = Grid(10.0, 64)
    z = np.zeros(64, dtype=complex)
    with pytest.raises(ContractError):
        g.transform(z)
    with pytest.raises(ContractError):
        g.inner(np.zeros(64), z)


def test_fourier_layout_lives_in_spectral():
    src = Path(dgbo.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py"))
             if p.name != "spectral.py" and "np.fft" in p.read_text()]
    assert users == []


SETTABLE_VALUES = 17  # ROADMAP ("Quality of design") states the same count


def settable_values(sources):
    """Defaulted parameters, ``**kwargs`` and defaulted ``EvolutionConfig``
    fields in the module sources ``sources``."""
    count = 0
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                count += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
                count += a.kwarg is not None
            elif isinstance(node, ast.ClassDef) and node.name == "EvolutionConfig":
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def test_settable_values_are_counted():
    # adding a knob means raising this count and ROADMAP's together
    sample = ("def f(a, b=1, *args, c=2, d, **kw):\n    return lambda y=0: y\n"
              "class EvolutionConfig:\n    x: int\n    y: int = 1\n"
              "class Other:\n    z: int = 1\n")
    assert settable_values([sample]) == 5
    src = Path(dgbo.__file__).parent
    assert settable_values(p.read_text() for p in sorted(src.glob("*.py"))) == SETTABLE_VALUES


CLI_OPTIONS = 29  # ROADMAP ("Quality of design") states the same count


def cli_options(text):
    """The ``add_argument`` calls in the module source ``text`` that are not
    ``required=True``, ``--version`` aside."""
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            names = [a.value for a in node.args if isinstance(a, ast.Constant)]
            required = any(k.arg == "required" and getattr(k.value, "value", None) is True
                           for k in node.keywords)
            count += not required and names != ["--version"]
    return count


def test_cli_options_are_counted():
    # adding a flag means raising this count and ROADMAP's together
    sample = ('p.add_argument("--version", action="version")\n'
              'g.add_argument("--alpha", type=float, required=True)\n'
              'g.add_argument("--n", type=int, default=4096)\n'
              'g.add_argument("--flag", action="store_true")\n')
    assert cli_options(sample) == 2
    src = Path(dgbo.__file__).parent
    assert cli_options((src / "cli.py").read_text()) == CLI_OPTIONS


# ROADMAP ("Quality of design") states the same 50 names
PUBLIC_API = {
    "Diagnostics", "EvolutionConfig", "GNReport", "Grid", "GroundState", "LinearizedOperator",
    "ModulationState", "ModulationTrack", "MonotonicityReport", "RunRecord", "SpectrumReport",
    "Stepper", "Weight", "assemble", "beta", "build_weight", "calibrate",
    "check_eta_monotonicity", "check_left_monotonicity", "check_right_monotonicity",
    "coercivity_probe", "conserved", "continuation_ladder", "decay_fit", "decompose",
    "equation_residual", "evolve", "evolve_batch", "evolve_linearized", "flow_stepper",
    "gkdv_profile", "gn_report", "j1", "kato_terms", "liouville_readout",
    "pohozaev_residuals", "remainder", "scaling_generator",
    "solve_ground_state", "spectrum", "stable_kernel", "track", "weighted_mass",
    # the submodules that the imports above bind
    "dynamics", "errors", "ground_state", "linearized", "modulation", "monotonicity", "spectral",
}


def test_public_api_is_pinned():
    # adding or removing a public name means editing this set and ROADMAP's count together
    assert len(dgbo.__all__) == len(set(dgbo.__all__)) == len(PUBLIC_API) == 50
    assert set(dgbo.__all__) == PUBLIC_API


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency, so no process start, the CLI's
    # included, should pay for importing any part of scipy
    src = Path(dgbo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, dgbo, dgbo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.strip() == "[]"


class TestMultipliers:
    def test_constant_annihilated(self):
        g = Grid(20.0, 128)
        out = g.apply_riesz(np.full(128, 3.7), 1.3)
        assert np.max(np.abs(out)) < 1e-12

    def test_riesz_is_minus_laplacian_at_two(self):
        g = Grid(35.0, 256)
        s = np.sin(np.pi * g.x / g.half_length)
        out = g.apply_riesz(s, 2.0)
        assert np.max(np.abs(out - (np.pi / g.half_length) ** 2 * s)) < 1e-12

    def test_fractional_riesz_against_dense_summation(self):
        g = Grid(30.0, 512)
        f = np.exp(-(g.x**2) / 4.0)
        F = dense_dft(g, f)
        sym = np.abs(full_wavenumbers(g)) ** 1.5
        j = np.arange(g.n)
        ref = (np.exp(2j * np.pi * np.outer(j, j) / g.n) @ (sym * F)).real / g.n
        out = g.apply_riesz(f, 1.5)
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_alpha_domain(self):
        g = Grid(10.0, 64)
        for alpha in (0.5, 2.5):
            with pytest.raises(ContractError):
                g.apply_riesz(np.zeros(64), alpha)
            with pytest.raises(ContractError):
                g.riesz(alpha)

    def test_linearity(self, rng):
        g = Grid(15.0, 256)
        f, h = rng.standard_normal(256), rng.standard_normal(256)
        lhs = g.apply_riesz(2.0 * f - 0.3 * h, 1.7)
        rhs = 2.0 * g.apply_riesz(f, 1.7) - 0.3 * g.apply_riesz(h, 1.7)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_self_adjoint(self, rng):
        g = Grid(15.0, 256)
        f, h = rng.standard_normal(256), rng.standard_normal(256)
        a = g.inner(g.apply_riesz(f, 1.6), h)
        b = g.inner(f, g.apply_riesz(h, 1.6))
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_dispersion_odd_imaginary(self):
        g = Grid(15.0, 128)
        m = g.ik * g.riesz(1.5)
        assert np.max(np.abs(m.real)) == 0.0
        assert m[-1] == 0.0  # Nyquist
        assert np.allclose(m[:-1], 1j * g.k[:-1] * np.abs(g.k[:-1]) ** 1.5)


class TestNorms:
    def test_h_norm_zero_and_constant(self):
        g = Grid(50.0, 256)
        assert g.h_alpha_half_norm(np.zeros(256), 1.5) == 0.0
        c = 2.5
        assert g.h_alpha_half_norm(np.full(256, c), 1.5) == pytest.approx(
            c * np.sqrt(2 * g.half_length), rel=1e-13
        )

    def test_h1_norm_of_explicit_soliton(self):
        # int Q^2 = sqrt(15) pi/2 and int (Q')^2 = sqrt(15) pi/4 in closed form
        g = Grid(100.0, 4096)
        q = gkdv_profile(g.x)
        target = np.sqrt(np.sqrt(15.0) * np.pi / 2.0 + np.sqrt(15.0) * np.pi / 4.0)
        assert g.h_alpha_half_norm(q, 2.0) == pytest.approx(target, rel=1e-6)

    def test_quadrature_constant(self):
        g = Grid(50.0, 128)
        assert g.quadrature(np.ones(128)) == pytest.approx(100.0, rel=1e-14)

    def test_inner_orthogonal_modes(self):
        g = Grid(50.0, 128)
        s = np.sin(2 * np.pi * g.x / g.half_length)
        c = np.cos(2 * np.pi * g.x / g.half_length)
        assert abs(g.inner(s, c)) < 1e-12

    def test_soliton_mass(self):
        g = Grid(100.0, 4096)
        q = gkdv_profile(g.x)
        assert g.inner(q, q) == pytest.approx(np.sqrt(15.0) * np.pi / 2.0, rel=1e-6)


class TestStableKernel:
    def test_gaussian_case(self):
        g = Grid(50.0, 4096)
        K = stable_kernel(2.0, g)
        ref = periodized_gauss_kernel(g)
        assert np.max(np.abs(K - ref)) < 1e-8

    def test_poisson_case(self):
        # images of the x^-2 tail are not negligible: the closed-form target
        # is the periodized kernel (exact geometric sum)
        g = Grid(50.0, 4096)
        K = stable_kernel(1.0, g)
        ref = periodized_poisson_kernel(g)
        mask = np.abs(g.x) <= g.half_length / 2
        assert np.max(np.abs(K - ref)[mask] / ref[mask]) < 1e-6

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_certification_and_mass(self, alpha):
        g = Grid(50.0, 4096)
        K = stable_kernel(alpha, g)  # raises on any certification failure
        if alpha < 2.0:
            assert np.min(K) > 0.0  # algebraic tails sit above the roundoff floor
        assert abs(g.quadrature(K) - 1.0) < 1e-8

    def test_resolution_error_reported(self):
        # severe spectral truncation (k_max << 1) rings the synthesis negative
        with pytest.raises(ResolutionError):
            stable_kernel(1.0, Grid(200.0, 16))


class TestResampling:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_scaled_resample_matches_dense(self, n):
        g = Grid(50.0, n)
        f = np.exp(-((g.x - 3.0) ** 2) / 16.0) * np.cos(0.7 * g.x)
        for scale, shift in [(1.0, 0.0), (0.8, 2.5), (1.13, -7.1)]:
            got = g.resample_scaled(f, scale, shift)
            want = oracles.evaluate(g, f, scale * g.x + shift)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_resample_tracks_smooth_function(self):
        g = Grid(50.0, 256)
        fun = lambda x: np.exp(-((x - 3.0) ** 2) / 16.0) * np.cos(0.7 * x)
        got = g.resample_scaled(fun(g.x), 0.9, 1.7)
        pts = 0.9 * g.x + 1.7
        inner = np.abs(pts) < g.half_length - 8.0
        assert np.max(np.abs(got - fun(pts))[inner]) < 1e-12

    def test_shift_and_fit_shift(self):
        g = Grid(50.0, 512)
        f = np.exp(-(g.x**2) / 9.0)
        s = 3.2371
        shifted = g.shift(f, s)
        assert abs(g.fit_shift(shifted, f) - s) < 1e-10

    def test_reflect_symmetrize(self, rng):
        g = Grid(20.0, 128)
        f = rng.standard_normal(128)
        assert np.max(np.abs(g.reflect(g.reflect(f)) - f)) == 0.0
        sym = g.symmetrize(f)
        assert np.max(np.abs(sym - g.reflect(sym))) < 1e-15
        # a stack is symmetrized row by row, with the bits of the one-field formula
        stack = rng.standard_normal((3, 128))
        rows = g.symmetrize(stack)
        for row, v in zip(rows, stack):
            assert np.array_equal(row, g.symmetrize(v))
            assert np.array_equal(row, 0.5 * (v + g.reflect(v)))


def band_limited(n, coefs):
    """Real field of length n whose modes |m| < n/2 are coefs (Nyquist mode zero)."""
    F = np.zeros(n // 2 + 1, dtype=complex)
    F[: n // 2] = coefs[: n // 2] + 1j * coefs[n // 2 :]
    return np.fft.irfft(F, n)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, 64, elements=st.floats(-1.0, 1.0)),
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_shift_composes(coefs, a, b):
    g = Grid(10.0, 64)
    f = band_limited(g.n, coefs)
    err = np.max(np.abs(g.shift(g.shift(f, a), b) - g.shift(f, a + b)))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(f)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 16, 64, 256]).flatmap(
    lambda n: hnp.arrays(float, n, elements=st.floats(allow_nan=False))))
def test_reflect_is_an_involution(f):
    g = Grid(10.0, len(f))
    assert np.array_equal(g.reflect(g.reflect(f)), f)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 100.0), st.sampled_from([2, 4, 16, 64, 256]).flatmap(
    lambda n: hnp.arrays(float, n, elements=st.floats(-1e3, 1e3))))
def test_parseval_and_roundtrip_on_random_grids(half_length, f):
    g = Grid(half_length, len(f))
    assert parseval_residual(g, f) < 1e-12
    assert np.max(np.abs(g.field(g.transform(f)) - f)) <= 1e-12 * (1.0 + np.max(np.abs(f)))


def test_evaluate_in_blocks_equals_one_block(monkeypatch):
    g = Grid(30.0, 256)
    f = np.exp(-((g.x - 2.0) ** 2) / 9.0) * np.cos(0.8 * g.x)
    pts = np.linspace(-45.0, 45.0, 301)
    whole = oracles.evaluate(g, f, pts)
    monkeypatch.setattr(oracles, "EVALUATE_BLOCK", 7 * len(g.k))  # 7 points per block
    blocked = oracles.evaluate(g, f, pts)
    assert np.max(np.abs(blocked - whole)) <= 1e-15 * np.max(np.abs(whole))


# The stored half spectrum counts each interior mode once for the pair +-m:
# the Parseval sums below must weight it twice to match the full N-mode sums.
random_grid_field = st.tuples(
    st.floats(0.5, 100.0),
    st.sampled_from([4, 16, 64, 256]).flatmap(
        lambda n: hnp.arrays(float, n, elements=st.floats(-1e3, 1e3))),
)


@settings(max_examples=60, deadline=None)
@given(random_grid_field, st.floats(1.0, 2.0))
def test_sobolev_seminorm_matches_full_spectrum(grid_field, alpha):
    half_length, f = grid_field
    g = Grid(half_length, len(f))
    want = oracles.sobolev_seminorm_sq(g, f, alpha)
    bound = g.k_max**alpha * g.inner(f, f)  # the seminorm's ceiling sets its roundoff
    assert abs(g.sobolev_seminorm_sq(f, alpha) - want) <= 1e-12 * bound


@settings(max_examples=60, deadline=None)
@given(random_grid_field)
def test_spectral_tail_fraction_matches_full_spectrum(grid_field):
    half_length, f = grid_field
    g = Grid(half_length, len(f))
    want = oracles.spectral_tail_fraction(g, f, spectral.TAIL_FRACTION)
    assert abs(g.spectral_tail_fraction(g.transform(f)) - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(5.0, 100.0), st.sampled_from([16, 64, 256]),
       hnp.arrays(float, 7, elements=st.floats(-1.0, 1.0)), st.floats(-0.4, 0.4))
def test_fit_shift_matches_full_spectrum(half_length, n, coefs, shift_frac):
    # three low modes plus a Nyquist component, which the weights single out
    g = Grid(half_length, n)
    F = np.zeros(n // 2 + 1, dtype=complex)
    F[1:4] = coefs[:3] + 1j * coefs[3:6]
    F[-1] = 0.5 + coefs[6]
    f = np.fft.irfft(F, n) * n
    shifted = g.shift(f, shift_frac * half_length)
    want = oracles.fit_shift(g, shifted, f)
    assert abs(g.fit_shift(shifted, f) - want) <= 1e-12 * max(1.0, abs(want))
