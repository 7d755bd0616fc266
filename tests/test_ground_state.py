import numpy as np
import pytest

from dgbo import Grid, decay_fit, gn_report, j1, pohozaev_residuals, solve_ground_state
from dgbo.errors import ContractError, ResolutionError, SeedError
from dgbo.ground_state import (
    continuation_ladder,
    equation_residual,
    gkdv_profile,
    shape_certificate,
)

from conftest import ground_state_for

SQRT15_PI_2 = np.sqrt(15.0) * np.pi / 2.0


class TestSolve:
    def test_explicit_profile_reproduced(self, gs2):
        g = gs2.grid
        assert gs2.sup_diff < 1e-12
        assert gs2.residual < 1e-9
        assert abs(gs2.values[g.n // 2] - 15.0**0.25) < 1e-6
        assert abs(gs2.mass() - SQRT15_PI_2) < 1e-5

    def test_matches_closed_form_pointwise(self, gs2):
        assert np.max(np.abs(gs2.values - gkdv_profile(gs2.grid.x))) < 1e-6

    def test_shape_certificate(self, gs2):
        cert = shape_certificate(gs2)
        assert cert["positive"]
        assert cert["even_defect"] < 1e-10
        assert cert["monotone_right"]

    def test_continuation_approaches_gkdv(self):
        g = Grid(50.0, 1024)
        gs_2 = solve_ground_state(2.0, g)

        def h1_dist(a):
            gs = continuation_ladder(a, g, step=0.05)
            d = gs.values - gs_2.values
            return np.sqrt(g.inner(d, d) + g.sobolev_seminorm_sq(d, 2.0))

        dists = [h1_dist(a) for a in (1.9, 1.95, 1.99)]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.1

    def test_sign_indefinite_seed_rejected(self):
        g = Grid(50.0, 512)
        with pytest.raises(SeedError):
            solve_ground_state(2.0, g, seed=-gkdv_profile(g.x))


class TestPohozaev:
    def test_gkdv_certified(self, gs2):
        ra, rb, rc = gs2.pohozaev_residuals
        assert max(ra, rb, rc) < 1e-6

    def test_scaled_profile_violates(self, gs2):
        # 2Q is not a solution; the mass/potential and energy relations flag
        # it loudly (the mass/gradient one is quadratic on both sides and
        # stays blind to pure amplitude scaling)
        ra, rb, rc = pohozaev_residuals(gs2.grid, 2.0 * gs2.values, 2.0)
        assert rb > 1.0 and rc > 1.0
        assert ra < 1e-6

    def test_fractional_certified(self):
        gs = ground_state_for(1.5)
        ra, rb, rc = gs.pohozaev_residuals
        assert max(ra, rb, rc) < 1e-5
        # independent check: quadrature at doubled resolution must agree
        n = gs.grid.n
        g2 = Grid(gs.grid.half_length, 2 * n)
        F = gs.grid.transform(gs.values)
        Fp = np.zeros(n + 1, dtype=complex)
        Fp[: n // 2 + 1] = F
        Fp[n // 2] *= 0.5  # the coarse Nyquist mode is split over +-n/2
        fine = np.fft.irfft(2 * Fp, 2 * n)
        ra2, rb2, rc2 = pohozaev_residuals(g2, fine, 1.5)
        assert max(ra2, rb2, rc2) < 1e-5


class TestResidual:
    def test_residual_decreases_under_refinement(self):
        # the equation residual of the coarse-grid solution, re-measured on a
        # finer grid, shrinks as the coarse grid is refined
        vals = []
        for n in (512, 1024):
            g = Grid(50.0, n)
            gs = solve_ground_state(2.0, g)
            g_fine = Grid(50.0, 4096)
            F = g.transform(gs.values)
            Fp = np.zeros(4096 // 2 + 1, dtype=complex)
            Fp[: n // 2 + 1] = F
            Fp[n // 2] *= 0.5  # the coarse Nyquist mode is split over +-n/2
            fine = np.fft.irfft(Fp * (4096 / n), 4096)
            vals.append(g_fine.norm_l2(equation_residual(g_fine, fine, 2.0)))
        assert vals[1] < vals[0]


class TestJ1:
    def test_value_from_identity(self, gs2):
        got = j1(gs2.grid, gs2.values, 2.0)
        want = gs2.mass() ** 2 / 15.0
        assert abs(got - want) < 1e-4 * want

    def test_translation_invariance(self, gs2):
        g = gs2.grid
        v = g.shift(gs2.values, 7.0)
        a = j1(g, gs2.values, 2.0)
        assert abs(j1(g, v, 2.0) - a) < 1e-10 * a

    def test_critical_scaling_invariance(self, gs2):
        g = gs2.grid
        lam0 = 3.0
        v = lam0 ** (-0.5) * g.resample_scaled(gs2.values, scale=lam0 ** (-1.0))
        a = j1(g, gs2.values, 2.0)
        assert abs(j1(g, v, 2.0) - a) < 1e-8 * a

    def test_zero_denominator(self, gs2):
        with pytest.raises(ContractError):
            j1(gs2.grid, np.zeros(gs2.grid.n), 2.0)


class TestGNReport:
    def test_minimality_over_trials(self, gs2, rng):
        rep = gn_report(gs2, rng=rng)
        assert len(rep.test_values) == 100
        assert rep.minimal
        assert rep.sharp_constant == pytest.approx(1.0 / rep.j1_value)
        assert all(v >= rep.j1_value for _, v in rep.test_values)

    def test_subcritical_mass_gives_nonnegative_energy(self, gs2, rng):
        from dgbo import conserved
        from dgbo.ground_state import random_smooth_field

        g = gs2.grid
        mq = gs2.mass()
        for _ in range(100):
            v, _kind = random_smooth_field(g, rng)
            v = v * np.sqrt(rng.uniform(0.05, 1.0) * mq / g.inner(v, v))
            d = conserved(g, v, 2.0)
            assert d.energy >= -1e-8 * g.h_alpha_half_norm(v, 2.0) ** 2


class TestDecay:
    def test_exponent_alpha_15(self):
        gs = ground_state_for(1.5, Grid(400.0, 16384))
        slope = decay_fit(gs)
        assert abs(slope + 2.5) < 0.12 * 2.5

    def test_fit_reproducible_across_boxes(self):
        a = decay_fit(ground_state_for(1.5, Grid(200.0, 8192)))
        b = decay_fit(ground_state_for(1.5, Grid(400.0, 16384)))
        assert abs(a - b) < 0.05 * abs(b)

    def test_exponential_tail_detected(self, gs2):
        # the alpha=2 profile decays exponentially: its far tail is spectral
        # noise on any double-precision grid and the fit must refuse
        with pytest.raises(ResolutionError):
            decay_fit(gs2)
