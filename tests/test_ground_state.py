import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgbo import Grid, decay_fit, gn_report, j1, pohozaev_residuals, solve_ground_state
from dgbo import ground_state
from dgbo.errors import ContractError, ConvergenceError, ResolutionError, SeedError
from dgbo.ground_state import (
    RUNG_MERGE,
    continuation_ladder,
    equation_residual,
    gkdv_profile,
    ladder_rungs,
    shape_certificate,
)

from conftest import COMPACT, ground_state_for
import oracles

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

    def test_unconverged_solve_raises_with_its_history(self, monkeypatch):
        monkeypatch.setattr(ground_state, "MAX_ITERS", 3)
        with pytest.raises(ConvergenceError) as info:
            solve_ground_state(1.5, Grid(50.0, 512))
        history = info.value.history
        assert len(history) == 3
        assert all(d >= ground_state.TOL_DIFF for d in history)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_zero_seed_is_a_convergence_error(self):
        # G(0) is 0/0: the NaN stops the iteration at once
        with pytest.raises(ConvergenceError) as info:
            solve_ground_state(1.5, Grid(50.0, 512), seed=np.zeros(512))
        assert len(info.value.history) == 1

    def test_a_map_takes_two_transforms(self, monkeypatch):
        # one forward transform of |u|^{2 alpha} u and one inverse of the
        # image per map; once per solve come the seed's spectrum, the
        # equation residual's |D|^alpha u (a pair) and the Pohozaev residuals'
        # seminorm (one forward)
        counts = {"transform": 0, "field": 0}

        def counted(name):
            method = getattr(Grid, name)

            def call(self, *args):
                counts[name] += 1
                return method(self, *args)
            return call

        for name in counts:
            monkeypatch.setattr(Grid, name, counted(name))
        gs = solve_ground_state(1.5, Grid(50.0, 512))
        assert gs.iterations > 10
        assert counts == {"transform": gs.iterations + 3, "field": gs.iterations + 1}

    def test_a_seed_that_is_not_even_converges_to_the_even_profile(self):
        # the first map's quotient takes the seed's whole (complex) spectrum;
        # its image, and every one after it, is even
        g = Grid(50.0, 512)
        seed = np.roll(gkdv_profile(g.x), 3)
        kept = seed.copy()
        got = solve_ground_state(2.0, g, seed=seed)
        assert np.array_equal(seed, kept)
        assert shape_certificate(got)["even_defect"] < 1e-12
        assert np.max(np.abs(got.values - solve_ground_state(2.0, g).values)) < 1e-10

    def test_a_sign_indefinite_mixed_iterate_falls_back_to_the_plain_image(self, monkeypatch):
        # the third sign test is the first one on a mixed iterate (maps 1 and
        # 2 have no difference to mix yet): flagging it drops the history and
        # re-tests the plain image, which passes, so the solve goes on to the
        # same profile; flagging the plain image as well raises
        g = Grid(50.0, 512)
        want = solve_ground_state(1.5, g).values
        sign_indefinite = ground_state._sign_indefinite

        def flagged(calls):
            seen = []

            def test(u):
                seen.append(1)
                return len(seen) in calls or sign_indefinite(u)
            return test

        monkeypatch.setattr(ground_state, "_sign_indefinite", flagged({3}))
        got = solve_ground_state(1.5, g)
        assert np.max(np.abs(got.values - want)) < 1e-10
        monkeypatch.setattr(ground_state, "_sign_indefinite", flagged({3, 4}))
        with pytest.raises(SeedError, match="step 3"):
            solve_ground_state(1.5, g)


class TestLadder:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.9])
    def test_matches_the_plain_full_grid_walk(self, alpha):
        gs = continuation_ladder(alpha, COMPACT, step=0.25)
        want, iterations = oracles.plain_ladder(alpha, COMPACT, step=0.25)
        assert np.max(np.abs(gs.values - want)) <= 1e-10
        # the residuals are small defects, so the 1e-12 stop moves them
        # relatively more: the two walks' differ by at most 1.6e-7 (alpha = 1.9)
        assert gs.pohozaev_residuals == pytest.approx(
            pohozaev_residuals(COMPACT, want, alpha), rel=5e-7)
        # the padded coarse profile leaves the full grid little to do
        assert gs.ladder[-1].iterations < iterations[-1]

    def test_the_fine_alpha_1_ladder_keeps_its_recorded_figures(self):
        # the Pohozaev residuals are 5e-8 defects, so a 5e-14 relative change of
        # the profile's scale moves them by 2e-6 relative: a Rayleigh quotient
        # summed mode after mode (a BLAS dot) biases the scale that much on
        # this 2^19-point grid, numpy's pairwise sums by roundoff only
        gs = ground_state_for(1.0)
        assert [r.iterations for r in gs.ladder] == [1, 12, 14, 16, 19, 7]
        assert gs.pohozaev_residuals == pytest.approx(
            (1.0923736569745795e-07, 5.4618683208412135e-08, 5.461868857534186e-08), rel=5e-7, abs=0.0)

    def test_records_every_rung(self):
        gs = continuation_ladder(1.5, COMPACT, step=0.25)
        assert [(r.alpha, r.n) for r in gs.ladder] == [
            (2.0, 512), (1.75, 512), (1.5, 512), (1.5, 1024)]
        assert gs.ladder[-1].iterations == gs.iterations
        assert gs.ladder[-1].sup_diff == gs.sup_diff
        assert all(r.sup_diff < ground_state.TOL_DIFF for r in gs.ladder)

    def test_alpha_2_is_one_solve_on_the_grid(self):
        gs = continuation_ladder(2.0, Grid(25.0, 256))
        assert np.array_equal(gs.values, solve_ground_state(2.0, Grid(25.0, 256)).values)
        assert [(r.alpha, r.n) for r in gs.ladder] == [(2.0, 256)]

    @pytest.mark.parametrize("alpha, step, want", [
        (1.9, 0.05, [2.0, 1.95, 1.9]),
        (1.7, 0.1, [2.0, 1.9, 1.8, 1.7]),
        (1.25, 0.25, [2.0, 1.75, 1.5, 1.25]),
        (1.3, 0.25, [2.0, 1.75, 1.5, 1.3]),
        (2.0, 0.25, [2.0]),
        (1.0, 5.0, [2.0, 1.0]),
    ])
    def test_rungs(self, alpha, step, want):
        assert ladder_rungs(alpha, step) == pytest.approx(want, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(1.0, 2.0), step=st.floats(1e-3, 1.5))
    def test_rungs_fall_from_2_to_alpha_without_near_duplicates(self, alpha, step):
        rungs = ladder_rungs(alpha, step)
        assert rungs[0] == 2.0 or rungs == [alpha]
        assert rungs[-1] == alpha
        gaps = np.diff(rungs)
        assert np.all(gaps[:-1] == pytest.approx(-step, rel=1e-9))
        # no two rungs closer than RUNG_MERGE, and no room left for one more
        assert np.all(gaps < -RUNG_MERGE)
        assert len(rungs) == 1 or -gaps[-1] <= step + RUNG_MERGE

    @pytest.mark.parametrize("step", [0.0, -0.25, math.nan, math.inf])
    def test_refuses_a_step_that_is_not_finite_and_positive(self, step):
        with pytest.raises(ContractError, match="ladder step"):
            continuation_ladder(1.5, COMPACT, step=step)


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
        g2 = Grid(gs.grid.half_length, 2 * gs.grid.n)
        fine = oracles.fine(gs.grid, gs.grid.transform(gs.values), 2)
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
            fine = oracles.fine(g, g.transform(gs.values), 4096 // n)
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
        v = lam0 ** (-0.5) * g.resample_scaled(gs2.values, scale=lam0 ** (-1.0), shift=0.0)
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
