from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgbo import dynamics
from dgbo import (
    EvolutionConfig,
    Grid,
    Stepper,
    conserved,
    evolve,
    evolve_batch,
    flow_stepper,
)
from dgbo.dynamics import _padded_flux
from dgbo.errors import ContractError
from dgbo.ground_state import gkdv_profile
from dgbo.spectral import _abs_power_times
from oracles import contour_tables, etdrk4_step, fine, nonlinear_term, power_flux, rescaled_config



def soliton_cfg(dt=1e-4, t_end=0.1, **kw):
    return EvolutionConfig(alpha=2.0, dt=dt, t_end=t_end, checkpoint_every=100, **kw)


class TestNonlinearTerm:
    def test_zero_and_constant(self):
        g = Grid(30.0, 128)
        assert np.max(np.abs(nonlinear_term(g, np.zeros(128), 1.5))) == 0.0
        out = nonlinear_term(g, np.full(128, 2.0), 1.5)
        assert np.max(np.abs(out)) < 1e-12

    def test_soliton_closed_form(self):
        # Q' = -Q tanh(2x), so |Q|^4 Q' = -Q^5 tanh(2x)
        g = Grid(100.0, 4096)
        q = gkdv_profile(g.x)
        want = -(q**5) * np.tanh(2.0 * g.x)
        got = nonlinear_term(g, q, 2.0)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 1.75, 2.0])
    def test_integer_power_flux_matches_float_power(self, alpha, rng):
        # signed data, so that |v| and v differ where the odd power 3 or a
        # half-integer power 2.5 or 3.5 is taken
        g = Grid(30.0, 256)
        u = np.exp(-(g.x**2) / 8.0) * (1.0 + 0.3 * np.cos(1.3 * g.x)) - 0.2
        F = g.transform(u + 0.01 * rng.standard_normal(g.n))
        v = fine(g, F)
        kept = v.copy()
        power = _abs_power_times(v, 2.0 * alpha)
        assert np.array_equal(v, kept)
        float_power = np.abs(v) ** (2.0 * alpha) * v
        assert np.max(np.abs(power - float_power)) <= 1e-14 * np.max(np.abs(float_power))
        weight = g.truncation(1.0)
        want = g.coarse(float_power, weight)
        got = _padded_flux(g, F, alpha, weight)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("sign", ["focusing", "defocusing"])
    def test_flux_matches_aliasing_free_reference(self, sign):
        # at alpha = 2 the flow's flux is -sign dx(u^5)/5 formed on the 2N grid;
        # the reference forms it on 4N, where the degree-5 product does not alias
        g = Grid(48.0, 1024)
        F = g.transform(1.05 * gkdv_profile(g.x))
        got = flow_stepper(g, soliton_cfg(sign=sign)).nonlinear(F)
        want = (-1.0 if sign == "focusing" else 1.0) * power_flux(g, F, 5)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert np.max(np.abs(got[1:-1] - want[1:-1])) <= 1e-13 * np.max(np.abs(want))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            EvolutionConfig(alpha=2.0, dt=-1.0, t_end=1.0, checkpoint_every=100)
        with pytest.raises(ContractError):
            EvolutionConfig(alpha=2.0, dt=1e-3, t_end=1.0, checkpoint_every=100, sign="both")
        with pytest.raises(ContractError, match="checkpoint_every"):
            EvolutionConfig(alpha=2.0, dt=1e-3, t_end=1.0, checkpoint_every=0)


class TestConserved:
    def test_zero(self):
        g = Grid(30.0, 128)
        d = conserved(g, np.zeros(128), 1.5)
        assert d.mass == d.energy == d.mean == d.sobolev_norm == d.linf == 0.0

    def test_ground_state_energy_vanishes(self, gs2):
        d = conserved(gs2.grid, gs2.values, 2.0)
        scale = gs2.grid.h_alpha_half_norm(gs2.values, 2.0) ** 2
        assert abs(d.energy) < 1e-6 * scale

    def test_supercritical_mass_negative_energy(self, gs2):
        d = conserved(gs2.grid, 1.05 * gs2.values, 2.0)
        assert d.energy < 0.0


class TestStep:
    def test_zero_data(self):
        g = Grid(30.0, 128)
        out = flow_stepper(g, soliton_cfg()).step_spectrum(g.transform(np.zeros(128)))
        assert np.max(np.abs(out)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(coefs=hnp.arrays(float, 16, elements=st.floats(-1.0, 1.0)),
           mean=st.floats(-2.0, 2.0),
           alpha=st.sampled_from([1.0, 1.5, 2.0]),
           sign=st.sampled_from(["focusing", "defocusing"]),
           frame_speed=st.sampled_from([0.0, 1.0]),
           filter_strength=st.sampled_from([0.0, 1.0]))
    def test_zero_mode_unchanged(self, coefs, mean, alpha, sign, frame_speed, filter_strength):
        # random smooth data: a mean plus the eight lowest modes
        g = Grid(20.0, 128)
        F = np.zeros(g.n // 2 + 1, dtype=complex)
        F[1:9] = coefs[:8] + 1j * coefs[8:]
        u = mean + np.fft.irfft(F, g.n) * (g.n / 8)
        cfg = EvolutionConfig(alpha=alpha, dt=1e-3, t_end=1.0, checkpoint_every=100, sign=sign,
                              frame_speed=frame_speed)
        F0 = g.transform(u)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "FILTER_STRENGTH", filter_strength)
            assert flow_stepper(g, cfg).step_spectrum(F0)[0] == F0[0]

    def test_stacked_step_matches_rows(self, rng):
        g = Grid(30.0, 256)
        U = np.stack([np.exp(-(g.x**2) / 4.0) + 0.3, 0.8 * np.exp(-((g.x - 3.0) ** 2))])
        U = U + 0.01 * rng.standard_normal(U.shape)
        st = flow_stepper(g, soliton_cfg(dt=1e-3))
        stacked = st.step_spectrum(g.transform(U))
        for row, u in zip(stacked, U):
            assert np.array_equal(row, st.step_spectrum(g.transform(u)))

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("filter_strength", [0.0, 1.0])
    def test_step_matches_formula_bitwise(self, alpha, filter_strength, rng, monkeypatch):
        # the in-place stages keep every bit of the formula written out
        monkeypatch.setattr(dynamics, "FILTER_STRENGTH", filter_strength)
        g = Grid(30.0, 256)
        U = np.stack([np.exp(-(g.x**2) / 4.0) + 0.3, 0.8 * np.exp(-((g.x - 3.0) ** 2))])
        U = U + 0.01 * rng.standard_normal(U.shape)
        cfg = EvolutionConfig(alpha=alpha, dt=1e-3, t_end=1.0, checkpoint_every=100)
        st = flow_stepper(g, cfg)
        for F in (g.transform(U), g.transform(U[1])):
            kept = F.copy()
            assert np.array_equal(st.step_spectrum(F), etdrk4_step(st, F))
            assert np.array_equal(F, kept)

    @pytest.mark.parametrize("alpha, grid, dt", [
        (2.0, Grid(48.0, 1024), 5e-4), (1.9, Grid(48.0, 1024), 5e-4),
        (1.5, Grid(50.0, 1024), 1e-3), (2.0, Grid(100.0, 4096), 1e-4),
    ], ids=["2-48-1024", "1.9-48-1024", "1.5-50-1024", "2-100-4096"])
    def test_tables_match_the_contour_matrix(self, alpha, grid, dt):
        # the sums run in another order than np.mean's: E and E2 keep their
        # bits, the contour averages agree to roundoff
        sym = grid.ik * grid.riesz(alpha) + grid.ik
        st, ref = Stepper(sym, dt, None), contour_tables(sym, dt)
        assert np.array_equal(st.E, ref.E) and np.array_equal(st.E2, ref.E2)
        for name in ("Q", "f1", "f2", "f3"):
            got, want = getattr(st, name), getattr(ref, name)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12, name
        assert np.array_equal(st.twice_f2, 2.0 * st.f2)

    def test_flux_result_survives_the_next_call(self, rng):
        g = Grid(30.0, 256)
        st = flow_stepper(g, soliton_cfg())
        F1 = g.transform(np.exp(-(g.x**2) / 4.0))
        W1 = st.nonlinear(F1)
        kept = W1.copy()
        st.nonlinear(g.transform(rng.standard_normal((3, g.n))))
        st.nonlinear(F1)
        assert np.array_equal(W1, kept)

    def test_linear_regime_matches_exact_propagator(self, monkeypatch):
        monkeypatch.setattr(dynamics, "FILTER_STRENGTH", 0.0)
        g = Grid(30.0, 256)
        cfg = EvolutionConfig(alpha=1.5, dt=1e-3, t_end=1.0, checkpoint_every=100)
        st = flow_stepper(g, cfg)
        u0 = 1e-8 * np.exp(-(g.x**2) / 4.0)
        F = g.transform(u0)
        for _ in range(100):
            F = st.step_spectrum(F)
        exact = g.transform(u0) * np.exp(100 * cfg.dt * g.ik * g.riesz(1.5))
        err = np.max(np.abs(F - exact)) / np.max(np.abs(exact))
        assert err < 1e-10

    def test_soliton_travels_at_unit_speed(self, gs2):
        # short run; the full t=1 check lives in the acceptance suite
        g = gs2.grid
        cfg = soliton_cfg(t_end=0.05)
        rec = evolve(g, gs2.values, cfg)
        want = g.shift(gs2.values, rec.final_t)
        err = g.norm_l2(rec.final_state - want)
        assert err < 1e-7


class TestEvolve:
    def test_zero_run(self):
        g = Grid(30.0, 128)
        rec = evolve(g, np.zeros(128), soliton_cfg(dt=1e-3, t_end=0.05))
        assert rec.status == "completed"
        assert all(d.mass == 0.0 for d in rec.samples)

    def test_conservation_drift_short(self, gs2):
        g = gs2.grid
        rec = evolve(g, gs2.values, soliton_cfg(t_end=0.1))
        m = rec.column("mass")
        e = rec.column("energy")
        mean = rec.column("mean")
        scale = g.h_alpha_half_norm(gs2.values, 2.0) ** 2
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-9
        assert np.max(np.abs(e - e[0])) < 1e-7 * scale
        assert np.max(np.abs(mean - mean[0])) < 1e-13 * max(1.0, abs(mean[0]))

    def test_zero_mode_exact_on_rough_data(self, rng):
        g = Grid(30.0, 256)
        u0 = np.exp(-(g.x**2)) + 0.1 * rng.standard_normal(256)
        cfg = EvolutionConfig(alpha=1.5, dt=5e-5, t_end=0.005, checkpoint_every=100)
        rec = evolve(g, u0, cfg)
        mean = rec.column("mean")
        assert np.max(np.abs(mean - mean[0])) < 1e-13 * max(1.0, abs(mean[0]))

    def test_defocusing_stays_bounded(self, gs2_compact):
        g = gs2_compact.grid
        cfg = EvolutionConfig(alpha=2.0, dt=2e-4, t_end=5.0, sign="defocusing", checkpoint_every=500)
        rec = evolve(g, gs2_compact.values, cfg)
        assert rec.status == "completed"
        sob = rec.column("sobolev_norm")
        assert np.max(sob) < 1.5 * sob[0]

    def test_divergence_flag(self, monkeypatch):
        monkeypatch.setattr(dynamics, "LINF_CEILING", 0.5)
        g = Grid(30.0, 256)
        cfg = EvolutionConfig(alpha=2.0, dt=1e-3, t_end=1.0, checkpoint_every=10)
        rec = evolve(g, np.exp(-(g.x**2)), cfg)
        assert rec.status == "diverged"
        assert rec.status_t is not None

    def test_observer_early_stop(self, gs2_compact):
        g = gs2_compact.grid
        cfg = EvolutionConfig(alpha=2.0, dt=2e-4, t_end=1.0, checkpoint_every=50)
        rec = evolve(g, gs2_compact.values, cfg, observer=lambda t, u, r: t >= 0.02)
        assert rec.final_t < 0.05


DIAGNOSTIC_COLUMNS = ("t", "mass", "energy", "mean", "sobolev_norm", "linf")


def assert_same_record(a, b):
    assert (a.status, a.status_t, a.final_t) == (b.status, b.status_t, b.final_t)
    assert np.array_equal(a.final_state, b.final_state)
    for name in DIAGNOSTIC_COLUMNS:
        assert np.array_equal(a.column(name), b.column(name)), name
    assert [t for t, _ in a.states] == [t for t, _ in b.states]
    assert all(np.array_equal(u, v) for (_, u), (_, v) in zip(a.states, b.states))


class TestEvolveBatch:
    @settings(max_examples=30, deadline=None)
    @given(coefs=hnp.arrays(float, (3, 8), elements=st.floats(-1.0, 1.0)),
           amplitudes=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
           steps=st.lists(st.integers(1, 40), min_size=3, max_size=3),
           stop_at=st.integers(1, 40),
           alpha=st.sampled_from([1.5, 1.9, 2.0]),
           sign=st.sampled_from(["focusing", "defocusing"]),
           frame_speed=st.sampled_from([0.0, 1.0]),
           filter_strength=st.sampled_from([0.0, 1.0]),
           checkpoint_every=st.sampled_from([1, 4, 7]),
           store_states=st.booleans())
    def test_rows_match_one_row_runs(self, coefs, amplitudes, steps, stop_at, alpha, sign,
                                     frame_speed, filter_strength, checkpoint_every,
                                     store_states):
        # rows of unequal t_end; row 0 has an observer that stops it, and the
        # large amplitudes cross LINF_CEILING and diverge
        g = Grid(20.0, 128)
        dt = 1e-3
        u0s = []
        for c, amp in zip(coefs, amplitudes):
            F = np.zeros(g.n // 2 + 1, dtype=complex)
            F[1:5] = c[:4] + 1j * c[4:]
            u0s.append(amp * np.exp(-(g.x**2) / 4.0) + np.fft.irfft(F, g.n) * (g.n / 8))
        cfgs = [EvolutionConfig(alpha=alpha, dt=dt, t_end=n * dt, sign=sign,
                                frame_speed=frame_speed,
                                checkpoint_every=checkpoint_every,
                                store_states=store_states)
                for n in steps]

        def stop(t, u, rec):
            return t >= stop_at * dt

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "LINF_CEILING", 4.0)
            mp.setattr(dynamics, "FILTER_STRENGTH", filter_strength)
            batch = evolve_batch(g, u0s, cfgs, [stop, None, None])
            for r, (u0, cfg) in enumerate(zip(u0s, cfgs)):
                alone = evolve(g, u0, cfg, observer=stop if r == 0 else None)
                assert_same_record(batch[r], alone)
                assert batch[r].config is cfg

    def test_mismatched_configs_rejected(self):
        g = Grid(20.0, 128)
        u0 = np.exp(-(g.x**2))
        base = EvolutionConfig(alpha=2.0, dt=1e-3, t_end=0.01, checkpoint_every=100)
        for other in (dict(alpha=1.9), dict(dt=2e-3), dict(sign="defocusing"),
                      dict(frame_speed=1.0),
                      dict(checkpoint_every=5), dict(store_states=True)):
            with pytest.raises(ContractError):
                evolve_batch(g, [u0, u0], [base, replace(base, **other)], [None, None])
        with pytest.raises(ContractError):
            evolve_batch(g, [u0, u0], [base], [None, None])
        with pytest.raises(ContractError):
            evolve_batch(g, [u0], [base], [None, None])
        # t_end alone may differ
        recs = evolve_batch(g, [u0, u0], [base, replace(base, t_end=0.02)], [None, None])
        assert [r.final_t for r in recs] == pytest.approx([0.01, 0.02])


class TestOrderAndSymmetry:
    def test_fourth_order_convergence(self, monkeypatch):
        monkeypatch.setattr(dynamics, "FILTER_STRENGTH", 0.0)
        g = Grid(50.0, 512)
        q = gkdv_profile(g.x)
        u0 = q + 0.05 * np.exp(-((g.x - 3.0) ** 2))

        def final(dt):
            cfg = EvolutionConfig(alpha=2.0, dt=dt, t_end=0.04, checkpoint_every=10**9)
            return evolve(g, u0, cfg).final_state

        ref = final(5e-5)
        e1 = g.norm_l2(final(4e-4) - ref)
        e2 = g.norm_l2(final(2e-4) - ref)
        assert e1 / e2 >= 2**3 * 0.8  # observed order >= 3 on a smooth soliton

    def test_l2_critical_scaling_invariance(self):
        alpha, lam0 = 1.5, 2.0
        gA = Grid(40.0, 512)
        u0 = 0.8 * np.exp(-(gA.x**2) / 4.0) * np.cos(0.5 * gA.x)
        cfgA = EvolutionConfig(alpha=alpha, dt=2e-4, t_end=0.05, checkpoint_every=10**9)
        recA = evolve(gA, u0, cfgA)
        s = lam0 ** (2.0 / alpha)
        gB = Grid(s * gA.half_length, 512)
        v0 = lam0 ** (-1.0 / alpha) * u0  # gB.x = s * gA.x pointwise
        recB = evolve(gB, v0, rescaled_config(cfgA, lam0))
        want = lam0 ** (-1.0 / alpha) * recA.final_state
        assert np.max(np.abs(recB.final_state - want)) < 1e-10 * np.max(np.abs(want))

    @settings(max_examples=25, deadline=None)
    @given(coefs=hnp.arrays(float, 16, elements=st.floats(-1.0, 1.0)),
           alpha=st.sampled_from([1.0, 1.5, 2.0]),
           sign=st.sampled_from(["focusing", "defocusing"]),
           frame_speed=st.sampled_from([0.0, 1.0]),
           filter_strength=st.sampled_from([0.0, 1.0]))
    def test_step_commutes_with_reflection(self, coefs, alpha, sign, frame_speed, filter_strength):
        # x -> -x, t -> -t: reflect(S_dt u) == S_{-dt}(reflect u) on smooth data
        g = Grid(20.0, 128)
        F = np.zeros(g.n // 2 + 1, dtype=complex)
        F[1:9] = coefs[:8] + 1j * coefs[8:]
        u = np.fft.irfft(F, g.n) * (g.n / 8)
        cfg = EvolutionConfig(alpha=alpha, dt=1e-3, t_end=1.0, checkpoint_every=100, sign=sign,
                              frame_speed=frame_speed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "FILTER_STRENGTH", filter_strength)
            fwd = flow_stepper(g, cfg)
        sym = g.ik * g.riesz(alpha) + frame_speed * g.ik
        bwd = Stepper(sym, -cfg.dt, fwd.nonlinear, fwd.filter)
        lhs = g.reflect(g.field(fwd.step_spectrum(g.transform(u))))
        rhs = g.field(bwd.step_spectrum(g.transform(g.reflect(u))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(u)))

    def test_time_space_reflection_symmetry(self, monkeypatch):
        monkeypatch.setattr(dynamics, "FILTER_STRENGTH", 0.0)
        g = Grid(40.0, 512)
        u0 = np.exp(-(g.x**2) / 4.0) + 0.3 * np.exp(-((g.x - 5.0) ** 2) / 9.0)
        cfg = EvolutionConfig(alpha=1.5, dt=1e-4, t_end=0.05, checkpoint_every=10**9)
        fwd = evolve(g, u0, cfg).final_state
        back = evolve(g, g.reflect(fwd), cfg).final_state
        assert g.norm_l2(back - g.reflect(u0)) < 1e-8
