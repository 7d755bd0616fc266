from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gamma

from dgbo import (
    EvolutionConfig,
    build_weight,
    calibrate,
    check_eta_monotonicity,
    check_left_monotonicity,
    check_right_monotonicity,
    evolve,
    kato_terms,
    track,
    weighted_mass,
)
from dgbo import monotonicity
from dgbo.errors import ContractError, ConvergenceError
from dgbo.monotonicity import commutator_residual, seam_window

from conftest import ground_state_for, spectrum_for, COMPACT

MU = 0.5
R = 1.5  # (alpha+1)/2 at alpha=2
A = 10.0


@pytest.fixture(scope="module")
def runs():
    """Exact-soliton and 1%-perturbation runs with modulation tracks."""
    gs = ground_state_for(2.0, COMPACT)
    chi0 = spectrum_for(2.0, COMPACT).chi0
    g = gs.grid
    cfg = EvolutionConfig(alpha=2.0, dt=2e-4, t_end=2.0, checkpoint_every=500,
                          store_states=True)
    rec_sol = evolve(g, gs.values, cfg)
    rec_pert = evolve(g, gs.values + 0.01 * np.exp(-(g.x**2) / 4.0), cfg)

    def unpack(rec):
        return [t for t, _ in rec.states], [u for _, u in rec.states]

    ts, ss = unpack(rec_sol)
    tp, sp = unpack(rec_pert)
    tr_sol = track(ts, ss, gs, chi0)
    tr_pert = track(tp, sp, gs, chi0)
    return {
        "gs": gs, "grid": g,
        "sol": (ts, ss, tr_sol),
        "pert": (tp, sp, tr_pert),
    }


class TestWeight:
    def test_r1_closed_form(self):
        w = build_weight(1.0, 10.0)
        xs = np.linspace(-300.0, 300.0, 4001)
        assert np.max(np.abs(w.phi(xs) - (np.pi / 2 + np.arctan(xs)))) < 1e-10

    def test_r15_closed_form(self):
        w = build_weight(1.5, 5.0)
        xs = np.linspace(-300.0, 300.0, 4001)
        assert np.max(np.abs(w.phi(xs) - (1.0 + xs / np.sqrt(1 + xs**2)))) < 1e-10
        assert w.phi_total == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_split_and_peak_slope(self):
        w = build_weight(0.8, 10.0)
        assert w.phi(0.0) == pytest.approx(w.phi_total / 2, rel=1e-14)
        assert w.dphi_a(0.0) == pytest.approx(1.0 / 10.0, rel=1e-14)

    def test_monotone_and_bounded(self):
        w = build_weight(1.2, 7.0)
        xs = np.linspace(-500.0, 500.0, 2000)
        vals = w.phi(xs)
        assert np.all(np.diff(vals) > 0)
        assert vals[0] > 0.0 and vals[-1] < w.phi_total

    def test_sqrt_dphi_identity(self):
        w = build_weight(1.3, 12.0)
        xs = np.linspace(-100.0, 100.0, 501)
        want = (1.0 + (xs / 12.0) ** 2) ** (-1.3 / 2.0) / np.sqrt(12.0)
        assert np.max(np.abs(w.sqrt_dphi_a(xs) - want)) < 1e-10
        assert np.max(np.abs(w.sqrt_dphi_a(xs) ** 2 - w.dphi_a(xs))) < 1e-12

    @pytest.mark.parametrize("r", [0.8, 1.25])
    def test_matches_quadrature(self, r):
        # relative accuracy down the far tails, where phi or phi_total - phi is small
        w = build_weight(r, 1.0)
        for x in (-2000.0, -300.0, -40.0, -3.0, 0.5, 7.0, 60.0):
            ref = quad(lambda s: (1.0 + s * s) ** (-r), -np.inf, x,
                       epsabs=0.0, epsrel=2e-14, limit=200)[0]
            assert float(w.phi(x)) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_matches_betainc(self):
        # the closed form through t = 1/(1+x^2): phi is (phi_total/2) I_t(r - 1/2, 1/2)
        # for x <= 0 and phi_total minus that for x > 0, I the regularized incomplete beta
        ax = np.logspace(-3.0, 8.0, 111)
        xs = np.concatenate([-ax[::-1], ax])
        for r in np.linspace(0.5001, 1.5, 41):
            total = np.sqrt(np.pi) * gamma(r - 0.5) / gamma(r)
            tail = 0.5 * total * betainc(r - 0.5, 0.5, 1.0 / (1.0 + xs**2))
            ref = np.where(xs <= 0.0, tail, total - tail)
            np.testing.assert_allclose(build_weight(r, 1.0).phi(xs), ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("r", [0.5001, 0.8, 1.25, 1.5])
    def test_law_at_the_center(self, r):
        # phi(x) = phi_total/2 + x - r x^3/3 + O(x^5), resolved to rounding
        w = build_weight(r, 1.0)
        ax = np.logspace(-8.0, -4.0, 41)
        xs = np.concatenate([-ax[::-1], ax])
        law = 0.5 * w.phi_total + xs - r * xs**3 / 3.0
        assert np.max(np.abs(w.phi(xs) - law)) <= 4.0 * np.finfo(float).eps * w.phi_total

    @pytest.mark.parametrize("cap, value, message", [
        ("TABLE_DEGREE", 8, "needs a Chebyshev table of degree"),
        ("SERIES_MAX_TERMS", 10, "not converged"),
    ])
    def test_unconverged_table_raises(self, monkeypatch, cap, value, message):
        # a weight is never built from a truncated table or a truncated series
        monkeypatch.setattr(monotonicity, cap, value)
        with pytest.raises(ConvergenceError, match=message):
            build_weight(1.25, 1.0)

    def test_domain_errors(self):
        # A = nan would give a nan weight and A = inf one whose phi_A' is 0 everywhere
        for r, a in [(0.5, 5.0), (0.4, 5.0), (1.6, 5.0), (1.0, 0.5), (1.25, np.nan), (1.25, np.inf)]:
            with pytest.raises(ContractError):
                build_weight(r, a)


class TestKato:
    def test_zero_field(self, runs):
        g = runs["grid"]
        w = build_weight(R, A)
        kt = kato_terms(g, np.zeros(g.n), w, 0.0, 2.0, rho_t=1.0)
        assert kt.transport == kt.dispersive == kt.nonlinear == kt.total == 0.0

    def test_exact_cancellation_on_soliton(self, runs):
        # a traveling wave keeps its co-moving weighted mass constant, so the
        # three terms cancel to spectral accuracy
        gs, g = runs["gs"], runs["grid"]
        w = build_weight(R, A)
        kt = kato_terms(g, gs.values, w, 10.0, 2.0, rho_t=1.0)
        scale = max(abs(kt.transport), abs(kt.dispersive), abs(kt.nonlinear))
        assert abs(kt.total) < 1e-10 * scale

    def test_finite_difference_consistency(self, runs):
        # d/dt M_phi against the assembled terms on the perturbed run,
        # rho_t supplied by the modulation track
        gs, g = runs["gs"], runs["grid"]
        cfg = EvolutionConfig(alpha=2.0, dt=1e-4, t_end=0.02, checkpoint_every=10,
                              store_states=True)
        u0 = gs.values + 0.01 * np.exp(-(g.x**2) / 4.0)
        rec = evolve(g, u0, cfg)
        chi0 = spectrum_for(2.0, COMPACT).chi0
        times = [t for t, _ in rec.states]
        states = [u for _, u in rec.states]
        tr = track(times, states, gs, chi0)
        w = build_weight(R, A)
        x0 = 10.0
        i = len(states) // 2
        rho_t = (tr.rho[i + 1] - tr.rho[i - 1]) / (times[i + 1] - times[i - 1])
        m_lo = weighted_mass(g, states[i - 1], w, tr.rho[i - 1] + x0)
        m_hi = weighted_mass(g, states[i + 1], w, tr.rho[i + 1] + x0)
        fd = (m_hi - m_lo) / (times[i + 1] - times[i - 1])
        kt = kato_terms(g, states[i], w, tr.rho[i] + x0, 2.0, rho_t=rho_t)
        assert abs(fd - kt.total) < 1e-3 * abs(kt.total)

    def test_dispersive_term_bound(self, runs, rng):
        # int(-|D|^a u) u phi_A' <= -|||D|^{a/2}(u sqrt(phi_A'))||^2
        #                           + (C/A^a) int u^2 phi_A'
        g = runs["grid"]
        w = build_weight(R, A)
        cs = []
        for _ in range(20):
            z = g.x / A
            f = sum(
                rng.uniform(0.3, 1.0) * np.cos(j * np.pi * z / 4 + rng.uniform(0, 7))
                for j in range(1, 4)
            ) * np.exp(-(z**2) / 8.0)
            res, bud = commutator_residual(g, f, w, 2.0)
            cs.append(res * A**2.0 / bud)
        assert max(cs) < 2.0  # finite fitted C at the default dilation
        assert all(c <= max(cs) for c in cs)


class TestCommutatorScaling:
    def test_constant_stable_and_rate_matches(self, runs, rng):
        # probe with A-adapted fields (content at wavenumbers ~ 1/A), which
        # witness the sharp A^{-alpha} rate of the commutator residual
        g = runs["grid"]
        alphas = 2.0
        cands = (5.0, 10.0, 20.0)
        cmax = []
        for a_dil in cands:
            w = build_weight(R, a_dil)
            vals = []
            for _ in range(20):
                z = g.x / a_dil
                f = sum(
                    rng.uniform(0.3, 1.0) * np.cos(j * np.pi * z / 4 + rng.uniform(0, 7))
                    for j in range(1, 4)
                ) * np.exp(-(z**2) / 8.0)
                res, bud = commutator_residual(g, f, w, alphas)
                vals.append(abs(res) * a_dil**alphas / bud)
            cmax.append(max(vals))
        mid = np.median(cmax)
        assert all(0.5 * mid <= c <= 2.0 * mid for c in cmax)  # C stable within +-50%
        # residual/budget ~ A^{-alpha}: slope of the normalized residual
        slope = np.polyfit(np.log(cands), np.log(np.array(cmax) / np.array(cands) ** alphas), 1)[0]
        assert abs(slope + alphas) < 0.5


class TestMonotonicityChecks:
    def test_right_all_true_on_runs(self, runs):
        g = runs["grid"]
        w = build_weight(R, A)
        ts, ss, tr_s = runs["sol"]
        tp, sp, tr_p = runs["pert"]
        for x0 in (10.0, 20.0, 40.0):
            c0 = calibrate([check_right_monotonicity(ts, ss, tr_s.rho, w, x0, MU, 0.0, g)])
            for times, states, tr in ((ts, ss, tr_s), (tp, sp, tr_p)):
                rep = check_right_monotonicity(times, states, tr.rho, w, x0, MU, c0, g)
                assert rep.all_true
                assert len(rep.slack) == len(rep.verdicts)

    def test_left_all_true_on_runs(self, runs):
        g = runs["grid"]
        w = build_weight(R, A)
        ts, ss, tr_s = runs["sol"]
        tp, sp, tr_p = runs["pert"]
        for x0 in (10.0, 20.0, 40.0):
            c0 = calibrate([check_left_monotonicity(ts, ss, tr_s.rho, w, x0, MU, 0.0, g)])
            for times, states, tr in ((ts, ss, tr_s), (tp, sp, tr_p)):
                rep = check_left_monotonicity(times, states, tr.rho, w, x0, MU, c0, g)
                assert rep.all_true

    def test_budget_scales_with_x0(self, runs):
        g = runs["grid"]
        w = build_weight(R, A)
        ts, ss, tr_s = runs["sol"]
        c0 = calibrate([check_right_monotonicity(ts, ss, tr_s.rho, w, 10.0, MU, 0.0, g)])
        r10 = check_right_monotonicity(ts, ss, tr_s.rho, w, 10.0, MU, c0, g)
        r20 = check_right_monotonicity(ts, ss, tr_s.rho, w, 20.0, MU, c0, g)
        ratio = r20.error_budget[0] / r10.error_budget[0]
        assert ratio == pytest.approx(2.0 ** -(2 * R - 1), rel=1e-12)

    def test_left_check_cross_validates_against_reflection(self, runs, monkeypatch):
        # under x -> -x, t -> T - t the right functional of the transformed
        # run and the left functional of the original are complementary:
        # their masses add up to phi_total times the windowed mass (exact up
        # to the solver's conservation drift)
        g = runs["grid"]
        w = build_weight(R, A)
        tp, sp, tr_p = runs["pert"]
        x0 = 10.0
        n = len(tp)
        monkeypatch.setattr(monotonicity, "MAX_PAIRS", 10**6)
        left = check_left_monotonicity(tp, sp, tr_p.rho, w, x0, MU, 0.0, g)
        times_r = [tp[-1] - t for t in reversed(tp)]
        states_r = [g.reflect(u) for u in reversed(sp)]
        rhos_r = [-r for r in reversed(tr_p.rho)]
        right = check_right_monotonicity(times_r, states_r, rhos_r, w, x0, MU, 0.0, g)
        win = seam_window(g)
        right_lhs = {p: l for p, l in zip(right.pairs, right.lhs)}
        checked = 0
        for (t1, t2), rhs_mass in zip(left.pairs, left.rhs):
            i, j = tp.index(t1), tp.index(t2)
            key = (times_r[n - 1 - j], times_r[n - 1 - i])
            total = g.quadrature(sp[i] ** 2 * win) * w.phi_total
            assert right_lhs[key] + rhs_mass == pytest.approx(total, rel=1e-8)
            checked += 1
        assert checked == len(left.pairs)

    def test_eta_monotonicity(self, runs):
        gs = runs["gs"]
        w = build_weight(R, A)
        _, sp, tr_p = runs["pert"]
        c = calibrate(check_eta_monotonicity(tr_p, sp, gs, w, [15.0, 30.0], MU, 0.0))
        for rep in check_eta_monotonicity(tr_p, sp, gs, w, [10.0, 20.0], MU, c):
            assert rep.all_true

    def test_rebudget_matches_a_fresh_check(self, runs):
        # the CLI checks once at c0 = 0 and re-budgets that report; a check
        # run at the calibrated constant must state the same inequalities
        g, gs = runs["grid"], runs["gs"]
        w = build_weight(R, A)
        tp, sp, tr_p = runs["pert"]
        c0 = calibrate([check_right_monotonicity(tp, sp, tr_p.rho, w, 10.0, MU, 0.0, g)])
        c_eta = calibrate(check_eta_monotonicity(tr_p, sp, gs, w, [10.0], MU, 0.0))
        for check, c in (
            (lambda c: check_right_monotonicity(tp, sp, tr_p.rho, w, 10.0, MU, c, g), c0),
            (lambda c: check_eta_monotonicity(tr_p, sp, gs, w, [10.0], MU, c)[0], c_eta),
        ):
            fresh, rebudgeted = check(c), replace(check(0.0), c0=c)
            assert np.array_equal(rebudgeted.rhs, fresh.rhs)
            assert np.array_equal(rebudgeted.verdicts, fresh.verdicts)
            assert rebudgeted.all_true

    def test_eta_zero_track(self, runs):
        w = build_weight(R, A)
        _, ss, tr_s = runs["sol"]
        (rep,) = check_eta_monotonicity(tr_s, ss, runs["gs"], w, [10.0], MU, 0.0)
        scale = np.max(tr_s.eta_l2) ** 2 * w.phi_total + 1e-300
        assert np.max(np.abs(rep.lhs)) < 1e-10  # eta == 0 within solver drift
        assert np.max(np.abs(rep.rhs)) < 1e-10

    def test_eta_error_term_x0_scaling(self, runs):
        w = build_weight(R, A)
        _, sp, tr_p = runs["pert"]
        x0s = np.array([10.0, 20.0, 40.0])
        terms = [np.max(rep.error_budget)
                 for rep in check_eta_monotonicity(tr_p, sp, runs["gs"], w, x0s, MU, 1.0)]
        slope = np.polyfit(np.log(x0s), np.log(terms), 1)[0]
        assert abs(slope + 2 * R) < 0.15 * 2 * R

    def test_domain_validation(self, runs):
        g = runs["grid"]
        w = build_weight(R, A)
        ts, ss, tr_s = runs["sol"]
        with pytest.raises(ContractError):
            check_right_monotonicity(ts, ss, tr_s.rho, w, 0.5, MU, 0.0, g)
        with pytest.raises(ContractError):
            check_right_monotonicity(ts, ss, tr_s.rho, w, 10.0, 1.5, 0.0, g)
        with pytest.raises(ContractError):
            check_eta_monotonicity(tr_s, ss, runs["gs"], w, [10.0], 1.5, 0.0)
        with pytest.raises(ContractError, match="alpha"):  # a track of another ground state
            check_eta_monotonicity(replace(tr_s, alpha=1.5), ss, runs["gs"], w, [10.0], MU, 0.0)

    def test_length_mismatch_is_a_contract_error(self, runs):
        g = runs["grid"]
        w = build_weight(R, A)
        ts, ss, tr_s = runs["sol"]
        for check in (check_right_monotonicity, check_left_monotonicity):
            with pytest.raises(ContractError, match="length mismatch"):
                check(ts, ss[:-1], tr_s.rho, w, 10.0, MU, 0.0, g)
        # the eta check rebuilds each remainder from its frame: one state per track time
        with pytest.raises(ContractError, match="length mismatch"):
            check_eta_monotonicity(tr_s, ss[:-1], runs["gs"], w, [10.0], MU, 0.0)

    def test_eta_check_without_remainders_is_a_contract_error(self, runs):
        # no frames, so no remainder can be rebuilt at any track time
        _, _, tr_s = runs["sol"]
        with pytest.raises(ContractError, match="length mismatch"):
            check_eta_monotonicity(tr_s, [], runs["gs"], build_weight(R, A), [10.0], MU, 0.0)

    def test_seam_window_shape(self, runs):
        g = runs["grid"]
        win = seam_window(g)
        assert np.max(win) == 1.0
        assert win[0] < 1e-12  # zero at the seam
        inner = np.abs(g.x) <= 0.9 * g.half_length
        assert np.min(win[inner]) == 1.0
