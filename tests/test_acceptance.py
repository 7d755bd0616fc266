"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criterion 7 checks the decay law each alpha has. For alpha < 2 the tail is
algebraic: the log-log slope of Q on [L/4, L/2] is -(1+alpha). At alpha = 2
the profile 15^(1/4) cosh^(-1/2)(2x) decays like e^(-|x|): the slope of
log Q against x on a window above the noise floor is -1, and the algebraic
fit on [L/4, L/2], where the tail is spectral noise, is refused.
"""

import os
import time

import numpy as np
import pytest

from dgbo import (
    Grid,
    assemble,
    build_weight,
    calibrate,
    check_eta_monotonicity,
    check_left_monotonicity,
    check_right_monotonicity,
    conserved,
    decay_fit,
    decompose,
    evolve,
    gn_report,
    j1,
    modulation,
    solve_ground_state,
    stable_kernel,
    track,
)
from dgbo.scan import blowup_scan, write_scan
from dgbo.dynamics import EvolutionConfig
from dgbo.errors import ResolutionError
from dgbo.ground_state import gkdv_profile, random_smooth_field, scaling_generator

from conftest import ground_state_for, spectrum_for
from oracles import periodized_gauss_kernel, periodized_poisson_kernel, scan_decompose

ALPHAS = (1.0, 1.25, 1.5, 1.75, 2.0)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def exponential_decay_law(gs):
    """Criterion 7 at alpha = 2: (ok, text) for the tail law e^(-|x|).

    Far out Q'' = Q - Q^5/5 reduces to Q'' = Q, so log Q has slope -1 in x
    up to O(e^(-4|x|)). The fit window [5, 20] must clear decay_fit's noise
    floor, and decay_fit on its own window [L/4, L/2] must refuse the
    algebraic fit.
    """
    g, u = gs.grid, gs.values
    mask = (g.x >= 5.0) & (g.x <= 20.0)
    floor = 1e3 * np.finfo(float).eps * float(np.max(u))
    resolved = bool(np.min(u[mask]) > floor)
    rate = float(np.polyfit(g.x[mask], np.log(np.abs(u[mask])), 1)[0])
    target = -1.0
    rel = abs(rate - target) / abs(target)
    try:
        decay_fit(gs)
        refused = False
    except ResolutionError:
        refused = True
    ok = resolved and rel < 0.12 and refused
    text = (
        f"tail rate {rate:.6f} vs {target} ({rel:.1%}) on [5, 20] "
        f"above floor {resolved}; algebraic fit on [L/4, L/2] refused {refused}"
    )
    return ok, text


class TestAcceptance:
    def test_criterion_01_explicit_soliton(self):
        t0 = time.monotonic()
        gs = solve_ground_state(2.0, Grid(100.0, 4096))
        elapsed = time.monotonic() - t0
        err = float(np.max(np.abs(gs.values - gkdv_profile(gs.grid.x))))
        ok = err < 1e-6 and elapsed < 10.0
        report(1, ok, f"explicit soliton Linf error {err:.2e} in {elapsed:.2f}s")

    def test_criterion_02_pohozaev_suite(self):
        t0 = time.monotonic()
        worst = {}
        for alpha in ALPHAS:
            gs = ground_state_for(alpha)
            worst[alpha] = max(gs.pohozaev_residuals)
        elapsed = time.monotonic() - t0
        ok = all(v < 1e-5 for v in worst.values()) and elapsed < 120.0
        detail = ", ".join(f"a={a}: {v:.1e}" for a, v in worst.items())
        report(2, ok, f"identity residuals [{detail}] in {elapsed:.0f}s")

    def test_criterion_03_linearized_identities(self):
        rows = []
        for alpha in ALPHAS:
            gs = ground_state_for(alpha)
            g = gs.grid
            op, qp = assemble(gs), gs.derivative()
            r1 = g.norm_l2(op.apply(qp)) / g.norm_l2(qp)
            lam_q = scaling_generator(gs)
            out = op.apply(lam_q) + 2.0 * gs.values
            inner = np.abs(g.x) <= g.half_length / 2
            r2 = float(np.sqrt(np.sum(out[inner] ** 2) / np.sum(gs.values**2)))
            rows.append((alpha, r1, r2))
        ok = all(r1 < 1e-6 and r2 < 1e-5 for _, r1, r2 in rows)
        detail = ", ".join(f"a={a}: LQ'={r1:.1e} L(SQ)+2Q={r2:.1e}" for a, r1, r2 in rows)
        report(3, ok, detail)

    def test_criterion_04_spectral_structure(self):
        t0 = time.monotonic()
        oks = []
        for alpha in (1.9, 1.95, 2.0):
            rep = spectrum_for(alpha)  # matrix-free certificate at N=1024
            neg = np.sum(rep.eigenvalues < -rep.kernel_tol)
            oks.append(
                rep.structure_ok
                and neg == 1
                and len(rep.near_kernel) == 1
                and rep.qprime_cosine > 0.999
                and rep.chi0_even_defect < 1e-8
                and rep.parity_gap > 0.0
                and np.min(rep.chi0) > -1e-8 * np.max(rep.chi0)
            )
        elapsed = time.monotonic() - t0
        ok = all(oks) and elapsed < 60.0
        report(4, ok, f"one negative + simple Q' kernel for a in (1.9,1.95,2.0) in {elapsed:.0f}s")

    def test_criterion_05_conservation_and_speed(self):
        g = Grid(100.0, 4096)
        gs = ground_state_for(2.0, g)
        results = []
        for lam0 in (1.0, 1.2):
            u0 = lam0 ** (-0.5) * gkdv_profile(g.x / lam0)
            cfg = EvolutionConfig(alpha=2.0, dt=1e-4, t_end=1.0, checkpoint_every=1000)
            rec = evolve(g, u0, cfg)
            m = rec.column("mass")
            e = rec.column("energy")
            mean = rec.column("mean")
            scale = g.h_alpha_half_norm(u0, 2.0) ** 2
            drift_m = float(np.max(np.abs(m - m[0])) / m[0])
            drift_e = float(np.max(np.abs(e - e[0])) / scale)
            drift_mean = float(np.max(np.abs(mean - mean[0])) / abs(mean[0]))
            speed = g.fit_shift(rec.final_state, u0) / rec.final_t
            err_speed = abs(speed - lam0**-2)
            results.append((lam0, drift_m, drift_e, drift_mean, err_speed))
        ok = all(
            dm < 1e-9 and de < 1e-6 and dmn < 1e-13 and es < 1e-5
            for _, dm, de, dmn, es in results
        )
        detail = "; ".join(
            f"lam0={l}: mass {dm:.1e}, energy {de:.1e}, mean {dmn:.1e}, speed err {es:.1e}"
            for l, dm, de, dmn, es in results
        )
        report(5, ok, detail)

    def test_criterion_06_sharp_gn(self):
        gs = ground_state_for(2.0)
        g = gs.grid
        rng = np.random.default_rng(2024)
        rep = gn_report(gs, rng=rng)
        energy_ok = True
        mq = gs.mass()
        for _ in range(100):
            v, _ = random_smooth_field(g, rng)
            v = v * np.sqrt(rng.uniform(0.05, 1.0) * mq / g.inner(v, v))
            d = conserved(g, v, 2.0)
            if d.energy < -1e-8 * g.h_alpha_half_norm(v, 2.0) ** 2:
                energy_ok = False
        ok = rep.minimal and energy_ok
        report(6, ok, f"j1 minimal over 100 trials={rep.minimal}, capped-mass energy >= 0: {energy_ok}")

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_criterion_07_decay_law(self, alpha):
        grid = Grid(400.0, 16384)
        gs = ground_state_for(alpha, grid)
        if alpha == 2.0:
            ok, text = exponential_decay_law(gs)
            report(7, ok, f"a={alpha}: {text}")
            return
        target = -(1.0 + alpha)
        try:
            slope = decay_fit(gs)
        except ResolutionError as exc:
            report(7, False, f"a={alpha}: tail unresolvable ({exc})")
            return
        rel = abs(slope - target) / abs(target)
        report(7, rel < 0.12, f"a={alpha}: tail exponent {slope:.3f} vs {target} ({rel:.1%})")

    def test_criterion_08_modulation_oracle(self, monkeypatch):
        gs = ground_state_for(2.0, Grid(50.0, 1024))
        chi0 = spectrum_for(2.0, Grid(50.0, 1024)).chi0
        g = gs.grid
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            lam0 = rng.uniform(0.9, 1.15)
            x0 = rng.uniform(-5.0, 5.0)
            u = lam0 ** (-0.5) * gkdv_profile((g.x - x0) / lam0)
            u = u + rng.uniform(0.002, 0.01) * np.exp(
                -((g.x - x0 - rng.uniform(-2, 2)) ** 2) / rng.uniform(2.0, 9.0)
            )
            st = decompose(u, gs, chi0)
            lam_bf, rho_bf = scan_decompose(u, gs, chi0)
            worst = max(worst, abs(st.lam - lam_bf), abs(st.rho - rho_bf))
        cov_worst = 0.0
        # the covariance draws reach lam = 2, where a periodized soliton image
        # inflates the remainder: the closeness ceiling is raised for them
        monkeypatch.setattr(modulation, "EPS0", 5.0)
        for lam0, x0 in ((0.5, 3.0), (0.8, -4.0), (1.0, 0.0), (1.3, 6.0), (2.0, -2.0)):
            u = lam0 ** (-0.5) * gkdv_profile((g.x - x0) / lam0)
            st = decompose(u, gs, chi0, guess=(lam0 * 1.02, x0 + 0.2))
            cov_worst = max(cov_worst, abs(st.lam - lam0), abs(st.rho - x0))
        ok = worst < 1e-6 and cov_worst < 1e-7
        report(8, ok, f"newton vs brute force {worst:.1e}; covariance {cov_worst:.1e}")

    def test_criterion_09_monotonicity_regression(self):
        alpha = 2.0
        gs = ground_state_for(alpha, Grid(50.0, 1024))
        chi0 = spectrum_for(alpha, Grid(50.0, 1024)).chi0
        g = gs.grid
        r = (alpha + 1.0) / 2.0
        mu = 0.5
        weight = build_weight(r, 10.0)
        cfg = EvolutionConfig(alpha=alpha, dt=2e-4, t_end=2.0, checkpoint_every=500,
                              store_states=True)
        runs = {}
        for name, u0 in (
            ("soliton", gs.values),
            ("perturbed", gs.values + 0.01 * np.exp(-(g.x**2) / 4.0)),
        ):
            rec = evolve(g, u0, cfg)
            times = [t for t, _ in rec.states]
            states = [u for _, u in rec.states]
            runs[name] = (times, states, track(times, states, gs, chi0))
        x0s = (10.0, 20.0, 40.0)
        ts, ss, tr_s = runs["soliton"]
        all_ok = True
        for x0 in x0s:
            c0r = calibrate([check_right_monotonicity(ts, ss, tr_s.rho, weight, x0, mu, 0.0, g)])
            c0l = calibrate([check_left_monotonicity(ts, ss, tr_s.rho, weight, x0, mu, 0.0, g)])
            for _, (times, states, tr) in runs.items():
                all_ok &= check_right_monotonicity(
                    times, states, tr.rho, weight, x0, mu, c0r, g).all_true
                all_ok &= check_left_monotonicity(
                    times, states, tr.rho, weight, x0, mu, c0l, g).all_true
        _, sp, tr_p = runs["perturbed"]
        c_eta = calibrate(check_eta_monotonicity(tr_p, sp, gs, weight, [15.0, 30.0], mu, 0.0))
        for rep in check_eta_monotonicity(tr_p, sp, gs, weight, x0s, mu, c_eta):
            all_ok &= rep.all_true
        # error-budget scaling: C0/x0^{2r-1} by construction, and the eta
        # error integral must exhibit its (x0 + mu ds)^{-2r} law empirically
        budgets = [
            check_right_monotonicity(ts, ss, tr_s.rho, weight, x0, mu, 1.0, g).error_budget[0]
            for x0 in x0s
        ]
        slope_b = np.polyfit(np.log(x0s), np.log(budgets), 1)[0]
        eta_terms = [np.max(rep.error_budget)
                     for rep in check_eta_monotonicity(tr_p, sp, gs, weight, x0s, mu, 1.0)]
        slope_e = np.polyfit(np.log(x0s), np.log(eta_terms), 1)[0]
        scaling_ok = abs(slope_b + (2 * r - 1)) < 0.15 * (2 * r - 1) and abs(
            slope_e + 2 * r) < 0.15 * 2 * r
        ok = bool(all_ok and scaling_ok)
        report(9, ok, f"verdicts all true: {bool(all_ok)}; budget slopes "
                      f"{slope_b:.2f} (target {-(2*r-1)}), {slope_e:.2f} (target {-2*r})")

    def test_criterion_10_blowup_trend_and_12_determinism(self, tmp_path):
        t0 = time.monotonic()
        amplitudes = [0.9, 1.0] + [round(1.01 + 0.01 * i, 2) for i in range(10)]
        all_ok = True
        details = []
        for alpha in (1.9, 2.0):
            rows, context = blowup_scan(alpha, amplitudes, grid=Grid(48.0, 1024), dt=5e-4)
            for row in rows:
                if row.supercritical:  # energy certifiably negative on this grid
                    row_ok = (
                        row.beta > 0.0
                        and row.lambda_monotone
                        and row.tripped
                        and row.trip_time is not None
                    )
                else:
                    row_ok = row.bounded and row.sign_relation_ok
                if not row_ok:
                    details.append(f"a={alpha} amp={row.amplitude}: {row}")
                all_ok &= row_ok
            write_scan(str(tmp_path / f"scan_{alpha}"), rows, context)
        elapsed = time.monotonic() - t0
        ok = all_ok and elapsed < 1800.0
        report(10, ok, f"phase diagram over 24 rows in {elapsed:.0f}s"
                       + ("" if all_ok else f"; failures: {details}"))

        # criterion 12: identical configs and seeds give identical bytes
        rows1, ctx1 = blowup_scan(2.0, [1.05, 1.08], grid=Grid(48.0, 1024), dt=5e-4, t_end_super=10.0)
        rows2, ctx2 = blowup_scan(2.0, [1.05, 1.08], grid=Grid(48.0, 1024), dt=5e-4, t_end_super=10.0)
        write_scan(str(tmp_path / "d1"), rows1, ctx1)
        write_scan(str(tmp_path / "d2"), rows2, ctx2)
        b1 = open(os.path.join(str(tmp_path / "d1"), "scan.csv"), "rb").read()
        b2 = open(os.path.join(str(tmp_path / "d2"), "scan.csv"), "rb").read()
        report(12, b1 == b2, "repeated scan configs produce byte-identical CSVs")

    def test_criterion_11_stable_kernel(self):
        g = Grid(50.0, 4096)
        oks = []
        for alpha in ALPHAS:
            try:
                stable_kernel(alpha, g)  # certifies even/positive/unimodal
                oks.append(True)
            except ResolutionError:
                oks.append(False)
        K1 = stable_kernel(1.0, g)
        ref1 = periodized_poisson_kernel(g)
        mask = np.abs(g.x) <= g.half_length / 2
        err1 = float(np.max(np.abs(K1 - ref1)[mask] / ref1[mask]))
        K2 = stable_kernel(2.0, g)
        err2 = float(np.max(np.abs(K2 - periodized_gauss_kernel(g))))
        ok = all(oks) and err1 < 1e-6 and err2 < 1e-6
        report(11, ok, f"certified for all alpha; poisson rel {err1:.1e}, gauss abs {err2:.1e}")
