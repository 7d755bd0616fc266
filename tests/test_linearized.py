import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgbo import (
    Grid,
    apply_operator,
    assemble,
    coercivity_probe,
    evolve_linearized,
    solve_ground_state,
    spectrum,
)
from dgbo.errors import CapacityError
from dgbo.ground_state import scaling_generator
from dgbo.linearized import secular_min

from conftest import COMPACT, ground_state_for, spectrum_for
from oracles import linearized_rhs, q_orthogonal_min


class TestAssemble:
    def test_matrix_matches_spectral_application(self, gs2_compact, rng):
        op = assemble(gs2_compact)
        asym = np.max(np.abs(op.matrix - op.matrix.T)) / np.max(np.abs(op.matrix))
        assert asym < 1e-10
        for _ in range(10):
            v = rng.standard_normal(op.grid.n)
            a = op.matrix @ v
            b = apply_operator(gs2_compact, v)
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))

    @pytest.mark.parametrize("alpha", [2.0, 1.9])
    def test_symmetry_and_diagonal_pinned(self, alpha):
        gs = ground_state_for(alpha, COMPACT)
        g, n = gs.grid, gs.grid.n
        mat = assemble(gs).matrix
        assert np.array_equal(mat, mat.T)
        col = g.field(g.multiplier(alpha, "riesz"))
        pot = np.abs(gs.values) ** (2.0 * alpha)
        assert np.array_equal(np.diag(mat), (col[0] + 1.0) - pot)
        # the dense formula: circulant plus identity minus potential, symmetrized
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        ref = col[idx] + np.eye(n) - np.diag(pot)
        assert np.array_equal(mat, 0.5 * (ref + ref.T))

    def test_capacity_error(self):
        gs = ground_state_for(1.5)  # N = 32768 certification grid
        with pytest.raises(CapacityError):
            assemble(gs)

    def test_kernel_direction(self, gs2_compact):
        qp = gs2_compact.derivative()
        g = gs2_compact.grid
        r = g.norm_l2(apply_operator(gs2_compact, qp)) / g.norm_l2(qp)
        assert r < 1e-6

    def test_scaling_direction_maps_to_ground_state(self, gs2_compact):
        g = gs2_compact.grid
        lam_q = scaling_generator(gs2_compact)
        out = apply_operator(gs2_compact, lam_q)
        inner = np.abs(g.x) <= g.half_length / 2
        err = np.sqrt(np.sum((out + 2.0 * gs2_compact.values)[inner] ** 2))
        assert err / np.sqrt(np.sum(gs2_compact.values**2)) < 1e-5

    def test_quadratic_form_negative_on_q(self, gs2_compact):
        g = gs2_compact.grid
        q = gs2_compact.values
        assert g.inner(apply_operator(gs2_compact, q), q) < 0.0


class TestSpectrum:
    @pytest.mark.parametrize("alpha", [2.0, 1.9])
    def test_structure(self, alpha):
        rep = spectrum_for(alpha)
        assert rep.structure_ok, rep.notes
        assert rep.mu0 < 0.0
        assert len(rep.near_kernel) == 1
        assert rep.qprime_cosine > 0.999
        assert rep.chi0_even_defect < 1e-8
        assert np.min(rep.chi0) > -1e-8 * np.max(rep.chi0)
        assert rep.essential_edge_estimate > 0.9  # discretized continuum near 1
        assert rep.max_eig_residual < 1e-8

    def test_gkdv_ground_eigenpair_closed_form(self, gs2_compact, spec2_compact):
        # at alpha=2 the bottom eigenpair is exact: L(Q^3) = -8 Q^3
        g = gs2_compact.grid
        assert abs(spec2_compact.mu0 + 8.0) < 1e-6
        chi = gs2_compact.values**3
        chi = chi / g.norm_l2(chi)
        cos = abs(g.inner(chi, spec2_compact.chi0))
        assert cos > 1.0 - 1e-9

    def test_eigenvalues_against_mrrr(self, gs2_compact, spec2_compact):
        ref = sla.eigh(assemble(gs2_compact).matrix, eigvals_only=True)
        err = np.max(np.abs(spec2_compact.eigenvalues - ref))
        assert err < 1e-10 * np.max(np.abs(ref))

    def test_q_weights_are_a_probability_measure(self, spec2_compact):
        w = spec2_compact.q_weights
        assert w.shape == spec2_compact.eigenvalues.shape
        assert np.min(w) >= 0.0 and abs(np.sum(w) - 1.0) < 1e-12

    def test_mu0_against_doubled_resolution(self, spec2_compact):
        fine = spectrum_for(2.0, Grid(50.0, 2048))
        assert abs(spec2_compact.mu0 - fine.mu0) < 1e-4 * abs(fine.mu0)


class TestCoercivity:
    def test_chi0_direction_gives_mu0(self, gs2_compact, spec2_compact):
        g = gs2_compact.grid
        v = spec2_compact.chi0
        val = g.inner(apply_operator(gs2_compact, v), v) / g.inner(v, v)
        assert val == pytest.approx(spec2_compact.mu0, rel=1e-8)

    def test_probe(self, gs2_compact, spec2_compact):
        op = assemble(gs2_compact)
        rep = coercivity_probe(op, spec2_compact, trials=200)
        assert rep.mu_est > 0.0
        assert not rep.violation
        # the infimum over the Q-orthogonal sphere sits at zero (attained
        # along the scaling direction), up to discretization
        assert abs(rep.min_q_orthogonal) < 1e-4 * abs(spec2_compact.mu0)
        assert rep.trials == 200

    def test_blocked_trials_match_one_by_one(self, gs2_compact, spec2_compact):
        # the trial loop as it ran one field at a time, drawing in the same order
        g = gs2_compact.grid
        qp = gs2_compact.derivative()
        qp = qp / g.norm_l2(qp)
        chi0 = spec2_compact.chi0
        rng = np.random.default_rng(7)
        quots = []
        for _ in range(150):
            width = rng.uniform(0.5, g.half_length / 4.0)
            center = rng.uniform(-g.half_length / 2.0, g.half_length / 2.0)
            freq = rng.uniform(0.0, 2.0)
            v = np.exp(-(((g.x - center) / width) ** 2)) * np.cos(freq * g.x + rng.uniform(0, 7))
            v = v - g.inner(v, chi0) * chi0 - g.inner(v, qp) * qp
            nrm = g.inner(v, v) + g.sobolev_seminorm_sq(v, 2.0)
            quots.append(g.inner(apply_operator(gs2_compact, v), v) / nrm)
        rep = coercivity_probe(assemble(gs2_compact), spec2_compact, trials=150,
                               rng=np.random.default_rng(7))
        assert rep.trials == 150
        assert rep.mu_est == pytest.approx(min(quots), rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.9, 1.95, 2.0])
    def test_q_orthogonal_min_against_householder_oracle(self, alpha):
        gs = ground_state_for(alpha, COMPACT)
        op = assemble(gs)
        rep = coercivity_probe(op, spectrum_for(alpha, COMPACT), trials=1)
        assert abs(rep.min_q_orthogonal - q_orthogonal_min(op.matrix, gs.values)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)),
        hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)),
        hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
        st.sampled_from([None, 0, 1]),
    )))
    def test_secular_root_is_the_compressed_minimum(self, case):
        # q = basis @ c; zeroing c[0] or c[1] makes v_0 or v_1 orthogonal to q
        lam, c, m, zero = case
        if zero is not None:
            c[zero] = 0.0
        assume(np.linalg.norm(c) > 1e-3)
        basis = np.linalg.qr(m)[0]
        a = (basis * lam) @ basis.T
        a = 0.5 * (a + a.T)
        q = basis @ c
        evals, evecs = np.linalg.eigh(a)
        got = secular_min(evals, (q @ evecs) ** 2 / float(q @ q))
        assert abs(got - q_orthogonal_min(a, q)) <= 1e-10 * max(1.0, float(np.max(np.abs(lam))))


class TestLinearizedFlow:
    def test_qprime_stationary(self):
        gs = ground_state_for(2.0, Grid(100.0, 2048))
        g = gs.grid
        qp = gs.derivative()
        rec = evolve_linearized(gs, qp, t_end=5.0, dt=1e-3, checkpoint_every=1000)
        drift = g.norm_l2(rec.final_state - qp) / g.norm_l2(qp)
        assert drift < 1e-8

    def test_free_flow_is_exact_propagator(self, gs2_compact):
        g = gs2_compact.grid
        w0 = np.exp(-((g.x / 2.0) ** 2))
        t_end = 0.5
        rec = evolve_linearized(gs2_compact, w0, t_end, 1e-3, include_potential=False)
        sym = g.multiplier(2.0, "dispersion") + 1j * g.k
        sym[-1] = 0.0  # Nyquist
        exact = np.fft.irfft(g.transform(w0) * np.exp(t_end * sym), g.n)
        assert np.max(np.abs(rec.final_state - exact)) < 1e-10

    def test_scaling_direction_initial_velocity(self, gs2_compact):
        g = gs2_compact.grid
        lam_q = scaling_generator(gs2_compact)
        rhs = linearized_rhs(gs2_compact, lam_q)
        want = -2.0 * gs2_compact.derivative()
        inner = np.abs(g.x) <= g.half_length / 2
        err = np.sqrt(np.sum((rhs - want)[inner] ** 2) / np.sum(want[inner] ** 2))
        assert err < 1e-5

    def test_localization_probe(self, gs2_compact, spec2_compact):
        # The free dispersive flow flushes the window (all group velocities
        # are <= -1). Under the full flow the window mass grows instead: the
        # wrapped radiation re-excites the soliton's secular directions on
        # every transit, and that growth is carried almost entirely by the
        # Q' component. Both facts are frozen here as the probe baseline.
        g = gs2_compact.grid
        qp = gs2_compact.derivative()
        w0 = np.exp(-((g.x / 2.0) ** 2))
        for basis in (spec2_compact.chi0, qp / g.norm_l2(qp)):
            w0 = w0 - g.inner(w0, basis) * basis
        free = evolve_linearized(
            gs2_compact, w0, t_end=8.0, dt=1e-3, window=10.0, include_potential=False
        )
        # the small box recycles radiation through the window; by t=8 the
        # free flow has still flushed well over half the initial mass
        assert free.local_mass[-1] < 0.5 * free.local_mass[0]
        full = evolve_linearized(gs2_compact, w0, t_end=8.0, dt=1e-3, window=10.0)
        assert full.local_mass[-1] > full.local_mass[0]  # reported finding
        assert full.local_mass_defl[-1] < 0.05 * full.local_mass[-1]

    def test_hamiltonian_conserved_by_flow(self, gs2_compact, spec2_compact):
        # (Lw, w) is a conserved (indefinite) quadratic form of the flow
        g = gs2_compact.grid
        qp = gs2_compact.derivative()
        w0 = np.exp(-((g.x / 2.0) ** 2))
        w0 -= g.inner(w0, spec2_compact.chi0) * spec2_compact.chi0
        rec = evolve_linearized(gs2_compact, w0, t_end=4.0, dt=1e-3, store_states=True,
                                checkpoint_every=1000)
        h_vals = [g.inner(apply_operator(gs2_compact, w), w) for _, w in rec.states]
        scale = max(abs(h) for h in h_vals)
        assert max(abs(h - h_vals[0]) for h in h_vals) < 1e-6 * scale

    def test_virial_rate_fit(self, gs2_compact, spec2_compact, rng):
        # d/dt int x w^2 <= -C |||D|^{a/2} w||^2 + C' ||w||^2 with C > 0,
        # fitted over snapshots of a localized Q'-orthogonalized run
        gs = gs2_compact
        g = gs.grid
        qp = gs.derivative()
        w0 = np.exp(-((g.x - 5.0) ** 2) / 4.0) * np.cos(0.8 * g.x)
        w0 -= g.inner(w0, qp) / g.inner(qp, qp) * qp
        rec = evolve_linearized(gs, w0, t_end=2.0, dt=1e-3, window=10.0,
                                checkpoint_every=200, store_states=True)
        taper = np.clip(1.0 - (np.abs(g.x) / g.half_length) ** 4, 0.0, 1.0)
        rates, d_terms, m_terms = [], [], []
        for _, w in rec.states:
            wt = w - g.inner(w, qp) / g.inner(qp, qp) * qp
            rates.append(2.0 * g.inner(g.x * taper * wt, linearized_rhs(gs, wt)))
            d_terms.append(g.sobolev_seminorm_sq(wt, gs.alpha))
            m_terms.append(g.inner(wt, wt))
        A = np.column_stack([-np.array(d_terms), np.array(m_terms)])
        coef, *_ = np.linalg.lstsq(A, np.array(rates), rcond=None)
        assert coef[0] > 0.0
