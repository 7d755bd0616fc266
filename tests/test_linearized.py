import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgbo import linearized
from dgbo import (
    Grid,
    Stepper,
    assemble,
    coercivity_probe,
    evolve_linearized,
    liouville_readout,
    solve_ground_state,
    spectrum,
)
from dgbo.errors import CapacityError, ContractError, ConvergenceError
from dgbo.ground_state import scaling_generator
from dgbo.linearized import INERTIA_ROWS, KERNEL_TOL_REL, MODE_TOL_REL

from conftest import COMPACT, ground_state_for, spectrum_for
from oracles import (
    _parity_blocks,
    block_inertia,
    full_eigh_spectrum,
    global_structure_ok,
    linearized_flow_loop,
    linearized_rhs,
    parity_basis,
    q_orthogonal_min,
    secular_min,
    with_matrix,
)


class TestAssemble:
    def test_matrix_matches_spectral_application(self, gs2_compact, rng):
        op = assemble(gs2_compact)
        asym = np.max(np.abs(op.matrix - op.matrix.T)) / np.max(np.abs(op.matrix))
        assert asym < 1e-10
        for _ in range(10):
            v = rng.standard_normal(op.grid.n)
            a = op.matrix @ v
            b = op.apply(v)
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))

    def test_the_potential_is_formed_once_per_operator(self, gs2_compact, rng):
        # Q^{2 alpha} is formed by the float power on the first read, and
        # every apply after it reads that array
        op = assemble(gs2_compact)
        v = rng.standard_normal((2, op.grid.n))
        first = op.apply(v)
        pot = op.potential
        assert np.array_equal(pot, np.abs(gs2_compact.values) ** 4.0)
        assert np.array_equal(first, op.grid.apply_riesz(v, 2.0) + v - pot * v)
        op.apply(v)
        assert op.potential is pot

    @pytest.mark.parametrize("alpha", [2.0, 1.9])
    def test_symmetry_and_diagonal_pinned(self, alpha):
        gs = ground_state_for(alpha, COMPACT)
        g, n = gs.grid, gs.grid.n
        mat = assemble(gs).matrix
        assert np.array_equal(mat, mat.T)
        col = g.field(g.riesz(alpha))
        pot = np.abs(gs.values) ** (2.0 * alpha)
        assert np.array_equal(np.diag(mat), (col[0] + 1.0) - pot)
        # the dense formula: circulant plus identity minus potential, symmetrized
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        ref = col[idx] + np.eye(n) - np.diag(pot)
        assert np.array_equal(mat, 0.5 * (ref + ref.T))

    def test_capacity_error(self):
        # N = 32768 certification grid: L assembles, its dense matrix is refused
        op = assemble(ground_state_for(1.5))
        with pytest.raises(CapacityError, match="LinearizedOperator.apply"):
            op.matrix

    def test_kernel_direction(self, gs2_compact):
        qp = gs2_compact.derivative()
        g = gs2_compact.grid
        r = g.norm_l2(assemble(gs2_compact).apply(qp)) / g.norm_l2(qp)
        assert r < 1e-6

    def test_scaling_direction_maps_to_ground_state(self, gs2_compact):
        g = gs2_compact.grid
        lam_q = scaling_generator(gs2_compact)
        out = assemble(gs2_compact).apply(lam_q)
        inner = np.abs(g.x) <= g.half_length / 2
        err = np.sqrt(np.sum((out + 2.0 * gs2_compact.values)[inner] ** 2))
        assert err / np.sqrt(np.sum(gs2_compact.values**2)) < 1e-5

    def test_quadratic_form_negative_on_q(self, gs2_compact):
        g = gs2_compact.grid
        q = gs2_compact.values
        assert g.inner(assemble(gs2_compact).apply(q), q) < 0.0

    def test_operator_and_reflection_act_row_by_row(self, gs2_compact, rng):
        g, op = gs2_compact.grid, assemble(gs2_compact)
        v = rng.standard_normal((3, g.n))
        stacked, reflected = op.apply(v), g.reflect(v)
        for j in range(3):
            assert np.array_equal(stacked[j], op.apply(v[j]))
            assert np.array_equal(reflected[j], g.reflect(v[j]))


class TestSpectrum:
    @pytest.mark.parametrize("alpha", [2.0, 1.9])
    def test_structure(self, alpha):
        rep = spectrum_for(alpha)
        assert rep.structure_ok, rep.notes
        assert rep.mu0 < 0.0
        assert len(rep.near_kernel) == 1
        assert rep.qprime_cosine > 0.999
        assert rep.chi0_even_defect < 1e-8
        assert rep.parity_gap > 0.0
        assert np.min(rep.chi0) > -1e-8 * np.max(rep.chi0)
        assert rep.inertia == [(1, 1), (0, 1)]
        # a lower bound of L above the band (exact checks in TestBirmanSchwinger)
        assert 0.0 < rep.essential_edge_estimate < 1.0
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
        # the modes found are the bottom of the spectrum: mu0 and the Q' mode
        ref = sla.eigh(assemble(gs2_compact).matrix, eigvals_only=True)
        assert len(spec2_compact.eigenvalues) == 2
        err = np.max(np.abs(spec2_compact.eigenvalues - ref[:2]))
        assert err < 1e-10 * np.max(np.abs(ref))

    def test_mu0_against_doubled_resolution(self, spec2_compact):
        fine = spectrum_for(2.0, Grid(50.0, 2048))
        assert abs(spec2_compact.mu0 - fine.mu0) < 1e-4 * abs(fine.mu0)

    @pytest.mark.parametrize("alpha", [1.9, 1.95, 2.0])
    def test_chi0_evenness_witness(self, alpha):
        # chi0 comes from a solve on the even fields, so chi0_even_defect is
        # roundoff, not 0 (about 2e-17 in the README chain); the full N x N eigh
        # assumes no parity, so its chi0 can fail to be even, and spectrum's
        # chi0 must equal it
        gs = ground_state_for(alpha, COMPACT)
        ref = full_eigh_spectrum(assemble(gs))
        peak = np.max(np.abs(ref.chi0))
        assert np.max(np.abs(ref.chi0 - gs.grid.reflect(ref.chi0))) < 1e-8 * peak
        assert np.max(np.abs(spectrum_for(alpha, COMPACT).chi0 - ref.chi0)) < 1e-10


def count_solves(monkeypatch):
    """Each inertia count, ("inertia", odd, sigma), and each low-mode solve,
    ("modes", odd, rows), of the calls after this one, in call order."""
    calls, inertia, modes = [], linearized._inertia, linearized._parity_modes
    monkeypatch.setattr(linearized, "_inertia", lambda op, sigma, odd: calls.append(
        ("inertia", odd, sigma)) or inertia(op, sigma, odd))
    monkeypatch.setattr(linearized, "_parity_modes", lambda op, odd, m: calls.append(
        ("modes", odd, m)) or modes(op, odd, m))
    return calls


class TestParitySplit:
    @pytest.mark.parametrize("alpha", [1.5, 1.9, 1.95, 2.0])
    def test_matches_full_eigh(self, alpha):
        for grid in (COMPACT, Grid(25.0, 512)):
            gs = ground_state_for(alpha, grid)
            op = assemble(gs)
            rep = spectrum_for(alpha, grid)
            ref = full_eigh_spectrum(op)
            scale = np.max(np.abs(ref.eigenvalues))
            assert len(rep.eigenvalues) == 2
            assert np.max(np.abs(rep.eigenvalues - ref.eigenvalues[:2])) < 1e-10 * scale
            assert abs(rep.mu0 - ref.mu0) < 1e-10 * scale
            assert abs(rep.parity_gap - ref.parity_gap) < 1e-10 * scale
            assert np.max(np.abs(rep.chi0 - ref.chi0)) < 1e-10
            assert len(rep.near_kernel) == len(ref.near_kernel) == 1
            assert rep.kernel_tol == ref.kernel_tol
            (ev, v), (ev_ref, v_ref) = rep.near_kernel[0], ref.near_kernel[0]
            assert abs(ev - ev_ref) < 1e-10 * scale
            assert min(np.max(np.abs(v - v_ref)), np.max(np.abs(v + v_ref))) < 1e-10
            assert rep.max_eig_residual < 1e-8
            coer, coer_ref = (coercivity_probe(op, r, trials=100, rng=np.random.default_rng(1))
                              for r in (rep, ref))
            assert coer.mu_est == pytest.approx(coer_ref.mu_est, rel=1e-13)
            assert coer.min_q_orthogonal == coer_ref.min_q_orthogonal
            householder = q_orthogonal_min(op.matrix, gs.values)
            assert abs(coer.min_q_orthogonal - householder) < 1e-10
            assert abs(coer.min_q_orthogonal - secular_min(ref.eigenvalues, ref.q_weights)) < 1e-10

    @pytest.mark.parametrize("grid", [COMPACT, Grid(25.0, 512)], ids=["50-1024", "25-512"])
    @pytest.mark.parametrize("alpha", [1.5, 1.9, 2.0])
    def test_blocks_match_the_dense_split(self, alpha, grid):
        # L applied matrix-free to each parity's basis gives the block cut
        # from the assembled matrix: the only L the spectrum sees
        op = assemble(ground_state_for(alpha, grid))
        for odd, ref in enumerate(_parity_blocks(op.matrix)):
            basis = parity_basis(grid.n, bool(odd))
            block = basis.T @ op.apply(basis.T).T
            assert np.max(np.abs(block - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_spectrum_forms_no_dense_matrix(self, gs2_compact):
        # one spectrum at (50, 1024) allocates less than 1 MiB at its peak,
        # half of one even parity block (N/2 + 1)^2 float64: every solve
        # holds a few stacked fields and a Rayleigh-Ritz block
        n = gs2_compact.grid.n
        tracemalloc.start()
        try:
            spectrum(assemble(gs2_compact))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 < (n // 2 + 1) ** 2 * 8

    @pytest.mark.parametrize("alpha, grid", [
        (1.5, COMPACT), (1.9, COMPACT), (1.95, COMPACT), (2.0, COMPACT), (2.0, Grid(48.0, 1024)),
    ], ids=["1.5-50-1024", "1.9-50-1024", "1.95-50-1024", "2-50-1024", "2-48-1024"])
    def test_each_block_is_solved_once(self, alpha, grid, monkeypatch):
        # kernel_tol is fixed before the solves: each parity is counted at
        # -kernel_tol and kernel_tol and its one mode below kernel_tol solved
        # once; 1 + k_max^alpha bounds every |eigenvalue|
        calls = count_solves(monkeypatch)
        rep = spectrum(assemble(ground_state_for(alpha, grid)))
        ktol = KERNEL_TOL_REL * (1.0 + grid.k_max ** alpha)
        assert calls == [("inertia", False, -ktol), ("inertia", False, ktol),
                         ("inertia", True, -ktol), ("inertia", True, ktol),
                         ("modes", False, 1), ("modes", True, 1)]
        assert rep.kernel_tol == ktol
        assert np.max(np.abs(rep.eigenvalues)) <= rep.kernel_tol / KERNEL_TOL_REL
        assert rep.structure_ok

    def test_a_mode_just_under_kernel_tol_stays_in_the_band(self, monkeypatch):
        # a Q' mode raised to just under kernel_tol, above the odd block's own
        # KERNEL_TOL_REL * max |eigenvalue|, is counted in the band and kept
        # with one low-mode solve per parity
        op = assemble(ground_state_for(2.0, Grid(25.0, 512)))
        n, mat = op.grid.n, op.matrix
        odd_p = 0.5 * (np.eye(n) - np.eye(n)[(-np.arange(n)) % n])
        ev_odd = np.linalg.eigvalsh(_parity_blocks(mat)[1])
        ktol = spectrum(op).kernel_tol
        own_tol, target = KERNEL_TOL_REL * float(np.max(np.abs(ev_odd))), (1.0 - 1e-3) * ktol
        assert own_tol < target
        raised = with_matrix(op, mat + (target - float(ev_odd[0])) * odd_p)
        calls = count_solves(monkeypatch)
        rep = spectrum(raised)
        assert [c for c in calls if c[0] == "modes"] == [("modes", False, 1), ("modes", True, 1)]
        ref = full_eigh_spectrum(raised)
        assert rep.kernel_tol == ref.kernel_tol == ktol
        assert rep.inertia == block_inertia(raised.matrix, ktol, INERTIA_ROWS) == [(1, 1), (0, 1)]
        assert own_tol < rep.near_kernel[0][0] <= ktol
        assert len(rep.near_kernel) == len(ref.near_kernel) == 1
        assert rep.structure_ok and global_structure_ok(raised, ref)

    def test_odd_bottom_fails_structure(self, gs2_compact):
        # M - c (I - R)/2 stays reflection-invariant and lowers the odd block
        # by c: c = 10 puts the Q' mode at -10, below the even block's -8
        op = assemble(gs2_compact)
        n = op.grid.n
        odd_projector = 0.5 * (np.eye(n) - np.eye(n)[(-np.arange(n)) % n])
        lowered = with_matrix(op, op.matrix - 10.0 * odd_projector)
        rep = spectrum(lowered)
        assert rep.parity_gap == pytest.approx(-2.0, abs=1e-6)
        assert not rep.structure_ok
        # the odd counts reach the cap: the Q' mode and the odd continuum below -kernel_tol
        assert rep.inertia == block_inertia(lowered.matrix, rep.kernel_tol, INERTIA_ROWS)
        assert rep.inertia[1] == (INERTIA_ROWS, INERTIA_ROWS)
        assert any(note.startswith("parity gap") for note in rep.notes)

    def test_odd_negative_direction_fails_structure(self):
        # lowering the form along an odd direction orthogonal to Q' leaves Q' in
        # the band and the bottom even: only the odd block's negative count fails
        op = assemble(ground_state_for(2.0, Grid(25.0, 512)))
        g, qp = op.grid, op.gs.derivative()
        w = g.x * np.exp(-g.x**2)
        w = 0.5 * (w - g.reflect(w))
        w -= (w @ qp) / (qp @ qp) * qp
        lowered = with_matrix(op, op.matrix - 5.0 * np.outer(w, w) / (w @ w))
        rep = spectrum(lowered)
        assert rep.parity_gap > 0.0 and len(rep.near_kernel) == 1
        assert not rep.structure_ok
        assert rep.inertia == block_inertia(lowered.matrix, rep.kernel_tol, INERTIA_ROWS)
        assert rep.inertia == [(1, 1), (1, 2)]
        assert not global_structure_ok(lowered, full_eigh_spectrum(lowered))
        assert rep.notes[0].startswith("parity gap")

    def test_tally_matches_the_global_rule(self):
        # M - c_e (I + R)/2 - c_o (I - R)/2 keeps every eigenvector and lowers
        # the even block by c_e and the odd block by c_o
        op = assemble(ground_state_for(2.0, Grid(25.0, 512)))
        n, mat = op.grid.n, op.matrix
        reflection = np.eye(n)[(-np.arange(n)) % n]
        even_p, odd_p = 0.5 * (np.eye(n) + reflection), 0.5 * (np.eye(n) - reflection)
        ktol = spectrum(op).kernel_tol
        second_even = float(np.linalg.eigvalsh(_parity_blocks(mat)[0])[1])
        verdicts = set()

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(c_even=st.floats(-10.0, 10.0), c_odd=st.floats(-2.0, 2.0).map(lambda t: t * ktol))
        @example(c_even=0.0, c_odd=10.0)  # the odd bottom (the Q' mode) below the even one
        @example(c_even=second_even, c_odd=0.0)  # the even second eigenvalue into the band
        @example(c_even=0.0, c_odd=-0.5)  # the Q' mode lifted out of the band
        @example(c_even=-9.0, c_odd=0.0)  # the even ground state lifted above -kernel_tol
        def check(c_even, c_odd):
            shifted = with_matrix(op, mat - c_even * even_p - c_odd * odd_p)
            ref = full_eigh_spectrum(shifted)
            # at the band edge |eigenvalue| = kernel_tol the verdict is roundoff
            scale = float(np.max(np.abs(ref.eigenvalues)))
            assume(np.min(np.abs(np.abs(ref.eigenvalues) - ref.kernel_tol)) > 1e-9 * scale)
            rep = spectrum(shifted)
            assert rep.structure_ok == global_structure_ok(shifted, ref), rep.notes
            assert rep.inertia == block_inertia(shifted.matrix, ktol, INERTIA_ROWS)
            verdicts.add(rep.structure_ok)

        check()
        assert verdicts == {True, False}

    def test_shifted_ground_state_is_refused(self, gs2_compact):
        shifted = replace(gs2_compact, values=np.roll(gs2_compact.values, 3))
        with pytest.raises(ContractError, match="reflection-even"):
            spectrum(assemble(shifted))


class TestBirmanSchwinger:
    @pytest.mark.parametrize("grid", [COMPACT, Grid(100.0, 4096)], ids=["50-1024", "100-4096"])
    def test_poschl_teller_kappa(self, grid):
        # at alpha = 2, Q^4 = 15 sech^2(2x) is a Poschl-Teller well and K_0
        # has kappa_n = 15/((2n+1)(2n+3)) with parity (-1)^n; every row of the
        # count's block iteration, run to convergence, gives one
        op = assemble(ground_state_for(2.0, grid))
        tol = MODE_TOL_REL * (1.0 + grid.k_max ** 2)
        for odd in (False, True):
            nu = linearized._block_iteration(
                linearized._birman_schwinger(op, 0.0), linearized._seeds(op.gs, odd, INERTIA_ROWS),
                lambda r, odd=odd: linearized._parity(grid, r, odd),
                lambda mu, res: max(res) <= tol, "kappa")[0]
            n = np.arange(INERTIA_ROWS) * 2 + odd
            assert np.max(np.abs((1.0 - nu) - 15.0 / ((2 * n + 1) * (2 * n + 3)))) < 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 1.9, 1.95, 2.0])
    def test_tally_equals_the_dense_tally(self, alpha):
        # the counts equal the dense blocks' counts; the edge estimate bounds
        # the dense spectrum above the band from below, 4/7 + O(kernel_tol)
        # at alpha = 2 (1 - kappa_2, kappa_2 = 3/7)
        op = assemble(ground_state_for(alpha, COMPACT))
        rep = spectrum_for(alpha, COMPACT)
        ktol = rep.kernel_tol
        assert rep.inertia == block_inertia(op.matrix, ktol, INERTIA_ROWS) == [(1, 1), (0, 1)]
        ev = full_eigh_spectrum(op).eigenvalues
        assert 0.0 < rep.essential_edge_estimate <= float(np.min(ev[ev > ktol]))
        if alpha == 2.0:
            assert abs(rep.essential_edge_estimate - 4.0 / 7.0) < 2.0 * ktol

    @pytest.mark.parametrize("solve", [
        "even-count", "odd-count", "odd-mode", "q-orthogonal", "spectrum",
    ])
    def test_iteration_cap_raises(self, solve, monkeypatch):
        # each solve not settled within MODE_MAX_ITERS steps raises with its history
        op = assemble(ground_state_for(1.9, COMPACT))
        rep = spectrum_for(1.9, COMPACT)
        monkeypatch.setattr(linearized, "MODE_MAX_ITERS", 1)
        run = {
            "even-count": lambda: linearized._inertia(op, rep.kernel_tol, False),
            "odd-count": lambda: linearized._inertia(op, rep.kernel_tol, True),
            "odd-mode": lambda: linearized._parity_modes(op, True, 1),
            "q-orthogonal": lambda: coercivity_probe(op, rep, trials=1, rng=np.random.default_rng(1)),
            "spectrum": lambda: spectrum(op),
        }[solve]
        with pytest.raises(ConvergenceError) as info:
            run()
        assert len(info.value.history) == 2

    def test_a_capped_count_is_settled_early(self, monkeypatch):
        # the even fields lowered by 10 hold many eigenvalues below zero: the
        # count is capped after the first step, when every Ritz value passes
        # 1; lifted by 9 they hold none: only the top row converges, not the
        # rows in the cluster below it
        op = assemble(ground_state_for(2.0, Grid(25.0, 512)))
        n, mat = op.grid.n, op.matrix
        even_p = 0.5 * (np.eye(n) + np.eye(n)[(-np.arange(n)) % n])
        steps, iterate = [], linearized._block_iteration

        def counted(*args):
            out = iterate(*args)
            steps.append(out[3])
            return out

        monkeypatch.setattr(linearized, "_block_iteration", counted)
        for shift, want, most in ((-10.0, INERTIA_ROWS, 1), (9.0, 0, 40)):
            shifted = with_matrix(op, mat + shift * even_p)
            count, kappa_next = linearized._inertia(shifted, 0.0, False)
            assert count == want == block_inertia(shifted.matrix, 0.0, INERTIA_ROWS)[0][0]
            assert np.isnan(kappa_next) == (want == INERTIA_ROWS)
            assert steps.pop() <= most


class TestNegativeMode:
    """The negative direction (mu0, chi0) of L as ``spectrum`` reports it: the
    package's one chi0, which the blow-up scan decomposes along too."""

    @pytest.mark.parametrize("grid", [COMPACT, Grid(25.0, 512)], ids=["50-1024", "25-512"])
    @pytest.mark.parametrize("alpha", [1.5, 1.9, 1.95, 2.0])
    def test_matches_both_dense_references(self, alpha, grid):
        # the lowest eigenpair of the dense even block and of the N x N eigh,
        # which assumes no parity
        op = assemble(ground_state_for(alpha, grid))
        rep = spectrum_for(alpha, grid)
        ev, vec = np.linalg.eigh(_parity_blocks(op.matrix)[0])
        block_chi0 = parity_basis(grid.n, False) @ vec[:, 0]
        block_chi0 *= np.sign(block_chi0[np.argmax(np.abs(block_chi0))]) / grid.norm_l2(block_chi0)
        ref = full_eigh_spectrum(op)
        for mu0, chi0 in ((ev[0], block_chi0), (ref.mu0, ref.chi0)):
            assert abs(rep.mu0 - mu0) < 1e-10
            assert np.max(np.abs(rep.chi0 - chi0)) < 1e-10
        assert grid.norm_l2(rep.chi0) == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.abs(op.apply(rep.chi0) - rep.mu0 * rep.chi0)) < 1e-10

    def test_gkdv_seed_is_the_eigenfunction(self, spec2_compact):
        # at alpha = 2 the even seed Q^3 is chi0 (Poschl-Teller), mu0 = -8
        assert abs(spec2_compact.mu0 + 8.0) < 1e-10
        assert spec2_compact.chi0_iterations <= 2

    def test_iteration_cap_raises(self, monkeypatch):
        # the even low-mode solve that gives chi0, not settled within MODE_MAX_ITERS steps
        op = assemble(ground_state_for(1.9, COMPACT))
        monkeypatch.setattr(linearized, "MODE_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError) as info:
            linearized._parity_modes(op, False, 1)
        assert len(info.value.history) == 2

    def test_shifted_ground_state_is_refused(self, gs2_compact, monkeypatch):
        # refused by the parity contract before any count or chi0 solve runs
        def unreachable(*args):
            raise AssertionError("solve reached on a shifted ground state")

        monkeypatch.setattr(linearized, "_inertia", unreachable)
        monkeypatch.setattr(linearized, "_parity_modes", unreachable)
        shifted = replace(gs2_compact, values=np.roll(gs2_compact.values, 3))
        with pytest.raises(ContractError, match="reflection-even"):
            spectrum(assemble(shifted))


class TestCoercivity:
    def test_chi0_direction_gives_mu0(self, gs2_compact, spec2_compact):
        g = gs2_compact.grid
        v = spec2_compact.chi0
        val = g.inner(assemble(gs2_compact).apply(v), v) / g.inner(v, v)
        assert val == pytest.approx(spec2_compact.mu0, rel=1e-8)

    def test_probe(self, gs2_compact, spec2_compact):
        op = assemble(gs2_compact)
        rep = coercivity_probe(op, spec2_compact, trials=200, rng=np.random.default_rng(1))
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
        op, rng = assemble(gs2_compact), np.random.default_rng(7)
        quots = []
        for _ in range(150):
            width = rng.uniform(0.5, g.half_length / 4.0)
            center = rng.uniform(-g.half_length / 2.0, g.half_length / 2.0)
            freq = rng.uniform(0.0, 2.0)
            v = np.exp(-(((g.x - center) / width) ** 2)) * np.cos(freq * g.x + rng.uniform(0, 7))
            v = v - g.inner(v, chi0) * chi0 - g.inner(v, qp) * qp
            nrm = g.inner(v, v) + g.sobolev_seminorm_sq(v, 2.0)
            quots.append(g.inner(op.apply(v), v) / nrm)
        rep = coercivity_probe(op, spec2_compact, trials=150,
                               rng=np.random.default_rng(7))
        assert rep.trials == 150
        assert rep.mu_est == pytest.approx(min(quots), rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.9, 1.95, 2.0])
    def test_q_orthogonal_min_against_householder_oracle(self, alpha):
        gs = ground_state_for(alpha, COMPACT)
        op = assemble(gs)
        rep = coercivity_probe(op, spectrum_for(alpha, COMPACT), trials=1,
                               rng=np.random.default_rng(1))
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

    @pytest.mark.parametrize("lam, w, root", [
        ([0.0, 1e-310, 1.0], [0.5, 0.25, 0.25], 2.0 / 3.0 * 1e-310),
        ([1e-320, 3e-320, 1.0], [0.4, 0.3, 0.3], 1.5e-320 / 0.7),
    ], ids=["gaps-near-1e-310", "gaps-near-1e-320"])
    def test_secular_root_with_subnormal_gaps(self, lam, w, root):
        # the terms at both ends of the bracket overflow; the root is still found,
        # to the resolution of the subnormal spacing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = secular_min(lam, w)
        assert lam[0] <= got <= lam[1]
        assert abs(got - root) <= 1e-3 * root


class TestLinearizedFlow:
    def test_qprime_stationary(self, monkeypatch):
        monkeypatch.setattr(linearized, "CHECKPOINT_EVERY", 1000)
        gs = ground_state_for(2.0, Grid(100.0, 2048))
        g = gs.grid
        qp = gs.derivative()
        rec = evolve_linearized(gs, qp, t_end=5.0, dt=1e-3)
        drift = g.norm_l2(rec.states[-1] - qp) / g.norm_l2(qp)
        assert drift < 1e-8

    def test_free_flow_is_exact_propagator(self, gs2_compact):
        # the readout's baseline, the exact free group, against the free flow
        # stepped by ETDRK4 through a zero stage at the run's checkpoints
        g = gs2_compact.grid
        dt, every, window = 1e-3, linearized.CHECKPOINT_EVERY, 10.0
        rec = evolve_linearized(gs2_compact, np.exp(-((g.x / 2.0) ** 2)), 0.5, dt)
        got = liouville_readout(gs2_compact, rec, window).free_local_mass
        st = Stepper(g.ik * g.riesz(2.0) + g.ik, dt, np.zeros_like)
        mask = np.abs(g.x) < window
        F, want = g.transform(rec.states[0]), []
        for _t in rec.times:
            want.append(g.h * np.sum(g.field(F)[mask] ** 2))
            for _ in range(every):
                F = st.step_spectrum(F)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    @pytest.mark.parametrize("every", [0, -1])
    def test_checkpoint_every_below_one_is_refused(self, gs2_compact, every, monkeypatch):
        # refused by the check EvolutionConfig uses, not a modulo by zero
        monkeypatch.setattr(linearized, "CHECKPOINT_EVERY", every)
        with pytest.raises(ContractError, match="checkpoint_every"):
            evolve_linearized(gs2_compact, gs2_compact.derivative(), 0.01, 1e-3)

    @pytest.mark.parametrize("alpha, grid", [(1.5, COMPACT), (2.0, Grid(25.0, 512))],
                             ids=["1.5-50-1024", "2-25-512"])
    def test_matches_the_one_spectrum_loop(self, alpha, grid):
        # a one-row stack through the time loop of dynamics gives the bits of
        # the flow's own loop on one spectrum, at every checkpoint
        gs = ground_state_for(alpha, grid)
        w0 = np.exp(-((grid.x - 3.0) ** 2) / 4.0)
        rec = evolve_linearized(gs, w0, t_end=0.35, dt=1e-3)
        times, states = linearized_flow_loop(gs, w0, 0.35, 1e-3)
        assert np.array_equal(rec.times, times) and len(rec.times) == 5
        assert all(np.array_equal(a, b) for a, b in zip(rec.states, states, strict=True))

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
        rec = evolve_linearized(gs2_compact, w0, t_end=8.0, dt=1e-3)
        full = liouville_readout(gs2_compact, rec, window=10.0)
        # the small box recycles radiation through the window; by t=8 the
        # free flow has still flushed well over half the initial mass
        assert full.free_local_mass[-1] < 0.5 * full.free_local_mass[0]
        assert full.local_mass[-1] > full.local_mass[0]  # reported finding
        assert full.local_mass_defl[-1] < 0.05 * full.local_mass[-1]

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_hamiltonian_conserved_by_flow(self, alpha, monkeypatch):
        # (Lw, w) is a conserved (indefinite) quadratic form of the flow: the
        # flow's potential stage is the collocation L that LinearizedOperator.apply applies
        monkeypatch.setattr(linearized, "CHECKPOINT_EVERY", 1000)
        gs = ground_state_for(alpha, COMPACT)
        chi0 = spectrum_for(alpha, COMPACT).chi0
        g = gs.grid
        w0 = np.exp(-((g.x / 2.0) ** 2))
        w0 -= g.inner(w0, chi0) * chi0
        rec = evolve_linearized(gs, w0, t_end=4.0, dt=1e-3)
        op = assemble(gs)
        h_vals = [g.inner(op.apply(w), w) for w in rec.states]
        scale = max(abs(h) for h in h_vals)
        assert max(abs(h - h_vals[0]) for h in h_vals) < 1e-6 * scale

    def test_virial_rate_fit(self, gs2_compact, spec2_compact, rng, monkeypatch):
        # d/dt int x w^2 <= -C |||D|^{a/2} w||^2 + C' ||w||^2 with C > 0,
        # fitted over snapshots of a localized Q'-orthogonalized run
        monkeypatch.setattr(linearized, "CHECKPOINT_EVERY", 200)
        gs = gs2_compact
        g = gs.grid
        qp = gs.derivative()
        w0 = np.exp(-((g.x - 5.0) ** 2) / 4.0) * np.cos(0.8 * g.x)
        w0 -= g.inner(w0, qp) / g.inner(qp, qp) * qp
        rec = evolve_linearized(gs, w0, t_end=2.0, dt=1e-3)
        taper = np.clip(1.0 - (np.abs(g.x) / g.half_length) ** 4, 0.0, 1.0)
        rates, d_terms, m_terms = [], [], []
        for w in rec.states:
            wt = w - g.inner(w, qp) / g.inner(qp, qp) * qp
            rates.append(2.0 * g.inner(g.x * taper * wt, linearized_rhs(gs, wt)))
            d_terms.append(g.sobolev_seminorm_sq(wt, gs.alpha))
            m_terms.append(g.inner(wt, wt))
        A = np.column_stack([-np.array(d_terms), np.array(m_terms)])
        coef, *_ = np.linalg.lstsq(A, np.array(rates), rcond=None)
        assert coef[0] > 0.0
