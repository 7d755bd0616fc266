import json

import numpy as np
import pytest

from dgbo import Grid, LinearizedOperator, assemble, continuation_ladder, linearized
from dgbo import negative_mode, spectrum
from dgbo.scan import blowup_scan, lambda_monotone, write_scan


def test_supercritical_row_trips_on_contraction_inside_the_tube():
    # a = 1.02 at alpha = 2 stays decomposable while lam contracts, so the row
    # trips on lam < lam_stop near t = 2.2 and never leaves the tube
    (row,), _ = blowup_scan(2.0, [1.02], t_end_super=3)
    assert row.supercritical
    assert row.trip_reason == "lambda_contraction"
    assert 2.0 < row.trip_time < 2.4
    assert row.tube_exit_t is None


def test_batched_rows_match_single_amplitude_scans():
    # the rows of one scan are stepped as one stack; each must come out as
    # the same row a scan of its amplitude alone gives (bounded, tube exit,
    # Sobolev and lambda trips of unequal lifetimes)
    amplitudes = [0.9, 1.0, 1.06, 1.08]
    rows, _ = blowup_scan(2.0, amplitudes, t_end_bounded=0.5)
    single = [blowup_scan(2.0, [a], t_end_bounded=0.5)[0][0] for a in amplitudes]
    assert sorted(rows, key=lambda r: r.amplitude) == single


@pytest.mark.parametrize("track, monotone", [
    (1.0 + 1e-11 * np.sin(np.arange(40.0)), True),  # constant up to 1e-11, ending 1e-11 up
    (np.linspace(1.0, 1.0 + 1e-6, 40), False),      # a net rise of 1e-6
    (np.linspace(1.0, 0.7, 40), True),              # a contracting track
    (np.array([1.0, 1.01, 0.9]), False),            # a 1 % step up
], ids=["constant", "rise-1e-6", "contracting", "step-up"])
def test_lambda_monotone(track, monotone):
    assert lambda_monotone(track) is monotone


def test_scan_takes_chi0_without_a_dense_solve(tmp_path, monkeypatch):
    # chi0 comes from the matrix-free negative_mode: no dense matrix is formed
    def refuse(self):
        raise AssertionError("the scan formed a dense matrix")

    monkeypatch.setattr(LinearizedOperator, "matrix", property(refuse))
    rows, context = blowup_scan(2.0, [1.06], grid=Grid(24.0, 256), t_end_super=0.05)
    assert len(rows) == 1
    write_scan(str(tmp_path), rows, context)
    with open(tmp_path / "scan.json") as fh:
        header = json.load(fh)
    assert header["mu0"] == context["mu0"] == pytest.approx(-8.0, abs=1e-5)  # (24, 256) is coarse
    assert header["chi0_residual"] == context["chi0_residual"] < 1e-10
    assert header["chi0_iterations"] == context["chi0_iterations"]
    assert "spectrum_structure_ok" not in header and "spectrum_chi0_resolved" not in header
    # on (24, 256) chi0 dips within its resolution floor; the spectrum agrees
    monkeypatch.undo()
    rep = spectrum(assemble(continuation_ladder(2.0, Grid(24.0, 256))))
    assert header["chi0_resolved"] is rep.chi0_resolved is False
    assert header["chi0_sign_ok"] is True


def test_scan_records_a_chi0_that_changes_sign(tmp_path, monkeypatch):
    # a dip of 5 % of the peak, smooth and far deeper than chi0's resolution
    # floor, fed to the sign verdict of negative_mode
    orient = linearized._orient_chi0

    def dipped(grid, v, notes):
        bump = np.exp(-((np.abs(grid.x) - 6.0) ** 2))
        return orient(grid, v - 0.05 * v[np.argmax(np.abs(v))] * bump, notes)

    monkeypatch.setattr(linearized, "_orient_chi0", dipped)
    grid = Grid(24.0, 256)
    mode = negative_mode(continuation_ladder(2.0, grid))
    assert mode.chi0_sign_ok is False and mode.chi0_resolved is True
    assert np.min(mode.chi0) < -0.04 * np.max(mode.chi0)
    assert any("changes sign" in note for note in mode.notes)
    rows, context = blowup_scan(2.0, [1.06], grid=grid, t_end_super=0.05)
    write_scan(str(tmp_path), rows, context)
    with open(tmp_path / "scan.json") as fh:
        header = json.load(fh)
    assert header["chi0_sign_ok"] is False and header["chi0_resolved"] is True
