import json

import numpy as np
import pytest

from dgbo import Grid, LinearizedOperator, assemble, continuation_ladder, linearized
from dgbo import spectrum
from dgbo.cli import main
from dgbo.errors import ContractError
from dgbo.scan import blowup_scan, build_initial_data, lambda_monotone, write_scan


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


def test_initial_data_takes_the_whole_perturbation_vocabulary():
    grid = Grid(24.0, 256)
    gs = continuation_ladder(2.0, grid)
    recipe = {"scale": 1.01, "translate": 0.5, "bump": {"amplitude": 0.01, "width": 2.0, "offset": 1.0},
              "noise": {"band": 0.25, "amplitude": 1e-3}}
    u = build_initial_data(grid, gs, recipe, np.random.default_rng(0))
    moved = build_initial_data(grid, gs, {"scale": 1.01, "translate": 0.5}, None)
    assert np.max(np.abs(moved - 1.01 * gs.values)) > 0.1  # translated
    assert 0.008 < np.max(np.abs(u - moved)) < 0.012  # the bump, 0.01, and the noise, 1e-3


def test_a_scan_perturbation_may_not_set_the_amplitude():
    # the amplitude is the scan's axis: a scale there would start every row
    # from the same data while scan.csv lists the amplitudes asked for
    with pytest.raises(ContractError, match="scale"):
        blowup_scan(2.0, [0.9, 1.0], grid=Grid(24.0, 256), t_end_super=0.05,
                    perturbation={"scale": 1.02})


@pytest.mark.parametrize("track, monotone", [
    (1.0 + 1e-11 * np.sin(np.arange(40.0)), True),  # constant up to 1e-11, ending 1e-11 up
    (np.linspace(1.0, 1.0 + 1e-6, 40), False),      # a net rise of 1e-6
    (np.linspace(1.0, 0.7, 40), True),              # a contracting track
    (np.array([1.0, 1.01, 0.9]), False),            # a 1 % step up
], ids=["constant", "rise-1e-6", "contracting", "step-up"])
def test_lambda_monotone(track, monotone):
    assert lambda_monotone(track) is monotone


def test_scan_takes_chi0_without_a_dense_solve(tmp_path, monkeypatch):
    # chi0 and its certificate come from the matrix-free spectrum: no dense
    # matrix is formed, and scan.json records the spectrum's key names
    def refuse(self):
        raise AssertionError("the scan formed a dense matrix")

    monkeypatch.setattr(LinearizedOperator, "matrix", property(refuse))
    rows, context = blowup_scan(2.0, [1.06], grid=Grid(24.0, 256), t_end_super=0.05)
    assert len(rows) == 1
    write_scan(str(tmp_path), rows, context)
    with open(tmp_path / "scan.json") as fh:
        header = json.load(fh)
    assert header["mu0"] == context["mu0"] == pytest.approx(-8.0, abs=1e-5)  # (24, 256) is coarse
    assert header["max_eig_residual"] == context["max_eig_residual"] < 1e-10
    assert header["structure_ok"] is context["structure_ok"] is True
    assert not {"chi0_sign_ok", "chi0_residual"} & set(header)
    # the same numbers as a direct spectrum of the same ground state; on
    # (24, 256) chi0 dips within its resolution floor
    monkeypatch.undo()
    rep = spectrum(assemble(continuation_ladder(2.0, Grid(24.0, 256))))
    assert header["mu0"] == rep.mu0
    assert header["inertia"] == [list(counts) for counts in rep.inertia] == [[1, 1], [0, 1]]
    assert header["chi0_iterations"] == rep.chi0_iterations
    assert header["chi0_resolved"] is rep.chi0_resolved is False
    assert header["notes"] == rep.notes and "resolution floor" in rep.notes[0]


def test_scan_records_a_chi0_that_changes_sign(tmp_path, monkeypatch, capsys):
    # a dip of 5 % of the peak, smooth and far deeper than chi0's resolution
    # floor, fed to the sign verdict of spectrum: the scan still runs and
    # exits 0, and blowup-scan warns that the structure is not certified
    orient = linearized._orient_chi0

    def dipped(grid, v, notes):
        bump = np.exp(-((np.abs(grid.x) - 6.0) ** 2))
        return orient(grid, v - 0.05 * v[np.argmax(np.abs(v))] * bump, notes)

    monkeypatch.setattr(linearized, "_orient_chi0", dipped)
    out = tmp_path / "scan"
    code = main(["blowup-scan", "--alpha", "2", "--half-length", "24", "--n", "256",
                 "--amplitudes", "1.06:1.06:0.01", "--t-end", "0.05", "--out", str(out)])
    assert code == 0
    with open(out / "scan.json") as fh:
        header = json.load(fh)
    assert header["structure_ok"] is False and header["chi0_resolved"] is True
    assert any("changes sign" in note for note in header["notes"])
    assert "WARNING: the structure of L" in capsys.readouterr().out
