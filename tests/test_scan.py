import numpy as np
import pytest

from dgbo.scan import blowup_scan, lambda_monotone


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
