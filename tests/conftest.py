"""Shared fixtures; expensive ground states and spectra are session-cached.

Certification grids grow with 1/alpha because the profile tails are algebraic
(periodic-image error ~ L^{-(1+alpha)}) and the profiles sharpen as alpha
decreases (resolution error set by k_max).
"""

import numpy as np
import pytest

from dgbo import Grid, assemble, continuation_ladder, solve_ground_state, spectrum

# per-alpha boxes certifying the integral identities to < 1e-5 and the
# linearized identities to their stated tolerances
CERT_GRIDS = {
    2.0: (100.0, 4096),
    1.75: (400.0, 16384),
    1.5: (600.0, 32768),
    1.25: (1200.0, 65536),
    1.0: (6400.0, 524288),
}

# compact grid used for the dense spectral references, modulation and dynamics tests
COMPACT = Grid(50.0, 1024)

_gs_cache = {}
_spec_cache = {}


def ground_state_for(alpha, grid=None):
    if grid is None:
        grid = Grid(*CERT_GRIDS[alpha]) if alpha in CERT_GRIDS else COMPACT
    key = (alpha, grid.half_length, grid.n)
    if key not in _gs_cache:
        if alpha >= 2.0:
            _gs_cache[key] = solve_ground_state(alpha, grid)
        else:
            _gs_cache[key] = continuation_ladder(alpha, grid, step=0.25)
    return _gs_cache[key]


def spectrum_for(alpha, grid=None):
    gs = ground_state_for(alpha, grid)
    key = (alpha, gs.grid.half_length, gs.grid.n)
    if key not in _spec_cache:
        _spec_cache[key] = spectrum(assemble(gs))
    return _spec_cache[key]


@pytest.fixture(scope="session")
def gs2():
    """alpha = 2 ground state on the (100, 4096) reference grid."""
    return ground_state_for(2.0)


@pytest.fixture(scope="session")
def gs2_compact():
    return ground_state_for(2.0, COMPACT)


@pytest.fixture(scope="session")
def spec2_compact():
    return spectrum_for(2.0, COMPACT)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
