"""Numerical laboratory for the L2-critical dispersion-generalized
Benjamin-Ono family u_t - dx |D|^alpha u + |u|^{2 alpha} u_x = 0, alpha in [1,2].
"""

__version__ = "0.1.0"

from .spectral import Grid, stable_kernel
from .dynamics import (
    Diagnostics,
    EvolutionConfig,
    RunRecord,
    Stepper,
    conserved,
    evolve,
    evolve_batch,
    flow_stepper,
)
from .ground_state import (
    GNReport,
    GroundState,
    continuation_ladder,
    decay_fit,
    equation_residual,
    gkdv_profile,
    gn_report,
    j1,
    pohozaev_residuals,
    scaling_generator,
    solve_ground_state,
)
from .linearized import (
    LinearizedOperator,
    SpectrumReport,
    assemble,
    coercivity_probe,
    evolve_linearized,
    liouville_readout,
    spectrum,
)
from .modulation import (
    ModulationState,
    ModulationTrack,
    beta,
    decompose,
    remainder,
    track,
)
from .monotonicity import (
    MonotonicityReport,
    Weight,
    build_weight,
    calibrate,
    check_eta_monotonicity,
    check_left_monotonicity,
    check_right_monotonicity,
    kato_terms,
    weighted_mass,
)

__all__ = [name for name in dir() if not name.startswith("_")]
