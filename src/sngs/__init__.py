"""Radial numerical laboratory for the Schrodinger-Newton equation with a
power nonlinearity: ground states, variational identities, scaling limits,
uniqueness scans, and sector-decomposed nondegeneracy certificates."""

__version__ = "0.1.0"

from .grid import EVEN, ODD, RadialGrid, differentiate, make_grid
from .solver import (GroundState, ModelParams, ScanResult, acceptance_failures,
                     auto_rmax, default_guess, ground_state, newton_solve,
                     solve, uniqueness_scan)
from .diagnostics import DiagnosticsReport, identities, monotonicity_check
from .scaling import (ScalingReport, limit_distance, limit_member,
                      limit_regime, limit_study, mass_ratio_report,
                      normal_form, normal_member, small_parameter)
from .linearized import (NondegeneracyReport, SectorOperator,
                         nondegeneracy_report, sector_form, sector_spectrum,
                         translation_mode)
from .operators import smallest_eigenpairs

__all__ = [name for name in dir() if not name.startswith("_")]
