"""Radial numerical laboratory for the Schrodinger-Newton equation with a
power nonlinearity: ground states, variational identities, scaling limits,
uniqueness scans, and sector-decomposed nondegeneracy certificates."""

__version__ = "0.1.0"

from .grid import EVEN, ODD, RadialGrid, differentiate, make_grid
from .solver import (GroundState, ModelParams, ScanResult, acceptance_failures,
                     ground_state, newton_solve, normal_member, solve,
                     uniqueness_scan)
from .diagnostics import DiagnosticsReport, identities, monotonicity_check
from .scaling import (LimitStudy, limit_distance, limit_member, limit_regime,
                      limit_study, normal_form)
from .linearized import (NondegeneracyReport, SectorOperator,
                         nondegeneracy_report, sector_form, sector_spectrum,
                         translation_mode)

__all__ = [name for name in dir() if not name.startswith("_")]
