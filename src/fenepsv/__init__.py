"""Shallow viscoelastic flow solver with a relaxation Riemann scheme.

Layers: `model` (state, admissibility, pressure law, free energy),
`riemann` (relaxation solver and interface fluxes), `timeloop` (splitting
scheme with per-step energy audit), `scenarios` (configured runs and
artifacts), `oracles` (independent verification), `cli` (entry point).

The package root re-exports the names of a library session and the error
types behind the command line's exit codes 2 to 4; every solver error derives
from `SolverError`.  Everything else lives in its layer's module.
"""

from .model import AdmissibilityError, NonHyperbolicError, PhysParams, Primitive, primitive
from .model import SolverError
from .riemann import StarStateError
from .scenarios import (
    ConfigError,
    RunConfig,
    StepBudgetExceeded,
    initial_condition,
    preset_dam_break,
    preset_smooth_wave,
    preset_uniform,
    run,
)
from .timeloop import (
    DissipationViolation,
    Grid,
    SimState,
    SourceSolveFailure,
    StepControl,
    SubcharacteristicViolation,
    TimeStepCollapse,
    full_step,
)

__version__ = "0.1.0"
