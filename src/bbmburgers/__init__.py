"""Numerical laboratory for large-time asymptotics of the BBM-Burgers equation."""

from .core import Field, GridSpec, lp_norm, make_grid
from .errors import (
    ConfigError,
    InstabilityError,
    MassMismatchError,
    NumericsError,
)
from .profiles import (
    ModelParams,
    ProfileSet,
    V,
    V_star,
    Z_eval,
    chi,
    chi_star,
    constants,
    eta,
    eta_star,
    fM_check,
    r0_eval,
)
from .semigroup import G_apply, T_apply, TG_gap, U_apply, helmholtz_inv
from .solver import (
    Trajectory,
    integrate,
    solve_aux,
    solve_second_aux,
)
from .asymptotics import (
    ErrorSeries,
    RateFit,
    error_series_multi,
    fit_rate,
    optimal_rate_report,
)
from .harness import Scenario, make_initial_data, run_experiment, scenario_from_json

__version__ = "0.1.0"
