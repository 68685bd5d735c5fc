"""Super-twisting differentiator toolkit.

Closed-form worst-case error bounds and gain conditions, a piecewise
Lyapunov function with a sampled decrease certifier, worst-case signal
constructions, fixed-step (explicit and chattering-free implicit)
simulation, and a CLI tying it together.
"""

from .differentiator import DiffState, StepScheme, init, rhs, solve_sigma, step_explicit, step_implicit
from .harness import (
    ErrorSummary,
    InvarianceReport,
    SimConfig,
    TrajectoryRecord,
    contour_grid,
    error_summary,
    omega_invariance_check,
    read_trajectory_csv,
    simulate,
    simulate_error_system,
    write_contour_csv,
    write_trajectory_csv,
)
from .lyapunov import (
    DecreaseViolation,
    ErrorState,
    GammaReport,
    GridSpec,
    Region,
    Violations,
    decay_rate_gamma,
    evaluate,
    evaluate_grid,
    omega_contains,
    region,
    sup_x2_on_omega,
    verify_decrease,
)
from .params import (
    GainInterval,
    NoiseLevel,
    Params,
    convergence_time_bound,
    error_lower_bound,
    error_upper_bound,
    lambda1_range,
    lambda2_min,
    tightness_factor,
    validate_condition,
)
from .signals import (
    SignalPair,
    WorstCaseSpec,
    check_membership,
    parse_pair,
    sliding_reference,
    switching_noise,
    worst_case_pair,
)

__version__ = "0.1.0"
