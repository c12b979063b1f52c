"""balsel: sensor/actuator subset selection for LTI systems.

Balanced truncation orders the state directions of a stable linear system
by joint controllability and observability; column-pivoted QR applied to
the resulting mode matrices then greedily picks near-optimal sensor and
actuator subsets.  The package also carries the solvers (Lyapunov, Stein,
Riccati), norms, objectives, baselines and a Ginzburg-Landau LQG benchmark
needed to evaluate the selections.
"""

from .balancing import BalancedRealization, ReducedModel, balance, truncate, truncation_error_bound
from .evaluation import (
    brute_force,
    logdet_objective,
    percentile_strictly_below,
    random_ensemble,
    rank_sweep,
    rank_sweeps,
    trace_objective,
)
from .gramian import (
    GramianPair,
    compute_gramians,
    solve_care,
    solve_lyapunov_continuous,
    solve_stein,
)
from .matkernel import PivotedQR, SchurForm, pivoted_qr, schur, svd
from .models import (
    GinzburgLandauParams,
    LQGController,
    closed_loop_assemble,
    closed_loop_h2,
    ginzburg_landau_plant,
    gl_pipeline,
    hermite_diff_matrices,
    hermite_roots,
    lqg_gain_grid,
    lqg_synthesize,
    random_stable_system,
)
from .selection import (
    ProjectionOperator,
    SelectionResult,
    actuator_logdet_lower_bound,
    actuator_state_error_bound,
    pivot_inverse_norm_bound,
    project_state,
    select_actuators,
    select_noncollocated,
    select_sensors,
    select_subsets,
    sensor_logdet_lower_bound,
    sensor_state_error_bound,
)
from .statespace import (
    FrequencyGrid,
    StateSpaceModel,
    adjoint_model,
    difference_model,
    h2_norm_frequency,
    h2_norm_gramian,
    hinf_estimate,
    is_stable,
    log_grid,
)

__version__ = "0.1.0"
