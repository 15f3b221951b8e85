"""Decentralized stochastic approximation over communication graphs with
Markovian data sources, with built-in convergence-rate diagnostics."""

from .config import ScenarioConfig, parse_config
from .core import (MetricsRecord, MetricsTrajectory, RateConstants, Scenario,
                   StepSchedule, admissible_step_check, lyapunov, run, tau_k,
                   td_error)
from .graphs import (Graph, GraphSchedule, WeightMatrix, lazy_metropolis,
                     second_singular_value, time_varying_eta, validate_graph,
                     validate_b_connectivity)
from .operators import (LocalOperator, OperatorConstants, ProblemSpec,
                        TabularFeatures, estimate_constants, eval_local,
                        eval_mean_field, fixed_point_oracle,
                        qlearning_operator, quadratic_grad_operator)
from .sources import (ARSource, FiniteChain, MDPSource, Maze, MixingProfile,
                      fit_mixing_profile, global_tau, mixing_time, parse_maze,
                      stationary_distribution, tv_distance)

__version__ = "0.1.0"
