"""Stability analysis for EV charging queues on a line distribution feeder.

The package answers one question from several angles: how fast can
vehicles arrive at the stations of a resistive line feeder before fair
power sharing under a voltage-drop constraint can no longer keep the
queues stable?  `powerflow` evaluates the Distflow equations and their
linearization, `stability` turns them into critical arrival rates (exact
for N stations and in the large-N scaling limit), `allocator` computes the
alpha-fair power split for a given occupancy, `simulator` checks the
thresholds empirically, and `cli` exposes everything as CSV-producing
subcommands.
"""

from .allocator import (
    AllocationError,
    FairnessSpec,
    QueueState,
    alpha_fair_distflow,
    alpha_fair_lindist,
    fairness_utility,
)
from .powerflow import (
    NetworkConfig,
    PowerAllocation,
    PowerModel,
    VoltageProfile,
    distflow_from_root,
    distflow_gradient,
    distflow_sensitivity,
    distflow_voltages,
    feasible,
    lindist_squared_voltages,
)
from .simulator import (
    Classification,
    ProbeRow,
    SimConfig,
    SimReport,
    simulate,
    stability_probe,
)
from .specfun import erfi, f0, f0_inverse, u_inverse
from .stability import (
    ConvergenceReport,
    NewtonFailure,
    NewtonTrace,
    continuum_voltage,
    convergence_report,
    lambda_dist,
    lambda_dist_critical,
    lambda_lin,
    lambda_lin_critical,
    newton_solve_a,
    ratio_P,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationError",
    "Classification",
    "ConvergenceReport",
    "FairnessSpec",
    "NetworkConfig",
    "NewtonFailure",
    "NewtonTrace",
    "PowerAllocation",
    "PowerModel",
    "ProbeRow",
    "QueueState",
    "SimConfig",
    "SimReport",
    "VoltageProfile",
    "alpha_fair_distflow",
    "alpha_fair_lindist",
    "continuum_voltage",
    "convergence_report",
    "distflow_from_root",
    "distflow_gradient",
    "distflow_sensitivity",
    "distflow_voltages",
    "erfi",
    "f0",
    "f0_inverse",
    "fairness_utility",
    "feasible",
    "lambda_dist",
    "lambda_dist_critical",
    "lambda_lin",
    "lambda_lin_critical",
    "lindist_squared_voltages",
    "newton_solve_a",
    "ratio_P",
    "simulate",
    "stability_probe",
    "u_inverse",
]
