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

__version__ = "0.1.0"
