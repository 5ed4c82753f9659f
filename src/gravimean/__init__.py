"""Two-branch wave-packet dynamics under self-consistent harmonic self-gravity.

A pointer-type apparatus is described by two wave-packet branches with weights
p and 1 - p. Both branches feel the harmonic potential sourced by their own
weighted mean density, a constant measurement force of opposite sign per
branch, and a frozen random diverting force. The package provides a
closed-form coherent-state propagator, an independent split-step spectral
solver, a deterministic Monte Carlo harness for outcome statistics, and the
measurability criteria that tie the dimensionless model to SI apparatus
parameters.
"""

__version__ = "0.1.0"
