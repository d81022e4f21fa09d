"""Spectral density estimation through integral transforms.

The package estimates the response function of a Hermitian operator,
``S(omega) = sum_k w_k delta(omega - O_k)``, through kernel-broadened
integral transforms with explicit accuracy contracts.  It provides the
kernel families and their planners, a Chebyshev-expansion pipeline for
the Gaussian kernel, classical simulators of the quantum measurement
primitives that would produce the data, Hoeffding sample budgeting,
error metrics with Monte Carlo contract checks, and a deterministic
command-line workbench (``specden``).

Names are imported from their modules (``specden.kernels``,
``specden.chebgauss``, ...); each module's ``__all__`` is its public
surface.
"""

__version__ = "0.1.0"
