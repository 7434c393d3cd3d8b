"""Numerical laboratory for Dirac fields on power-law FLRW backgrounds.

Subpackages by concern: gamma (matrix algebra), spacetime (background and
causal reach), field (discrete spinor fields), models (mass, potentials,
nonlinearities), solver (time integration), kernels (closed-form free
propagation), diagnostics (identity checks and scattering), blowup
(nonexistence machinery), cli (command-line front end).
"""

__version__ = "0.1.0"
