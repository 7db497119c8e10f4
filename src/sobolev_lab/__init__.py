"""Numerical laboratory for Sobolev-accelerated training of shallow ReLU networks.

Closed-form population gradients, Hessians and condition numbers for
single-node and multi-node student/teacher ReLU models under Gaussian
inputs, gradient-flow integrators, independent Monte-Carlo oracles, a
linear-model baseline, Chebyshev spectral differentiation, and a
reproducible experiment CLI.
"""

__version__ = "0.1.0"

from .exceptions import BlowUpError, SingularPointError
from .geometry import PairGeometry, pair_geometry
from .eigs import SpectrumReport, real_eigs, symmetric_eigs

__all__ = [
    "BlowUpError",
    "SingularPointError",
    "PairGeometry",
    "pair_geometry",
    "SpectrumReport",
    "real_eigs",
    "symmetric_eigs",
    "__version__",
]
