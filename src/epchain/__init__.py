"""Bosonic-chain dynamics: spectra, exceptional points, and entanglement.

The package builds the dynamical matrices of N-mode bosonic chains with
hopping and squeezing interactions, classifies their non-Hermitian spectra
and exceptional points, transports Gaussian covariance matrices under the
induced symplectic flow, and evaluates partial-transpose entanglement
witnesses, with closed-form references for the solvable families.
"""

from . import chain, dynamics, entanglement, errors, spectral
from .chain import *
from .dynamics import *
from .entanglement import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [*chain.__all__, *dynamics.__all__, *entanglement.__all__, *spectral.__all__,
           "errors", "__version__"]
