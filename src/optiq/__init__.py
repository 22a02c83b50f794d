"""Locally optimal linear-optics approximations to multiphoton unitaries.

Given a target unitary on the n-photon, m-mode state space, the package
finds the closest evolution reachable by a passive linear-optical device,
returns the m x m scattering matrix realizing it, and synthesizes a
beam-splitter mesh for that matrix. The search iterates principal-logarithm
projections onto the algebra of reachable generators and explores local
optima from Haar-random starting points.
"""

from .approx import (ApproxResult, approximate, derive_seed, fidelity_bound,
                     haar_random, multi_start)
from .circuit import CircuitPlan, OpticalElement, decompose, reconstruct
from .errors import (DimensionOverflowError, InternalConsistencyError,
                     InvalidOrderingError, NumericalInstabilityError,
                     OptiqError, RankDeficiencyError, ShapeError,
                     UnitarityError, UnknownStateError)
from .fock import FockBasis, dimension, enumerate_basis
from .homomorphism import evolution_matrix
from .lie import (ImageBasis, build_image_basis, distance, matrix_exp,
                  polar_unitary, principal_log, project,
                  unitary_algebra_generators)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult", "CircuitPlan", "DimensionOverflowError", "FockBasis",
    "ImageBasis", "InternalConsistencyError", "InvalidOrderingError",
    "NumericalInstabilityError", "OpticalElement",
    "OptiqError", "RankDeficiencyError", "ShapeError", "UnitarityError",
    "UnknownStateError", "approximate", "build_image_basis", "decompose",
    "derive_seed", "dimension", "distance", "enumerate_basis",
    "evolution_matrix", "fidelity_bound", "haar_random", "matrix_exp",
    "multi_start", "polar_unitary",
    "principal_log", "project", "reconstruct", "unitary_algebra_generators",
]
