"""Shared random-instance builders and the Kronecker analyzer reference for the tests.

The analyzer kets, projectors and observables below are built from the
circular basis as 2x2 matrices, independently of the (Z, X) weights the
package computes with, so that tests can check the weights against them.
"""

import cmath
import math

import numpy as np

from tribell import DensityMatrix, PureState
from tribell.polarimetry import wrap_phase

KET_R = np.array([1.0, -1.0j]) / math.sqrt(2.0)
KET_L = np.array([1.0, 1.0j]) / math.sqrt(2.0)


def analyzer_kets(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The |phi+> and |phi-> analyzer kets in the H/V basis."""
    phase = cmath.exp(1j * wrap_phase(phi))
    plus = (KET_R + phase * KET_L) / math.sqrt(2.0)
    minus = (KET_R - phase * KET_L) / math.sqrt(2.0)
    return plus, minus


def analyzer_projectors(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors onto the +1 and -1 analyzer ports."""
    plus, minus = analyzer_kets(phi)
    return np.outer(plus, plus.conj()), np.outer(minus, minus.conj())


def analyzer_observable(phi: float) -> np.ndarray:
    """The +-1-valued analyzer observable, equal to cos(phi) Z - sin(phi) X."""
    proj_plus, proj_minus = analyzer_projectors(phi)
    return proj_plus - proj_minus


def random_pure(rng) -> PureState:
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    return PureState(amps / np.linalg.norm(amps))


def random_density(rng, rank: int | None = None) -> DensityMatrix:
    if rank is None:
        rank = int(rng.integers(1, 9))
    mat = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    rho = mat @ mat.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_angles(rng, n: int = 3) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * np.pi, n)
