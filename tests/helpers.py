"""Shared random-instance builders, the Kronecker analyzer reference and
settings-equivalence helpers for the tests.

The analyzer kets, projectors and observables below are built from the
circular basis as 2x2 matrices, independently of the (Z, X) weights the
package computes with, so that tests can check the weights against them.
"""

import cmath
import math

import numpy as np

from tribell import DensityMatrix, PureState, SettingsPair
from tribell.optimizer import circular_distance
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


def _wrap_settings(settings) -> tuple:
    return tuple(
        SettingsPair(wrap_phase(p.phi), wrap_phase(p.phi_prime)) for p in settings
    )


def objective_symmetries(settings) -> list:
    """The settings and their flip phi -> -phi of all six phases, wrapped to [0, 2*pi).

    sigma(-phi) = Z sigma(phi) Z, so the flip is conjugation of the state by
    Z x Z x Z, which multiplies each Z/X coefficient by -1 per X it holds.  It
    keeps |S_M| and |S_V| where that keeps every correlation or negates every
    one: W and ghz-rl commute with Z x Z x Z, and ghz-hv's one Z/X coefficient,
    XXX, changes sign.  It is no symmetry of states in general, real ones
    included.  Per-party 2*pi shifts are symmetries trivially.
    """
    settings = tuple(settings)
    identity = _wrap_settings(settings)
    flipped = _wrap_settings(
        SettingsPair(-p.phi, -p.phi_prime) for p in settings
    )
    out = [identity]
    if flipped != identity:
        out.append(flipped)
    return out


def settings_distance(settings_a, settings_b) -> float:
    """Largest per-phase circular distance between two settings triples."""
    dist = 0.0
    for pa, pb in zip(tuple(settings_a), tuple(settings_b)):
        dist = max(dist, circular_distance(pa.phi, pb.phi))
        dist = max(dist, circular_distance(pa.phi_prime, pb.phi_prime))
    return dist


def min_symmetry_distance(settings, reference) -> float:
    """settings_distance minimized over the symmetry orbit of `settings`."""
    return min(
        settings_distance(equivalent, reference)
        for equivalent in objective_symmetries(settings)
    )
