"""Polarization analyzers and Born-rule correlations.

Each party measures the observable sigma(phi) = |phi+><phi+| - |phi-><phi-|
built from the analyzer kets |phi+-> = (|R> +- e^{i phi}|L>)/sqrt(2).  The
circular basis is fixed as |R> = (|H> - i|V>)/sqrt(2), |L> = (|H> + i|V>)/sqrt(2),
under which sigma(phi) = cos(phi) Z - sin(phi) X in the H/V basis.  Outcome
+1 means detection in the |phi+> port.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, PureState, as_density

TWO_PI = 2.0 * math.pi

KET_R = np.array([1.0, -1.0j]) / math.sqrt(2.0)
KET_L = np.array([1.0, 1.0j]) / math.sqrt(2.0)

PROB_SUM_ATOL = 1e-10
PROB_RANGE_ATOL = 1e-12

#: Z and X stacked, the basis in which every analyzer observable is expanded.
_PAULI_ZX = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def wrap_phase(phi: float) -> float:
    """Canonical representative of an analyzer phase in [0, 2*pi)."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"analyzer phase must be finite, got {phi}")
    wrapped = phi % TWO_PI
    if wrapped >= TWO_PI:  # rounding can push tiny negatives onto 2*pi itself
        wrapped = 0.0
    return wrapped


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


def analyzer_weights(phi: float) -> np.ndarray:
    """(Z, X) weights (cos(phi), -sin(phi)) of the analyzer observable sigma(phi)."""
    phi = wrap_phase(phi)
    return np.array([math.cos(phi), -math.sin(phi)])


def zx_coefficients(state: PureState | DensityMatrix) -> np.ndarray:
    """T[u, v, w] = Re tr(rho P_u x P_v x P_w) over P in (Z, X).

    Every analyzer observable is cos(phi) Z - sin(phi) X, so these eight
    numbers determine every correlation of the state within the analyzer
    family: E = sum T[u, v, w] g_a[u] g_b[v] g_c[w] with g = analyzer_weights.
    """
    rho = as_density(state).entries.reshape((2,) * 6)
    paulis = _PAULI_ZX
    return np.einsum("abcdef,uda,veb,wfc->uvw", rho, paulis, paulis, paulis).real


def outcome_sign(bit: int) -> int:
    """Outcome index to sign: port bit 0 -> +1, bit 1 -> -1."""
    return 1 - 2 * bit


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Born-rule probabilities over the eight +-1 outcome triples.

    probs[oa, ob, oc] uses port indices (0 for +1, 1 for -1) per party.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float).reshape(2, 2, 2)
        if not np.isfinite(probs).all():
            raise ValueError("outcome probabilities must be finite, got NaN or inf")
        if probs.min() < -PROB_RANGE_ATOL or probs.max() > 1.0 + PROB_RANGE_ATOL:
            raise ValueError("outcome probabilities outside [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def prob(self, sa: int, sb: int, sc: int) -> float:
        """Probability of the outcome triple given as +-1 signs."""
        return float(self.probs[(1 - sa) // 2, (1 - sb) // 2, (1 - sc) // 2])

    def to_jsonable(self) -> dict:
        out = {}
        for oa, ob, oc in itertools.product((0, 1), repeat=3):
            key = "".join("+-"[bit] for bit in (oa, ob, oc))
            out[key] = float(self.probs[oa, ob, oc])
        return out


def outcome_distribution(
    state: PureState | DensityMatrix, settings
) -> OutcomeDistribution:
    """Joint +-1 outcome distribution for three analyzers at the given phases."""
    rho = as_density(state).entries
    phis = tuple(float(p) for p in settings)
    if len(phis) != 3:
        raise ValueError(f"expected 3 analyzer settings, got {len(phis)}")
    projectors = [analyzer_projectors(phi) for phi in phis]
    probs = np.empty((2, 2, 2))
    for oa, ob, oc in itertools.product((0, 1), repeat=3):
        op = np.kron(np.kron(projectors[0][oa], projectors[1][ob]), projectors[2][oc])
        probs[oa, ob, oc] = float(np.trace(rho @ op).real)
    return OutcomeDistribution(probs)


def correlation(state: PureState | DensityMatrix, settings) -> float:
    """Expectation of the product of the three +-1 outcomes, tr(rho sa x sb x sc)."""
    phis = tuple(float(p) for p in settings)
    if len(phis) != 3:
        raise ValueError(f"expected 3 analyzer settings, got {len(phis)}")
    weights = [analyzer_weights(phi) for phi in phis]
    return float(np.einsum("u,v,w,uvw->", *weights, zx_coefficients(state)))


def correlation_from_distribution(dist: OutcomeDistribution) -> float:
    """Signed sum over an outcome distribution; cross-check for correlation()."""
    total = 0.0
    for oa, ob, oc in itertools.product((0, 1), repeat=3):
        sign = outcome_sign(oa) * outcome_sign(ob) * outcome_sign(oc)
        total += sign * float(dist.probs[oa, ob, oc])
    return total
