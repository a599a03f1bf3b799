"""Polarization analyzers and Born-rule quantities.

Each party measures the observable sigma(phi) = |phi+><phi+| - |phi-><phi-|
built from the analyzer kets |phi+-> = (|R> +- e^{i phi}|L>)/sqrt(2).  The
circular basis is fixed as |R> = (|H> - i|V>)/sqrt(2), |L> = (|H> + i|V>)/sqrt(2),
under which sigma(phi) = cos(phi) Z - sin(phi) X in the H/V basis.  Outcome
+1 means detection in the |phi+> port.

Both the observable and its port projectors (I +- sigma(phi))/2 are
combinations of I, Z and X, so a state enters every correlation and outcome
probability only through its 27 coefficients Re tr(rho P_u x P_v x P_w),
P in (I, Z, X) (pauli_coefficients).  Each Born-rule number is that tensor
contracted with one weight row per party.  The tensor is computed once per
DensityMatrix instance and held read-only for as long as that instance lives,
so every later correlation or distribution of the same state is only the
contraction.  The cache holds no state alive and is safe for concurrent use.
"""

from __future__ import annotations

import cmath
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, PureState, as_density

TWO_PI = 2.0 * math.pi

KET_R = np.array([1.0, -1.0j]) / math.sqrt(2.0)
KET_L = np.array([1.0, 1.0j]) / math.sqrt(2.0)

PROB_SUM_ATOL = 1e-10
PROB_RANGE_ATOL = 1e-12

#: I, Z and X stacked, the basis in which every analyzer operator is expanded.
_PAULI_IZX = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]
)

#: Labels of the eight outcome triples in row-major port order, "+" for port 0
#: (outcome +1) and "-" for port 1: "+++", "++-", ..., "---".
OUTCOME_LABELS = tuple("".join(ports) for ports in itertools.product("+-", repeat=3))

#: Product of the three outcome signs per port index triple (0 -> +1, 1 -> -1).
OUTCOME_SIGNS = np.array([[[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
OUTCOME_SIGNS.flags.writeable = False


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


def _port_weights(phi: float) -> np.ndarray:
    """(I, Z, X) weights of the +1 and -1 port projectors (I +- sigma(phi))/2."""
    g = analyzer_weights(phi)
    return 0.5 * np.array([[1.0, g[0], g[1]], [1.0, -g[0], -g[1]]])


#: Each live state's read-only coefficient tensor, dropped with the state.
_COEFFICIENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _izx_expansion(state: PureState | DensityMatrix) -> np.ndarray:
    """The coefficient tensor of a state, computed afresh and marked read-only."""
    entries = as_density(state).entries.reshape((2,) * 6)
    paulis = _PAULI_IZX
    coeffs = np.einsum("abcdef,uda,veb,wfc->uvw", entries, paulis, paulis, paulis).real.copy()
    coeffs.flags.writeable = False
    return coeffs


def pauli_coefficients(state: PureState | DensityMatrix) -> np.ndarray:
    """T[u, v, w] = Re tr(rho P_u x P_v x P_w) over P in (I, Z, X).

    T[0, 0, 0] = tr(rho) = 1.  The Z/X block T[1:, 1:, 1:] gives every
    correlation, E = sum T[1+u, 1+v, 1+w] g_a[u] g_b[v] g_c[w] with
    g = analyzer_weights; the full tensor contracted with _port_weights gives
    every outcome probability.

    The first call for a state instance, PureState or DensityMatrix, computes
    T; later calls for the same instance return that same read-only array.
    """
    if not isinstance(state, (PureState, DensityMatrix)):
        raise ValueError(
            f"expected PureState or DensityMatrix, got {type(state).__name__}"
        )
    coeffs = _COEFFICIENTS.get(state)
    if coeffs is None:
        # setdefault keeps the first array stored if two threads race here.
        coeffs = _COEFFICIENTS.setdefault(state, _izx_expansion(state))
    return coeffs


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
        return dict(zip(OUTCOME_LABELS, self.probs.ravel().tolist()))


def outcome_distribution(
    state: PureState | DensityMatrix, settings
) -> OutcomeDistribution:
    """Joint +-1 outcome distribution for three analyzers at the given phases."""
    phis = tuple(float(p) for p in settings)
    if len(phis) != 3:
        raise ValueError(f"expected 3 analyzer settings, got {len(phis)}")
    weights = [_port_weights(phi) for phi in phis]
    probs = np.einsum("iu,jv,kw,uvw->ijk", *weights, pauli_coefficients(state))
    return OutcomeDistribution(probs)


def correlation(state: PureState | DensityMatrix, settings) -> float:
    """Expectation of the product of the three +-1 outcomes, tr(rho sa x sb x sc)."""
    phis = tuple(float(p) for p in settings)
    if len(phis) != 3:
        raise ValueError(f"expected 3 analyzer settings, got {len(phis)}")
    weights = [analyzer_weights(phi) for phi in phis]
    coeffs = pauli_coefficients(state)[1:, 1:, 1:]
    return float(np.einsum("u,v,w,uvw->", *weights, coeffs))


def correlation_from_distribution(dist: OutcomeDistribution) -> float:
    """Outcome-sign-weighted sum of the probabilities, equal to correlation()."""
    return float(np.vdot(OUTCOME_SIGNS, dist.probs))
