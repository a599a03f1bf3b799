"""Polarization analyzers and Born-rule quantities.

Each party measures the observable sigma(phi) = cos(phi) Z - sin(phi) X in the
H/V basis: |phi+-> = (|R> +- e^{i phi}|L>)/sqrt(2) with the circular basis
|R> = (|H> - i|V>)/sqrt(2), |L> = (|H> + i|V>)/sqrt(2).  Outcome +1 means
detection in the |phi+> port.

Operators are expanded in the basis (I, Z, -X), in which sigma(phi) is
(0, cos(phi), sin(phi)).  The analyzer is represented by its weights
g = (cos(phi), sin(phi)) alone (analyzer_weights), and its port projectors
(I +- sigma(phi))/2 are (1, +-g)/2, so a state enters every correlation and
outcome probability only through its 27 coefficients
Re tr(rho P_u x P_v x P_w), P in (I, Z, -X) (pauli_coefficients).  Every
correlation, one or a tensor of eight, is the Z/-X block contracted with one
weight pair g per party and setting (_correlations); every outcome
probability is the full tensor contracted with two port rows per party and
setting (_probabilities), and outcome_distribution is its one-setting row.
A StateTensor holds the tensor read-only, so every correlation or
distribution it feeds is only the contraction; a PureState or DensityMatrix
passed in its place is expanded afresh on each call.  A
PureState's projector np.outer(a, a*) is expanded directly, never built or
validated as a DensityMatrix (the range rule's comment says why it is safe).

White noise acts on the tensor alone.  The identity's only nonzero
coefficient is T[0, 0, 0], so v*rho + (1-v)*identity/8 has the tensor v*T with
1 - v added to T[0, 0, 0] (StateTensor): a noisy state needs neither a second
density matrix nor a second expansion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .qstate import EIGENVALUE_ATOL, HERMITIAN_ATOL, TRACE_ATOL, DensityMatrix, PureState

TWO_PI = 2.0 * math.pi

# The slack of the range rule, from qstate's tolerances.  A Born-rule number
# reads rho only through H = (rho + rho^dagger)/2, as Re tr(rho P) = tr(H P) for
# Hermitian P.  eigvalsh reads rho's lower triangle, a Hermitian matrix within
# HERMITIAN_ATOL/2 of H per off-diagonal entry, so within 7*HERMITIAN_ATOL/2 in
# norm.  So each eigenvalue of H is >= -NEG, NEG = EIGENVALUE_ATOL +
# 8*HERMITIAN_ATOL, at most seven are negative, and they sum to tr H <= 1 +
# TRACE_ATOL.  A port probability <psi|H|psi>, psi a unit ket, lies between the
# smallest eigenvalue, >= -NEG, and the largest, <= tr H + 7*NEG.  A correlation
# tr(H O), O Hermitian with O^2 = 1, has |E| <= sum |lambda| <= tr H + 14*NEG.
# A pure state enters as its projector np.outer(a, a*), never validated as a
# DensityMatrix, and the slack still covers it: entry (j, i) is computed as the
# exact conjugate of entry (i, j), so the projector is exactly Hermitian; its
# trace is |a|^2, within NORM_ATOL = TRACE_ATOL of 1; and it has rank 1, so its
# eigenvalues are |a|^2 and seven zeros, each moved only by rounding.  White
# noise only narrows both ranges.  _ROUNDING covers the few hundred ulp that
# the projector, the expansion, eigvalsh and the 27-term contraction add.
_NEG = EIGENVALUE_ATOL + 8.0 * HERMITIAN_ATOL
_ROUNDING = 1e-12
_CORRELATION_REACH = 1.0 + 14.0 * _NEG + TRACE_ATOL + _ROUNDING
#: (low, high, floor, ceiling) per kind of Born-rule number: a value in
#: [floor, ceiling] is reported clipped into [low, high], and one outside it
#: comes from no accepted state (_in_range).
_PROBABILITY = (0.0, 1.0, -_NEG - _ROUNDING, 1.0 + 7.0 * _NEG + TRACE_ATOL + _ROUNDING)
_CORRELATION = (-1.0, 1.0, -_CORRELATION_REACH, _CORRELATION_REACH)
#: Slack of the clipped sum of eight outcome probabilities.  Unclipped they sum
#: to tr H, within TRACE_ATOL of 1; the clip raises at most seven, each by at
#: most NEG + _ROUNDING, and lowers none below 1, so a clipped row passes again.
PROB_SUM_ATOL = TRACE_ATOL + 7.0 * (_NEG + _ROUNDING)

#: I, Z and -X stacked, the basis in which every analyzer operator is expanded.
_ANALYZER_BASIS = np.array(
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, -1.0], [-1.0, 0.0]]]
)

#: Labels of the eight outcome triples in row-major port order, "+" for port 0
#: (outcome +1) and "-" for port 1: "+++", "++-", ..., "---".
OUTCOME_LABELS = tuple("".join(ports) for ports in itertools.product("+-", repeat=3))

#: Product of the three outcome signs per port index triple (0 -> +1, 1 -> -1).
OUTCOME_SIGNS = np.array([[[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]])
OUTCOME_SIGNS.flags.writeable = False


def _in_range(values, rule, what: str):
    """values, a float or a new float array, clipped into the rule's [low, high].

    Raises ValueError, naming the values `what`, if any is NaN or infinite or
    lies outside [floor, ceiling], where no accepted state's number can.
    """
    low, high, floor, ceiling = rule
    if isinstance(values, float):
        smallest = largest = values
    else:
        smallest, largest = values.min(), values.max()
    if not (floor <= smallest and largest <= ceiling):  # NaN fails here too
        if not np.isfinite(values).all():
            raise ValueError(f"{what} must be finite, got NaN or inf")
        worst = smallest if low - smallest > largest - high else largest
        raise ValueError(f"{what} outside [{low:g}, {high:g}]: {float(worst)}")
    if smallest < low or largest > high:  # an exact 0 can round to -3e-17
        return np.clip(values, low, high)
    return values


def wrap_phase(phi):
    """Canonical representative in [0, 2*pi) of a phase, or of each in an array.

    Returns a float for a scalar and a new array for an array.  The remainder,
    Python's % or np.remainder, which round alike, can round a tiny negative
    phase up to 2*pi itself, and fmod, exact, takes that to 0 and keeps the
    rest.  A float takes both steps in plain Python, without numpy's per-call
    overhead.  Raises ValueError, naming the first non-finite phase, unless
    all are finite.
    """
    if isinstance(phi, float):
        if not math.isfinite(phi):
            raise ValueError(f"analyzer phase must be finite, got {phi}")
        return math.fmod(phi % TWO_PI, TWO_PI)
    wrapped = np.array(phi, dtype=float)
    finite = np.isfinite(wrapped)
    if not finite.all():
        bad = float(wrapped[~finite][0])
        raise ValueError(f"analyzer phase must be finite, got {bad}")
    np.remainder(wrapped, TWO_PI, out=wrapped)
    np.fmod(wrapped, TWO_PI, out=wrapped)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def analyzer_weights(phases) -> np.ndarray:
    """Weights (cos(phi), sin(phi)) of sigma(phi) on (Z, -X) per phase, on a new last axis.

    Takes a phase or an array of phases, as given: callers wrap them first.
    """
    phases = np.asarray(phases, dtype=float)
    weights = np.empty(phases.shape + (2,))
    np.cos(phases, out=weights[..., 0])
    np.sin(phases, out=weights[..., 1])
    return weights


def _correlations(state: PureState | DensityMatrix | StateTensor, phases) -> np.ndarray:
    """E[i, j, k] = sum g_a[i, u] g_b[j, v] g_c[k, w] T[1+u, 1+v, 1+w], before _in_range.

    phases holds two wrapped phases per party, shape (3, 2), and g their
    analyzer_weights.  An entry depends only on its own three phases, so it
    comes out bitwise the same whatever the other phases are.
    """
    g = analyzer_weights(phases)
    coeffs = pauli_coefficients(state)[1:, 1:, 1:]
    return np.einsum("iu,jv,kw,uvw->ijk", g[0], g[1], g[2], coeffs)


def _izx_expansion(state: PureState | DensityMatrix) -> np.ndarray:
    """The coefficient tensor of a state, computed afresh and marked read-only.

    The Paulis are real and symmetric, so Re tr(rho P) = tr(Re(rho) P): the
    contraction reads Re(rho) alone.
    """
    if isinstance(state, PureState):
        amps = state.amplitudes
        rho = np.outer(amps, amps.conj())
    elif isinstance(state, DensityMatrix):
        rho = state.entries
    else:
        raise ValueError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    entries, paulis = rho.real.reshape((2,) * 6), _ANALYZER_BASIS
    coeffs = np.einsum("abcdef,uda,veb,wfc->uvw", entries, paulis, paulis, paulis)
    coeffs.flags.writeable = False
    return coeffs


def pauli_coefficients(state: PureState | DensityMatrix | StateTensor) -> np.ndarray:
    """T[u, v, w] = Re tr(rho P_u x P_v x P_w) over P in (I, Z, -X).

    T[0, 0, 0] = tr(rho) = 1.  The Z/-X block T[1:, 1:, 1:] gives every
    correlation, E = sum T[1+u, 1+v, 1+w] g_a[u] g_b[v] g_c[w] with
    g = analyzer_weights; the full tensor contracted with the port rows
    (1, +-g)/2 gives every outcome probability.

    A StateTensor returns the read-only values it holds; a PureState or
    DensityMatrix gets a fresh read-only T on every call, so a caller that
    needs T more than once builds one StateTensor.
    """
    if isinstance(state, StateTensor):
        return state.values
    return _izx_expansion(state)


@dataclass(frozen=True, eq=False)
class StateTensor:
    """The read-only coefficient tensor of a state at a visibility v in [0, 1].

    values = v*T with 1 - v added to T[0, 0, 0], the tensor of
    v*rho + (1-v)*identity/8 (mix_with_white_noise); at v = 1 it equals T
    bitwise, so StateTensor(StateTensor(state), v) equals StateTensor(state, v).
    Built from a StateTensor at visibility u, it holds the state at u*v and
    records that product as its visibility.  correlation, outcome_distribution,
    correlation_tensor, sample_counts and optimize take it in place of a state.
    """

    state: InitVar[PureState | DensityMatrix | StateTensor]
    visibility: float = 1.0
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, state):
        v = float(self.visibility)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {v}")
        values = v * pauli_coefficients(state)
        values[0, 0, 0] += 1.0 - v
        values.flags.writeable = False
        if isinstance(state, StateTensor):
            v *= state.visibility
        object.__setattr__(self, "visibility", v)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Born-rule probabilities over the eight +-1 outcome triples.

    probs[oa, ob, oc] uses port indices (0 for +1, 1 for -1) per party.
    Entries are clipped into [0, 1] by _in_range, so no reported probability
    is negative; their clipped sum must lie within PROB_SUM_ATOL of 1.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _checked_probabilities(np.array(self.probs, dtype=float).reshape(8))
        probs = probs.reshape(2, 2, 2)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def prob(self, sa: int, sb: int, sc: int) -> float:
        """Probability of the outcome triple given as +-1 signs."""
        return float(self.probs[(1 - sa) // 2, (1 - sb) // 2, (1 - sc) // 2])

    def to_jsonable(self) -> dict:
        return dict(zip(OUTCOME_LABELS, self.probs.ravel().tolist()))


def _checked_probabilities(probs: np.ndarray) -> np.ndarray:
    """probs[..., outcome] clipped by _in_range; ValueError if a clipped row's sum is not 1."""
    probs = _in_range(probs, _PROBABILITY, "outcome probabilities")
    totals = probs.sum(axis=-1)
    off = np.abs(totals - 1.0) > PROB_SUM_ATOL
    if off.any():
        raise ValueError(f"outcome probabilities sum to {float(totals[off][0])}, expected 1")
    return probs


def _probabilities(state: PureState | DensityMatrix | StateTensor, phases) -> np.ndarray:
    """probs[index, outcome] for n wrapped phases per party, shape (3, n), unchecked.

    Rows run over the n**3 setting choices in row-major order and columns over
    OUTCOME_LABELS.  Each party's two (I, Z, -X) port rows (1, +-g)/2 per phase
    are contracted with the full coefficient tensor in one einsum.  Callers
    check the table once, with _checked_probabilities.
    """
    g = 0.5 * analyzer_weights(phases)  # party, setting, (Z, -X)
    n = g.shape[1]
    rows = np.empty((3, n, 2, 3))  # party, setting, port, (I, Z, -X)
    rows[..., 0] = 0.5
    rows[..., 0, 1:] = g
    rows[..., 1, 1:] = -g
    rows = rows.reshape(3, 2 * n, 3)
    born = np.einsum("iu,jv,kw,uvw->ijk", rows[0], rows[1], rows[2], pauli_coefficients(state))
    # (i, oa, j, ob, k, oc) -> (i, j, k, oa, ob, oc)
    return born.reshape((n, 2) * 3).transpose(0, 2, 4, 1, 3, 5).reshape(n**3, 8)


def _setting_phases(settings, copies: int) -> np.ndarray:
    """The three phases wrapped, each given `copies` times; ValueError unless there are three."""
    phis = tuple(float(p) for p in settings)
    if len(phis) != 3:
        raise ValueError(f"expected 3 analyzer settings, got {len(phis)}")
    return wrap_phase([[phi] * copies for phi in phis])


def outcome_distribution(
    state: PureState | DensityMatrix | StateTensor, settings
) -> OutcomeDistribution:
    """Joint +-1 outcome distribution for three analyzers at the given phases.

    Row 0 of _probabilities with one phase per party, checked once, by
    OutcomeDistribution.
    """
    return OutcomeDistribution(_probabilities(state, _setting_phases(settings, 1))[0])


def correlation(state: PureState | DensityMatrix | StateTensor, settings) -> float:
    """Expectation of the product of the three +-1 outcomes, tr(rho sa x sb x sc).

    The [0, 0, 0] entry of _correlations with each party's phase given twice,
    so it equals bitwise the entry of any correlation_tensor at these phases.
    """
    value = _correlations(state, _setting_phases(settings, 2))[0, 0, 0]
    return float(_in_range(value, _CORRELATION, "correlation"))


def correlation_from_distribution(dist: OutcomeDistribution) -> float:
    """Outcome-sign-weighted sum of the probabilities, equal to correlation()."""
    return float(np.vdot(OUTCOME_SIGNS, dist.probs))
