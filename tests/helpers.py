"""Shared random-instance builders, reference density matrices, the Kronecker
analyzer reference, the all-scales Newton step reference and
settings-equivalence helpers for the tests.

The analyzer kets, projectors and observables below are built from the
circular basis as 2x2 matrices, independently of the (Z, -X) weights the
package computes with, so that tests can check the weights against them.
"""

import cmath
import math

import numpy as np

from tribell import DensityMatrix, Functional, PureState, SettingsPair
from tribell.inequalities import SIGN_TENSOR
from tribell.optimizer import _BACKTRACK_SCALES, _FLAT_EIGENVALUE, _VALUE_SLACK, circular_distance
from tribell.polarimetry import TWO_PI, analyzer_weights, pauli_coefficients, wrap_phase

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


def pure_to_density(state: PureState) -> DensityMatrix:
    """Rank-1 projector |s><s| of a pure state, validated as a DensityMatrix."""
    amps = state.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def maximally_mixed() -> DensityMatrix:
    """The white-noise state, identity/8."""
    return DensityMatrix(np.eye(8, dtype=complex) / 8)


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


def reference_newton_step(state, functional, x, signs):
    """The saddle-free Newton step of f = sign * S, every backtracking scale tried.

    The optimizer's step written without its shortcuts: the form is built by
    einsum in the weights g = (cos phi, sin phi) of analyzer_weights, each
    party's block by np.moveaxis, and the Hessian block by block.  Every row
    scores all of _BACKTRACK_SCALES and keeps the first trial no lower than f
    (within _VALUE_SLACK).  Returns the new (m, 6) phases and, per row, the
    index of the scale kept, len(_BACKTRACK_SCALES) where none was.
    """
    coeffs = pauli_coefficients(state)[1:, 1:, 1:]
    form = np.einsum(
        "ijk,uvw->iujvkw", SIGN_TENSOR[Functional(functional)], coeffs
    ).reshape(4, 4, 4)
    blocks = [np.moveaxis(form, p, -1).reshape(16, 4) for p in range(3)]

    def values(g):
        pairs = (g[:, 0, :, None] * g[:, 1, None, :]).reshape(-1, 16)
        return ((pairs @ blocks[2]) * g[:, 2]).sum(axis=1)

    m = len(x)
    g = analyzer_weights(x).reshape(-1, 3, 4)
    hess = np.zeros((m, 3, 4, 3, 4))
    for party in range(3):
        first, second = (q for q in range(3) if q != party)
        pair = signs[:, :, None] * (g[:, party] @ blocks[party].T).reshape(-1, 4, 4)
        hess[:, first, :, second, :] = pair
        hess[:, second, :, first, :] = pair.transpose(0, 2, 1)
    hess = hess.reshape(m, 6, 2, 6, 2)
    w = g.reshape(m, 6, 2)
    field = np.einsum("mikjl,mjl->mik", hess, w) / 2.0
    dw = np.stack((-w[..., 1], w[..., 0]), axis=-1)
    grad = (field * dw).sum(axis=-1)
    h = np.einsum("mik,mikjl,mjl->mij", dw, hess, dw)
    h[:, np.arange(6), np.arange(6)] -= (field * w).sum(axis=-1)

    lam, vec = np.linalg.eigh(h)
    size = np.abs(lam)
    kept = size > _FLAT_EIGENVALUE * size.max(axis=1, keepdims=True)
    along = np.einsum("mji,mj->mi", vec, grad) / np.where(kept, size, np.inf)
    step = np.einsum("mij,mj->mi", vec, along)

    value = signs[:, 0] * values(g)
    trials = x[:, None, :] + _BACKTRACK_SCALES[None, :, None] * step[:, None, :]
    trial_values = signs * values(analyzer_weights(trials).reshape(-1, 3, 4)).reshape(m, -1)
    ok = trial_values >= (value - _VALUE_SLACK * np.abs(value))[:, None]
    chosen = trials[np.arange(m), ok.argmax(axis=1)] % TWO_PI
    chosen[chosen >= TWO_PI] = 0.0
    found = ok.any(axis=1)
    return np.where(found[:, None], chosen, x), np.where(found, ok.argmax(axis=1), ok.shape[1])
