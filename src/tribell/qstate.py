"""Three-qubit polarization states in the H/V amplitude basis.

Basis convention: amplitudes are ordered |HHH>, |HHV>, ..., |VVV> for
parties a, b, c, i.e. binary indexing with H=0 and V=1 and party a as the
most significant bit.  All constructors validate their invariants, so any
instance in hand is a valid state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIM = 8

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-10


def ket_index(label: str) -> int:
    """Index of a basis ket given its 'HVH'-style label."""
    if len(label) != 3 or any(ch not in "HV" for ch in label):
        raise ValueError(f"basis label must be three H/V letters, got {label!r}")
    return int(label.replace("H", "0").replace("V", "1"), 2)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized 8-component amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(DIM)
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite, got NaN or inf")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:  # NaN, from an overflow, fails too
            raise ValueError(f"state is not normalized: |amplitudes|^2 = {norm_sq}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[ket_index(label)])

    def to_jsonable(self) -> list:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """8x8 density operator: Hermitian, unit trace, positive semidefinite."""

    entries: np.ndarray

    def __post_init__(self):
        rho = np.array(self.entries, dtype=complex).reshape(DIM, DIM)
        if not np.isfinite(rho).all():
            raise ValueError("density matrix entries must be finite, got NaN or inf")
        # Entries are finite here, so this accepts exactly what
        # np.allclose(rho, rho^dagger, rtol=0, atol=HERMITIAN_ATOL) accepts.
        # Entries near the float limit overflow both checks to inf, or the
        # trace to NaN where +inf meets -inf; either rejects the matrix, so
        # the overflow is silent.
        with np.errstate(over="ignore", invalid="ignore"):
            asymmetry = np.abs(rho - rho.conj().T).max()
            trace = complex(np.trace(rho))
        if asymmetry > HERMITIAN_ATOL:
            raise ValueError("density matrix is not Hermitian")
        if not abs(trace - 1.0) <= TRACE_ATOL:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < -EIGENVALUE_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {smallest}")
        rho.flags.writeable = False
        object.__setattr__(self, "entries", rho)

    def entry(self, row_label: str, col_label: str) -> complex:
        return complex(self.entries[ket_index(row_label), ket_index(col_label)])

    def to_jsonable(self) -> list:
        return [
            [[float(z.real), float(z.imag)] for z in row] for row in self.entries
        ]


def make_w() -> PureState:
    """The three-photon W state (|HHV> + |HVH> + |VHH>)/sqrt(3)."""
    amps = np.zeros(DIM, dtype=complex)
    for label in ("HHV", "HVH", "VHH"):
        amps[ket_index(label)] = 1.0 / math.sqrt(3.0)
    return PureState(amps)


def make_ghz(basis: str = "linear_hv") -> PureState:
    """GHZ state, either (|HHH>+|VVV>)/sqrt(2) or its circular-basis analogue.

    The circular-basis state (|RRR>+|LLL>)/sqrt(2) is expressed in H/V
    amplitudes using the convention |R> = (|H> - i|V>)/sqrt(2),
    |L> = (|H> + i|V>)/sqrt(2), which yields real amplitudes
    (|HHH> - |HVV> - |VHV> - |VVH>)/2.
    """
    key = basis.lower().replace("-", "_")
    amps = np.zeros(DIM, dtype=complex)
    if key == "linear_hv":
        amps[ket_index("HHH")] = amps[ket_index("VVV")] = 1.0 / math.sqrt(2.0)
    elif key == "circular_rl":
        amps[ket_index("HHH")] = 0.5
        for label in ("HVV", "VHV", "VVH"):
            amps[ket_index(label)] = -0.5
    else:
        raise ValueError(f"unknown GHZ basis {basis!r}; use linear_hv or circular_rl")
    return PureState(amps)


def mix_with_white_noise(rho: DensityMatrix, v: float) -> DensityMatrix:
    """Visibility mixture v*rho + (1-v)*identity/8."""
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    mixed = v * rho.entries + (1.0 - v) * np.eye(DIM, dtype=complex) / DIM
    return DensityMatrix(mixed)


def as_density(state: PureState | DensityMatrix) -> DensityMatrix:
    """Coerce a pure state to its density matrix; pass density matrices through."""
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, PureState):
        amps = state.amplitudes
        return DensityMatrix(np.outer(amps, amps.conj()))
    raise ValueError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def state_from_jsonable(data) -> PureState | DensityMatrix:
    """Rebuild a state from its JSON form (8 [re, im] pairs, or 8x8 of them)."""
    expected = "8 [re, im] amplitude pairs, or an 8x8 matrix of [re, im] pairs"
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"state JSON must hold {expected}: {exc}") from exc
    # A JSON true, false, null or numeric string converts to a float above;
    # only a JSON int or float is a number.
    for x in np.asarray(data, dtype=object).flat:
        if isinstance(x, (bool, np.bool_)):
            raise ValueError(f"state JSON must hold {expected}; got a boolean (true or false)")
        if not isinstance(x, (int, float, np.integer, np.floating)):
            got = "null" if x is None else repr(x)
            raise ValueError(
                f"state JSON must hold {expected} as JSON numbers, not strings or null; "
                f"got {got}"
            )
    if arr.shape == (DIM, 2):
        return PureState(arr[:, 0] + 1j * arr[:, 1])
    if arr.shape == (DIM, DIM, 2):
        return DensityMatrix(arr[..., 0] + 1j * arr[..., 1])
    raise ValueError(f"state JSON must hold {expected}; got shape {arr.shape}")
