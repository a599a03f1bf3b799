"""Mermin and Svetlichny functionals over two-settings-per-party correlation tensors.

Tensor indices (i, j, k) pick the setting of parties a, b, c with
0 = unprimed and 1 = primed.  Violation is judged on |value|, since
relabeling +-1 outcomes flips the sign of every functional freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .polarimetry import _CORRELATION, StateTensor, _correlations, _in_range, wrap_phase
from .qstate import DensityMatrix, PureState


class Functional(str, Enum):
    MERMIN = "mermin"
    SVETLICHNY = "svetlichny"


class Classification(str, Enum):
    CONSISTENT_WITH_LOCAL = "consistent_with_local"
    RULES_OUT_LOCAL_ONLY = "rules_out_local_only"
    RULES_OUT_HYBRID = "rules_out_hybrid"


#: Hidden-variable bound the functional tests: 2 for fully local models under
#: Mermin, 4 for hybrid local-nonlocal models under Svetlichny.
BOUND = {Functional.MERMIN: 2.0, Functional.SVETLICHNY: 4.0}

#: Largest value attainable by any tensor with entries in [-1, 1].
ALGEBRAIC_MAX = {Functional.MERMIN: 4.0, Functional.SVETLICHNY: 8.0}


def _sign_tensor(rows) -> np.ndarray:
    signs = np.array(rows, dtype=float)
    signs.flags.writeable = False
    return signs


#: The eight setting choices (i, j, k) in row-major order, and their "ijk"
#: keys: the order of every serialized tensor and of the flattened tensors.
SETTING_CHOICES = tuple(itertools.product((0, 1), repeat=3))
SETTING_KEYS = tuple(f"{i}{j}{k}" for i, j, k in SETTING_CHOICES)


#: Sign tensor c[i, j, k] of each functional: its value is the sum of
#: c[i, j, k] * E[i, j, k].  Mermin takes the three one-primed entries minus
#: the all-primed one; Svetlichny takes every entry, + with at most one
#: primed setting and - otherwise.
SIGN_TENSOR = {
    Functional.MERMIN: _sign_tensor([[[0, 1], [1, 0]], [[1, 0], [0, -1]]]),
    Functional.SVETLICHNY: _sign_tensor([[[1, 1], [1, -1]], [[1, -1], [-1, -1]]]),
}


@dataclass(frozen=True)
class SettingsPair:
    """Unprimed/primed analyzer phase pair for one party (radians)."""

    phi: float
    phi_prime: float

    def __post_init__(self):
        for name in ("phi", "phi_prime"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def setting(self, index: int) -> float:
        return self.phi if index == 0 else self.phi_prime

    @property
    def is_degenerate(self) -> bool:
        return wrap_phase(self.phi) == wrap_phase(self.phi_prime)


def symmetric_pairs(phi: float, phi_prime: float) -> tuple[SettingsPair, ...]:
    """The same (phi, phi') pair for all three parties."""
    pair = SettingsPair(phi, phi_prime)
    return (pair, pair, pair)


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Eight correlation values E[i, j, k] by setting choice per party, in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(2, 2, 2)
        values = _in_range(values, _CORRELATION, "correlation entries")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __getitem__(self, index) -> float:
        return float(self.values[index])

    def swapped(self) -> "CorrelationTensor":
        """Tensor with primed and unprimed roles exchanged for every party."""
        return CorrelationTensor(self.values[::-1, ::-1, ::-1])

    def to_jsonable(self) -> dict:
        return dict(zip(SETTING_KEYS, self.values.ravel().tolist()))

    @classmethod
    def from_jsonable(cls, data: dict) -> "CorrelationTensor":
        return cls([float(data[key]) for key in SETTING_KEYS])

    def to_csv_rows(self) -> list[list]:
        values = self.values.ravel().tolist()
        return [["i", "j", "k", "E"], *([*ijk, e] for ijk, e in zip(SETTING_CHOICES, values))]


def pair_phases(pairs) -> np.ndarray:
    """Each party's (phi, phi') wrapped by wrap_phase, shape (3, 2).

    Raises ValueError unless pairs holds one SettingsPair per party.
    """
    pairs = tuple(pairs)
    if len(pairs) != 3:
        raise ValueError(f"expected one SettingsPair per party, got {len(pairs)}")
    return wrap_phase([[p.phi, p.phi_prime] for p in pairs])


def correlation_tensor(
    state: PureState | DensityMatrix | StateTensor, pairs
) -> CorrelationTensor:
    """Evaluate all eight correlations for a two-settings-per-party scenario.

    Each party's two (Z, -X) weights are contracted with the Z/-X block of the
    state's coefficient tensor (polarimetry._correlations), so the state is
    read once per tensor.
    """
    return CorrelationTensor(_correlations(state, pair_phases(pairs)))


def mermin_value(tensor: CorrelationTensor) -> float:
    """E[0,0,1] + E[0,1,0] + E[1,0,0] - E[1,1,1]."""
    return functional_value(tensor, Functional.MERMIN)


def mermin_partner_value(tensor: CorrelationTensor) -> float:
    """The complementary Mermin combination, -M applied to the prime-swapped tensor."""
    return -mermin_value(tensor.swapped())


def svetlichny_value(tensor: CorrelationTensor) -> float:
    """Sum of all eight correlations, signed + for at most one primed setting.

    Equals mermin_value + mermin_partner_value; the identity is exercised in
    the test suite.
    """
    return functional_value(tensor, Functional.SVETLICHNY)


def functional_value(tensor: CorrelationTensor, functional: Functional) -> float:
    """The functional's sign tensor contracted with the correlation tensor."""
    return float(np.vdot(SIGN_TENSOR[Functional(functional)], tensor.values))


@dataclass(frozen=True)
class InequalityReport:
    """Functional value with its bound and hidden-variable classification."""

    functional: Functional
    value: float
    bound: float
    algebraic_max: float
    violated: bool
    classification: Classification
    degenerate: bool = False

    def to_jsonable(self) -> dict:
        return {
            "functional": self.functional.value,
            "value": float(self.value),
            "bound": float(self.bound),
            "algebraic_max": float(self.algebraic_max),
            "abs_value": abs(float(self.value)),
            "violated": bool(self.violated),
            "classification": self.classification.value,
            "degenerate": bool(self.degenerate),
        }


def classify(
    value: float, functional: Functional, degenerate: bool = False
) -> InequalityReport:
    """Judge a functional value against its hidden-variable bound.

    A Mermin violation only rules out fully local models: hybrid models with
    one nonlocally correlated pair reach the Mermin algebraic maximum 4, so
    Mermin never certifies genuine tripartite nonlocality.  Only a Svetlichny
    value beyond 4 rules out every hybrid model.
    """
    functional = Functional(functional)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"functional value must be finite, got {value}")
    bound = BOUND[functional]
    violated = abs(value) > bound
    if not violated:
        classification = Classification.CONSISTENT_WITH_LOCAL
    elif functional is Functional.MERMIN:
        classification = Classification.RULES_OUT_LOCAL_ONLY
    else:
        classification = Classification.RULES_OUT_HYBRID
    return InequalityReport(
        functional=functional,
        value=value,
        bound=bound,
        algebraic_max=ALGEBRAIC_MAX[functional],
        violated=violated,
        classification=classification,
        degenerate=bool(degenerate),
    )
