"""Deterministic hidden-variable strategies and exact model bounds.

Two model classes are enumerated: fully local strategies (each party answers
its own setting; 4^3 = 64 strategies) and hybrid strategies (one pair answers
its joint settings with arbitrary correlation, the remaining party answers
locally; 256 * 4 = 1024 per bipartition, 3072 over the three bipartitions).
Maxima of linear functionals over convex mixtures of strategies are attained
at these deterministic vertices.  lhv_max finds the best vertex in closed
form: once every answer but one party's (local) or one pair's (hybrid) is
fixed, the free answers can take each sign on their own, as in Svetlichny's
bound (PRD 35, 3066, 1987), so only 16 local and 12 hybrid cases are scored.
The enumeration and strategy_tensor are its independent reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inequalities import SETTING_CHOICES, SIGN_TENSOR, CorrelationTensor, Functional

PARTY_NAMES = ("a", "b", "c")


class ModelClass(str, Enum):
    LOCAL = "local"
    HYBRID = "hybrid"


class Partition(str, Enum):
    """Which pair of parties shares the nonlocal resource."""

    AB_C = "AB|C"
    AC_B = "AC|B"
    BC_A = "BC|A"


#: (pair member indices, solo party index) for each partition.
_PARTITION_ROLES = {
    Partition.AB_C: ((0, 1), 2),
    Partition.AC_B: ((0, 2), 1),
    Partition.BC_A: ((1, 2), 0),
}


@dataclass(frozen=True)
class LocalStrategy:
    """Deterministic local responses: outputs[party][setting] in {+1, -1}."""

    outputs: tuple

    def outcomes(self, i: int, j: int, k: int) -> tuple[int, int, int]:
        return (self.outputs[0][i], self.outputs[1][j], self.outputs[2][k])

    def to_jsonable(self) -> dict:
        return {
            "model": ModelClass.LOCAL.value,
            "outputs": {
                name: {"unprimed": out[0], "primed": out[1]}
                for name, out in zip(PARTY_NAMES, self.outputs)
            },
        }


@dataclass(frozen=True)
class HybridStrategy:
    """One nonlocally correlated pair plus a local third party.

    pair_outputs[2*s1 + s2] is the (first member, second member) outcome pair
    for the pair's joint setting choice (s1, s2), members in party order;
    solo_outputs[setting] is the remaining party's outcome.
    """

    partition: Partition
    pair_outputs: tuple
    solo_outputs: tuple

    def outcomes(self, i: int, j: int, k: int) -> tuple[int, int, int]:
        choice = (i, j, k)
        (first, second), solo = _PARTITION_ROLES[self.partition]
        pair_out = self.pair_outputs[2 * choice[first] + choice[second]]
        result = [0, 0, 0]
        result[first], result[second] = pair_out
        result[solo] = self.solo_outputs[choice[solo]]
        return tuple(result)

    def to_jsonable(self) -> dict:
        return {
            "model": ModelClass.HYBRID.value,
            "partition": self.partition.value,
            "pair_outputs": {
                f"{t >> 1}{t & 1}": list(self.pair_outputs[t]) for t in range(4)
            },
            "solo_outputs": {
                "unprimed": self.solo_outputs[0],
                "primed": self.solo_outputs[1],
            },
        }


def _bit_to_outcome(bit: int) -> int:
    return -1 if bit else 1


# The four deterministic single-party response maps, indexed so that bit s of
# the map index gives the outcome for setting s.
_PARTY_MAPS = tuple(
    tuple(_bit_to_outcome((p >> s) & 1) for s in (0, 1)) for p in range(4)
)


#: Hybrid strategies per partition: 256 pair tables times 4 solo maps.
_PER_PARTITION = 1024


def _local_strategy(index: int) -> LocalStrategy:
    """Local strategy number `index`: its base-4 digits pick the party maps, a first."""
    return LocalStrategy(
        (_PARTY_MAPS[index >> 4], _PARTY_MAPS[(index >> 2) & 3], _PARTY_MAPS[index & 3])
    )


def _hybrid_strategy(partition: Partition, index: int) -> HybridStrategy:
    """Hybrid strategy `index` of one partition: pair table index >> 2, solo map index & 3."""
    table = index >> 2
    pair_outputs = tuple(
        (_bit_to_outcome((table >> (2 * t)) & 1), _bit_to_outcome((table >> (2 * t + 1)) & 1))
        for t in range(4)
    )
    return HybridStrategy(partition, pair_outputs, _PARTY_MAPS[index & 3])


def enumerate_local() -> list[LocalStrategy]:
    """All 64 deterministic fully local strategies, in a fixed order."""
    return [_local_strategy(index) for index in range(64)]


def enumerate_hybrid(partition: Partition | None = None) -> list[HybridStrategy]:
    """All 1024 hybrid strategies of one partition, or all 3072 of the three."""
    partitions = [Partition(partition)] if partition is not None else list(Partition)
    return [
        _hybrid_strategy(part, index)
        for part in partitions
        for index in range(_PER_PARTITION)
    ]


def strategy_tensor(strategy: LocalStrategy | HybridStrategy) -> CorrelationTensor:
    """Correlation tensor of a deterministic strategy; every entry is +-1."""
    return CorrelationTensor(
        [math.prod(strategy.outcomes(*ijk)) for ijk in SETTING_CHOICES]
    )


@dataclass(frozen=True)
class LhvMaxResult:
    """Exact model bound with a witness strategy attaining it."""

    functional: Functional
    model: ModelClass
    max_value: float
    witness: LocalStrategy | HybridStrategy

    def to_jsonable(self) -> dict:
        return {
            "functional": self.functional.value,
            "model": self.model.value,
            "max_value": float(self.max_value),
            "witness": self.witness.to_jsonable(),
        }


def lhv_max(functional: Functional, model: ModelClass) -> LhvMaxResult:
    """Exact maximum of |functional| over the model class, with a witness.

    Both enumerations are closed under flipping one party's outcomes, which
    negates every tensor entry, so the signed maximum equals the maximum of
    the absolute value and the witness always attains max_value exactly.
    The maximum is computed in closed form (_maximize), and the witness is
    the first maximal strategy in enumeration order, the only one built.
    The frozen result is computed once per (functional, model) pair and kept
    for the life of the process.
    """
    return _lhv_max(Functional(functional), ModelClass(model))


@functools.cache
def _lhv_max(functional: Functional, model: ModelClass) -> LhvMaxResult:
    return LhvMaxResult(functional, model, *_maximize(SIGN_TENSOR[functional], model))


def _maximize(signs: np.ndarray, model: ModelClass) -> tuple[float, LocalStrategy | HybridStrategy]:
    """The largest sum of signs * strategy_tensor(s) over the model's strategies s,
    and the first s in enumeration order that attains it.

    Fix every answer but the free ones: party c's for each map pair (a, b)
    (local), or the pair's for each partition and solo map o (hybrid).  The
    sum is then sum_t w_t x_t over the free answers x_t = +-1 to their
    settings t, largest at sum_t |w_t|, where x_t = -1 exactly if w_t < 0.
    That choice has the lowest strategy index among the case's maximizers,
    16a + 4b + c's map, or 1024 * partition + 4 * pair table + o, so the
    lowest such index over the maximal cases is the first maximizer.
    """
    signs = np.asarray(signs, dtype=float).reshape(2, 2, 2)
    cases = []  # (value, strategy index)
    if model is ModelClass.LOCAL:
        by_a = signs.reshape(2, 4).tolist()  # [a's setting][2j + k]
        for a, (x0, x1) in enumerate(_PARTY_MAPS):
            u = [x0 * s0 + x1 * s1 for s0, s1 in zip(*by_a)]  # a's answers summed out
            for b, (y0, y1) in enumerate(_PARTY_MAPS):
                w0, w1 = y0 * u[0] + y1 * u[2], y0 * u[1] + y1 * u[3]
                cases.append((abs(w0) + abs(w1), 16 * a + 4 * b + (w0 < 0) + 2 * (w1 < 0)))
    else:
        for p, part in enumerate(Partition):
            (first, second), solo = _PARTITION_ROLES[part]
            rows = signs.transpose(first, second, solo).reshape(4, 2).tolist()  # [t][solo's setting]
            for o, (x0, x1) in enumerate(_PARTY_MAPS):
                w = [x0 * s0 + x1 * s1 for s0, s1 in rows]
                table = sum(4**t for t, w_t in enumerate(w) if w_t < 0)
                cases.append((sum(map(abs, w)), _PER_PARTITION * p + 4 * table + o))
    best_value = max(value for value, _ in cases)
    best = min(index for value, index in cases if value == best_value)
    if model is ModelClass.LOCAL:
        return best_value, _local_strategy(best)
    partition, index = divmod(best, _PER_PARTITION)
    return best_value, _hybrid_strategy(list(Partition)[partition], index)


def mixture_tensor(weights) -> CorrelationTensor:
    """Convex combination of strategy tensors from (probability, strategy) pairs."""
    weights = list(weights)
    if not weights:
        raise ValueError("mixture requires at least one (probability, strategy) pair")
    probs = np.array([float(p) for p, _ in weights])
    bad = probs[~(probs >= 0.0)]  # NaN fails the comparison too
    if bad.size:
        raise ValueError(f"mixture probabilities must be nonnegative, got {bad[0]}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture probabilities sum to {total}, expected 1")
    values = np.zeros((2, 2, 2))
    for p, strategy in weights:
        values += float(p) * strategy_tensor(strategy).values
    return CorrelationTensor(values)
