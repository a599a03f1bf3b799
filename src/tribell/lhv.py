"""Deterministic hidden-variable strategies and exact model bounds.

Two model classes are enumerated exhaustively: fully local strategies
(each party answers its own setting; 4^3 = 64 strategies) and hybrid
strategies (one pair answers its joint settings with arbitrary correlation,
the remaining party answers locally; 256 * 4 = 1024 per bipartition, 3072
over the three bipartitions).  Maxima of linear functionals over convex
mixtures of strategies are attained at these deterministic vertices, so the
enumeration gives exact model bounds.  Each model class is scored as one
product of its +-1 strategy matrix with the functional's sign tensor.
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


def _strategy_at(model: ModelClass, row: int) -> LocalStrategy | HybridStrategy:
    """The strategy behind one row of strategy_matrix(model)."""
    if model is ModelClass.LOCAL:
        return _local_strategy(row)
    partition, index = divmod(row, _PER_PARTITION)
    return _hybrid_strategy(list(Partition)[partition], index)


@functools.cache
def strategy_matrix(model: ModelClass) -> np.ndarray:
    """Every strategy tensor of a model class as one read-only +-1 matrix.

    Row r is strategy_tensor(s).values flattened (columns in SETTING_CHOICES
    order) for the r-th strategy s of enumerate_local() or enumerate_hybrid():
    64 x 8 or 3072 x 8.  Built on first use and kept for the life of the process.
    """
    model = ModelClass(model)
    outcomes = np.array(_PARTY_MAPS, dtype=float)  # [map, setting]
    if model is ModelClass.LOCAL:
        matrix = np.einsum("ai,bj,ck->abcijk", outcomes, outcomes, outcomes).reshape(64, 8)
    else:
        # Bits 2t and 2t + 1 of a pair table are its two members' outcomes for
        # the joint setting t; a strategy tensor only sees their product.
        pair_outcomes = 1 - 2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1)
        pair_products = pair_outcomes[:, 0::2] * pair_outcomes[:, 1::2]
        choices = np.array(SETTING_CHOICES)
        blocks = []
        for partition in Partition:
            (first, second), solo = _PARTITION_ROLES[partition]
            joint = 2 * choices[:, first] + choices[:, second]
            block = pair_products[:, None, joint] * outcomes[None, :, choices[:, solo]]
            blocks.append(block.reshape(_PER_PARTITION, 8))
        matrix = np.concatenate(blocks)
    matrix.flags.writeable = False
    return matrix


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
    Ties keep the first strategy in enumeration order (np.argmax returns the
    first maximal row), and only the winning strategy is built.
    """
    functional = Functional(functional)
    model = ModelClass(model)
    scores = strategy_matrix(model) @ SIGN_TENSOR[functional].reshape(8)
    best = int(np.argmax(scores))
    return LhvMaxResult(functional, model, float(scores[best]), _strategy_at(model, best))


def mixture_tensor(weights) -> CorrelationTensor:
    """Convex combination of strategy tensors from (probability, strategy) pairs."""
    weights = list(weights)
    if not weights:
        raise ValueError("mixture requires at least one (probability, strategy) pair")
    probs = np.array([float(p) for p, _ in weights])
    if probs.min() < 0.0:
        raise ValueError(f"mixture probabilities must be nonnegative, got {probs.min()}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture probabilities sum to {total}, expected 1")
    values = np.zeros((2, 2, 2))
    for p, strategy in weights:
        values += float(p) * strategy_tensor(strategy).values
    return CorrelationTensor(values)
