"""Finite-statistics simulation of the three-party correlation experiment.

Shots are allocated equally across the eight setting choices.  Each setting
choice draws its eight outcome counts as one multinomial from its own
counter-based Philox stream keyed by (seed, setting-choice index), so sampling
is reproducible regardless of the order in which setting blocks are evaluated,
and takes O(1) time and memory in the shot count.  Standard errors of the
functionals combine the per-setting binomial errors in quadrature, treating
setting blocks as independent.  The critical visibility of a violation is
computed in closed form, since every functional is linear in the visibility.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .inequalities import (
    BOUND,
    SETTING_CHOICES,
    SETTING_KEYS,
    SIGN_TENSOR,
    CorrelationTensor,
    Functional,
    InequalityReport,
    classify,
    correlation_tensor,
    functional_value,
)
from .polarimetry import OUTCOME_LABELS, OUTCOME_SIGNS, outcome_distribution
from .qstate import DensityMatrix, PureState

# Counts are int64 (CountTable), so one setting holds at most 2**63 - 1 shots.
MAX_SHOTS_PER_SETTING = 2**63 - 1

#: Largest seed: a seed keys each setting's Philox stream as one uint64 word.
#: The optimizer's random restarts take their seeds from the same domain.
MAX_SEED = 2**64 - 1


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a seed that is not an integer in [0, 2**64 - 1]; the error calls it `name`.

    Python and numpy integers pass.  A float such as 1.5 or 1.0 does not.
    """
    try:
        operator.index(seed)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {seed!r}") from None
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"{name} must lie in [0, 2**64 - 1], got {seed}")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome counts per setting choice: counts[i, j, k, outcome_index].

    outcome_index runs over the outcome triples in OUTCOME_LABELS order.
    """

    counts: np.ndarray
    n_shots_per_setting: int

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64).reshape(2, 2, 2, 8)
        if counts.min() < 0:
            raise ValueError("outcome counts must be nonnegative")
        n = int(self.n_shots_per_setting)
        if n < 1:
            raise ValueError(f"n_shots_per_setting must be at least 1, got {n}")
        sums = counts.sum(axis=-1)
        if not (sums == n).all():
            raise ValueError("each setting choice must hold exactly n_shots counts")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_shots_per_setting", n)

    def to_jsonable(self) -> dict:
        table = {
            key: dict(zip(OUTCOME_LABELS, row))
            for key, row in zip(SETTING_KEYS, self.counts.reshape(8, 8).tolist())
        }
        return {"n_shots_per_setting": self.n_shots_per_setting, "counts": table}

    def to_csv_rows(self) -> list[list]:
        return [
            ["i", "j", "k", "outcome", "count"],
            *(
                [*ijk, label, count]
                for ijk, row in zip(SETTING_CHOICES, self.counts.reshape(8, 8).tolist())
                for label, count in zip(OUTCOME_LABELS, row)
            ),
        ]


def _setting_stream(seed: int, choice_index: int) -> np.random.Generator:
    key = np.array([seed, choice_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_counts(
    state: PureState | DensityMatrix, pairs, n_shots: int, seed: int
) -> CountTable:
    """Draw n_shots outcome triples per setting choice from the Born rule."""
    n_shots = int(n_shots)
    if not 1 <= n_shots <= MAX_SHOTS_PER_SETTING:
        raise ValueError(f"n_shots must lie in [1, 2**63 - 1], got {n_shots}")
    check_seed(seed)
    pairs = tuple(pairs)
    counts = np.zeros((8, 8), dtype=np.int64)
    for index, (i, j, k) in enumerate(SETTING_CHOICES):
        phis = (pairs[0].setting(i), pairs[1].setting(j), pairs[2].setting(k))
        probs = np.clip(outcome_distribution(state, phis).probs.reshape(8), 0.0, None)
        rng = _setting_stream(seed, index)
        counts[index] = rng.multinomial(n_shots, probs / probs.sum())
    return CountTable(counts, n_shots)


def estimate_tensor(table: CountTable) -> tuple[CorrelationTensor, np.ndarray]:
    """Per-entry correlation estimates and their binomial standard errors."""
    n = table.n_shots_per_setting
    estimates = (table.counts * OUTCOME_SIGNS.reshape(1, 1, 1, 8)).sum(axis=-1) / n
    std_errors = np.sqrt(np.maximum(0.0, 1.0 - estimates**2) / n)
    return CorrelationTensor(estimates), std_errors


@dataclass(frozen=True)
class EstimatedReport(InequalityReport):
    """Inequality report with finite-statistics error and significance."""

    std_error: float = 0.0
    z_score: float = 0.0

    def to_jsonable(self) -> dict:
        out = super().to_jsonable()
        out["std_error"] = float(self.std_error)
        out["z_score"] = float(self.z_score)
        return out


def _z_score(value: float, bound: float, std_error: float) -> float:
    excess = abs(value) - bound
    if std_error > 0.0:
        return excess / std_error
    if excess == 0.0:
        return 0.0
    return math.copysign(math.inf, excess)


def report_from_tensor(
    tensor: CorrelationTensor,
    functional: Functional,
    std_error: float = 0.0,
    degenerate: bool = False,
) -> EstimatedReport:
    """Build a statistical report from a tensor; std_error 0 is the exact path."""
    functional = Functional(functional)
    value = functional_value(tensor, functional)
    base = classify(value, functional, degenerate=degenerate)
    return EstimatedReport(
        **vars(base),
        std_error=float(std_error),
        z_score=_z_score(base.value, base.bound, float(std_error)),
    )


def estimate_inequality(table: CountTable, functional: Functional) -> EstimatedReport:
    """Point estimate, quadrature-combined error, and significance from counts.

    The error is sqrt(sum c^2 sigma^2) over the functional's sign tensor c and
    the per-entry errors sigma.
    """
    functional = Functional(functional)
    tensor, entry_errors = estimate_tensor(table)
    signs = SIGN_TENSOR[functional]
    # Summed term by term in index order, so the reported error does not
    # depend on the grouping of a vectorized reduction.
    std_error = math.sqrt(
        sum(float(c) ** 2 * float(s) ** 2 for c, s in zip(signs.flat, entry_errors.flat))
    )
    return report_from_tensor(tensor, functional, std_error=std_error)


def critical_visibility(
    state: PureState | DensityMatrix,
    pairs,
    functional: Functional,
) -> float:
    """Smallest visibility at which |functional| crosses its bound, in closed form.

    White noise contributes nothing to any correlation (the observables are
    traceless), so the functional of v*rho + (1-v)*identity/8 is v times its
    value S at v = 1, and the crossing is v* = bound / |S|.
    """
    functional = Functional(functional)
    value = abs(functional_value(correlation_tensor(state, pairs), functional))
    if value <= BOUND[functional]:
        raise ValueError(
            "no violation at full visibility; critical visibility undefined"
        )
    return BOUND[functional] / value
