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
    functional_value,
    pair_phases,
)
from .polarimetry import (
    OUTCOME_LABELS,
    OUTCOME_SIGNS,
    StateTensor,
    _checked_probabilities,
    _probabilities,
)
from .qstate import DensityMatrix, PureState

# Counts are int64 (CountTable), so one setting holds at most 2**63 - 1 shots.
MAX_SHOTS_PER_SETTING = 2**63 - 1

#: Largest seed: a seed keys each setting's Philox stream as one uint64 word.
#: The optimizer's random restarts take their seeds from the same domain.
MAX_SEED = 2**64 - 1


def check_integer(value, name: str, low: int, high: int, high_text: str = "") -> int:
    """value as an int; ValueError, naming it `name`, unless it is an integer in [low, high].

    Python and numpy integers pass; a bool or a float such as 1.0 does not.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= index <= high:
        raise ValueError(f"{name} must lie in [{low}, {high_text or high}], got {index}")
    return index


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a seed that is not an integer in [0, 2**64 - 1]; the error calls it `name`."""
    check_integer(seed, name, 0, MAX_SEED, "2**64 - 1")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome counts per setting choice: counts[i, j, k, outcome_index].

    outcome_index runs over the outcome triples in OUTCOME_LABELS order.
    A signed integer array, as sample_counts draws, is taken as it is; any
    other input must hold whole numbers in [0, 2**63 - 1], floats included.
    """

    counts: np.ndarray
    n_shots_per_setting: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind != "i":
            counts = [_whole_count(count) for count in counts.ravel().tolist()]
        counts = np.array(counts, dtype=np.int64).reshape(2, 2, 2, 8)
        if counts.min() < 0:
            raise ValueError("outcome counts must be nonnegative")
        n = check_integer(self.n_shots_per_setting, "n_shots_per_setting", 1,
                          MAX_SHOTS_PER_SETTING, "2**63 - 1")
        sums = counts.sum(axis=-1)
        if counts.max() > MAX_SHOTS_PER_SETTING // 8:  # eight could overflow an int64 sum
            sums = counts.astype(object).sum(axis=-1)
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


def _whole_count(count) -> int:
    """count as an int; ValueError, naming it, unless it is a whole number in [0, 2**63 - 1]."""
    if isinstance(count, float) and count.is_integer():
        count = int(count)
    return check_integer(count, "outcome count", 0, MAX_SHOTS_PER_SETTING, "2**63 - 1")


def _setting_stream(seed: int, choice_index: int) -> np.random.Generator:
    key = np.array([seed, choice_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_counts(
    state: PureState | DensityMatrix | StateTensor, pairs, n_shots: int, seed: int
) -> CountTable:
    """Draw n_shots outcome triples per setting choice from the Born rule."""
    n_shots = check_integer(n_shots, "n_shots", 1, MAX_SHOTS_PER_SETTING, "2**63 - 1")
    check_seed(seed)
    # probs[index, outcome]: rows follow SETTING_CHOICES, columns OUTCOME_LABELS.
    table = _checked_probabilities(_probabilities(state, pair_phases(pairs)))
    counts = np.zeros((8, 8), dtype=np.int64)
    # One generator serves every setting: re-keying it to (seed, index) with a
    # fresh counter and buffer puts it in the state _setting_stream(seed, index)
    # starts in, for a fraction of the cost of building that stream.
    rng = _setting_stream(seed, 0)
    start = rng.bit_generator.state
    for index, probs in enumerate(table):
        start["state"]["key"][1] = index
        rng.bit_generator.state = start
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
        # JSON has no Infinity: a z-score with zero standard error is written as null.
        out["z_score"] = float(self.z_score) if math.isfinite(self.z_score) else None
        return out


def _z_score(value: float, bound: float, std_error: float) -> float:
    excess = abs(value) - bound
    if std_error > 0.0:
        return excess / std_error
    if excess == 0.0:
        return 0.0
    return math.copysign(math.inf, excess)


def estimate_inequality(
    estimated: tuple[CorrelationTensor, np.ndarray],
    functional: Functional,
    degenerate: bool = False,
) -> EstimatedReport:
    """Point estimate, quadrature-combined error, and significance.

    estimated is estimate_tensor's (tensor, entry_errors), so one table's
    estimates serve every functional.  The error is sqrt(sum c^2 sigma^2)
    over the functional's sign tensor c and the per-entry errors sigma.
    """
    functional = Functional(functional)
    tensor, entry_errors = estimated
    signs = SIGN_TENSOR[functional]
    # Summed term by term in index order, so the reported error does not
    # depend on the grouping of a vectorized reduction.
    std_error = math.sqrt(
        sum(float(c) ** 2 * float(s) ** 2 for c, s in zip(signs.flat, entry_errors.flat))
    )
    base = classify(functional_value(tensor, functional), functional, degenerate)
    return EstimatedReport(
        **vars(base), std_error=std_error, z_score=_z_score(base.value, base.bound, std_error)
    )


def critical_visibility(tensor: CorrelationTensor, functional: Functional) -> float:
    """Smallest visibility at which |functional| crosses its bound, in closed form.

    tensor is the state's correlation tensor at full visibility.  White noise
    contributes nothing to any correlation (the observables are traceless), so
    the functional of v*rho + (1-v)*identity/8 is v times its value S at v = 1,
    and the crossing is v* = bound / |S|.
    """
    functional = Functional(functional)
    value = abs(functional_value(tensor, functional))
    if value <= BOUND[functional]:
        raise ValueError(
            "no violation at full visibility; critical visibility undefined"
        )
    return BOUND[functional] / value
