"""Derivative-free maximization of |S_M| or |S_V| over the six analyzer phases.

The search is a coarse exhaustive grid on the party-symmetric subspace
(phi_a = phi_b = phi_c, phi'_a = phi'_b = phi'_c), followed by pattern-search
refinement in the full six-dimensional torus from the best grid points.
Everything is deterministic for a fixed config, including the reduction over
refinement runs: maximum value first, then lexicographic settings among
candidates within refine_tolerance of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import SIGN_TENSOR, Functional, SettingsPair
from .polarimetry import TWO_PI, pauli_coefficients, wrap_phase
from .qstate import DensityMatrix, PureState

#: Any single phase enters at most 8 unit-derivative correlation terms, so 8
#: bounds the objective's per-axis Lipschitz constant for both functionals.
_LIPSCHITZ_BOUND = 8.0

_TOP_SEEDS = 10

#: Largest grid per phase axis: a 0.5 degree step, whose symmetric grid already
#: costs 720^2 = 518400 objective evaluations before any refinement.
MAX_GRID_CELLS = 720


@dataclass(frozen=True)
class OptimizationConfig:
    grid_step: float = math.radians(15.0)
    refine_tolerance: float = 1e-8
    max_refine_iterations: int = 2000
    seed: int = 0
    random_restarts: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")
        cells = TWO_PI / self.grid_step
        if cells > MAX_GRID_CELLS + 0.5:
            raise ValueError(
                f"grid_step must give at most {MAX_GRID_CELLS} cells (0.5 degrees "
                f"or coarser), got {cells:.6g} cells"
            )
        if abs(cells - round(cells)) > 1e-12 * max(1.0, cells):
            raise ValueError(
                f"grid_step must divide 2*pi into an integer number of cells, "
                f"got {cells} cells"
            )
        if not (math.isfinite(self.refine_tolerance) and self.refine_tolerance > 0.0):
            raise ValueError(f"refine_tolerance must be positive, got {self.refine_tolerance}")
        if self.max_refine_iterations < 1:
            raise ValueError("max_refine_iterations must be at least 1")
        if self.random_restarts < 0:
            raise ValueError("random_restarts must be nonnegative")

    @property
    def grid_cells(self) -> int:
        return round(TWO_PI / self.grid_step)


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_settings: tuple
    trace: tuple
    restarts_used: int

    def to_jsonable(self) -> dict:
        return {
            "best_value": float(self.best_value),
            "settings_radians": [[p.phi, p.phi_prime] for p in self.best_settings],
            "settings_degrees": [
                [math.degrees(p.phi), math.degrees(p.phi_prime)]
                for p in self.best_settings
            ],
            "restarts_used": int(self.restarts_used),
            "trace": [[int(it), float(v)] for it, v in self.trace],
        }


def _setting_weights(phi: float, phi_prime: float) -> np.ndarray:
    """Per-setting (Z, X) weights of one party's two observables."""
    return np.array(
        [
            [math.cos(phi), -math.sin(phi)],
            [math.cos(phi_prime), -math.sin(phi_prime)],
        ]
    )


def _make_objective(state: PureState | DensityMatrix, functional: Functional):
    coeffs = pauli_coefficients(state)[1:, 1:, 1:]
    signs = SIGN_TENSOR[Functional(functional)]

    def objective(x) -> float:
        ga = _setting_weights(x[0], x[1])
        gb = _setting_weights(x[2], x[3])
        gc = _setting_weights(x[4], x[5])
        return abs(float(np.einsum("ijk,iu,jv,kw,uvw->", signs, ga, gb, gc, coeffs)))

    return objective


def _pattern_search(objective, x0, step0, step_floor, max_sweeps):
    """Greedy axis-move pattern search on the 6-torus.

    Each sweep evaluates +-step along every axis and takes the best improving
    move; when none improves, the step is halved.  Terminates once the step
    falls below step_floor or the sweep budget is exhausted.
    """
    x = tuple(x0)
    f = objective(x)
    step = step0
    sweeps = 0
    while step > step_floor and sweeps < max_sweeps:
        sweeps += 1
        best_x = None
        best_f = f
        for axis in range(6):
            for delta in (step, -step):
                y = list(x)
                y[axis] = (y[axis] + delta) % TWO_PI
                y = tuple(y)
                fy = objective(y)
                if fy > best_f:
                    best_f = fy
                    best_x = y
        if best_x is None:
            step *= 0.5
        else:
            x, f = best_x, best_f
    return x, f, sweeps


def optimize(
    state: PureState | DensityMatrix,
    functional: Functional,
    config: OptimizationConfig | None = None,
) -> OptimizationResult:
    """Maximize |functional| over the six analyzer phases.

    Returns the settings of the best refined candidate; candidates whose
    values agree within refine_tolerance count as ties and the
    lexicographically smallest settings tuple among them is reported.
    """
    if config is None:
        config = OptimizationConfig()
    objective = _make_objective(state, functional)

    n = config.grid_cells
    grid = [i * TWO_PI / n for i in range(n)]
    scored = []
    for phi in grid:
        for phi_prime in grid:
            x = (phi, phi_prime, phi, phi_prime, phi, phi_prime)
            scored.append((objective(x), x))
    scored.sort(key=lambda item: (-item[0], item[1]))
    seeds = [x for _, x in scored[:_TOP_SEEDS]]

    rng = np.random.default_rng(config.seed)
    for _ in range(config.random_restarts):
        seeds.append(tuple(float(v) for v in rng.uniform(0.0, TWO_PI, 6)))

    trace = [(0, scored[0][0])]
    step_floor = config.refine_tolerance / _LIPSCHITZ_BOUND
    total_sweeps = 0
    candidates = []
    best_so_far = scored[0][0]
    for x0 in seeds:
        x, f, sweeps = _pattern_search(
            objective, x0, config.grid_step, step_floor, config.max_refine_iterations
        )
        total_sweeps += sweeps
        candidates.append((f, x))
        if f > best_so_far:
            best_so_far = f
            trace.append((total_sweeps, f))

    max_value = max(f for f, _ in candidates)
    tied = [x for f, x in candidates if f >= max_value - config.refine_tolerance]
    best_x = min(tied)
    best_value = objective(best_x)

    pairs = tuple(
        SettingsPair(best_x[2 * p], best_x[2 * p + 1]) for p in range(3)
    )
    return OptimizationResult(
        best_value=float(best_value),
        best_settings=pairs,
        trace=tuple(trace),
        restarts_used=len(seeds),
    )


def _wrap_settings(settings) -> tuple:
    return tuple(
        SettingsPair(wrap_phase(p.phi), wrap_phase(p.phi_prime)) for p in settings
    )


def objective_symmetries(settings) -> list:
    """Equivalent settings under the transformations preserving both functionals.

    For states with real H/V amplitudes (W, both GHZ forms) the correlations
    are invariant under the global sign flip phi -> -phi of all six phases,
    and trivially under per-party 2*pi shifts; equivalents are returned as
    canonical representatives wrapped to [0, 2*pi).
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


def circular_distance(a: float, b: float) -> float:
    """Shortest angular distance between two phases, in radians."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


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
