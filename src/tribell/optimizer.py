"""Maximization of |S_M| or |S_V| over the six analyzer phases.

A coarse exhaustive grid on the party-symmetric subspace (phi_a = phi_b =
phi_c, phi'_a = phi'_b = phi'_c) seeds exact block-coordinate ascent on the
six-dimensional torus: S is linear in each party's weights g = (cos phi,
-sin phi), so one party's best phases, the other two fixed, are closed form.
Block sweeps alone converge only linearly where the parties' phases are
coupled, so each sweep after the first is followed by a saddle-free Newton
step over all six phases, whose exact gradient and Hessian the trilinear form
gives in closed form.  Everything is deterministic for a fixed config,
including the reduction over ascent runs: the first candidate in seed order
within refine_tolerance of the maximum value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import SIGN_TENSOR, Functional, SettingsPair
from .polarimetry import TWO_PI, pauli_coefficients, wrap_phase
from .qstate import DensityMatrix, PureState
from .shots import check_seed

_TOP_SEEDS = 10

#: Largest grid per phase axis: a 0.5 degree step, whose symmetric grid already
#: scores 720^2 = 518400 points before any refinement.
MAX_GRID_CELLS = 720

#: Caps on the seed list and on the ascent iterations per seed of any valid config.
MAX_RANDOM_RESTARTS = 10_000
MAX_REFINE_ITERATIONS = 100_000


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
        if round(cells) < 1:
            raise ValueError(
                f"grid_step must give 1 to {MAX_GRID_CELLS} cells (from 360 down to 0.5 "
                f"degrees), got {cells:.6g} cells"
            )
        if not (math.isfinite(self.refine_tolerance) and self.refine_tolerance > 0.0):
            raise ValueError(f"refine_tolerance must be positive, got {self.refine_tolerance}")
        if not 1 <= self.max_refine_iterations <= MAX_REFINE_ITERATIONS:
            raise ValueError(f"max_refine_iterations must lie in [1, {MAX_REFINE_ITERATIONS}]")
        if not 0 <= self.random_restarts <= MAX_RANDOM_RESTARTS:
            raise ValueError(f"random_restarts must lie in [0, {MAX_RANDOM_RESTARTS}]")
        check_seed(self.seed)

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


def _phase_weights(phases) -> np.ndarray:
    """(Z, X) weights (cos phi, -sin phi) of each phase, on a new last axis."""
    phases = np.asarray(phases, dtype=float)
    return np.stack((np.cos(phases), -np.sin(phases)), axis=-1)


def _trilinear_form(state: PureState | DensityMatrix, functional: Functional):
    """K[(i, u), (j, v), (k, w)] = c[i, j, k] T[u, v, w] as a 4x4x4 array.

    S is K contracted with the weights (g(phi), g(phi')) of parties a, b, c.
    """
    coeffs = pauli_coefficients(state)[1:, 1:, 1:]
    signs = SIGN_TENSOR[Functional(functional)]
    return np.einsum("ijk,uvw->iujvkw", signs, coeffs).reshape(4, 4, 4)


def _fields(blocks, g: np.ndarray, party: int) -> np.ndarray:
    """S = sum_k field[:, k] g[:, party, k]: the (m, 4) field on one party.

    blocks[p] is the 4x4x4 form with party p's index moved last and the other
    two parties' indices flattened in order, as a 16x4 matrix.
    """
    first, second = (q for q in range(3) if q != party)
    pairs = (g[:, first, :, None] * g[:, second, None, :]).reshape(-1, 16)
    return pairs @ blocks[party]


def _ascend(form: np.ndarray, x0, tolerance: float, max_sweeps: int):
    """Block-coordinate ascent of |S|, Newton-accelerated, from each row of x0 at once.

    With two parties fixed, S = sum_s g_s . v_s over the third party's settings
    s, so g_s = v_s / |v_s| maximizes it, to |v_0| + |v_1|; a zero field keeps
    its phase.  The sign of S is taken once per row, at its start.  A row
    sweeps parties a, b, c until no phase moves by more than `tolerance`
    radians in a sweep, or for at most `max_sweeps` sweeps, and then drops out
    of later sweeps, so its path does not depend on the other rows.  Block
    ascent alone converges only linearly where the parties' phases are coupled
    (W takes hundreds of sweeps), so after each sweep from the second on, a
    row that has not stopped also takes one saddle-free Newton step over all
    six phases (_newton_step).  An iteration is a sweep plus at most one
    Newton step.  Returns the (m, 6) phases, the m values |S| and the m
    iteration counts.
    """
    blocks = [np.moveaxis(form, p, -1).reshape(16, 4) for p in range(3)]
    # The rows still ascending: their indices, phases, weights and signs of S.
    xs = np.array(x0, dtype=float).reshape(-1, 6)
    gs = _phase_weights(xs).reshape(-1, 3, 4)
    rows = np.arange(len(xs))
    signs = np.where(_values(blocks, gs) >= 0.0, 1.0, -1.0)[:, None]
    x, g, sweeps = np.empty_like(xs), np.empty_like(gs), np.zeros(len(xs), dtype=int)
    sweep = 0
    while rows.size:
        sweep += 1
        start = xs.copy()
        for party in range(3):
            field = (signs * _fields(blocks, gs, party)).reshape(-1, 2, 2)
            phi = _wrap(np.arctan2(-field[..., 1], field[..., 0]))
            if not field.all():  # a zero field keeps its phase
                zero = ~field.any(axis=-1)
                phi[zero] = xs[:, 2 * party : 2 * party + 2][zero]
            xs[:, 2 * party : 2 * party + 2] = phi
            gs[:, party] = _phase_weights(phi).reshape(-1, 4)
        # Each phase moves once per sweep, so its move is its change over the sweep.
        moved = circular_distance(xs, start).max(axis=1)
        done = (moved <= tolerance) | (sweep == max_sweeps)
        if done.any():
            x[rows[done]], g[rows[done]], sweeps[rows[done]] = xs[done], gs[done], sweep
            rows, xs, gs, signs = rows[~done], xs[~done], gs[~done], signs[~done]
        if sweep >= 2 and rows.size:
            xs = _newton_step(blocks, xs, gs, signs)
            gs = _phase_weights(xs).reshape(-1, 3, 4)
    return x, np.abs(_values(blocks, g)), sweeps


#: Eigenvalues of the phase Hessian below this share of its largest one in
#: magnitude are flat directions, left out of the Newton step.
_FLAT_EIGENVALUE = 1e-9
#: Scales of the Newton step tried in turn, and the loss in sign * S, relative
#: to |S|, that a trial may show and still count as no lower (rounding).
_BACKTRACK_SCALES = np.array([1.0, 0.5, 0.25, 0.125])
_VALUE_SLACK = 1e-13


def _newton_step(blocks, x: np.ndarray, g: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """One saddle-free Newton step of f = sign * S at each row of the (m, 6) phases.

    S is trilinear in the three parties' 4-vectors of weights, so its Hessian
    over all twelve weights has a zero block per party and, between parties p
    and q, the form with the third party's weights contracted; the gradient
    is half that Hessian times the weights.  Since d(cos phi, -sin phi)/dphi
    = (-sin phi, -cos phi) and the second derivative is -g, the phase gradient
    is field . dg and the phase Hessian dg^T H dg with -field . g added on its
    diagonal.  The step V |L|^-1 V^T grad over the eigenpairs (L, V) that are
    not flat ascends f also near a saddle (Dauphin et al., 2014).  It is tried
    at each of _BACKTRACK_SCALES in turn, and the first trial no lower than f
    (within _VALUE_SLACK) is kept; a row with none keeps its phases.
    """
    m = len(x)
    hess = np.zeros((m, 3, 4, 3, 4))
    for party in range(3):
        first, second = (q for q in range(3) if q != party)
        pair = signs[:, :, None] * (g[:, party] @ blocks[party].T).reshape(-1, 4, 4)
        hess[:, first, :, second, :] = pair
        hess[:, second, :, first, :] = pair.transpose(0, 2, 1)
    hess = hess.reshape(m, 6, 2, 6, 2)
    w = g.reshape(m, 6, 2)
    field = np.einsum("mikjl,mjl->mik", hess, w) / 2.0
    dw = np.stack((w[..., 1], -w[..., 0]), axis=-1)
    grad = (field * dw).sum(axis=-1)
    h = np.einsum("mik,mikjl,mjl->mij", dw, hess, dw)
    h[:, np.arange(6), np.arange(6)] -= (field * w).sum(axis=-1)

    lam, vec = np.linalg.eigh(h)
    size = np.abs(lam)
    kept = size > _FLAT_EIGENVALUE * size.max(axis=1, keepdims=True)
    along = np.einsum("mji,mj->mi", vec, grad) / np.where(kept, size, np.inf)
    step = np.einsum("mij,mj->mi", vec, along)

    # Scored by _values like the trials, so both sides of the test round alike.
    value = signs[:, 0] * _values(blocks, g)
    trials = x[:, None, :] + _BACKTRACK_SCALES[None, :, None] * step[:, None, :]
    trial_g = _phase_weights(trials).reshape(-1, 3, 4)
    trial_values = signs * _values(blocks, trial_g).reshape(m, -1)
    ok = trial_values >= (value - _VALUE_SLACK * np.abs(value))[:, None]
    chosen = _wrap(trials[np.arange(m), ok.argmax(axis=1)])
    return np.where(ok.any(axis=1)[:, None], chosen, x)


def _wrap(phi: np.ndarray) -> np.ndarray:
    """Phases wrapped to [0, 2*pi), as wrap_phase does."""
    phi = phi % TWO_PI
    phi[phi >= TWO_PI] = 0.0
    return phi


def _values(blocks, g: np.ndarray) -> np.ndarray:
    """S at each row of the (m, 3, 4) party weights g."""
    return (_fields(blocks, g, 2) * g[:, 2]).sum(axis=1)


def optimize(
    state: PureState | DensityMatrix,
    functional: Functional,
    config: OptimizationConfig | None = None,
) -> OptimizationResult:
    """Maximize |functional| over the six analyzer phases.

    Candidates come in seed order: the best grid points, highest score first
    and smaller settings first among equal scores, then the random restarts
    in draw order.  All of them ascend together, as one batch.  The first
    candidate whose value lies within refine_tolerance of the maximum over all
    candidates is reported.  The trace gains a point, at the ascent iterations
    run so far in seed order, for each candidate that beats the best value
    before it by more than refine_tolerance, the margin within which values
    tie.
    """
    if config is None:
        config = OptimizationConfig()
    form = _trilinear_form(state, functional)

    n = config.grid_cells
    grid = np.arange(n) * TWO_PI / n
    g = _phase_weights(grid)
    # Weights (g(phi), g(phi')) of every symmetric grid point, row-major in
    # (phi, phi'), so the stable sort puts smaller settings first among ties.
    points = np.concatenate((np.repeat(g, n, axis=0), np.tile(g, (n, 1))), axis=1)
    scores = np.abs(np.einsum("abc,na,nb,nc->n", form, points, points, points, optimize=True))
    top = np.argsort(-scores, kind="stable")[:_TOP_SEEDS]
    seeds = np.tile(np.stack((grid[top // n], grid[top % n]), axis=1), (1, 3))
    if config.random_restarts:
        # Only now, since the first default_rng call imports numpy.random.
        rng = np.random.default_rng(config.seed)
        restarts = rng.uniform(0.0, TWO_PI, (config.random_restarts, 6))
        seeds = np.concatenate((seeds, restarts))

    x, values, iterations = _ascend(
        form, seeds, config.refine_tolerance, config.max_refine_iterations
    )

    best_so_far = float(scores[top[0]])
    trace = [(0, best_so_far)]
    for total, f in zip(np.cumsum(iterations).tolist(), values.tolist()):
        if f > best_so_far + config.refine_tolerance:
            best_so_far = f
            trace.append((total, f))

    best = int(np.flatnonzero(values >= values.max() - config.refine_tolerance)[0])
    best_x = x[best].tolist()
    pairs = tuple(
        SettingsPair(best_x[2 * p], best_x[2 * p + 1]) for p in range(3)
    )
    return OptimizationResult(
        best_value=float(values[best]),
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


def circular_distance(a, b):
    """Shortest angular distance between two phases, in radians.

    Takes floats or arrays of phases, elementwise with numpy broadcasting.
    """
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
