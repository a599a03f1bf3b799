"""Maximization of |S_M| or |S_V| over the six analyzer phases.

Eight fixed party-symmetric seeds (_SEEDS), then any random restarts, start
exact block-coordinate ascent on the six-dimensional torus: S is linear in
each party's weights g = (cos phi, sin phi) on (Z, -X) (analyzer_weights), so
one party's best phases, the other two fixed, are closed form.
Block sweeps alone converge only linearly where the parties' phases are
coupled, so each sweep after the first is followed by a saddle-free Newton
step over all six phases, whose exact gradient and Hessian the trilinear form
gives in closed form.  Everything is deterministic for a fixed config,
including the reduction over ascent runs: the first candidate in seed order
within _TOLERANCE of the maximum value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import SIGN_TENSOR, Functional, SettingsPair
from .polarimetry import TWO_PI, StateTensor, analyzer_weights, pauli_coefficients, wrap_phase
from .qstate import DensityMatrix, PureState
from .shots import check_integer, check_seed

#: The symmetric seeds (phi, phi'), phi in {45, 135} and phi' in {45, 135, 225,
#: 315} degrees, as (m, 6) phases: the 90 degree lattice at a 45 degree
#: offset.  Shifting all six phases by 180 degrees maps S to -S, so the
#: lattice's other eight points would only repeat these ascents.
_SEEDS = np.tile(
    np.radians([(phi, phi_prime) for phi in (45, 135) for phi_prime in (45, 135, 225, 315)]),
    (1, 3),
)
_SEEDS.flags.writeable = False

#: Cap on the random restarts of any valid config.
MAX_RANDOM_RESTARTS = 10_000

#: The ascent's stopping rule, fixed: a row stops once no phase moves more
#: than _TOLERANCE radians in a sweep, or after _MAX_SWEEPS iterations, and
#: values within _TOLERANCE of each other tie.  |S| is stationary at a maximum,
#: so a phase error delta moves it only by O(delta**2): at 1e-8, about the
#: square root of the float64 epsilon, a finer tolerance moves |S| by rounding,
#: or by up to about 2e-13 where the maximum is so flat that a row stops
#: farther from it.  It also lies far above one ulp of 2*pi (8.9e-16), below
#: which a row's phases can cycle at rounding level and never stop, so every
#: row stops long before the cap.
_TOLERANCE = 1e-8
_MAX_SWEEPS = 2000
#: A field whose entries are all at most this share of max|K|, K the
#: trilinear form, in magnitude is zero and keeps its phase: on a diagonal
#: seed (phi = phi') a Mermin field is rounding noise, whose direction
#: visibility would rescale into a new phase.
_ZERO_FIELD = 1e-12


@dataclass(frozen=True)
class OptimizationConfig:
    seed: int = 0
    random_restarts: int = 0

    def __post_init__(self):
        check_integer(self.random_restarts, "random_restarts", 0, MAX_RANDOM_RESTARTS)
        check_seed(self.seed)


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


#: Per party p: the other two parties, and the form's axes with p's last.
_OTHERS = ((1, 2), (0, 2), (0, 1))
_BLOCK_AXES = ((1, 2, 0), (0, 2, 1), (0, 1, 2))


def _trilinear_form(state: PureState | DensityMatrix | StateTensor, functional: Functional):
    """K[(i, u), (j, v), (k, w)] = c[i, j, k] T[u, v, w] as a 4x4x4 array.

    S is K contracted with the weights (g(phi), g(phi')) of parties a, b, c:
    each party's index runs over (Z, -X) of phi, then of phi'.
    """
    coeffs = pauli_coefficients(state)[1:, 1:, 1:]
    signs = SIGN_TENSOR[Functional(functional)]
    return np.multiply.outer(signs, coeffs).transpose(0, 3, 1, 4, 2, 5).reshape(4, 4, 4)


def _party_blocks(form: np.ndarray) -> list:
    """The form per party p as a 16x4 matrix with p's index last.

    The matrices keep the memory order that reshaping the transposed form
    gives (party a's is column-major), since numpy's one-row (matrix-vector)
    product rounds by memory order.
    """
    return [form.transpose(axes).reshape(16, 4) for axes in _BLOCK_AXES]


def _fields(blocks: list, g: np.ndarray, party: int) -> np.ndarray:
    """S = sum_k field[:, k] g[:, party, k]: the (m, 4) field on one party."""
    first, second = _OTHERS[party]
    return (g[:, first, :, None] * g[:, second, None, :]).reshape(-1, 16) @ blocks[party]


def _ascend(form: np.ndarray, x0, tolerance: float, max_sweeps: int):
    """Block-coordinate ascent of |S|, Newton-accelerated, from each row of x0 at once.

    With two parties fixed, S = sum_s g_s . v_s over the third party's settings
    s, so g_s = v_s / |v_s| maximizes it, to |v_0| + |v_1|: each phase is the
    arctan2 of its field's -X and Z entries, wrapped.
    A zero field (no entry above _ZERO_FIELD * max|form|) keeps its phase.
    The sign of S is taken once per row, at its start.  A row sweeps parties
    a, b, c until no phase moves by more than `tolerance` radians in a sweep,
    or for at most `max_sweeps` sweeps, and then drops out of later sweeps, so
    its path does not depend on the other rows, except in the last-bit
    rounding of numpy's products, whose kernel can change with the number of
    rows (one row takes the matrix-vector path).  Block ascent alone
    converges only linearly where the parties' phases are coupled (W takes
    hundreds of sweeps), so after each sweep from the second on, a row that
    has not stopped also takes one saddle-free Newton step over all six
    phases (_newton_step).  An iteration is a sweep plus at most
    one Newton step.  A sweep that lands exactly on a stationary point of |S|
    stops its row there, even on a saddle, whose Newton step is zero.
    Returns the (m, 6) phases, the m values |S| and the m iteration counts.
    """
    blocks = _party_blocks(form)
    floor = _ZERO_FIELD * np.abs(form).max()
    # The rows still ascending: their indices, phases, weights and signs of S.
    xs = np.array(x0, dtype=float).reshape(-1, 6)
    gs = analyzer_weights(xs).reshape(-1, 3, 4)
    rows = np.arange(len(xs))
    signs = np.where(_values(blocks, gs) >= 0.0, 1.0, -1.0)[:, None]
    x, g, sweeps = np.empty_like(xs), np.empty_like(gs), np.zeros(len(xs), dtype=int)
    sweep = 0
    while rows.size:
        sweep += 1
        swept = np.empty_like(xs)
        for party in range(3):
            field = _fields(blocks, gs, party)
            field *= signs
            field = field.reshape(-1, 2, 2)
            cols = slice(2 * party, 2 * party + 2)
            phi = swept[:, cols]
            phi[...] = wrap_phase(np.arctan2(field[..., 1], field[..., 0]))
            magnitude = np.abs(field)
            if magnitude.min() <= floor:  # a zero field, if any, keeps its phase
                zero = magnitude.max(axis=-1) <= floor
                phi[zero] = xs[:, cols][zero]
            np.cos(phi, out=gs[:, party, 0::2])
            np.sin(phi, out=gs[:, party, 1::2])
        # Each phase moves once per sweep, so its move is its change over the sweep.
        moved = circular_distance(swept, xs).max(axis=1)
        xs = swept
        done = (moved <= tolerance) | (sweep == max_sweeps)
        if done.any():
            ended, left = rows[done], ~done
            x[ended], g[ended], sweeps[ended] = xs[done], gs[done], sweep
            rows, xs, gs, signs = rows[left], xs[left], gs[left], signs[left]
        if sweep >= 2 and rows.size:
            xs = _newton_step(blocks, xs, gs, signs)
            gs = analyzer_weights(xs).reshape(-1, 3, 4)
    return x, np.abs(_values(blocks, g)), sweeps


#: Eigenvalues of the phase Hessian below this share of its largest one in
#: magnitude are flat directions, left out of the Newton step.
_FLAT_EIGENVALUE = 1e-9
#: Scales of the Newton step tried in turn, 1 halved down to 2**-10, and the
#: loss in sign * S, relative to |S|, that a trial may show and still count
#: as no lower (rounding).  Where the phase Hessian has a small positive
#: eigenvalue the full step along it is radians long, so the halving has to
#: reach far below 1/8 for the step to be kept.
_BACKTRACK_SCALES = 2.0 ** -np.arange(11.0)
_VALUE_SLACK = 1e-13
#: The scales in the batches they are scored in: the full and the half step
#: for every row, then the rest for the rows that reject both.  Two scales,
#: not one, keep even a lone row's trials in numpy's matrix-matrix product;
#: its one-row (matrix-vector) path rounds differently.
_BACKTRACK_BATCHES = (_BACKTRACK_SCALES[:2], _BACKTRACK_SCALES[2:])


def _hessian_layout():
    """Flat indices of the (3, 4, 3, 4) weight Hessian's off-diagonal blocks,
    and their sources in _newton_step's three concatenated 4x4 party blocks:
    parties (p, q) take the third party's block, transposed where p > q.
    """
    party, weight, other, other_weight = np.indices((3, 4, 3, 4)).reshape(4, -1)
    into = np.flatnonzero(party != other)
    source = (3 - party - other) * 16 + np.where(
        party < other, 4 * weight + other_weight, 4 * other_weight + weight
    )
    return into, source[into]


_HESS_INTO, _HESS_FROM = _hessian_layout()
#: d(cos phi, sin phi)/dphi = (-sin phi, cos phi): the weights reversed, times this.
_TANGENT = np.array([-1.0, 1.0])


def _newton_step(blocks: list, x: np.ndarray, g: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """One saddle-free Newton step of f = sign * S at each row of the (m, 6) phases.

    S is trilinear in the three parties' 4-vectors of weights, so its Hessian
    over all twelve weights has a zero block per party and, between parties p
    and q, the form with the third party's weights contracted; the gradient
    is half that Hessian times the weights.  The weights are g = (cos phi,
    sin phi) (analyzer_weights), so dg/dphi = (-sin phi, cos phi) and the
    second derivative is -g: the phase gradient is field . dg and the
    phase Hessian dg^T H dg with -field . g added on its diagonal.  The step
    V |L|^-1 V^T grad over the eigenpairs (L, V) that are not flat ascends f
    also near a saddle (Dauphin et al., 2014).  A row takes the first of
    _BACKTRACK_SCALES whose trial is no lower than f (within _VALUE_SLACK),
    or keeps its phases if none is; the full and half steps are scored
    first, the smaller scales only for the rows that reject both.
    """
    m = len(x)
    pairs = np.concatenate([g[:, p] @ blocks[p].T for p in range(3)], axis=1)
    pairs *= signs
    hess = np.zeros((m, 144))
    hess[:, _HESS_INTO] = pairs[:, _HESS_FROM]
    hess = hess.reshape(m, 6, 2, 6, 2)
    w = g.reshape(m, 6, 2)
    field = np.einsum("mikjl,mjl->mik", hess, w) / 2.0
    dw = w[..., ::-1] * _TANGENT
    grad = (field * dw).sum(axis=-1)
    h = np.einsum("mik,mikjl,mjl->mij", dw, hess, dw)
    diagonal = np.einsum("mii->mi", h)  # a view into h
    diagonal -= (field * w).sum(axis=-1)

    lam, vec = np.linalg.eigh(h)
    size = np.abs(lam)
    kept = size > _FLAT_EIGENVALUE * size.max(axis=1, keepdims=True)
    along = np.einsum("mji,mj->mi", vec, grad) / np.where(kept, size, np.inf)
    step = np.einsum("mij,mj->mi", vec, along)

    # Scored by _values like the trials, so both sides of the test round alike.
    value = signs[:, 0] * _values(blocks, g)
    least = value - _VALUE_SLACK * np.abs(value)
    out, rows = x.copy(), np.arange(m)
    for scales in _BACKTRACK_BATCHES:
        trials = x[:, None, :] + scales[:, None] * step[:, None, :]
        trial_values = _values(blocks, analyzer_weights(trials).reshape(-1, 3, 4))
        trial_values = trial_values.reshape(len(x), -1)
        ok = signs * trial_values >= least[:, None]
        found = ok.any(axis=1)
        out[rows[found]] = wrap_phase(trials[found, ok[found].argmax(axis=1)])
        if found.all():
            break
        left = ~found
        rows, x, step, signs, least = rows[left], x[left], step[left], signs[left], least[left]
    return out


def _values(blocks: list, g: np.ndarray) -> np.ndarray:
    """S at each row of the (m, 3, 4) party weights g."""
    return (_fields(blocks, g, 2) * g[:, 2]).sum(axis=1)


def optimize(
    state: PureState | DensityMatrix | StateTensor,
    functional: Functional,
    config: OptimizationConfig | None = None,
) -> OptimizationResult:
    """Maximize |functional| over the six analyzer phases.

    Candidates come in seed order: the eight _SEEDS, then the random restarts
    in draw order.  All candidates ascend together, as one batch.  The first
    candidate whose value lies within _TOLERANCE of the maximum over all
    candidates is reported.  The trace has a point, at the ascent iterations
    run so far in seed order, for the first candidate and for each later one
    that beats the best value before it by more than _TOLERANCE, the margin
    within which values tie.
    """
    if config is None:
        config = OptimizationConfig()
    form = _trilinear_form(state, functional)

    seeds = _SEEDS
    if config.random_restarts:
        # Only now, since the first default_rng call imports numpy.random.
        rng = np.random.default_rng(config.seed)
        restarts = rng.uniform(0.0, TWO_PI, (config.random_restarts, 6))
        seeds = np.concatenate((seeds, restarts))

    x, values, iterations = _ascend(form, seeds, _TOLERANCE, _MAX_SWEEPS)

    best_so_far, trace = -math.inf, []
    for total, f in zip(np.cumsum(iterations).tolist(), values.tolist()):
        if f > best_so_far + _TOLERANCE:
            best_so_far = f
            trace.append((total, f))

    best = int(np.flatnonzero(values >= values.max() - _TOLERANCE)[0])
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


def circular_distance(a, b):
    """Shortest angular distance between two phases, in radians.

    Takes floats or arrays of phases, elementwise with numpy broadcasting.
    """
    return abs((a - b + math.pi) % TWO_PI - math.pi)
