"""Tests for the optimizer: fixed symmetric seeds, then exact block-coordinate ascent."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    maximally_mixed,
    min_symmetry_distance,
    objective_symmetries,
    random_angles,
    random_density,
    random_pure,
    reference_newton_step,
    settings_distance,
)
from tribell import (
    Functional,
    PureState,
    SettingsPair,
    StateTensor,
    correlation_tensor,
    functional_value,
    lhv_max,
    make_ghz,
    make_w,
    optimize,
    symmetric_pairs,
)
from tribell import optimizer
from tribell.cli import NAMED_STATES
from tribell.optimizer import (
    MAX_RANDOM_RESTARTS,
    _MAX_SWEEPS,
    _SEEDS,
    _TOLERANCE,
    _ascend,
    _newton_step,
    _party_blocks,
    _trilinear_form,
    circular_distance,
)
from tribell.polarimetry import analyzer_weights

QUOTED_OPTIMUM = symmetric_pairs(math.radians(35.264), math.radians(144.736))


@pytest.fixture(scope="module")
def w_svetlichny_result():
    return optimize(make_w(), Functional.SVETLICHNY)


@given(seed=st.integers(0, 2**32 - 1))
def test_objective_is_absolute_functional_value(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    x = random_angles(rng, 6)
    pairs = tuple(SettingsPair(x[2 * p], x[2 * p + 1]) for p in range(3))
    tensor = correlation_tensor(rho, pairs)
    # Weights (cos phi, sin phi) on (Z, -X) of phi_a, phi'_a, ..., phi'_c, one row per party.
    g = np.stack((np.cos(x), np.sin(x)), axis=-1).reshape(3, 4)
    for functional in Functional:
        expected = abs(functional_value(tensor, functional))
        form = _trilinear_form(rho, functional)
        assert abs(abs(float(form @ g[2] @ g[1] @ g[0])) - expected) < 1e-12


class _Reached(Exception):
    """Raised in place of optimize's first piece of work."""


@pytest.fixture
def checks_only(monkeypatch):
    """optimize with its work replaced by raising _Reached: only its checks run."""
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(optimizer, "_trilinear_form", reached)
    return lambda **kwargs: optimize(make_w(), Functional.MERMIN, **kwargs)


def test_config_rejects_bad_values(checks_only):
    with pytest.raises(ValueError):
        checks_only(random_restarts=-1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=re.escape("seed must lie in [0, 2**64 - 1]")):
            checks_only(seed=seed)
    with pytest.raises(ValueError, match="random_restarts"):  # checked before the seed
        checks_only(random_restarts=-1, seed=-1)
    with pytest.raises(_Reached):
        checks_only(seed=2**64 - 1)


def test_config_bounds_restarts_and_sweeps(checks_only):
    # Checks only; no seed list or ascent is ever built here.
    with pytest.raises(_Reached):
        checks_only(random_restarts=MAX_RANDOM_RESTARTS)
    restarts_limit = re.escape(f"random_restarts must lie in [0, {MAX_RANDOM_RESTARTS}]")
    for restarts in (MAX_RANDOM_RESTARTS + 1, 10**9, 10**12):
        with pytest.raises(ValueError, match=restarts_limit):
            checks_only(random_restarts=restarts)


def _functional_at(rho, x, functional):
    pairs = tuple(SettingsPair(x[2 * p], x[2 * p + 1]) for p in range(3))
    return functional_value(correlation_tensor(rho, pairs), functional)


@given(seed=st.integers(0, 2**32 - 1))
def test_party_update_attains_closed_form_block_maximum(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    x0 = random_angles(rng, 6)
    grid = np.arange(72) * 2.0 * math.pi / 72
    grid_weights = np.stack((np.cos(grid), -np.sin(grid)), axis=-1)
    for functional in Functional:
        # One sweep ends with party c's closed-form update, a and b fixed.
        xs, values, _ = _ascend(_trilinear_form(rho, functional), [x0], 1e-8, 1)
        x, value = tuple(xs[0].tolist()), values[0]
        # S is linear in each of party c's weights (cos phi, -sin phi), so
        # moving one phase by pi, or from pi/2 to 3pi/2, isolates its field.
        fields = []
        for s in (4, 5):
            at = {phi: _functional_at(rho, x[:s] + (phi,) + x[s + 1:], functional)
                  for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)}
            z_field = (at[0.0] - at[math.pi]) / 2
            x_field = (at[3 * math.pi / 2] - at[math.pi / 2]) / 2
            fields.append(np.array([z_field, x_field]))
        block_max = np.linalg.norm(fields[0]) + np.linalg.norm(fields[1])
        assert abs(value - block_max) < 1e-12
        assert abs(abs(_functional_at(rho, x, functional)) - block_max) < 1e-12
        on_grid = (grid_weights @ fields[0])[:, None] + (grid_weights @ fields[1])[None, :]
        assert np.abs(on_grid).max() <= block_max + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_starts=st.integers(2, 8))
# Draws whose batches once ended on a lone row through numpy's matrix-vector
# product, which rounds differently from the batched matrix-matrix one.
@example(seed=732015, n_starts=4)
@example(seed=16018, n_starts=2)
def test_batched_ascent_matches_each_start_alone(seed, n_starts):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    starts = rng.uniform(0.0, 2.0 * math.pi, (n_starts, 6))
    for functional in Functional:
        form = _trilinear_form(rho, functional)
        xs, values, sweeps = _ascend(form, starts, 1e-8, 2000)
        for x0, x, value, n_sweeps in zip(starts, xs, values, sweeps):
            alone_x, alone_value, alone_sweeps = _ascend(form, [x0], 1e-8, 2000)
            assert alone_sweeps[0] == n_sweeps
            assert circular_distance(alone_x[0], x).max() < 1e-12
            assert abs(alone_value[0] - value) < 1e-12


def test_zero_field_keeps_every_phase():
    # White noise has no correlations, so every field is zero.
    starts = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, (4, 6))
    form = _trilinear_form(maximally_mixed(), Functional.SVETLICHNY)
    xs, values, sweeps = _ascend(form, starts, 1e-8, 2000)
    assert np.array_equal(xs, starts)
    assert np.array_equal(values, np.zeros(4))
    assert np.array_equal(sweeps, np.ones(4))


@pytest.mark.parametrize(
    "state, functional, trace_sweeps",
    [
        (make_w, Functional.MERMIN, [8]),
        (make_w, Functional.SVETLICHNY, [6, 11]),
        (lambda: make_ghz("circular_rl"), Functional.MERMIN, [3]),
        (lambda: make_ghz("circular_rl"), Functional.SVETLICHNY, [2, 3]),
        (lambda: make_ghz("linear_hv"), Functional.MERMIN, [2]),
        (lambda: make_ghz("linear_hv"), Functional.SVETLICHNY, [2]),
    ],
)
def test_default_runs_trace_only_real_improvements(state, functional, trace_sweeps):
    result = optimize(state(), functional)
    assert result.restarts_used == 8
    assert [sweeps for sweeps, _ in result.trace] == trace_sweeps
    values = [value for _, value in result.trace]
    assert all(b > a + _TOLERANCE for a, b in zip(values, values[1:]))


# W's Mermin maximum and the saddle where half of its seeds stop.
_W_MERMIN, _W_MERMIN_SADDLE = 3.045956005991808, 3.041035208539221


@pytest.mark.parametrize(
    "name, functional, iterations, values",
    [
        ("w", Functional.MERMIN, [8, 3, 8, 3, 3, 8, 3, 8],
         [_W_MERMIN, _W_MERMIN_SADDLE] * 2 + [_W_MERMIN_SADDLE, _W_MERMIN] * 2),
        ("w", Functional.SVETLICHNY, [6, 5, 6, 5, 5, 6, 5, 6],
         [4.0, 16.0 * math.sqrt(6.0) / 9.0] * 2 + [16.0 * math.sqrt(6.0) / 9.0, 4.0] * 2),
        ("ghz-rl", Functional.MERMIN, [3, 2, 3, 2, 2, 3, 2, 3], [4.0] * 8),
        ("ghz-rl", Functional.SVETLICHNY, [2, 1, 2, 2, 1, 2, 2, 2],
         [4.0, 4.0 * math.sqrt(2.0)] * 2 + [4.0 * math.sqrt(2.0), 4.0] * 2),
        ("ghz-hv", Functional.MERMIN, [2] * 8, [2.0] * 8),
        ("ghz-hv", Functional.SVETLICHNY, [2] * 8, [4.0] * 8),
    ],
)
def test_each_seeds_ascent_of_the_named_states(name, functional, iterations, values):
    # Pinned per seed, so a change to the ascent's arithmetic that moves any
    # seed's path shows here.  The seeds at W's Mermin 3.041035, and at 4.0
    # on W's and ghz-rl's Svetlichny, stop on saddles of |S|; the other seeds
    # reach the maxima.
    form = _trilinear_form(NAMED_STATES[name], functional)
    _, found, counts = _ascend(form, _SEEDS, _TOLERANCE, _MAX_SWEEPS)
    assert counts.tolist() == iterations
    assert np.abs(found - values).max() <= 1e-12


def _newton_steps_with_reference(state, starts):
    """Every Newton step of both functionals' ascents from `starts`.

    Returns (phases, reference phases, reference scale indices) per step.
    """
    steps = []
    for functional in Functional:
        def recording(blocks, x, g, signs, functional=functional):
            out = _newton_step(blocks, x, g, signs)
            # A copy, since the ascent's next sweep writes into its phases.
            steps.append((out.copy(), *reference_newton_step(state, functional, x, signs)))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_newton_step", recording)
            _ascend(_trilinear_form(state, functional), starts, _TOLERANCE, _MAX_SWEEPS)
    return steps


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_newton_step_matches_the_all_scales_reference(seed):
    rng = np.random.default_rng(seed)
    state = random_density(rng)
    starts = rng.uniform(0.0, 2.0 * math.pi, (int(rng.integers(1, 9)), 6))
    for phases, expected, _ in _newton_steps_with_reference(state, starts):
        assert np.array_equal(phases, expected)


@pytest.mark.parametrize(
    "state, starts, rejected",
    [
        # The state of test_newton_step_backtracks_far_enough_on_a_small_curvature:
        # 40 of its 76 Mermin row-steps and 2 of 26 Svetlichny ones reject the
        # full step.
        (random_density(np.random.default_rng(909)),
         np.random.default_rng(909).uniform(0.0, 2.0 * math.pi, (10, 6)), (42, 102)),
        (NAMED_STATES["w"], _SEEDS, (12, 56)),
    ],
    ids=["random-density-909", "w"],
)
def test_newton_step_matches_the_reference_where_full_steps_fail(state, starts, rejected):
    steps = _newton_steps_with_reference(state, starts)
    for phases, expected, _ in steps:
        assert np.array_equal(phases, expected)
    scales = np.concatenate([scale for _, _, scale in steps])
    assert (int(np.count_nonzero(scales)), scales.size) == rejected


def _finite_differences(value, x, h=1e-4):
    """Central-difference gradient and Hessian of `value` at the six phases x."""
    steps = np.eye(6) * h
    grad = np.array([(value(x + e) - value(x - e)) / (2.0 * h) for e in steps])
    hess = np.array([
        [(value(x + ei + ej) - value(x + ei - ej) - value(x - ei + ej) + value(x - ei - ej))
         / (4.0 * h * h) for ej in steps]
        for ei in steps
    ])
    return grad, hess


def _assert_local_maximum(rho, x, functional):
    """|S| is stationary at x, and curves down or stays flat in every direction."""
    grad, hess = _finite_differences(lambda y: abs(_functional_at(rho, y, functional)), x)
    assert np.abs(grad).max() <= 1e-6
    assert np.linalg.eigvalsh(hess).max() <= 1e-6


@pytest.mark.parametrize("functional", list(Functional))
@pytest.mark.parametrize("name", list(NAMED_STATES))
def test_default_runs_end_at_a_local_maximum(name, functional):
    rho = NAMED_STATES[name]
    settings = optimize(rho, functional).best_settings
    x = np.array([phase for pair in settings for phase in (pair.phi, pair.phi_prime)])
    _assert_local_maximum(rho, x, functional)


@pytest.mark.parametrize("functional", list(Functional))
@pytest.mark.parametrize("name", list(NAMED_STATES))
def test_visibility_does_not_move_the_optimum(name, functional):
    # White noise has no correlations, so S scales by v at every setting: the
    # same seeds, paths and settings, and the value times v.
    full = optimize(NAMED_STATES[name], functional)
    for visibility in (0.3, 0.8, 0.878321, 0.999999):
        noisy = optimize(StateTensor(NAMED_STATES[name], visibility), functional)
        assert noisy.best_value == pytest.approx(visibility * full.best_value, rel=1e-12)
        assert settings_distance(noisy.best_settings, full.best_settings) <= 1e-9


def _form_values(form, x) -> np.ndarray:
    """S at each row of the (m, 6) phases x, contracted from the form directly."""
    g = np.stack((np.cos(x), np.sin(x)), axis=-1).reshape(-1, 3, 4)
    return np.einsum("abc,ma,mb,mc->m", form, g[:, 0], g[:, 1], g[:, 2])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_newton_step_never_descends_and_ascent_ends_at_local_maxima(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    starts = rng.uniform(0.0, 2.0 * math.pi, (4, 6))
    for functional in Functional:
        form = _trilinear_form(rho, functional)
        blocks = _party_blocks(form)
        # From the random starts, and from where one block sweep takes them.
        swept, _, _ = _ascend(form, starts, 1e-8, 1)
        x = np.concatenate((starts, swept))
        before = _form_values(form, x)
        signs = np.where(before >= 0.0, 1.0, -1.0)[:, None]
        g = analyzer_weights(x).reshape(-1, 3, 4)
        after = signs[:, 0] * _form_values(form, _newton_step(blocks, x, g, signs))
        assert np.all(after >= np.abs(before) * (1.0 - 1e-13))
        ends, values, iterations = _ascend(form, starts, 1e-8, 2000)
        for x in ends:
            _assert_local_maximum(rho, x, functional)
        # optimize's fixed tolerance stops every row far below its sweep cap,
        # and a finer one moves no value by much: |S| is stationary at a
        # maximum.  In 30 000 draws the most was 1.7e-13, on a flat maximum.
        assert iterations.max() <= 30
        assert np.abs(_ascend(form, starts, 1e-14, 2000)[1] - values).max() <= 1e-12


def _ascent_iterations(monkeypatch, state, functional, **kwargs):
    """optimize's result and the per-seed iteration counts of its one ascent."""
    counts = []

    def recording(*args):
        out = _ascend(*args)
        counts.append(out[2])
        return out

    monkeypatch.setattr(optimizer, "_ascend", recording)
    result = optimize(state, functional, **kwargs)
    (iterations,) = counts
    return result, iterations


@pytest.mark.parametrize(
    "functional, most", [(Functional.MERMIN, 10), (Functional.SVETLICHNY, 20)]
)
def test_w_grid_seeds_converge_in_few_iterations(monkeypatch, functional, most):
    # Block sweeps alone take up to 413 (Mermin) and 74 (Svetlichny) on these
    # seeds; with the Newton steps they take at most 8 and 6.
    _, iterations = _ascent_iterations(monkeypatch, make_w(), functional)
    assert len(iterations) == 8
    assert iterations.max() <= most


def test_w_mermin_random_restarts_reach_the_maximum_in_few_iterations(monkeypatch):
    result, iterations = _ascent_iterations(monkeypatch, make_w(), Functional.MERMIN,
                                            random_restarts=200, seed=3)
    assert result.best_value == pytest.approx(3.045956, abs=1e-6)
    assert len(iterations) == 208
    # Block sweeps alone take about 500 on the slowest of these rows.
    assert iterations.max() <= 100


def test_newton_step_backtracks_far_enough_on_a_small_curvature():
    # This state's phase Hessian has small positive eigenvalues, along which
    # the full Newton step is radians long.  Halving only down to 1/8 rejected
    # it every time, and the slowest row fell back to 779 block sweeps.
    rho = random_density(np.random.default_rng(909))
    starts = np.random.default_rng(909).uniform(0.0, 2.0 * math.pi, (10, 6))
    _, values, iterations = _ascend(
        _trilinear_form(rho, Functional.MERMIN), starts, 1e-8, 2000
    )
    assert iterations.max() <= 30
    assert values.max() == pytest.approx(2.194852647792, abs=1e-12)


def test_optimize_without_restarts_draws_no_random_numbers(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("default_rng called without random restarts")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    optimize(make_w(), Functional.SVETLICHNY, seed=5)


def test_ascent_with_unreachable_tolerance_stops_at_sweep_cap():
    # At the default tolerance W Mermin's seeds converge within 8 iterations;
    # here the cap of 3 stops every seed, those that reach the maximum short of it.
    result = optimize(make_w(), Functional.MERMIN)
    form = _trilinear_form(make_w(), Functional.MERMIN)
    default_sweeps = _ascend(form, optimizer._SEEDS, _TOLERANCE, 2000)[2]
    _, values, sweeps = _ascend(form, optimizer._SEEDS, 5e-324, 3)
    assert default_sweeps.max() == 8
    assert np.array_equal(sweeps, np.minimum(default_sweeps, 3))
    assert values.max() < result.best_value - _TOLERANCE


def test_w_svetlichny_reaches_quoted_maximum(w_svetlichny_result):
    result = w_svetlichny_result
    assert result.best_value == pytest.approx(4.354, abs=1e-3)
    assert result.best_value == pytest.approx(16.0 * math.sqrt(6.0) / 9.0, abs=1e-6)
    assert result.restarts_used == 8


def test_w_values_are_their_closed_forms_within_two_ulp(w_svetlichny_result):
    # W's highest stationary values found, derived numerically: no certificate
    # yet shows them to be the global maxima.
    phi = math.atan(1 / math.sqrt(2))
    tensor = correlation_tensor(make_w(), symmetric_pairs(phi, math.pi - phi))
    for value, exact in [(w_svetlichny_result.best_value, (8 / 3) ** 1.5),
                         (functional_value(tensor, Functional.SVETLICHNY), (8 / 3) ** 1.5),
                         (optimize(make_w(), Functional.MERMIN).best_value,
                          math.sqrt(738 * math.sqrt(41) - 3974) / 9)]:
        assert abs(value - exact) <= 2 * math.ulp(exact)


def test_w_svetlichny_settings_match_quoted_angles(w_svetlichny_result):
    distance = min_symmetry_distance(
        w_svetlichny_result.best_settings, QUOTED_OPTIMUM
    )
    assert math.degrees(distance) < 0.5


def test_w_best_value_dominates_tested_settings(w_svetlichny_result):
    tensor = correlation_tensor(make_w(), symmetric_pairs(math.pi / 2.0, 0.0))
    tested = abs(functional_value(tensor, Functional.SVETLICHNY))
    assert w_svetlichny_result.best_value >= tested - 1e-12
    assert w_svetlichny_result.best_value >= 3.0


def test_w_result_reevaluates_at_best_settings(w_svetlichny_result):
    tensor = correlation_tensor(make_w(), w_svetlichny_result.best_settings)
    value = abs(functional_value(tensor, Functional.SVETLICHNY))
    assert abs(value - w_svetlichny_result.best_value) < 1e-9


def test_w_trace_starts_at_grid_and_improves(w_svetlichny_result):
    # The first point is the first seed's ascent, which takes 6 iterations.
    trace = w_svetlichny_result.trace
    assert trace[0][0] == 6
    values = [v for _, v in trace]
    assert values == sorted(values)
    assert values[-1] <= w_svetlichny_result.best_value + 1e-8


def test_ghz_circular_svetlichny_reaches_tsirelson_analogue():
    exact = 4.0 * math.sqrt(2.0)
    result = optimize(make_ghz("circular_rl"), Functional.SVETLICHNY)
    assert abs(result.best_value - exact) <= 2 * math.ulp(exact)


@pytest.mark.parametrize(
    "basis, functional, exact",
    [("circular_rl", Functional.MERMIN, 4.0),
     ("linear_hv", Functional.MERMIN, 2.0),
     ("linear_hv", Functional.SVETLICHNY, 4.0)],
)
def test_other_ghz_maxima_are_exact_within_two_ulp(basis, functional, exact):
    # ghz-rl's Mermin maximum is exact; ghz-hv's two are each 1 ulp below.
    value = optimize(make_ghz(basis), functional).best_value
    assert abs(value - exact) <= 2 * math.ulp(exact)


def test_product_state_mermin_maximum_is_local_bound():
    amps = np.zeros(8)
    amps[0] = 1.0
    result = optimize(PureState(amps), Functional.MERMIN)
    local_bound = lhv_max(Functional.MERMIN, "local").max_value
    assert result.best_value == pytest.approx(local_bound, abs=1e-6)


def test_optimize_is_reproducible(w_svetlichny_result):
    again = optimize(make_w(), Functional.SVETLICHNY)
    assert again == w_svetlichny_result


def test_random_restarts_are_deterministic():
    first = optimize(make_w(), Functional.SVETLICHNY, random_restarts=3, seed=11)
    second = optimize(make_w(), Functional.SVETLICHNY, random_restarts=3, seed=11)
    assert first == second
    assert first.restarts_used == 11


def test_config_seed_must_be_an_integer():
    # Refused before any work, not later by numpy when restarts are drawn.
    for seed in (1.5, 1.0, "11", None):
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            optimize(make_w(), Functional.SVETLICHNY, random_restarts=3, seed=seed)
    assert optimize(
        make_w(), Functional.SVETLICHNY, random_restarts=3, seed=np.uint64(11)
    ) == optimize(make_w(), Functional.SVETLICHNY, random_restarts=3, seed=11)


def test_random_restarts_find_the_basin_the_grid_misses():
    # The 76th state of a panel of random states: random_pure for every third
    # index, random_density otherwise.  Ten random restarts reach 2.265835 on
    # Svetlichny.
    rng = np.random.default_rng(2026)
    for i in range(76):
        state = random_pure(rng) if i % 3 == 0 else random_density(rng)
    result = optimize(state, Functional.SVETLICHNY, random_restarts=10)
    assert result.best_value >= 2.265835 - 1e-6


def test_default_seeds_reach_the_higher_basin_of_panel_state_15():
    # The 16th state of a panel alternating random_pure and rank-3
    # random_density.  Seeds that bunch into one basin stop at 1.722005.
    rng = np.random.default_rng(123)
    for i in range(16):
        state = random_pure(rng) if i % 2 == 0 else random_density(rng, 3)
    assert optimize(state, Functional.SVETLICHNY).best_value >= 1.8179


def test_optimize_scales_with_visibility():
    # White noise scales the Z/-X block, and so S, by v, and the ascent is
    # scale-free, so the maximum is v times its value at v = 1.  An absolute
    # margin tied every value below about 1e-8, and W and ghz-rl Svetlichny
    # reported seed 0's saddle, 8.1% and 29% low.  Ties between equal maxima
    # can break differently (the first random state's Svetlichny maximum
    # swaps party a's phases), so the settings are checked by their value.
    rng = np.random.default_rng(35)
    states = [*NAMED_STATES.values(), *(random_density(rng) for _ in range(3))]
    for state in states:
        for functional in Functional:
            full = optimize(state, functional).best_value
            for v in (0.7, 1e-3, 1e-9, 1e-200, 1e-300):
                scaled = optimize(StateTensor(state, v), functional)
                reached = functional_value(correlation_tensor(state, scaled.best_settings),
                                           functional)
                assert abs(scaled.best_value / v - full) <= 1e-15 * full, (functional, v)
                assert abs(abs(reached) - full) <= 1e-15 * full, (functional, v)


def test_objective_symmetries_contains_identity_and_flip():
    equivalents = objective_symmetries(QUOTED_OPTIMUM)
    assert len(equivalents) == 2
    assert settings_distance(equivalents[0], QUOTED_OPTIMUM) < 1e-12
    flipped = symmetric_pairs(math.radians(-35.264), math.radians(-144.736))
    assert settings_distance(equivalents[1], flipped) < 1e-12


def test_objective_symmetries_fixed_point():
    zero = symmetric_pairs(0.0, 0.0)
    assert objective_symmetries(zero) == [zero]


@pytest.mark.parametrize("name", list(NAMED_STATES))
@given(seed=st.integers(0, 2**32 - 1))
def test_flip_keeps_both_functionals_of_named_states(name, seed):
    # The flip is conjugation by Z x Z x Z: it keeps or negates every
    # correlation of W and both GHZ forms, though not of states in general.
    rng = np.random.default_rng(seed)
    x = random_angles(rng, 6)
    pairs = tuple(SettingsPair(x[2 * p], x[2 * p + 1]) for p in range(3))
    flipped = objective_symmetries(pairs)[-1]
    state = NAMED_STATES[name]
    for functional in Functional:
        value = abs(functional_value(correlation_tensor(state, pairs), functional))
        image = abs(functional_value(correlation_tensor(state, flipped), functional))
        assert abs(value - image) <= 1e-12


def test_circular_distance_wraps():
    assert circular_distance(0.1, 2.0 * math.pi - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert min_symmetry_distance(QUOTED_OPTIMUM, QUOTED_OPTIMUM) == 0.0
