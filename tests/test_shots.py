"""Tests for finite-statistics sampling, estimation, and the visibility threshold."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density
from tribell import (
    BOUND,
    Classification,
    CorrelationTensor,
    CountTable,
    Functional,
    SettingsPair,
    correlation_tensor,
    critical_visibility,
    estimate_inequality,
    estimate_tensor,
    functional_value,
    make_w,
    maximally_mixed,
    mix_with_white_noise,
    outcome_distribution,
    pure_to_density,
    report_from_tensor,
    sample_counts,
    symmetric_pairs,
)
from tribell.inequalities import SETTING_KEYS
from tribell.polarimetry import OUTCOME_LABELS
from tribell.shots import MAX_SHOTS_PER_SETTING, _setting_stream

COMMENT_PAIRS = symmetric_pairs(math.pi / 2.0, 0.0)
OPTIMAL_PAIRS = symmetric_pairs(math.radians(35.264), math.radians(144.736))
S_V_OPTIMAL = 4.354648431463461  # exact trace value at the quoted angles


def test_counts_sum_to_shots_per_setting():
    table = sample_counts(make_w(), COMMENT_PAIRS, 500, seed=3)
    assert table.counts.shape == (2, 2, 2, 8)
    assert (table.counts.sum(axis=-1) == 500).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_sampling_is_deterministic_per_seed(seed):
    first = sample_counts(make_w(), COMMENT_PAIRS, 100, seed=seed)
    second = sample_counts(make_w(), COMMENT_PAIRS, 100, seed=seed)
    assert np.array_equal(first.counts, second.counts)
    report_a = estimate_inequality(first, Functional.SVETLICHNY)
    report_b = estimate_inequality(second, Functional.SVETLICHNY)
    assert report_a == report_b


def test_deterministic_entry_is_estimated_exactly():
    # at (pi/2, 0) the all-primed block measures Z Z Z: every W outcome has
    # product -1, so the estimate is exact at any n
    table = sample_counts(make_w(), COMMENT_PAIRS, 10_000, seed=1)
    tensor, std_errors = estimate_tensor(table)
    assert tensor[1, 1, 1] == -1.0
    assert std_errors[1, 1, 1] == 0.0


def test_uniform_state_frequencies():
    table = sample_counts(maximally_mixed(), COMMENT_PAIRS, 10_000, seed=5)
    freqs = table.counts / 10_000
    assert np.abs(freqs - 1.0 / 8.0).max() < 0.02


def test_estimates_concentrate_on_exact_values():
    exact = correlation_tensor(make_w(), COMMENT_PAIRS)
    for n in (1_000, 10_000, 100_000):
        table = sample_counts(make_w(), COMMENT_PAIRS, n, seed=17)
        tensor, _ = estimate_tensor(table)
        envelope = 4.0 / math.sqrt(n)
        assert np.abs(tensor.values - exact.values).max() < envelope


def test_large_sample_entry_within_five_sigma():
    table = sample_counts(make_w(), COMMENT_PAIRS, 1_000_000, seed=23)
    tensor, std_errors = estimate_tensor(table)
    assert abs(tensor[0, 0, 1] - 2.0 / 3.0) < 5.0 * std_errors[0, 0, 1]


@pytest.mark.parametrize("n", [10**12, MAX_SHOTS_PER_SETTING])
def test_sampling_work_and_memory_do_not_grow_with_shots(n):
    sample_counts(make_w(), COMMENT_PAIRS, 1, seed=1)  # one-off lazy set-up
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = sample_counts(make_w(), COMMENT_PAIRS, n, seed=1)
        elapsed = time.perf_counter() - start
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (table.counts.sum(axis=-1) == n).all()
    assert elapsed < 1.0
    assert peak_bytes < 1_000_000


def test_shot_count_beyond_int64_is_rejected():
    with pytest.raises(ValueError, match=r"\[1, 2\*\*63 - 1\]"):
        sample_counts(make_w(), COMMENT_PAIRS, MAX_SHOTS_PER_SETTING + 1, seed=1)


def test_seed_outside_uint64_is_rejected():
    # Seeds key a uint64 Philox word: they are checked, never reduced mod 2**64.
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64 - 1\]"):
            sample_counts(make_w(), COMMENT_PAIRS, 10, seed=seed)
    top = sample_counts(make_w(), COMMENT_PAIRS, 1000, seed=2**64 - 1)
    bottom = sample_counts(make_w(), COMMENT_PAIRS, 1000, seed=0)
    assert not np.array_equal(top.counts, bottom.counts)


def test_seed_must_be_an_integer():
    # A float seed is refused, not rounded into a valid stream key.
    for seed in (1.5, 1.0, np.float64(2.0), "3", None):
        with pytest.raises(ValueError, match=r"seed must be an integer, got"):
            sample_counts(make_w(), COMMENT_PAIRS, 10, seed=seed)
    reference = sample_counts(make_w(), COMMENT_PAIRS, 100, seed=1).counts
    for seed in (np.int64(1), np.uint64(1)):
        table = sample_counts(make_w(), COMMENT_PAIRS, 100, seed=seed)
        assert np.array_equal(table.counts, reference)


def test_counts_follow_outcome_index_order():
    # A rank-3 state whose eight outcome probabilities differ, at every setting
    # choice, by more than the sum of their 6-sigma windows: a swapped reshape
    # or port order would put some count outside its window.
    rho = random_density(np.random.default_rng(4), rank=3)
    pairs = tuple(
        SettingsPair(math.radians(phi), math.radians(phi_prime))
        for phi, phi_prime in ((135, 29), (357, 41), (63, 343))
    )
    n = 1_000_000
    table = sample_counts(rho, pairs, n, seed=11)
    for i, j, k in itertools.product((0, 1), repeat=3):
        phis = (pairs[0].setting(i), pairs[1].setting(j), pairs[2].setting(k))
        expected = n * outcome_distribution(rho, phis).probs.reshape(8)
        window = 6.0 * np.sqrt(expected * (1.0 - expected / n))
        for a, b in itertools.combinations(range(8), 2):
            assert abs(expected[a] - expected[b]) > window[a] + window[b]
        for oa, ob, oc in itertools.product((0, 1), repeat=3):
            index = 4 * oa + 2 * ob + oc
            assert abs(table.counts[i, j, k, index] - expected[index]) <= window[index]


@pytest.mark.parametrize("party", [0, 1, 2])
def test_setting_blocks_depend_only_on_seed_and_choice(party):
    # Moving one party's primed angle may change only the blocks that use it.
    base = sample_counts(make_w(), OPTIMAL_PAIRS, 10_000, seed=7)
    pairs = list(OPTIMAL_PAIRS)
    pairs[party] = SettingsPair(pairs[party].phi, pairs[party].phi_prime + 0.3)
    moved = sample_counts(make_w(), pairs, 10_000, seed=7)
    unprimed = (slice(None),) * party + (0,)
    primed = (slice(None),) * party + (1,)
    assert np.array_equal(moved.counts[unprimed], base.counts[unprimed])
    assert not np.array_equal(moved.counts[primed], base.counts[primed])


def test_estimate_tensor_degenerate_counts():
    counts = np.zeros((2, 2, 2, 8), dtype=np.int64)
    counts[..., 0] = 100  # all shots on (+, +, +)
    tensor, std_errors = estimate_tensor(CountTable(counts, 100))
    assert np.all(tensor.values == 1.0)
    assert np.all(std_errors == 0.0)


def test_estimate_tensor_uniform_counts():
    counts = np.full((2, 2, 2, 8), 25, dtype=np.int64)
    tensor, std_errors = estimate_tensor(CountTable(counts, 200))
    assert np.all(tensor.values == 0.0)
    assert np.allclose(std_errors, 1.0 / math.sqrt(200), atol=1e-15)


@pytest.mark.parametrize("n", [8, 200, 80_000])
def test_estimate_inequality_error_on_uniform_counts(n):
    # Every entry estimates 0 with error 1/sqrt(n); Mermin sums 4 of them.
    table = CountTable(np.full((2, 2, 2, 8), n // 8, dtype=np.int64), n)
    mermin = estimate_inequality(table, Functional.MERMIN)
    svetlichny = estimate_inequality(table, Functional.SVETLICHNY)
    assert mermin.std_error == pytest.approx(2.0 / math.sqrt(n), rel=1e-15)
    assert svetlichny.std_error == pytest.approx(math.sqrt(8.0 / n), rel=1e-15)


def test_estimate_inequality_error_is_quadrature_over_sign_tensor():
    counts = np.zeros((2, 2, 2, 8), dtype=np.int64)
    for i, j, k in np.ndindex(2, 2, 2):
        counts[i, j, k] = [10 + 3 * i, 7, 2 + 5 * j, 9, 4, 6 + 4 * k, 1, 0]
        counts[i, j, k, 7] = 100 - counts[i, j, k, :7].sum()
    table = CountTable(counts, 100)
    _, entry_errors = estimate_tensor(table)
    mermin_terms = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    expected = {
        Functional.MERMIN: math.sqrt(sum(entry_errors[idx] ** 2 for idx in mermin_terms)),
        Functional.SVETLICHNY: math.sqrt(float((entry_errors**2).sum())),
    }
    for functional, error in expected.items():
        assert estimate_inequality(table, functional).std_error == pytest.approx(
            error, rel=1e-14
        )


def test_count_table_validation():
    counts = np.zeros((2, 2, 2, 8), dtype=np.int64)
    with pytest.raises(ValueError):
        CountTable(counts, 10)  # sums are zero, not 10
    counts[..., 0] = 10
    with pytest.raises(ValueError):
        CountTable(counts, 0)
    bad = counts.copy()
    bad[0, 0, 0, 0] = -1
    with pytest.raises(ValueError):
        CountTable(bad, 10)
    with pytest.raises(ValueError):
        sample_counts(make_w(), COMMENT_PAIRS, 0, seed=1)


def test_exact_path_report_for_tested_settings():
    tensor = correlation_tensor(make_w(), COMMENT_PAIRS)
    report = report_from_tensor(tensor, Functional.SVETLICHNY)
    assert report.value == pytest.approx(3.0, abs=1e-9)
    assert not report.violated
    assert report.std_error == 0.0
    assert report.z_score == -math.inf
    assert report.classification is Classification.CONSISTENT_WITH_LOCAL


def test_z_score_with_finite_error():
    tensor = correlation_tensor(make_w(), OPTIMAL_PAIRS)
    report = report_from_tensor(tensor, Functional.SVETLICHNY, std_error=0.1)
    assert report.z_score == pytest.approx((abs(report.value) - 4.0) / 0.1)


def test_sampled_svetlichny_at_optimal_angles():
    table = sample_counts(make_w(), OPTIMAL_PAIRS, 100_000, seed=41)
    report = estimate_inequality(table, Functional.SVETLICHNY)
    assert abs(report.value - S_V_OPTIMAL) < 5.0 * report.std_error
    assert report.z_score > 3.0
    assert report.classification is Classification.RULES_OUT_HYBRID


def test_sampled_half_visibility_does_not_violate():
    noisy = mix_with_white_noise(pure_to_density(make_w()), 0.5)
    table = sample_counts(noisy, OPTIMAL_PAIRS, 100_000, seed=43)
    report = estimate_inequality(table, Functional.SVETLICHNY)
    assert abs(report.value - 0.5 * S_V_OPTIMAL) < 5.0 * report.std_error
    assert not report.violated


def test_functional_is_linear_in_visibility():
    rho = pure_to_density(make_w())
    exact = correlation_tensor(rho, OPTIMAL_PAIRS)
    from tribell import svetlichny_value

    full = svetlichny_value(exact)
    for v in np.linspace(0.0, 1.0, 10):
        mixed = correlation_tensor(mix_with_white_noise(rho, v), OPTIMAL_PAIRS)
        assert abs(svetlichny_value(mixed) - v * full) < 1e-10


def test_critical_visibility_matches_bound_ratio():
    v_star = critical_visibility(make_w(), OPTIMAL_PAIRS, Functional.SVETLICHNY)
    assert abs(v_star - 4.0 / 4.354) < 1e-3
    assert v_star == pytest.approx(4.0 / S_V_OPTIMAL, abs=1e-5)


@pytest.mark.parametrize(
    "functional,state,pairs",
    [
        (Functional.SVETLICHNY, make_w(), OPTIMAL_PAIRS),
        (Functional.MERMIN, make_w(), COMMENT_PAIRS),
        (Functional.SVETLICHNY, mix_with_white_noise(pure_to_density(make_w()), 0.95),
         OPTIMAL_PAIRS),
    ],
)
def test_critical_visibility_is_bound_over_full_value(functional, state, pairs):
    value = abs(functional_value(correlation_tensor(state, pairs), functional))
    v_star = critical_visibility(state, pairs, functional)
    assert v_star == BOUND[functional] / value


def test_critical_visibility_requires_violation():
    with pytest.raises(ValueError):
        critical_visibility(make_w(), COMMENT_PAIRS, Functional.SVETLICHNY)


def test_count_table_serialization():
    table = sample_counts(make_w(), COMMENT_PAIRS, 200, seed=9)
    payload = table.to_jsonable()
    assert payload["n_shots_per_setting"] == 200
    assert set(payload["counts"]) == {f"{i}{j}{k}" for i in (0, 1) for j in (0, 1) for k in (0, 1)}
    assert sum(payload["counts"]["000"].values()) == 200
    rows = table.to_csv_rows()
    assert rows[0] == ["i", "j", "k", "outcome", "count"]
    assert len(rows) == 1 + 64


def test_count_table_serializes_in_setting_and_outcome_order():
    # Every count distinct, so a swapped label or a transposed reshape shows.
    counts = np.arange(64).reshape(8, 8)
    counts[:, -1] = 10_000 - counts[:, :-1].sum(axis=1)
    table = CountTable(counts, 10_000)
    assert len(np.unique(table.counts)) == 64
    expected = [
        (f"{i}{j}{k}", "".join("+-"[o] for o in (oa, ob, oc)),
         table.counts[i, j, k, 4 * oa + 2 * ob + oc])
        for i, j, k in itertools.product((0, 1), repeat=3)
        for oa, ob, oc in itertools.product((0, 1), repeat=3)
    ]
    payload = table.to_jsonable()["counts"]
    assert list(payload) == list(SETTING_KEYS)
    assert all(list(row) == list(OUTCOME_LABELS) for row in payload.values())
    assert [
        (key, label, count) for key, row in payload.items() for label, count in row.items()
    ] == expected
    assert table.to_csv_rows()[1:] == [
        [int(key[0]), int(key[1]), int(key[2]), label, count] for key, label, count in expected
    ]


def test_each_setting_draws_from_its_own_stream():
    # Setting choice (i, j, k) draws its counts from stream 4i + 2j + k.
    rho = random_density(np.random.default_rng(5), rank=3)
    pairs = (SettingsPair(0.3, 2.1), SettingsPair(4.0, 1.2), SettingsPair(5.5, 0.7))
    table = sample_counts(rho, pairs, 1_000, seed=13)
    for i, j, k in itertools.product((0, 1), repeat=3):
        phis = (pairs[0].setting(i), pairs[1].setting(j), pairs[2].setting(k))
        probs = np.clip(outcome_distribution(rho, phis).probs.reshape(8), 0.0, None)
        draw = _setting_stream(13, 4 * i + 2 * j + k).multinomial(1_000, probs / probs.sum())
        assert np.array_equal(table.counts[i, j, k], draw)


def test_estimated_report_jsonable():
    table = sample_counts(make_w(), OPTIMAL_PAIRS, 1_000, seed=2)
    report = estimate_inequality(table, Functional.MERMIN)
    data = report.to_jsonable()
    assert data["functional"] == "mermin"
    assert data["std_error"] > 0.0
    assert "z_score" in data
