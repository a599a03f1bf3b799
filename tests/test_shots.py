"""Tests for finite-statistics sampling, estimation, and the visibility threshold."""

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import maximally_mixed, pure_to_density, random_angles, random_density, random_pure
from tribell import (
    BOUND,
    Classification,
    CorrelationTensor,
    CountTable,
    DensityMatrix,
    Functional,
    SettingsPair,
    StateTensor,
    correlation,
    correlation_tensor,
    critical_visibility,
    estimate_inequality,
    estimate_tensor,
    functional_value,
    make_ghz,
    make_w,
    mix_with_white_noise,
    optimize,
    outcome_distribution,
    sample_counts,
    symmetric_pairs,
)
from tribell import polarimetry, shots
from tribell.inequalities import pair_phases
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
    report_a = estimate_inequality(estimate_tensor(first), Functional.SVETLICHNY)
    report_b = estimate_inequality(estimate_tensor(second), Functional.SVETLICHNY)
    assert report_a == report_b


def test_deterministic_entry_is_estimated_exactly():
    # at (pi/2, 0) the all-primed block measures Z Z Z: every W outcome has
    # product -1, so the estimate is exact at any n
    table = sample_counts(make_w(), COMMENT_PAIRS, 10_000, seed=1)
    tensor, std_errors = estimate_tensor(table)
    assert tensor.values[1, 1, 1] == -1.0
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
    assert abs(tensor.values[0, 0, 1] - 2.0 / 3.0) < 5.0 * std_errors[0, 0, 1]


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


def test_library_sampling_expands_the_state_once(monkeypatch):
    # Eight setting choices read one contraction of one expansion.
    expand = polarimetry._izx_expansion
    calls = []

    def counting_expand(state):
        calls.append(state)
        return expand(state)

    monkeypatch.setattr(polarimetry, "_izx_expansion", counting_expand)
    sample_counts(make_w(), OPTIMAL_PAIRS, 100, seed=1)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["w", "ghz-hv", "ghz-rl", "pure", 1, 2, 3, 4, 5, 6, 7, 8]),
    visibility=st.floats(0.0, 1.0),
    phases=st.lists(
        st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-7.5, 40.0, 0.0, math.pi / 2.0])),
        min_size=6, max_size=6,
    ),
)
@example(seed=0, kind="w", visibility=1.0, phases=[0.0, math.pi / 2.0] * 3)
@example(seed=0, kind="ghz-hv", visibility=0.5, phases=[0.0, math.pi / 2.0] * 3)
@example(seed=1, kind=3, visibility=0.9, phases=[-7.5, 40.0, 40.0, -7.5, 0.3, 2.0])
def test_probability_table_is_the_eight_outcome_distributions_bitwise(
    seed, kind, visibility, phases
):
    # W at H/V settings has exact zeros that the contraction rounds to -2.8e-17:
    # both paths must clip them alike.
    rng = np.random.default_rng(seed)
    named = {"w": make_w, "ghz-hv": lambda: make_ghz("linear_hv"),
             "ghz-rl": lambda: make_ghz("circular_rl"), "pure": lambda: random_pure(rng)}
    state = named[kind]() if kind in named else random_density(rng, rank=kind)
    tensor = StateTensor(state, visibility)
    pairs = tuple(SettingsPair(phases[2 * p], phases[2 * p + 1]) for p in range(3))
    table = polarimetry._checked_probabilities(
        polarimetry._probabilities(tensor, pair_phases(pairs))
    )
    assert table.shape == (8, 8)
    for index, (i, j, k) in enumerate(itertools.product((0, 1), repeat=3)):
        phis = tuple((p.phi, p.phi_prime)[s] for p, s in zip(pairs, (i, j, k)))
        expected = outcome_distribution(tensor, phis).probs.reshape(8)
        assert table[index].tobytes() == expected.tobytes()


def _forced_tensor(values) -> StateTensor:
    """A StateTensor holding values that no accepted state has."""
    tensor = StateTensor(make_w())
    forced = np.array(values, dtype=float)
    forced.flags.writeable = False
    object.__setattr__(tensor, "values", forced)
    return tensor


def _uniform(t000: float) -> np.ndarray:
    values = np.zeros((3, 3, 3))
    values[0, 0, 0] = t000
    return values


@pytest.mark.parametrize(
    "values, message",
    [
        (_uniform(math.nan), "must be finite, got NaN or inf"),
        (_uniform(9.0), r"outside \[0, 1\]: 1.125"),
        (_uniform(-1.0), r"outside \[0, 1\]: -0.125"),
        (_uniform(1.0 + 1e-9), "sum to 1.000000001, expected 1"),
        (3.0 * polarimetry.pauli_coefficients(make_w()), "outside"),
        (polarimetry.pauli_coefficients(make_w()) + _uniform(1e-6), "sum to"),
    ],
    ids=["nan", "above", "below", "sum", "scaled-w", "w-sum"],
)
def test_out_of_range_tensor_fails_sampling_as_it_fails_a_distribution(values, message):
    # sample_counts raises the message of one setting's outcome_distribution:
    # the worst entry's, or else the first setting whose sum is off.
    tensor = _forced_tensor(values)
    raised = []
    for i, j, k in itertools.product((0, 1), repeat=3):
        phis = tuple((p.phi, p.phi_prime)[s] for p, s in zip(OPTIMAL_PAIRS, (i, j, k)))
        with pytest.raises(ValueError) as failure:
            outcome_distribution(tensor, phis)
        raised.append(str(failure.value))
    with pytest.raises(ValueError, match=message) as failure:
        sample_counts(tensor, OPTIMAL_PAIRS, 10, seed=0)
    assert str(failure.value) in raised


@pytest.mark.parametrize("count", [0, 2, 4])
def test_sampling_needs_one_pair_per_party(count):
    pairs = [SettingsPair(0.0, 1.0)] * count
    with pytest.raises(ValueError, match=f"expected one SettingsPair per party, got {count}"):
        sample_counts(make_w(), pairs, 10, seed=1)


@pytest.mark.parametrize("count", [0, 1, 2, 4])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda n: correlation(make_w(), [0.0] * n), "expected 3 analyzer settings"),
        (lambda n: outcome_distribution(make_w(), [0.0] * n), "expected 3 analyzer settings"),
        (lambda n: correlation_tensor(make_w(), [SettingsPair(0.0, 1.0)] * n),
         "expected one SettingsPair per party"),
        (lambda n: sample_counts(make_w(), [SettingsPair(0.0, 1.0)] * n, 10, seed=1),
         "expected one SettingsPair per party"),
        (lambda n: critical_visibility(
            correlation_tensor(make_w(), [SettingsPair(0.0, 1.0)] * n), Functional.SVETLICHNY),
         "expected one SettingsPair per party"),
    ],
    ids=["correlation", "outcome_distribution", "correlation_tensor", "sample_counts",
         "critical_visibility"],
)
def test_every_entry_point_names_a_wrong_setting_count(call, message, count):
    with pytest.raises(ValueError, match=f"{message}, got {count}$"):
        call(count)


@pytest.mark.parametrize("value", [1.5, 1.0, np.float64(2.0), True, "3", None])
@pytest.mark.parametrize(
    "build",
    [
        lambda value: optimize(make_w(), Functional.MERMIN, random_restarts=value),
        lambda value: sample_counts(make_w(), COMMENT_PAIRS, value, seed=1),
        lambda value: CountTable(np.zeros((2, 2, 2, 8)), value),
    ],
    ids=["random_restarts", "n_shots", "n_shots_per_setting"],
)
def test_integer_fields_reject_non_integers(build, value):
    # A float is refused, not truncated into a different count.
    with pytest.raises(ValueError, match="must be an integer, got"):
        build(value)


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
        phis = tuple((p.phi, p.phi_prime)[s] for p, s in zip(pairs, (i, j, k)))
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
    mermin = estimate_inequality(estimate_tensor(table), Functional.MERMIN)
    svetlichny = estimate_inequality(estimate_tensor(table), Functional.SVETLICHNY)
    assert mermin.std_error == pytest.approx(2.0 / math.sqrt(n), rel=1e-15)
    assert svetlichny.std_error == pytest.approx(math.sqrt(8.0 / n), rel=1e-15)


def test_estimate_inequality_error_is_quadrature_over_sign_tensor():
    counts = np.zeros((2, 2, 2, 8), dtype=np.int64)
    for i, j, k in np.ndindex(2, 2, 2):
        counts[i, j, k] = [10 + 3 * i, 7, 2 + 5 * j, 9, 4, 6 + 4 * k, 1, 0]
        counts[i, j, k, 7] = 100 - counts[i, j, k, :7].sum()
    table = CountTable(counts, 100)
    estimated = estimate_tensor(table)
    entry_errors = estimated[1]
    mermin_terms = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    expected = {
        Functional.MERMIN: math.sqrt(sum(entry_errors[idx] ** 2 for idx in mermin_terms)),
        Functional.SVETLICHNY: math.sqrt(float((entry_errors**2).sum())),
    }
    for functional, error in expected.items():
        assert estimate_inequality(estimated, functional).std_error == pytest.approx(
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


def _counts_with(first, second) -> list:
    """Whole-number float counts of 3 shots per setting, the first row starting first, second."""
    counts = np.zeros((8, 8))
    counts[:, 0] = 3.0
    counts[0, :2] = first, second
    return counts.tolist()


def test_count_table_refuses_a_fractional_count():
    # Cast to int64, 2.5 and -0.5 would sum to 3 shots as 2 and 0.
    with pytest.raises(ValueError, match=r"^outcome count must be an integer, got 2\.5$"):
        CountTable(_counts_with(2.5, 0.5), 3)
    with pytest.raises(ValueError, match=r"^outcome count must be an integer, got -0\.5$"):
        CountTable(_counts_with(-0.5, 3.5), 3)
    assert CountTable(_counts_with(2.0, 1.0), 3).counts[0, 0, 0, :2].tolist() == [2, 1]


def test_count_table_refuses_a_nan_count_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^outcome count must be an integer, got nan$"):
            CountTable(_counts_with(math.nan, 3.0), 3)


def test_count_table_refuses_a_count_beyond_int64():
    counts = [[3] + [0] * 7 for _ in range(8)]
    counts[0][1] = 2**70
    with pytest.raises(ValueError) as refused:
        CountTable(counts, 3)
    assert str(refused.value) == f"outcome count must lie in [0, 2**63 - 1], got {2**70}"


@pytest.mark.parametrize(
    "n, row",
    [(3 * 2**61, [3 * 2**61] * 3 + [2 * 2**61]), (1, [2**63 - 1, 2**63 - 1, 3])],
    ids=["large-n", "n=1"],
)
def test_count_table_sums_large_counts_exactly(n, row):
    # In int64 the row sums to n + 2**64, which wraps to n.
    assert sum(row) == n + 2**64
    counts = np.zeros((8, 8), dtype=np.int64)
    counts[:, 0] = n
    counts[0, :len(row)] = row
    with pytest.raises(ValueError, match="exactly n_shots counts"):
        CountTable(counts, n)
    counts[0, 1:] = 0
    counts[0, 0] = n
    assert CountTable(counts, n).n_shots_per_setting == n


def test_count_table_takes_an_integer_array_as_it_is(monkeypatch):
    def refuse(count):
        raise AssertionError("an integer count was checked one by one")

    monkeypatch.setattr(shots, "_whole_count", refuse)
    counts = np.full((2, 2, 2, 8), 25, dtype=np.int64)
    assert np.array_equal(CountTable(counts, 200).counts, counts)
    sample_counts(make_w(), COMMENT_PAIRS, 1000, seed=1)


def test_z_score_with_finite_error():
    # Svetlichny sums all 8 entry errors in quadrature: 8 * 0.1**2 / 8 = 0.1**2.
    tensor = correlation_tensor(make_w(), OPTIMAL_PAIRS)
    entry_errors = np.full((2, 2, 2), 0.1 / math.sqrt(8.0))
    report = estimate_inequality((tensor, entry_errors), Functional.SVETLICHNY)
    assert report.std_error == pytest.approx(0.1, rel=1e-15)
    assert report.z_score == pytest.approx((abs(report.value) - 4.0) / 0.1)


def test_sampled_svetlichny_at_optimal_angles():
    table = sample_counts(make_w(), OPTIMAL_PAIRS, 100_000, seed=41)
    report = estimate_inequality(estimate_tensor(table), Functional.SVETLICHNY)
    assert abs(report.value - S_V_OPTIMAL) < 5.0 * report.std_error
    assert report.z_score > 3.0
    assert report.classification is Classification.RULES_OUT_HYBRID


def test_sampled_half_visibility_does_not_violate():
    noisy = mix_with_white_noise(pure_to_density(make_w()), 0.5)
    table = sample_counts(noisy, OPTIMAL_PAIRS, 100_000, seed=43)
    report = estimate_inequality(estimate_tensor(table), Functional.SVETLICHNY)
    assert abs(report.value - 0.5 * S_V_OPTIMAL) < 5.0 * report.std_error
    assert not report.violated


def test_error_bars_cover_the_exact_value_at_their_stated_rate():
    # Calibrated at 1000 shots per setting; README gives the under-coverage at 10.
    state = StateTensor(make_w(), 0.9)
    exact = correlation_tensor(state, OPTIMAL_PAIRS)
    covered = dict.fromkeys(Functional, 0)
    for seed in range(2000):
        estimated = estimate_tensor(sample_counts(state, OPTIMAL_PAIRS, 1000, seed))
        for functional in Functional:
            report = estimate_inequality(estimated, functional)
            error = abs(report.value - functional_value(exact, functional))
            covered[functional] += error <= 1.96 * report.std_error
    assert all(0.93 <= count / 2000 <= 0.97 for count in covered.values()), covered


@pytest.mark.parametrize("order", [(1, 2, 0), (2, 0, 1)], ids=["bca", "cab"])
def test_sampling_the_permuted_parties_permutes_the_estimates(order):
    # Qubit q of the permuted state is qubit order[q] of rho, measured with its
    # pair, so its estimates are rho's with their axes permuted alike; drawn
    # from another seed, they agree within the two tables' combined errors.
    rng = np.random.default_rng(34)
    inverse = np.argsort(order)
    axes = [*order, *(3 + q for q in order)]
    for seed in range(3):
        rho = random_density(rng)
        pairs = [SettingsPair(*random_angles(rng, 2)) for _ in range(3)]
        permuted = DensityMatrix(rho.entries.reshape((2,) * 6).transpose(axes).reshape(8, 8))
        tensor, errors = estimate_tensor(sample_counts(rho, pairs, 10_000, seed))
        moved, moved_errors = estimate_tensor(
            sample_counts(permuted, [pairs[q] for q in order], 10_000, seed + 100))
        difference = moved.values.transpose(inverse) - tensor.values
        combined = np.hypot(moved_errors.transpose(inverse), errors)
        assert (np.abs(difference) <= 5.0 * combined).all()


def test_functional_is_linear_in_visibility():
    rho = pure_to_density(make_w())
    exact = correlation_tensor(rho, OPTIMAL_PAIRS)
    full = functional_value(exact, Functional.SVETLICHNY)
    for v in np.linspace(0.0, 1.0, 10):
        mixed = correlation_tensor(mix_with_white_noise(rho, v), OPTIMAL_PAIRS)
        assert abs(functional_value(mixed, Functional.SVETLICHNY) - v * full) < 1e-10


def test_critical_visibility_matches_bound_ratio():
    v_star = critical_visibility(correlation_tensor(make_w(), OPTIMAL_PAIRS),
                                 Functional.SVETLICHNY)
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
    tensor = correlation_tensor(state, pairs)
    value = abs(functional_value(tensor, functional))
    assert critical_visibility(tensor, functional) == BOUND[functional] / value


def test_critical_visibility_requires_violation():
    with pytest.raises(ValueError):
        critical_visibility(correlation_tensor(make_w(), COMMENT_PAIRS), Functional.SVETLICHNY)


def test_count_table_serialization():
    table = sample_counts(make_w(), COMMENT_PAIRS, 200, seed=9)
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
    assert table.to_csv_rows()[1:] == [
        [int(key[0]), int(key[1]), int(key[2]), label, count] for key, label, count in expected
    ]


@given(seed=st.integers(0, 2**64 - 1))
@example(seed=13)
@example(seed=0)
@example(seed=2**64 - 1)
def test_each_setting_draws_from_its_own_stream(seed):
    # Setting choice (i, j, k) draws its counts from a fresh stream 4i + 2j + k.
    rho = random_density(np.random.default_rng(5), rank=3)
    pairs = (SettingsPair(0.3, 2.1), SettingsPair(4.0, 1.2), SettingsPair(5.5, 0.7))
    table = sample_counts(rho, pairs, 1_000, seed=seed)
    for i, j, k in itertools.product((0, 1), repeat=3):
        phis = tuple((p.phi, p.phi_prime)[s] for p, s in zip(pairs, (i, j, k)))
        probs = np.clip(outcome_distribution(rho, phis).probs.reshape(8), 0.0, None)
        draw = _setting_stream(seed, 4 * i + 2 * j + k).multinomial(1_000, probs / probs.sum())
        assert np.array_equal(table.counts[i, j, k], draw)


def test_estimated_report_jsonable():
    table = sample_counts(make_w(), OPTIMAL_PAIRS, 1_000, seed=2)
    report = estimate_inequality(estimate_tensor(table), Functional.MERMIN)
    data = report.to_jsonable()
    assert data["functional"] == "mermin"
    assert data["std_error"] > 0.0
    assert "z_score" in data
