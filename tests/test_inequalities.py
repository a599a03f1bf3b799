"""Tests for the correlation tensor and the Mermin/Svetlichny functionals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_angles, random_density, random_pure
from tribell import (
    Classification,
    CorrelationTensor,
    Functional,
    SettingsPair,
    analyzer_observable,
    classify,
    correlation_tensor,
    make_ghz,
    make_w,
    maximally_mixed,
    mermin_partner_value,
    mermin_value,
    mix_with_white_noise,
    pure_to_density,
    svetlichny_value,
    symmetric_pairs,
)
from tribell.inequalities import SETTING_CHOICES, SETTING_KEYS

COMMENT_PAIRS = symmetric_pairs(math.pi / 2.0, 0.0)
OPTIMAL_PAIRS = symmetric_pairs(math.radians(35.264), math.radians(144.736))

tensor_entries = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8
)


def tensor_from_list(entries) -> CorrelationTensor:
    return CorrelationTensor(np.array(entries).reshape(2, 2, 2))


def test_settings_pair_degenerate_flag():
    assert SettingsPair(0.5, 0.5).is_degenerate
    assert SettingsPair(0.5, 0.5 + 2.0 * math.pi).is_degenerate
    assert not SettingsPair(math.pi / 2.0, 0.0).is_degenerate
    with pytest.raises(ValueError):
        SettingsPair(math.inf, 0.0)


def test_w_tensor_at_tested_settings():
    tensor = correlation_tensor(make_w(), COMMENT_PAIRS)
    assert tensor[1, 1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert tensor[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert tensor[idx] == pytest.approx(2.0 / 3.0, abs=1e-12)
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert tensor[idx] == pytest.approx(0.0, abs=1e-12)


def test_maximally_mixed_tensor_vanishes():
    tensor = correlation_tensor(maximally_mixed(), OPTIMAL_PAIRS)
    assert np.abs(tensor.values).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1), visibility=st.floats(min_value=0.0, max_value=1.0))
def test_correlation_tensor_matches_kronecker_reference(seed, visibility):
    rng = np.random.default_rng(seed)
    rho = mix_with_white_noise(pure_to_density(random_pure(rng)), visibility)
    pairs = tuple(SettingsPair(*random_angles(rng, 2)) for _ in range(3))
    tensor = correlation_tensor(rho, pairs)
    for i, j, k in itertools.product((0, 1), repeat=3):
        observable = np.kron(
            np.kron(analyzer_observable(pairs[0].setting(i)),
                    analyzer_observable(pairs[1].setting(j))),
            analyzer_observable(pairs[2].setting(k)),
        )
        expected = float(np.trace(rho.entries @ observable).real)
        assert abs(tensor[i, j, k] - expected) < 1e-12


def test_mermin_value_cases():
    assert mermin_value(tensor_from_list([0.0] * 8)) == 0.0
    assert mermin_value(correlation_tensor(make_w(), COMMENT_PAIRS)) == pytest.approx(
        3.0, abs=1e-9
    )
    ghz_tensor = correlation_tensor(make_ghz("circular_rl"), COMMENT_PAIRS)
    assert mermin_value(ghz_tensor) == pytest.approx(-4.0, abs=1e-9)


def test_svetlichny_value_cases():
    assert svetlichny_value(tensor_from_list([0.0] * 8)) == 0.0
    assert svetlichny_value(
        correlation_tensor(make_w(), COMMENT_PAIRS)
    ) == pytest.approx(3.0, abs=1e-9)
    assert svetlichny_value(
        correlation_tensor(make_w(), OPTIMAL_PAIRS)
    ) == pytest.approx(4.354, abs=1e-3)


@given(entries=tensor_entries)
def test_svetlichny_decomposes_into_mermin_pair(entries):
    tensor = tensor_from_list(entries)
    combined = mermin_value(tensor) + mermin_partner_value(tensor)
    assert abs(svetlichny_value(tensor) - combined) < 1e-12


@given(entries=tensor_entries)
def test_algebraic_maxima_on_random_tensors(entries):
    tensor = tensor_from_list(entries)
    assert abs(mermin_value(tensor)) <= 4.0 + 1e-12
    assert abs(svetlichny_value(tensor)) <= 8.0 + 1e-12


def test_algebraic_maxima_attained_on_sign_tensors():
    mermin_best = 0.0
    svet_best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=8):
        tensor = tensor_from_list(signs)
        mermin_best = max(mermin_best, abs(mermin_value(tensor)))
        svet_best = max(svet_best, abs(svetlichny_value(tensor)))
    assert mermin_best == 4.0
    assert svet_best == 8.0


@given(seed=st.integers(0, 2**32 - 1))
def test_quantum_envelope_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    pairs = tuple(SettingsPair(*random_angles(rng, 2)) for _ in range(3))
    tensor = correlation_tensor(rho, pairs)
    assert abs(mermin_value(tensor)) <= 4.0 + 1e-6
    assert abs(svetlichny_value(tensor)) <= 4.0 * math.sqrt(2.0) + 1e-6


def test_classify_mermin_violation_never_rules_out_hybrid():
    report = classify(3.0, Functional.MERMIN)
    assert report.violated
    assert report.classification is Classification.RULES_OUT_LOCAL_ONLY
    assert report.bound == 2.0
    assert report.algebraic_max == 4.0
    maximal = classify(4.0, Functional.MERMIN)
    assert maximal.classification is Classification.RULES_OUT_LOCAL_ONLY


def test_classify_svetlichny_cases():
    below = classify(3.0, Functional.SVETLICHNY)
    assert not below.violated
    assert below.classification is Classification.CONSISTENT_WITH_LOCAL
    above = classify(4.354, Functional.SVETLICHNY)
    assert above.violated
    assert above.classification is Classification.RULES_OUT_HYBRID
    negative = classify(-4.354, Functional.SVETLICHNY)
    assert negative.violated


@given(
    value=st.floats(min_value=-9.0, max_value=9.0),
    functional=st.sampled_from(list(Functional)),
)
def test_classify_violation_iff_above_bound(value, functional):
    report = classify(value, functional)
    assert report.violated == (abs(value) > report.bound)
    if not report.violated:
        assert report.classification is Classification.CONSISTENT_WITH_LOCAL


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classify_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        classify(bad, Functional.SVETLICHNY)


def test_report_degenerate_flag_passthrough():
    assert classify(1.0, Functional.MERMIN, degenerate=True).degenerate
    assert not classify(1.0, Functional.MERMIN).degenerate


def test_tensor_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        tensor_from_list([1.5] + [0.0] * 7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tensor_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        tensor_from_list([bad] + [0.0] * 7)


def test_tensor_json_round_trip():
    tensor = correlation_tensor(make_w(), OPTIMAL_PAIRS)
    restored = CorrelationTensor.from_jsonable(tensor.to_jsonable())
    assert np.allclose(restored.values, tensor.values, atol=0)


def test_tensor_csv_rows():
    tensor = correlation_tensor(make_w(), COMMENT_PAIRS)
    rows = tensor.to_csv_rows()
    assert rows[0] == ["i", "j", "k", "E"]
    assert len(rows) == 9
    assert rows[-1][:3] == [1, 1, 1]
    assert rows[-1][3] == pytest.approx(-1.0, abs=1e-12)


def test_tensor_serializes_in_setting_order():
    # Every entry distinct, so a swapped key or a transposed order shows.
    tensor = tensor_from_list((np.arange(8.0) - 3.5) / 4.0)
    choices = list(itertools.product((0, 1), repeat=3))
    data = tensor.to_jsonable()
    assert list(data) == list(SETTING_KEYS)
    assert SETTING_CHOICES == tuple(choices)
    assert list(data.items()) == [(f"{i}{j}{k}", tensor.values[i, j, k]) for i, j, k in choices]
    assert tensor.to_csv_rows()[1:] == [[*ijk, tensor.values[ijk]] for ijk in choices]
    assert np.array_equal(CorrelationTensor.from_jsonable(data).values, tensor.values)


def test_report_jsonable_fields():
    data = classify(4.5, Functional.SVETLICHNY).to_jsonable()
    assert data["classification"] == "rules_out_hybrid"
    assert data["violated"] is True
    assert data["bound"] == 4.0
    assert data["abs_value"] == 4.5
