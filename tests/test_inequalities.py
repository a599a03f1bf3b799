"""Tests for the correlation tensor and the Mermin/Svetlichny functionals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    analyzer_observable,
    maximally_mixed,
    pure_to_density,
    random_angles,
    random_density,
    random_pure,
)
from tribell import (
    Classification,
    CorrelationTensor,
    DensityMatrix,
    Functional,
    SettingsPair,
    StateTensor,
    classify,
    correlation,
    correlation_tensor,
    functional_value,
    make_ghz,
    make_w,
    mermin_partner_value,
    mix_with_white_noise,
    symmetric_pairs,
)
from tribell.inequalities import SETTING_CHOICES, SETTING_KEYS, pair_phases
from tribell.polarimetry import TWO_PI, wrap_phase

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
    assert SettingsPair(0.5, 1.0) == SettingsPair(0.5 + 2.0 * math.pi, 1.0 - 2.0 * math.pi)


@given(phi=st.floats(allow_nan=False, allow_infinity=False),
       phi_prime=st.floats(allow_nan=False, allow_infinity=False))
@example(phi=-0.0, phi_prime=0.0)
@example(phi=TWO_PI, phi_prime=-TWO_PI)
@example(phi=1e300, phi_prime=-1e300)
@example(phi=-1e-300, phi_prime=-5e-324)
def test_settings_pair_holds_its_phases_wrapped(phi, phi_prime):
    pair = SettingsPair(phi, phi_prime)
    phases = (pair.phi, pair.phi_prime)
    assert phases == (wrap_phase(phi), wrap_phase(phi_prime))
    assert all(0.0 <= phase < TWO_PI for phase in phases)
    # Wrapping again changes no bit, and pair_phases hands the stored phases on.
    assert [wrap_phase(phase).hex() for phase in phases] == [phase.hex() for phase in phases]
    stacked = pair_phases((pair, pair, pair))
    assert stacked.tobytes() == np.array([phases] * 3).tobytes()
    assert stacked.tobytes() == wrap_phase(np.array([[phi, phi_prime]] * 3)).tobytes()
    assert pair.is_degenerate == (wrap_phase(phi) == wrap_phase(phi_prime))


def test_w_tensor_at_tested_settings():
    tensor = correlation_tensor(make_w(), COMMENT_PAIRS)
    assert tensor.values[1, 1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert tensor.values[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert tensor.values[idx] == pytest.approx(2.0 / 3.0, abs=1e-12)
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert tensor.values[idx] == pytest.approx(0.0, abs=1e-12)


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
        a, b, c = ((p.phi, p.phi_prime)[s] for p, s in zip(pairs, (i, j, k)))
        observable = np.kron(
            np.kron(analyzer_observable(a), analyzer_observable(b)), analyzer_observable(c)
        )
        expected = float(np.trace(rho.entries @ observable).real)
        assert abs(tensor.values[i, j, k] - expected) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), pure=st.booleans(), visibility=st.floats(0.0, 1.0))
def test_correlation_is_the_tensor_entry_of_its_angles_bitwise(seed, pure, visibility):
    # One contraction gives both, so correlations --angles and --pairs print
    # the same E for the same angles.
    rng = np.random.default_rng(seed)
    state = StateTensor(random_pure(rng) if pure else random_density(rng), visibility)
    pairs = tuple(SettingsPair(*random_angles(rng, 2)) for _ in range(3))
    tensor = correlation_tensor(state, pairs)
    for i, j, k in SETTING_CHOICES:
        settings = tuple((p.phi, p.phi_prime)[s] for p, s in zip(pairs, (i, j, k)))
        assert repr(correlation(state, settings)) == repr(float(tensor.values[i, j, k]))


@given(
    seed=st.integers(0, 2**32 - 1),
    party=st.integers(0, 2),
    theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_rotating_a_qubit_about_y_shifts_its_phases(seed, party, theta):
    # R = exp(-i theta Y / 2) gives R^dagger sigma(phi) R = sigma(phi + theta),
    # so E(R rho R^dagger, phi) = E(rho, phi + theta) for the rotated party.
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    pairs = tuple(SettingsPair(*random_angles(rng, 2)) for _ in range(3))
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    factors = [np.eye(2)] * 3
    factors[party] = np.array([[c, -s], [s, c]])
    rotation = np.kron(np.kron(factors[0], factors[1]), factors[2])
    rotated = DensityMatrix(rotation @ rho.entries @ rotation.T)
    shifted = list(pairs)
    shifted[party] = SettingsPair(pairs[party].phi + theta, pairs[party].phi_prime + theta)
    expected = correlation_tensor(rho, shifted).values
    assert np.abs(correlation_tensor(rotated, pairs).values - expected).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(3)))
def test_permuting_the_qubits_permutes_the_tensor_axes(seed, order):
    # Qubit q of the permuted state is qubit order[q] of rho, measured with its pair.
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    pairs = tuple(SettingsPair(*random_angles(rng, 2)) for _ in range(3))
    axes = [*order, *(3 + q for q in order)]
    permuted = DensityMatrix(rho.entries.reshape((2,) * 6).transpose(axes).reshape(8, 8))
    tensor = correlation_tensor(permuted, [pairs[q] for q in order]).values
    expected = correlation_tensor(rho, pairs).values.transpose(order)
    assert np.abs(tensor - expected).max() < 1e-12


def test_mermin_value_cases():
    assert functional_value(tensor_from_list([0.0] * 8), Functional.MERMIN) == 0.0
    w_tensor = correlation_tensor(make_w(), COMMENT_PAIRS)
    assert functional_value(w_tensor, Functional.MERMIN) == pytest.approx(3.0, abs=1e-9)
    ghz_tensor = correlation_tensor(make_ghz("circular_rl"), COMMENT_PAIRS)
    assert functional_value(ghz_tensor, Functional.MERMIN) == pytest.approx(-4.0, abs=1e-9)


def test_svetlichny_value_cases():
    assert functional_value(tensor_from_list([0.0] * 8), Functional.SVETLICHNY) == 0.0
    tested = correlation_tensor(make_w(), COMMENT_PAIRS)
    assert functional_value(tested, Functional.SVETLICHNY) == pytest.approx(3.0, abs=1e-9)
    optimal = correlation_tensor(make_w(), OPTIMAL_PAIRS)
    assert functional_value(optimal, Functional.SVETLICHNY) == pytest.approx(4.354, abs=1e-3)


@given(entries=tensor_entries)
def test_svetlichny_decomposes_into_mermin_pair(entries):
    tensor = tensor_from_list(entries)
    combined = functional_value(tensor, Functional.MERMIN) + mermin_partner_value(tensor)
    assert abs(functional_value(tensor, Functional.SVETLICHNY) - combined) < 1e-12


@given(entries=tensor_entries)
def test_algebraic_maxima_on_random_tensors(entries):
    tensor = tensor_from_list(entries)
    assert abs(functional_value(tensor, Functional.MERMIN)) <= 4.0 + 1e-12
    assert abs(functional_value(tensor, Functional.SVETLICHNY)) <= 8.0 + 1e-12


def test_algebraic_maxima_attained_on_sign_tensors():
    mermin_best = 0.0
    svet_best = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=8):
        tensor = tensor_from_list(signs)
        mermin_best = max(mermin_best, abs(functional_value(tensor, Functional.MERMIN)))
        svet_best = max(svet_best, abs(functional_value(tensor, Functional.SVETLICHNY)))
    assert mermin_best == 4.0
    assert svet_best == 8.0


@given(seed=st.integers(0, 2**32 - 1))
def test_quantum_envelope_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    pairs = tuple(SettingsPair(*random_angles(rng, 2)) for _ in range(3))
    tensor = correlation_tensor(rho, pairs)
    assert abs(functional_value(tensor, Functional.MERMIN)) <= 4.0 + 1e-6
    assert abs(functional_value(tensor, Functional.SVETLICHNY)) <= 4.0 * math.sqrt(2.0) + 1e-6


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


@pytest.mark.parametrize("state", [make_w(), make_ghz("circular_rl")], ids=["w", "ghz-rl"])
def test_tensor_entries_on_the_15_degree_grid_stay_in_the_unit_range(state):
    # Unclipped, rounding puts 92 (W) and 12 (ghz-rl) of these tensors past [-1, 1].
    tensor = StateTensor(state)
    grid = [math.radians(15.0 * k) for k in range(24)]
    for phi, phi_prime in itertools.product(grid, repeat=2):
        values = correlation_tensor(tensor, symmetric_pairs(phi, phi_prime)).values
        assert np.abs(values).max() <= 1.0


def test_tensor_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        tensor_from_list([1.5] + [0.0] * 7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tensor_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        tensor_from_list([bad] + [0.0] * 7)


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


def test_report_jsonable_fields():
    data = classify(4.5, Functional.SVETLICHNY).to_jsonable()
    assert data["classification"] == "rules_out_hybrid"
    assert data["violated"] is True
    assert data["bound"] == 4.0
    assert data["abs_value"] == 4.5
