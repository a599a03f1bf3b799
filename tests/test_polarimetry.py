"""Tests for analyzer observables, Born-rule distributions, and correlations."""

import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_angles, random_density
from tribell import (
    PureState,
    analyzer_observable,
    analyzer_projectors,
    as_density,
    correlation,
    correlation_from_distribution,
    make_ghz,
    make_w,
    maximally_mixed,
    mix_with_white_noise,
    outcome_distribution,
    pure_to_density,
    sample_counts,
    symmetric_pairs,
    wrap_phase,
)
from tribell.polarimetry import (
    OUTCOME_LABELS,
    TWO_PI,
    OutcomeDistribution,
    pauli_coefficients,
)

PAULI_Z = np.diag([1.0, -1.0])
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

finite_phases = st.floats(min_value=-8 * math.pi, max_value=8 * math.pi)


def test_analyzer_at_zero_measures_hv():
    assert np.allclose(analyzer_observable(0.0), PAULI_Z, atol=1e-12)
    plus, minus = analyzer_projectors(0.0)
    assert np.allclose(plus, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(minus, np.diag([0.0, 1.0]), atol=1e-12)


def test_analyzer_at_half_pi_is_minus_x():
    assert np.allclose(analyzer_observable(math.pi / 2.0), -PAULI_X, atol=1e-12)


@given(phi=finite_phases)
def test_analyzer_matches_closed_form(phi):
    expected = math.cos(phi) * PAULI_Z - math.sin(phi) * PAULI_X
    assert np.abs(analyzer_observable(phi) - expected).max() < 1e-12


@given(phi=finite_phases)
def test_analyzer_spectrum_is_plus_minus_one(phi):
    obs = analyzer_observable(phi)
    assert np.abs(obs - obs.conj().T).max() < 1e-12
    eigenvalues = np.sort(np.linalg.eigvalsh(obs))
    assert abs(eigenvalues[0] + 1.0) < 1e-10
    assert abs(eigenvalues[1] - 1.0) < 1e-10


@given(phi=finite_phases)
def test_projectors_complete_orthogonal(phi):
    plus, minus = analyzer_projectors(phi)
    assert np.abs(plus + minus - np.eye(2)).max() < 1e-12
    assert np.abs(plus @ minus).max() < 1e-12
    assert np.abs(plus - minus - analyzer_observable(phi)).max() < 1e-12


def test_wrap_phase_canonicalizes():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(1.25) == wrap_phase(1.25 + TWO_PI)
    assert 0.0 <= wrap_phase(-1e-20) < TWO_PI
    with pytest.raises(ValueError):
        wrap_phase(math.nan)


def test_w_distribution_at_hv_settings():
    dist = outcome_distribution(make_w(), (0.0, 0.0, 0.0))
    assert dist.prob(1, 1, -1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist.prob(1, -1, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist.prob(1, 1, 1) == pytest.approx(0.0, abs=1e-12)


def test_maximally_mixed_distribution_is_uniform():
    dist = outcome_distribution(maximally_mixed(), (0.4, 1.7, 5.1))
    assert np.allclose(dist.probs, 1.0 / 8.0, atol=1e-12)


def test_distribution_json_keys():
    dist = outcome_distribution(make_w(), (0.0, 0.0, 0.0))
    data = dist.to_jsonable()
    assert set(len(k) for k in data) == {3}
    assert data["++-"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sum(data.values()) == pytest.approx(1.0, abs=1e-10)


def test_distribution_json_follows_port_order():
    # Every probability distinct, so a swapped label or a transposed order shows.
    dist = OutcomeDistribution(np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0)
    expected = [
        ("".join("+-"[port] for port in ports), dist.probs[ports])
        for ports in itertools.product((0, 1), repeat=3)
    ]
    data = dist.to_jsonable()
    assert list(data) == list(OUTCOME_LABELS)
    assert list(data.items()) == expected


def test_outcome_distribution_validates_simplex():
    with pytest.raises(ValueError):
        OutcomeDistribution(np.full((2, 2, 2), 0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_outcome_distribution_rejects_non_finite(bad):
    probs = np.full((2, 2, 2), 1.0 / 8.0)
    probs[0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        OutcomeDistribution(probs)


@given(seed=st.integers(0, 2**32 - 1))
def test_distribution_simplex_and_consistency_on_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    phis = random_angles(rng)
    dist = outcome_distribution(rho, phis)
    assert dist.probs.min() >= -1e-12
    assert dist.probs.max() <= 1.0 + 1e-12
    assert abs(dist.probs.sum() - 1.0) < 1e-10
    value = correlation(rho, phis)
    assert abs(value - correlation_from_distribution(dist)) < 1e-10
    assert abs(value) <= 1.0 + 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_distribution_matches_kronecker_reference(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    phis = random_angles(rng)
    projectors = [analyzer_projectors(phi) for phi in phis]
    dist = outcome_distribution(rho, phis)
    for oa, ob, oc in np.ndindex(2, 2, 2):
        op = np.kron(np.kron(projectors[0][oa], projectors[1][ob]), projectors[2][oc])
        expected = float(np.trace(rho.entries @ op).real)
        assert abs(dist.probs[oa, ob, oc] - expected) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_pauli_coefficients_identity_entry_is_trace(seed):
    # tr(rho) = 1 up to the rounding of the eight diagonal entries' sum.
    coeffs = pauli_coefficients(random_density(np.random.default_rng(seed)))
    assert abs(coeffs[0, 0, 0] - 1.0) < 1e-12


#: A PureState and a DensityMatrix: the tensor cache keys on either.
STATE_KINDS = (make_w, lambda: as_density(make_w()))


def test_pauli_coefficients_are_held_read_only_per_density_matrix():
    for make_state in STATE_KINDS:
        state = make_state()
        coeffs = pauli_coefficients(state)
        assert pauli_coefficients(state) is coeffs
        assert correlation(state, (0.0, 0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
        assert pauli_coefficients(state) is coeffs
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0, 0, 0] = 0.0
        # An equal state is another instance: its own, equal tensor.
        twin = make_state()
        assert pauli_coefficients(twin) is not coeffs
        assert np.array_equal(pauli_coefficients(twin), coeffs)


def test_pauli_coefficients_keep_no_state_alive():
    for make_state in STATE_KINDS:
        state = make_state()
        pauli_coefficients(state)
        alive = weakref.ref(state)
        del state
        assert alive() is None


@pytest.mark.parametrize(
    "call",
    [
        pauli_coefficients,
        lambda state: correlation(state, (0.0, 0.0, 0.0)),
        lambda state: sample_counts(state, symmetric_pairs(0.0, 1.0), 10, seed=0),
    ],
    ids=["pauli_coefficients", "correlation", "sample_counts"],
)
def test_non_state_is_rejected_before_the_cache(call):
    with pytest.raises(ValueError, match="expected PureState or DensityMatrix, got str"):
        call("w")


def test_pauli_coefficients_under_concurrent_first_calls():
    # Threads racing on each state's first call must all get the one stored
    # array; a lost update would hand some of them a second copy.
    states = [make_state() for make_state in STATE_KINDS for _ in range(100)]
    seen = [[] for _ in range(6)]

    def work(out):
        out.extend(id(pauli_coefficients(rho)) for rho in states)

    threads = [threading.Thread(target=work, args=(out,)) for out in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == [id(pauli_coefficients(rho)) for rho in states] for out in seen)


@pytest.mark.parametrize("visibility", [1.0, 0.9123])
@pytest.mark.parametrize(
    "state", [make_w(), make_ghz("linear_hv"), make_ghz("circular_rl")],
    ids=["w", "ghz-hv", "ghz-rl"],
)
def test_zx_coefficients_equal_kronecker_traces_bitwise(state, visibility):
    # The optimizer's objective reads these coefficients, so its reported
    # optima for the named states depend on every bit of them.
    mixed = mix_with_white_noise(as_density(state), visibility)
    paulis = (PAULI_Z, PAULI_X)
    reference = np.empty((2, 2, 2))
    for u, v, w in np.ndindex(2, 2, 2):
        op = np.kron(np.kron(paulis[u], paulis[v]), paulis[w])
        reference[u, v, w] = float(np.trace(mixed.entries @ op).real)
    assert np.array_equal(pauli_coefficients(mixed)[1:, 1:, 1:], reference)


def test_w_correlations_known_values():
    w = make_w()
    assert correlation(w, (0.0, 0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
    assert correlation(w, (math.pi / 2, math.pi / 2, 0.0)) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )


def test_circular_ghz_correlation_closed_form():
    ghz = make_ghz("circular_rl")
    rng = np.random.default_rng(7)
    for _ in range(10):
        phis = random_angles(rng)
        assert correlation(ghz, phis) == pytest.approx(
            math.cos(float(phis.sum())), abs=1e-10
        )


@given(seed=st.integers(0, 2**32 - 1))
def test_product_state_correlation_factorizes(seed):
    hhh = np.zeros(8)
    hhh[0] = 1.0
    rho = pure_to_density(PureState(hhh))
    phis = random_angles(np.random.default_rng(seed))
    expected = math.cos(phis[0]) * math.cos(phis[1]) * math.cos(phis[2])
    assert abs(correlation(rho, phis) - expected) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_correlation_two_pi_periodic(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng)
    phis = random_angles(rng)
    base = correlation(rho, phis)
    for axis in range(3):
        shifted = phis.copy()
        shifted[axis] += TWO_PI
        assert abs(correlation(rho, shifted) - base) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_w_correlation_invariant_under_global_sign_flip(seed):
    w = make_w()
    phis = random_angles(np.random.default_rng(seed))
    assert abs(correlation(w, phis) - correlation(w, -phis)) < 1e-10
