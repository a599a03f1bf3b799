"""Tests for analyzer observables, Born-rule distributions, and correlations."""

import itertools
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    analyzer_observable,
    analyzer_projectors,
    maximally_mixed,
    pure_to_density,
    random_angles,
    random_density,
    random_pure,
)
from tribell import (
    DensityMatrix,
    PureState,
    SettingsPair,
    StateTensor,
    as_density,
    correlation,
    correlation_from_distribution,
    correlation_tensor,
    make_ghz,
    make_w,
    mix_with_white_noise,
    outcome_distribution,
    sample_counts,
    symmetric_pairs,
    wrap_phase,
)
from tribell import polarimetry
from tribell.polarimetry import (
    OUTCOME_LABELS,
    TWO_PI,
    OutcomeDistribution,
    analyzer_weights,
    pauli_coefficients,
)
from tribell.qstate import EIGENVALUE_ATOL, HERMITIAN_ATOL

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


@given(phases=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=6))
@example(phases=[-7.5, 40.0])
def test_analyzer_weights_are_the_kronecker_observables_z_and_x_parts(phases):
    weights = analyzer_weights(np.array(phases))
    assert weights.shape == (len(phases), 2)
    for phi, (z, x) in zip(phases, weights):
        obs = analyzer_observable(phi)
        assert abs(z - 0.5 * np.trace(obs @ PAULI_Z).real) < 1e-12
        assert abs(x - 0.5 * np.trace(obs @ -PAULI_X).real) < 1e-12
    column = analyzer_weights(np.array(phases)[:, None])
    assert column.shape == (len(phases), 1, 2)
    assert np.array_equal(column[:, 0], weights)


def test_wrap_phase_canonicalizes():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(1.25) == wrap_phase(1.25 + TWO_PI)
    assert 0.0 <= wrap_phase(-1e-20) < TWO_PI
    with pytest.raises(ValueError):
        wrap_phase(math.nan)


def _reference_wrap(phi: float) -> float:
    """Python's float % with a remainder rounded up to 2*pi taken to 0."""
    wrapped = phi % TWO_PI
    return 0.0 if wrapped >= TWO_PI else wrapped


WRAP_EDGES = [-1e-20, -0.0, 0.0, TWO_PI, -TWO_PI, 8 * math.pi, -8 * math.pi, 1e300, -1e300,
              5e-324, -5e-324]


@given(
    phases=hnp.arrays(
        float,
        hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=5),
        elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(WRAP_EDGES)),
    )
)
@example(phases=np.array(WRAP_EDGES))
@example(phases=np.array(WRAP_EDGES).reshape(11, 1, 1))
def test_wrap_phase_of_an_array_is_the_scalar_rule_bitwise(phases):
    given_phases = phases.copy()
    wrapped = wrap_phase(phases)
    assert isinstance(wrapped, np.ndarray) and wrapped is not phases
    assert wrapped.shape == phases.shape
    assert np.array_equal(phases.view(np.uint64), given_phases.view(np.uint64))
    expected = np.array([_reference_wrap(phi) for phi in phases.ravel().tolist()])
    # Compared as bits, so -0.0 against 0.0 fails.
    assert np.array_equal(wrapped.ravel().view(np.uint64), expected.view(np.uint64))
    for phi, bits in zip(phases.ravel().tolist(), expected.view(np.uint64).tolist()):
        scalar = wrap_phase(phi)
        assert type(scalar) is float
        assert np.array(scalar).view(np.uint64) == bits


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_is_refused_at_every_entry_point(bad):
    # Raised before any arithmetic, so no RuntimeWarning, an error under
    # this suite's filterwarnings, is emitted either.
    message = f"^{re.escape(f'analyzer phase must be finite, got {bad}')}$"
    calls = (
        lambda: wrap_phase(bad),
        lambda: wrap_phase(np.array([bad])),
        # The first non-finite phase is named, here and in the tuples below.
        lambda: wrap_phase(np.array([[0.5, bad], [math.nan, -math.inf]])),
        lambda: wrap_phase([[1e300, bad, math.inf]]),
        lambda: correlation(make_w(), (0.0, bad, math.nan)),
        lambda: outcome_distribution(make_w(), (bad, 1.0, -math.inf)),
        lambda: outcome_distribution(StateTensor(make_w(), 0.5), (2.0, 3.0, bad)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_w_distribution_at_hv_settings():
    dist = outcome_distribution(make_w(), (0.0, 0.0, 0.0))
    assert dist.prob(1, 1, -1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist.prob(1, -1, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert dist.prob(1, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert dist.prob(-1, -1, -1) == 0.0  # not the -2.8e-17 its contraction rounds to


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


#: W and both GHZ forms, whose distributions have exact zeros at H/V-aligned
#: settings that rounding can push below 0.
NAMED_STATES = (make_w(), make_ghz("linear_hv"), make_ghz("circular_rl"))
grid_or_finite_phases = st.one_of(
    st.integers(-24, 48).map(lambda k: math.radians(15.0 * k)), finite_phases
)


@given(
    state=st.sampled_from(NAMED_STATES),
    phis=st.lists(grid_or_finite_phases, min_size=3, max_size=3),
)
@example(state=NAMED_STATES[0], phis=[0.0, 0.0, 0.0])
def test_outcome_probabilities_are_never_negative(state, phis):
    probs = outcome_distribution(state, phis).probs
    assert probs.min() >= 0.0
    assert probs.max() <= 1.0
    assert abs(probs.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("state", [make_w(), make_ghz("circular_rl")], ids=["w", "ghz-rl"])
def test_correlations_on_the_15_degree_grid_stay_in_the_unit_range(state):
    # Unclipped, rounding puts 8 (W) and 57 (ghz-rl) of these triples 2.2e-16 past 1.
    tensor = StateTensor(state)
    grid = [math.radians(15.0 * k) for k in range(24)]
    values = [correlation(tensor, phis) for phis in itertools.product(grid, repeat=3)]
    assert min(values) >= -1.0
    assert max(values) <= 1.0


def _edge_density(rng, rotated: bool, skewed: bool) -> DensityMatrix:
    """An accepted state whose smallest eigenvalues reach -EIGENVALUE_ATOL.

    1 to 7 eigenvalues sit at the tolerance, exactly for a diagonal state and
    within rounding of it for one rotated by a random unitary.  A skewed state
    also has its upper triangle, which eigvalsh does not read, moved by just
    under HERMITIAN_ATOL, so that its Hermitian part reaches further still.
    """
    negative = int(rng.integers(1, 8))
    reach = EIGENVALUE_ATOL * (1.0 - 1e-4 if rotated else 1.0)
    lam = np.zeros(8)
    lam[:negative] = -reach
    lam[negative:] = rng.dirichlet(np.ones(8 - negative)) * (1.0 + negative * reach)
    rng.shuffle(lam)
    rho = np.diag(lam).astype(complex)
    if rotated:
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        rho = (q * lam) @ q.conj().T
        rho = (rho + rho.conj().T) / 2.0
    if skewed:
        rho += np.triu(np.full((8, 8), -0.999 * HERMITIAN_ATOL), 1)
    return DensityMatrix(rho)


@given(
    seed=st.integers(0, 2**32 - 1),
    rotated=st.booleans(),
    skewed=st.booleans(),
    axis_phases=st.booleans(),
)
@example(seed=0, rotated=False, skewed=False, axis_phases=True)
@example(seed=0, rotated=True, skewed=True, axis_phases=True)
def test_states_at_the_tolerances_give_every_born_number(seed, rotated, skewed, axis_phases):
    rng = np.random.default_rng(seed)
    rho = _edge_density(rng, rotated, skewed)
    x = rng.integers(0, 4, 6) * (math.pi / 2.0) if axis_phases else random_angles(rng, 6)
    pairs = tuple(SettingsPair(x[2 * p], x[2 * p + 1]) for p in range(3))
    probs = outcome_distribution(rho, x[::2]).probs
    assert probs.min() >= 0.0 and probs.max() <= 1.0
    assert abs(correlation(rho, x[::2])) <= 1.0
    assert np.abs(correlation_tensor(rho, pairs).values).max() <= 1.0
    assert sample_counts(rho, pairs, 10, seed=0).counts.sum() == 80


@given(
    seed=st.integers(0, 2**32 - 1),
    rotated=st.booleans(),
    skewed=st.booleans(),
    axis_phases=st.booleans(),
)
@example(seed=0, rotated=False, skewed=False, axis_phases=True)
def test_a_reported_distribution_is_accepted_again_unchanged(seed, rotated, skewed, axis_phases):
    # At seed 0 the clip raises six probabilities of -1e-10 to 0, so the
    # reported ones sum to 1 + 6e-10: the sum rule must accept what it reports.
    rng = np.random.default_rng(seed)
    rho = _edge_density(rng, rotated, skewed)
    x = rng.integers(0, 4, 6) * (math.pi / 2.0) if axis_phases else random_angles(rng, 6)
    probs = outcome_distribution(rho, x[::2]).probs
    assert OutcomeDistribution(probs).probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("state", NAMED_STATES, ids=["w", "ghz-hv", "ghz-rl"])
def test_outcome_distribution_checks_its_row_once(monkeypatch, state):
    calls = []
    in_range = polarimetry._in_range

    def counting_in_range(*args):
        calls.append(args)
        return in_range(*args)

    monkeypatch.setattr(polarimetry, "_in_range", counting_in_range)
    outcome_distribution(StateTensor(state), [0.0, 0.5, 1.0])
    assert len(calls) == 1


def test_outcome_distribution_clips_rounding_into_the_unit_interval():
    probs = np.full((2, 2, 2), 1.0 / 6.0)
    probs[0, 0, 0] = -1e-13
    probs[1, 1, 1] = 0.0
    dist = OutcomeDistribution(probs)
    assert dist.probs[0, 0, 0] == 0.0
    assert dist.probs.min() >= 0.0
    probs[0, 0, 0] = -1e-9
    with pytest.raises(ValueError, match="outside"):
        OutcomeDistribution(probs)


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


@given(seed=st.integers(0, 2**32 - 1), named=st.sampled_from([None, *NAMED_STATES]))
@example(seed=0, named=NAMED_STATES[0])
@example(seed=0, named=NAMED_STATES[1])
@example(seed=0, named=NAMED_STATES[2])
def test_pure_state_expands_as_its_validated_projector_bitwise(seed, named):
    # A pure state skips the DensityMatrix; every bit of T, sign bits included,
    # is what its validated projector gives.
    state = named or random_pure(np.random.default_rng(seed))
    direct = pauli_coefficients(state)
    assert direct.tobytes() == pauli_coefficients(pure_to_density(state)).tobytes()
    assert not direct.flags.writeable


#: A PureState and a DensityMatrix: pauli_coefficients takes either.
STATE_KINDS = (make_w, lambda: as_density(make_w()))


def test_pauli_coefficients_are_held_read_only_per_density_matrix():
    for make_state in STATE_KINDS:
        state = make_state()
        coeffs = pauli_coefficients(state)
        assert correlation(state, (0.0, 0.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)
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


@pytest.mark.parametrize("visibility", [1.0, 0.9123])
@pytest.mark.parametrize(
    "state", [make_w(), make_ghz("linear_hv"), make_ghz("circular_rl")],
    ids=["w", "ghz-hv", "ghz-rl"],
)
def test_zx_coefficients_equal_kronecker_traces_bitwise(state, visibility):
    # The optimizer's objective reads these coefficients, so its reported
    # optima for the named states depend on every bit of them.
    mixed = mix_with_white_noise(as_density(state), visibility)
    paulis = (PAULI_Z, -PAULI_X)
    reference = np.empty((2, 2, 2))
    for u, v, w in np.ndindex(2, 2, 2):
        op = np.kron(np.kron(paulis[u], paulis[v]), paulis[w])
        reference[u, v, w] = float(np.trace(mixed.entries @ op).real)
    assert np.array_equal(pauli_coefficients(mixed)[1:, 1:, 1:], reference)


@given(
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
    visibility=st.floats(0.0, 1.0),
)
def test_state_tensor_mixes_white_noise_into_the_coefficients(seed, pure, visibility):
    rng = np.random.default_rng(seed)
    state = random_pure(rng) if pure else random_density(rng)
    mixed = pauli_coefficients(StateTensor(state, visibility))
    reference = pauli_coefficients(mix_with_white_noise(as_density(state), visibility))
    assert np.abs(mixed - reference).max() <= 1e-15
    assert not mixed.flags.writeable
    assert np.array_equal(StateTensor(state, 1.0).values, pauli_coefficients(state))


@given(
    seed=st.integers(0, 2**32 - 1),
    pure=st.booleans(),
    outer=st.floats(0.0, 1.0),
    inner=st.floats(0.0, 1.0),
)
@example(seed=0, pure=True, outer=0.7, inner=0.9)
def test_state_tensor_of_a_state_tensor_multiplies_the_visibilities(seed, pure, outer, inner):
    # Rescaling a StateTensor holds, and records, the state at the product of
    # the two visibilities; at v = 1 it passes through unchanged to the bit.
    rng = np.random.default_rng(seed)
    state = random_pure(rng) if pure else random_density(rng)
    tensor = StateTensor(state, inner)
    nested = StateTensor(tensor, outer)
    assert nested.visibility == inner * outer
    assert np.abs(nested.values - StateTensor(state, inner * outer).values).max() <= 1e-15
    assert np.array_equal(StateTensor(tensor).values, tensor.values)


@given(
    visibility=st.one_of(
        st.floats(max_value=0.0, exclude_max=True),
        st.floats(min_value=1.0, exclude_min=True),
        st.just(math.nan),
    )
)
def test_state_tensor_rejects_visibility_outside_the_unit_interval(visibility):
    with pytest.raises(ValueError, match="visibility must lie in"):
        StateTensor(make_w(), visibility)


def test_state_tensor_rejects_a_non_state():
    with pytest.raises(ValueError, match="expected PureState or DensityMatrix, got str"):
        StateTensor("w", 0.9)


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
