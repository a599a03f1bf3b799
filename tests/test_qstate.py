"""Tests for state construction, noise mixing, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import maximally_mixed, pure_to_density, random_density, random_pure
from tribell import (
    DensityMatrix,
    PureState,
    make_ghz,
    make_w,
    mix_with_white_noise,
    state_from_jsonable,
)
from tribell.qstate import HERMITIAN_ATOL, ket_index


def test_w_amplitudes():
    w = make_w()
    third = 1.0 / math.sqrt(3.0)
    for label in ("HHV", "HVH", "VHH"):
        assert w.amplitude(label) == pytest.approx(third, abs=1e-15)
    for label in ("HHH", "HVV", "VHV", "VVH", "VVV"):
        assert w.amplitude(label) == 0
    assert np.vdot(w.amplitudes, w.amplitudes).real == pytest.approx(1.0, abs=1e-12)


def test_ghz_linear_amplitudes():
    ghz = make_ghz("linear_hv")
    assert ghz.amplitude("HHH") == pytest.approx(1.0 / math.sqrt(2.0))
    assert ghz.amplitude("VVV") == pytest.approx(1.0 / math.sqrt(2.0))
    assert ghz.amplitude("HHV") == 0


def test_ghz_circular_is_normalized_with_real_amplitudes():
    ghz = make_ghz("circular_rl")
    assert np.vdot(ghz.amplitudes, ghz.amplitudes).real == pytest.approx(1.0, abs=1e-12)
    assert ghz.amplitude("HHH") == pytest.approx(0.5)
    for label in ("HVV", "VHV", "VVH"):
        assert ghz.amplitude(label) == pytest.approx(-0.5)
    assert np.abs(ghz.amplitudes.imag).max() == 0


def test_ghz_rejects_unknown_basis():
    with pytest.raises(ValueError):
        make_ghz("diagonal")


def test_ket_index_order():
    assert ket_index("HHH") == 0
    assert ket_index("HHV") == 1
    assert ket_index("VHH") == 4
    assert ket_index("VVV") == 7


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.ones(8))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pure_state_rejects_non_finite(bad):
    amps = np.zeros(8, dtype=complex)
    amps[0] = bad
    with pytest.raises(ValueError, match="finite"):
        PureState(amps)


def test_pure_to_density_w():
    rho = pure_to_density(make_w())
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
    assert rho.entry("HHV", "HVH") == pytest.approx(1.0 / 3.0, abs=1e-12)
    # rank-1 projector: idempotent with spectrum {1, 0 x 7}
    assert np.allclose(rho.entries @ rho.entries, rho.entries, atol=1e-10)
    eigenvalues = np.sort(np.linalg.eigvalsh(rho.entries))
    assert abs(eigenvalues[-1] - 1.0) < 1e-10
    assert np.abs(eigenvalues[:-1]).max() < 1e-10


def test_pure_to_density_ghz_coherence():
    rho = pure_to_density(make_ghz("linear_hv"))
    assert rho.entry("HHH", "VVV") == pytest.approx(0.5, abs=1e-12)


def test_density_matrix_rejects_bad_inputs():
    non_hermitian = np.eye(8, dtype=complex)
    non_hermitian[0, 1] = 1.0
    with pytest.raises(ValueError):
        DensityMatrix(non_hermitian)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(8) / 4.0)  # trace 2
    negative = np.zeros((8, 8))
    negative[0, 0] = 1.5
    negative[1, 1] = -0.5
    with pytest.raises(ValueError):
        DensityMatrix(negative)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_matrix_rejects_non_finite(bad):
    rho = np.eye(8, dtype=complex) / 8.0
    rho[3, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(rho)


def test_mix_with_white_noise_endpoints():
    rho = pure_to_density(make_w())
    assert np.allclose(mix_with_white_noise(rho, 1.0).entries, rho.entries, atol=1e-15)
    assert np.allclose(
        mix_with_white_noise(rho, 0.0).entries, np.eye(8) / 8.0, atol=1e-15
    )


def test_mix_with_white_noise_halfway_diagonal():
    rho = pure_to_density(make_w())
    mixed = mix_with_white_noise(rho, 0.5)
    assert mixed.entry("HHV", "HHV").real == pytest.approx(
        0.5 / 3.0 + 0.5 / 8.0, abs=1e-12
    )


@pytest.mark.parametrize("v", [-0.1, 1.1, 2.0])
def test_mix_with_white_noise_rejects_bad_visibility(v):
    with pytest.raises(ValueError):
        mix_with_white_noise(maximally_mixed(), v)


@given(
    v1=st.floats(min_value=0.0, max_value=1.0),
    v2=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mix_with_white_noise_is_affine(v1, v2, seed):
    rho = random_density(np.random.default_rng(seed))
    mid = mix_with_white_noise(rho, (v1 + v2) / 2.0)
    averaged = (
        mix_with_white_noise(rho, v1).entries + mix_with_white_noise(rho, v2).entries
    ) / 2.0
    assert np.abs(mid.entries - averaged).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
def test_random_pure_states_satisfy_invariants(seed):
    rng = np.random.default_rng(seed)
    state = random_pure(rng)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-12
    rho = pure_to_density(state)
    assert np.abs(rho.entries - rho.entries.conj().T).max() <= 1e-12
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_random_density_matrices_satisfy_invariants(seed):
    rho = random_density(np.random.default_rng(seed))
    assert np.abs(rho.entries - rho.entries.conj().T).max() <= 1e-12
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10


def test_pure_state_serialization_round_trip():
    ghz = make_ghz("circular_rl")
    restored = state_from_jsonable(ghz.to_jsonable())
    assert isinstance(restored, PureState)
    assert np.allclose(restored.amplitudes, ghz.amplitudes, atol=0)


def test_density_serialization_round_trip():
    rho = mix_with_white_noise(pure_to_density(make_w()), 0.7)
    restored = state_from_jsonable(rho.to_jsonable())
    assert isinstance(restored, DensityMatrix)
    assert np.allclose(restored.entries, rho.entries, atol=0)


def test_state_from_jsonable_rejects_bad_shape():
    with pytest.raises(ValueError):
        state_from_jsonable([[1.0, 0.0]] * 4)


@pytest.mark.parametrize(
    "data, message",
    [
        ([[True, 0]] + [[0, 0]] * 7, "got a boolean"),
        ([[1.0, False]] + [[0.0, 0.0]] * 7, "got a boolean"),
        (maximally_mixed().to_jsonable()[:7] + [[[0.125, False]] + [[0.0, 0.0]] * 7],
         "got a boolean"),
        (np.array([[True, False]] + [[False, False]] * 7), "got a boolean"),
        ([["0.7071067811865476", "0"]] * 2 + [[0, 0]] * 6, "not strings or null"),
        ([[None, 0]] + [[0, 0]] * 6 + [[1, 0]], "not strings or null; got null"),
    ],
    ids=["pure-true", "pure-false", "density-false", "numpy-bool", "pure-string", "pure-null"],
)
def test_state_from_jsonable_rejects_booleans(data, message):
    # Only a JSON int or float is a number, though each of these converts to one.
    with pytest.raises(ValueError, match=message):
        state_from_jsonable(data)


_UP = float(np.nextafter(HERMITIAN_ATOL, 1.0))
_DOWN = float(np.nextafter(HERMITIAN_ATOL, 0.0))


@given(
    seed=st.integers(0, 2**32 - 1),
    exact_base=st.booleans(),
    size=st.one_of(st.sampled_from([HERMITIAN_ATOL, _UP, _DOWN]), st.floats(0.0, 3e-12)),
    direction=st.sampled_from([1.0, -1.0, 1j, -1j, (0.6 + 0.8j)]),
)
@example(seed=0, exact_base=True, size=HERMITIAN_ATOL, direction=1.0)
@example(seed=0, exact_base=True, size=_UP, direction=1.0)
@example(seed=0, exact_base=True, size=HERMITIAN_ATOL, direction=-1j)
@example(seed=0, exact_base=True, size=_UP, direction=-1j)
def test_hermitian_check_matches_allclose(seed, exact_base, size, direction):
    # One off-diagonal entry moves, so the trace stays 1 and the spectrum moves
    # by about 1e-12: only the Hermitian check can reject.  On the maximally
    # mixed base the asymmetry is exactly the perturbation, atol itself included.
    rng = np.random.default_rng(seed)
    base = maximally_mixed() if exact_base else random_density(rng)
    rho = (base.entries + base.entries.conj().T) / 2.0
    i, j = rng.choice(8, size=2, replace=False)
    rho[i, j] += size * direction
    if np.allclose(rho, rho.conj().T, rtol=0.0, atol=HERMITIAN_ATOL):
        DensityMatrix(rho)
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(rho)
