"""Tests for hidden-variable strategy enumeration and exact model bounds."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tribell import (
    CorrelationTensor,
    Functional,
    ModelClass,
    Partition,
    cli,
    enumerate_hybrid,
    enumerate_local,
    functional_value,
    lhv_max,
    mixture_tensor,
    strategy_tensor,
)
from tribell.lhv import LocalStrategy, _maximize


def test_enumeration_sizes_and_uniqueness():
    local = enumerate_local()
    assert len(local) == 64
    assert len(set(local)) == 64
    for partition in Partition:
        assert len(enumerate_hybrid(partition)) == 1024
    hybrid = enumerate_hybrid()
    assert len(hybrid) == 3072
    assert len(set(hybrid)) == 3072


def test_strategy_tensor_constant_strategies():
    always_plus = LocalStrategy(((1, 1), (1, 1), (1, 1)))
    assert np.all(strategy_tensor(always_plus).values == 1.0)
    c_always_minus = LocalStrategy(((1, 1), (1, 1), (-1, -1)))
    assert np.all(strategy_tensor(c_always_minus).values == -1.0)


@pytest.mark.parametrize(
    "model,enumerate_model",
    [(ModelClass.LOCAL, enumerate_local), (ModelClass.HYBRID, enumerate_hybrid)],
)
def test_closed_form_maximum_is_the_first_maximizer_of_every_sign_tensor(model, enumerate_model):
    # Reference: every strategy tensor as one +-1 matrix in enumeration order,
    # scored against each of the 3**8 sign tensors in {-1, 0, 1}**8 at once.
    strategies = enumerate_model()
    matrix = np.array([strategy_tensor(s).values.reshape(8) for s in strategies])
    signs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=8)))
    scores = signs @ matrix.T
    for row, row_scores in zip(signs, scores):
        first = int(row_scores.argmax())
        value, witness = _maximize(row, model)
        assert value == row_scores[first]
        assert witness == strategies[first]


def test_all_strategy_tensors_are_sign_valued():
    for strategy in enumerate_local() + enumerate_hybrid():
        values = strategy_tensor(strategy).values
        assert set(np.unique(values)) <= {-1.0, 1.0}


@pytest.mark.parametrize(
    "functional,model,expected",
    [
        (Functional.MERMIN, ModelClass.LOCAL, 2.0),
        (Functional.MERMIN, ModelClass.HYBRID, 4.0),
        (Functional.SVETLICHNY, ModelClass.LOCAL, 4.0),
        (Functional.SVETLICHNY, ModelClass.HYBRID, 4.0),
    ],
)
def test_lhv_max_exact_bounds_with_witnesses(capsys, functional, model, expected):
    result = lhv_max(functional, model)
    assert result.max_value == expected
    # Reference: score every strategy in enumeration order, keep the first maximizer.
    strategies = enumerate_local() if model is ModelClass.LOCAL else enumerate_hybrid()
    best_value, best_strategy = -np.inf, None
    for strategy in strategies:
        value = functional_value(strategy_tensor(strategy), functional)
        if value > best_value:
            best_value, best_strategy = value, strategy
    assert result.max_value == best_value
    assert result.witness == best_strategy
    argv = ["--functional", functional.value, "--model", model.value, "--format", "json"]
    assert cli.main(["lhv-scan", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["max_value"], report["witness"]) == (best_value, best_strategy.to_jsonable())
    assert functional_value(strategy_tensor(result.witness), functional) == result.max_value


def test_hybrid_witness_reaches_mermin_algebraic_maximum():
    witness = lhv_max(Functional.MERMIN, ModelClass.HYBRID).witness
    assert functional_value(strategy_tensor(witness), Functional.MERMIN) == 4.0
    payload = witness.to_jsonable()
    assert payload["model"] == "hybrid"
    assert set(payload["pair_outputs"]) == {"00", "01", "10", "11"}
    assert set(payload["solo_outputs"]) == {"unprimed", "primed"}


def test_local_witness_serialization():
    payload = lhv_max(Functional.MERMIN, ModelClass.LOCAL).witness.to_jsonable()
    assert payload["model"] == "local"
    assert set(payload["outputs"]) == {"a", "b", "c"}


def test_mixture_single_strategy_is_its_tensor():
    strategy = enumerate_local()[13]
    mixed = mixture_tensor([(1.0, strategy)])
    assert np.array_equal(mixed.values, strategy_tensor(strategy).values)


def test_mixture_with_global_flip_cancels():
    strategy = LocalStrategy(((1, -1), (1, 1), (-1, 1)))
    flipped = LocalStrategy(((-1, 1), (1, 1), (-1, 1)))  # party a negated
    mixed = mixture_tensor([(0.5, strategy), (0.5, flipped)])
    assert np.all(mixed.values == 0.0)


def test_mixture_rejects_bad_weights():
    strategy = enumerate_local()[0]
    with pytest.raises(ValueError):
        mixture_tensor([])
    with pytest.raises(ValueError):
        mixture_tensor([(0.7, strategy)])
    with pytest.raises(ValueError):
        mixture_tensor([(-0.1, strategy), (1.1, strategy)])


def test_mixture_names_a_nan_probability():
    strategy = enumerate_local()[0]
    with pytest.raises(ValueError, match="^mixture probabilities must be nonnegative, got nan$"):
        mixture_tensor([(0.5, strategy), (math.nan, strategy), (0.5, strategy)])


@given(seed=st.integers(0, 2**32 - 1))
def test_local_mixtures_respect_both_bounds(seed):
    rng = np.random.default_rng(seed)
    local = enumerate_local()
    chosen = rng.integers(0, len(local), size=6)
    weights = rng.dirichlet(np.ones(6))
    mixed = mixture_tensor([(w, local[i]) for w, i in zip(weights, chosen)])
    assert abs(functional_value(mixed, Functional.MERMIN)) <= 2.0 + 1e-12
    assert abs(functional_value(mixed, Functional.SVETLICHNY)) <= 4.0 + 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    partition=st.sampled_from(list(Partition)),
)
def test_hybrid_mixtures_respect_svetlichny_bound(seed, partition):
    rng = np.random.default_rng(seed)
    pool = enumerate_hybrid(partition)
    chosen = rng.integers(0, len(pool), size=6)
    weights = rng.dirichlet(np.ones(6))
    mixed = mixture_tensor([(w, pool[i]) for w, i in zip(weights, chosen)])
    assert abs(functional_value(mixed, Functional.SVETLICHNY)) <= 4.0 + 1e-12
    assert abs(functional_value(mixed, Functional.MERMIN)) <= 4.0 + 1e-12


def _relabeled(values, party_order, prime_flips):
    relabeled = np.transpose(values, party_order)
    for axis, flip in enumerate(prime_flips):
        if flip:
            relabeled = np.flip(relabeled, axis=axis)
    return CorrelationTensor(relabeled.copy())


def test_local_mermin_bound_invariant_under_relabelings():
    tensors = [strategy_tensor(s).values for s in enumerate_local()]
    for party_order in itertools.permutations(range(3)):
        for prime_flips in itertools.product((False, True), repeat=3):
            best = max(
                abs(functional_value(_relabeled(values, party_order, prime_flips),
                                     Functional.MERMIN))
                for values in tensors
            )
            assert best == 2.0


def test_lhv_max_is_computed_once_per_functional_and_model():
    from tribell.lhv import _lhv_max

    first = {(f, m): lhv_max(f, m) for f in Functional for m in ModelClass}
    for (functional, model), result in first.items():
        assert lhv_max(functional.value, model.value) is result
        assert lhv_max(functional, model) is result
    assert _lhv_max.cache_info().currsize == 4
    result = first[Functional.SVETLICHNY, ModelClass.HYBRID]
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.max_value = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.witness.solo_outputs = (1, 1)
