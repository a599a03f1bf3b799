"""Acceptance gate: every headline number and property at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) and then
asserts, so the suite doubles as a human-readable scorecard.
"""

import itertools
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    analyzer_observable,
    min_symmetry_distance,
    pure_to_density,
    random_angles,
    random_density,
    random_pure,
)
from tribell import (
    Classification,
    CorrelationTensor,
    Functional,
    ModelClass,
    classify,
    correlation,
    correlation_from_distribution,
    correlation_tensor,
    critical_visibility,
    enumerate_hybrid,
    enumerate_local,
    estimate_inequality,
    estimate_tensor,
    functional_value,
    lhv_max,
    make_ghz,
    make_w,
    mix_with_white_noise,
    mixture_tensor,
    optimize,
    outcome_distribution,
    sample_counts,
    strategy_tensor,
    symmetric_pairs,
)
from tribell.cli import run_reproduction

ROOT = Path(__file__).resolve().parent.parent
TESTED_PAIRS = symmetric_pairs(math.pi / 2.0, 0.0)
QUOTED_PAIRS = symmetric_pairs(math.radians(35.264), math.radians(144.736))


def _check(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_svetlichny_prediction_at_tested_settings():
    value = functional_value(correlation_tensor(make_w(), TESTED_PAIRS), Functional.SVETLICHNY)
    _check(
        "criterion 1 (S_V of W at (90, 0) deg)",
        abs(value - 3.0) <= 1e-9,
        f"S_V = {value!r}, expected 3 within 1e-9",
    )


def test_criterion_2_mermin_companion_value():
    tensor = correlation_tensor(make_w(), TESTED_PAIRS)
    value = functional_value(tensor, Functional.MERMIN)
    # consistency: three terms of 2/3 plus the -E[1,1,1] = 1 term
    e = tensor.values
    composed = e[0, 0, 1] + e[0, 1, 0] + e[1, 0, 0] - e[1, 1, 1]
    _check(
        "criterion 2 (S_M of W at (90, 0) deg)",
        abs(value - 3.0) <= 1e-9 and abs(composed - value) <= 1e-12,
        f"S_M = {value!r}, expected 3 within 1e-9",
    )


def test_criterion_3_optimal_svetlichny_violation():
    quoted_tensor = correlation_tensor(make_w(), QUOTED_PAIRS)
    quoted_value = functional_value(quoted_tensor, Functional.SVETLICHNY)
    start = time.perf_counter()
    result = optimize(make_w(), Functional.SVETLICHNY)
    elapsed = time.perf_counter() - start
    distance_deg = math.degrees(
        min_symmetry_distance(result.best_settings, QUOTED_PAIRS)
    )
    ok = (
        abs(quoted_value - 4.354) <= 1e-3
        and result.best_value >= 4.353
        and distance_deg <= 0.5
        and elapsed < 60.0
    )
    _check(
        "criterion 3 (optimal Svetlichny violation for W)",
        ok,
        f"S_V(quoted angles) = {quoted_value:.6f}, optimizer best = "
        f"{result.best_value:.6f}, settings within {distance_deg:.4f} deg of quoted, "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_model_bounds_by_enumeration():
    expected = {
        (Functional.MERMIN, ModelClass.LOCAL): 2.0,
        (Functional.MERMIN, ModelClass.HYBRID): 4.0,
        (Functional.SVETLICHNY, ModelClass.HYBRID): 4.0,
        (Functional.SVETLICHNY, ModelClass.LOCAL): 4.0,
    }
    witnessed = {}
    for (functional, model), bound in expected.items():
        result = lhv_max(functional, model)
        recomputed = functional_value(strategy_tensor(result.witness), functional)
        witnessed[(functional, model)] = (
            result.max_value == bound and recomputed == result.max_value
        )
    sizes_ok = len(enumerate_local()) == 64 and len(enumerate_hybrid()) == 3072
    _check(
        "criterion 4 (exact model bounds with witnesses)",
        all(witnessed.values()) and sizes_ok,
        f"bounds verified: {sum(witnessed.values())}/4, enumeration sizes "
        f"{len(enumerate_local())}/{len(enumerate_hybrid())}",
    )


def test_criterion_5_ghz_envelope_and_classification():
    result = optimize(make_ghz("circular_rl"), Functional.SVETLICHNY)
    target = 4.0 * math.sqrt(2.0)
    ghz_report = classify(result.best_value, Functional.SVETLICHNY)
    w_report = classify(
        functional_value(correlation_tensor(make_w(), TESTED_PAIRS), Functional.SVETLICHNY),
        Functional.SVETLICHNY,
    )
    ok = (
        abs(result.best_value - target) <= 1e-4
        and ghz_report.classification is Classification.RULES_OUT_HYBRID
        and w_report.classification is Classification.CONSISTENT_WITH_LOCAL
    )
    _check(
        "criterion 5 (GHZ reaches 4*sqrt(2); W at tested settings stays local)",
        ok,
        f"GHZ best = {result.best_value:.6f} vs {target:.6f}; "
        f"GHZ -> {ghz_report.classification.value}, "
        f"W(3) -> {w_report.classification.value}",
    )


def test_criterion_6_visibility_threshold():
    v_star = critical_visibility(correlation_tensor(make_w(), QUOTED_PAIRS), Functional.SVETLICHNY)
    rho = pure_to_density(make_w())
    full = functional_value(correlation_tensor(rho, QUOTED_PAIRS), Functional.SVETLICHNY)
    linear_ok = all(
        abs(
            functional_value(
                correlation_tensor(mix_with_white_noise(rho, v), QUOTED_PAIRS),
                Functional.SVETLICHNY,
            )
            - v * full
        )
        <= 1e-10
        for v in np.linspace(0.0, 1.0, 10)
    )
    ok = abs(v_star - 4.0 / 4.354) <= 1e-3 and linear_ok
    _check(
        "criterion 6 (critical visibility in closed form)",
        ok,
        f"v* = {v_star:.6f} vs 4/4.354 = {4.0 / 4.354:.6f}; linearity in v holds",
    )


def test_criterion_7_finite_statistics_reproduction():
    table = sample_counts(make_w(), QUOTED_PAIRS, 1_000_000, seed=2026)
    report = estimate_inequality(estimate_tensor(table), Functional.SVETLICHNY)
    ok = (
        abs(report.value - 4.354) <= 5.0 * report.std_error
        and report.z_score > 3.0
    )
    _check(
        "criterion 7 (finite statistics at n = 10^6 per setting)",
        ok,
        f"S_V estimate = {report.value:.4f} +- {report.std_error:.4f}, "
        f"z above bound = {report.z_score:.1f}",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20260811)
    failures = []

    for trial in range(100):  # type invariants on randomized constructions
        rho = random_density(rng)
        herm = np.abs(rho.entries - rho.entries.conj().T).max() <= 1e-12
        tr = abs(np.trace(rho.entries) - 1.0) <= 1e-12
        psd = np.linalg.eigvalsh(rho.entries)[0] >= -1e-10
        pure = random_pure(rng)
        norm = abs(np.vdot(pure.amplitudes, pure.amplitudes).real - 1.0) <= 1e-12
        obs = analyzer_observable(rng.uniform(0.0, 2.0 * math.pi))
        spectrum = np.sort(np.linalg.eigvalsh(obs))
        spectral = abs(spectrum[0] + 1.0) <= 1e-10 and abs(spectrum[1] - 1.0) <= 1e-10
        dist = outcome_distribution(rho, random_angles(rng))
        simplex = (
            dist.probs.min() >= -1e-12
            and dist.probs.max() <= 1.0 + 1e-12
            and abs(dist.probs.sum() - 1.0) <= 1e-10
        )
        if not (herm and tr and psd and norm and spectral and simplex):
            failures.append(f"type invariants, trial {trial}")
            break

    for trial in range(100):  # correlation vs outcome-distribution consistency
        rho = random_density(rng)
        phis = random_angles(rng)
        direct = correlation(rho, phis)
        summed = correlation_from_distribution(outcome_distribution(rho, phis))
        if abs(direct - summed) > 1e-10:
            failures.append(f"correlation consistency, trial {trial}")
            break

    for trial in range(100):  # algebraic maxima on arbitrary [-1, 1] tensors
        tensor = CorrelationTensor(rng.uniform(-1.0, 1.0, (2, 2, 2)))
        if abs(functional_value(tensor, Functional.MERMIN)) > 4.0 + 1e-12 or abs(
            functional_value(tensor, Functional.SVETLICHNY)
        ) > 8.0 + 1e-12:
            failures.append(f"algebraic maxima, trial {trial}")
            break

    local = enumerate_local()
    for trial in range(100):  # convexity of local mixtures
        weights = rng.dirichlet(np.ones(8))
        chosen = rng.integers(0, 64, size=8)
        mixed = mixture_tensor([(w, local[i]) for w, i in zip(weights, chosen)])
        if abs(functional_value(mixed, Functional.MERMIN)) > 2.0 + 1e-12 or abs(
            functional_value(mixed, Functional.SVETLICHNY)
        ) > 4.0 + 1e-12:
            failures.append(f"mixture convexity, trial {trial}")
            break

    for trial in range(100):  # determinism of seeded sampling
        seed = int(rng.integers(0, 2**62))
        a = sample_counts(make_w(), TESTED_PAIRS, 50, seed=seed)
        b = sample_counts(make_w(), TESTED_PAIRS, 50, seed=seed)
        if not np.array_equal(a.counts, b.counts):
            failures.append(f"sampling determinism, trial {trial}")
            break

    w = make_w()
    for trial in range(100):  # W convention invariance under global sign flip
        phis = random_angles(rng)
        if abs(correlation(w, phis) - correlation(w, -phis)) > 1e-10:
            failures.append(f"sign-flip invariance, trial {trial}")
            break

    _check(
        "criterion 8 (property suites, 100 randomized instances each)",
        not failures,
        "all six property families hold" if not failures else "; ".join(failures),
    )


#: README's headline rows that print a reproduce value, and the id of the check of each.
README_ROWS = {
    "max S_V of W, at φ = 35.264°, φ' = 144.736°": "svetlichny-w-optimal-settings",
    "critical visibility for the W Svetlichny violation": "critical-visibility-w",
}


def _cell(doc: str, label: str) -> str:
    """The value cell of the row of doc's table whose label is label."""
    lines = (ROOT / doc).read_text(encoding="utf-8").splitlines()
    (line,) = [line for line in lines if line.startswith(f"| {label} | ")]
    return line[len(f"| {label} | "):].removesuffix(" |")


def test_readme_headline_figures_are_the_computed_ones():
    values = {row["id"]: row["value"] for row in run_reproduction()}
    for label, row_id in README_ROWS.items():
        figure = _cell("README.md", label).split()[0]
        decimals = len(figure.partition(".")[2])
        computed = f"{values[row_id]:.{decimals}f}"
        _check(
            f"README figure ({label})",
            figure == computed,
            f"README prints {figure}, reproduce computes {values[row_id]!r}",
        )


def test_docs_w_ghz_and_paper_figures_are_the_computed_ones():
    values = {row["id"]: row["value"] for row in run_reproduction()}
    tested = [f"{values[f'{name}-w-tested-settings']:.0f}" for name in ("mermin", "svetlichny")]
    ghz = [4 * math.sqrt(2), optimize(make_ghz("circular_rl"), Functional.SVETLICHNY).best_value]
    for doc in ("README.md", "PAPER.md"):
        figures = [_cell(doc, "S_M and S_V of W at φ = 90°, φ' = 0°").split()[0],
                   _cell(doc, "max S_V of GHZ")]
        computed = [tested, [f"4√2 ≈ {value:.3f}" for value in ghz]]
        _check(f"{doc} figures (W at 90°, 0°; GHZ maximum)",
               [[figure] * 2 for figure in figures] == computed,
               f"{doc} prints {figures}, the package computes {computed}")
    # PAPER.md truncates the W maximum to 3 places and rounds 4/4.354 to 4, as README says.
    figures = [_cell("PAPER.md", label) for label in README_ROWS]
    maximum = f"{values['svetlichny-w-optimal-settings']:.5f}"
    computed = [maximum[:-2], f"≈ {round(4 / float(maximum[:-2]), 4)}"]
    _check("PAPER.md figures (W maximum, critical visibility)", figures == computed,
           f"PAPER.md prints {figures}, the package computes {maximum}: {computed}")


#: The docs' hidden-variable rows, by the start of their label, each with the
#: (functional, model) pairs whose maximum it prints.
LHV_ROWS = {
    r"max \|S_M\| over local models": [("mermin", "local")],
    r"max \|S_M\| over hybrid models": [("mermin", "hybrid")],
    r"max \|S_V\| over local or hybrid models": [("svetlichny", "local"), ("svetlichny", "hybrid")],
}


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_docs_hidden_variable_bounds_are_the_computed_ones(doc):
    lines = (ROOT / doc).read_text(encoding="utf-8").splitlines()
    checks = {row["id"]: row for row in run_reproduction()}
    expected = {(functional, model): checks[f"{functional}-{model}-bound"]["expected"]
                for pairs in LHV_ROWS.values() for functional, model in pairs}
    sizes = {"local": len(enumerate_local()), "hybrid": len(enumerate_hybrid())}
    for start, pairs in LHV_ROWS.items():
        (line,) = [line for line in lines if line.startswith(f"| {start}")]
        label, figure = line.strip("| ").split(" | ")
        value = float(figure.split()[0])
        computed = {pair: lhv_max(*pair).max_value for pair in pairs}
        _check(
            f"{doc} figure ({label})",
            all(value == computed[pair] == expected[pair] for pair in pairs),
            f"{doc} prints {figure}, lhv_max computes {computed}, "
            f"reproduce expects { {pair: expected[pair] for pair in pairs} }",
        )
        # A row of one model class prints its strategy count.
        printed = [int(n) for n in re.findall(r"\((\d+) strategies\)", label)]
        counted = [sizes[model] for _, model in pairs] if len(pairs) == 1 else []
        _check(f"{doc} strategy count ({label})", printed == counted,
               f"{doc} prints {printed}, the enumeration has {counted}")
