"""Independent reference for the benchmark's correctness checks.

Nothing here imports tribell.  The reference correlation is
tr(rho sigma_a x sigma_b x sigma_c) with sigma(phi) = cos(phi) Z - sin(phi) X;
white noise at visibility v scales every correlation by v because the
observables are traceless.  Each check returns None when the response is
correct and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])

SQRT3 = math.sqrt(3.0)
#: Named states as amplitudes over |HHH>..|VVV> (party a most significant, H = 0).
NAMED_STATES = {
    "w": [0, 1 / SQRT3, 1 / SQRT3, 0, 1 / SQRT3, 0, 0, 0],
    "ghz-hv": [1 / math.sqrt(2.0), 0, 0, 0, 0, 0, 0, 1 / math.sqrt(2.0)],
    "ghz-rl": [0.5, 0, 0, -0.5, 0, -0.5, -0.5, 0],
}

#: Maximum |S| over the six analyzer phases at full visibility.
OPTIMUM = {
    ("w", "svetlichny"): 4.354648,
    ("w", "mermin"): 3.045956,
    ("ghz-rl", "svetlichny"): 4.0 * math.sqrt(2.0),
    ("ghz-rl", "mermin"): 4.0,
    ("ghz-hv", "svetlichny"): 4.0,
    ("ghz-hv", "mermin"): 2.0,
}

#: Exact hidden-variable maxima of |S| by (functional, model).
LHV_MAX = {
    ("mermin", "local"): 2.0,
    ("mermin", "hybrid"): 4.0,
    ("svetlichny", "local"): 4.0,
    ("svetlichny", "hybrid"): 4.0,
}

#: Sign of each correlation E[i, j, k] in each functional (absent = 0).
SIGNS = {
    "mermin": {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 1): -1},
    "svetlichny": {
        idx: (1 if sum(idx) <= 1 else -1) for idx in itertools.product((0, 1), repeat=3)
    },
}

CORRELATION_ATOL = 1e-9
OPTIMUM_ATOL = 1e-6
MAX_STD_ERRORS = 6.0


def sigma(phi: float) -> np.ndarray:
    return math.cos(phi) * _Z - math.sin(phi) * _X


def _expectation(amplitudes, a, b, c) -> float:
    """<psi| a x b x c |psi> for a pure state psi over |HHH>..|VVV>."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(2, 2, 2)
    return float(np.einsum("ijk,il,jm,kn,lmn->", psi.conj(), a, b, c, psi).real)


def correlation(amplitudes, visibility: float, phis) -> float:
    """v * <psi| sigma(a) x sigma(b) x sigma(c) |psi>."""
    return visibility * _expectation(amplitudes, *(sigma(p) for p in phis))


def tensor(amplitudes, visibility: float, pairs) -> dict:
    """All eight correlations keyed 'ijk'; pairs is ((a, a'), (b, b'), (c, c'))."""
    return {
        f"{i}{j}{k}": correlation(
            amplitudes, visibility, (pairs[0][i], pairs[1][j], pairs[2][k])
        )
        for i, j, k in itertools.product((0, 1), repeat=3)
    }


def functional(values: dict, name: str) -> float:
    return sum(sign * values["".join(map(str, idx))] for idx, sign in SIGNS[name].items())


def _parse(response):
    rc, stdout = response
    if rc != 0:
        return None, f"exit code {rc!r}"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def distribution(amplitudes, visibility: float, phis) -> dict:
    """Outcome probabilities keyed '+-+' etc., from the projectors (1 +- sigma) / 2."""
    probs = {}
    for signs in itertools.product((1, -1), repeat=3):
        ports = ((np.eye(2) + s * sigma(p)) / 2.0 for s, p in zip(signs, phis))
        key = "".join("+" if s > 0 else "-" for s in signs)
        probs[key] = visibility * _expectation(amplitudes, *ports) + (1.0 - visibility) / 8.0
    return probs


def _check_angles(check: dict, payload: dict) -> str | None:
    phis = check["angles"]
    expected = correlation(check["amplitudes"], check["visibility"], phis)
    if abs(payload["correlation"] - expected) > CORRELATION_ATOL:
        return f"correlation {payload['correlation']!r}, reference {expected!r}"
    for key, value in distribution(check["amplitudes"], check["visibility"], phis).items():
        if abs(payload["distribution"][key] - value) > CORRELATION_ATOL:
            return f"P({key}) = {payload['distribution'][key]!r}, reference {value!r}"
    return None


def check_correlations(check: dict, response) -> str | None:
    payload, error = _parse(response)
    if error:
        return error
    if "angles" in check:
        return _check_angles(check, payload)
    expected = tensor(check["amplitudes"], check["visibility"], check["pairs"])
    for key, value in expected.items():
        got = payload["tensor"][key]
        if abs(got - value) > CORRELATION_ATOL:
            return f"E[{key}] = {got!r}, reference {value!r}"
    for name in SIGNS:
        got = payload["reports"][name]["value"]
        if abs(got - functional(expected, name)) > CORRELATION_ATOL:
            return f"{name} value {got!r}, reference {functional(expected, name)!r}"
    return None


def _within_errors(got: float, mean: float, std_error: float) -> bool:
    if std_error == 0.0:
        return got == mean
    return abs(got - mean) <= MAX_STD_ERRORS * std_error


def check_sample(check: dict, response) -> str | None:
    """Estimates within 6 binomial standard errors of the reference, exact when 0."""
    payload, error = _parse(response)
    if error:
        return error
    n = check["shots"]
    if payload["n_shots_per_setting"] != n:
        return f"n_shots_per_setting {payload['n_shots_per_setting']!r}, asked {n}"
    expected = tensor(check["amplitudes"], check["visibility"], check["pairs"])
    # A reference of exactly +-1 has zero variance; rounding must not hide that.
    expected = {k: (math.copysign(1.0, v) if abs(abs(v) - 1.0) < 1e-12 else v)
                for k, v in expected.items()}
    variance = {k: (1.0 - v * v) / n for k, v in expected.items()}
    for key, mean in expected.items():
        got = payload["tensor"][key]
        if not _within_errors(got, mean, math.sqrt(variance[key])):
            return f"E[{key}] = {got!r}, reference {mean!r} at n = {n}"
    for name, signs in SIGNS.items():
        got = payload["reports"][name]["value"]
        std_error = math.sqrt(sum(variance["".join(map(str, idx))] for idx in signs))
        if not _within_errors(got, functional(expected, name), std_error):
            return f"{name} value {got!r}, reference {functional(expected, name)!r}"
    return None


def check_optimize(check: dict, response) -> str | None:
    """Optimum of v * max|S| within 1e-6, and |S| at the returned settings equal to it."""
    payload, error = _parse(response)
    if error:
        return error
    got = payload["best_value"]
    expected = check["visibility"] * OPTIMUM[(check["state"], check["functional"])]
    if abs(got - expected) > OPTIMUM_ATOL:
        return f"best_value {got!r}, reference {expected!r}"
    at_settings = abs(functional(
        tensor(NAMED_STATES[check["state"]], check["visibility"],
               payload["settings_radians"]),
        check["functional"],
    ))
    if abs(at_settings - got) > CORRELATION_ATOL:
        return f"|S| at returned settings is {at_settings!r}, best_value {got!r}"
    return None


def check_reproduce(check: dict, response) -> str | None:
    payload, error = _parse(response)
    if error:
        return error
    if payload.get("all_passed") is not True or not payload.get("rows"):
        failed = [row["id"] for row in payload.get("rows", []) if not row["passed"]]
        return f"reproduce did not pass: {failed}"
    return None


def check_lhv_scan(check: dict, response) -> str | None:
    payload, error = _parse(response)
    if error:
        return error
    expected = LHV_MAX[(check["functional"], check["model"])]
    if payload["max_value"] != expected:
        return f"max_value {payload['max_value']!r}, expected {expected!r}"
    return None


CHECKS = {
    "correlations": check_correlations,
    "sample": check_sample,
    "optimize": check_optimize,
    "reproduce": check_reproduce,
    "lhv-scan": check_lhv_scan,
}


def check(request: dict, response) -> str | None:
    """Judge one (exit code, stdout) response against the request's reference data."""
    try:
        return CHECKS[request["argv"][0]](request["check"], response)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed response: {exc!r}"
