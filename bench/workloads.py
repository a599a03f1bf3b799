"""Seeded request lists for the four benchmark workloads.

A request is {"argv": [...], "check": {...}}: the argv goes to the tribell
CLI unchanged, and the check data lets oracle.py judge the response without
tribell.  The same (workload, seed) always yields the same requests and
byte-identical state files.  The first request of every list has the same
kind and cost whatever the seed, because it is also the request that
measures first_request_ms.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from oracle import NAMED_STATES

FUNCTIONALS = ("mermin", "svetlichny")
OPTIMIZE_STATES = ("w", "ghz-rl", "ghz-hv")
SCAN_STATES = ("w", "ghz-rl", "ghz-hv", "random")

REPRODUCE_REPEATS = 8
SAMPLE_1E6_PAIRS = "35.264,144.736"
SAMPLE_1E6_REQUESTS = 4
SCAN_POINTS = 50
SCAN_SHOTS = 1000


def _radians(text: str) -> list[float]:
    return [math.radians(float(part)) for part in text.split(",")]


def _pairs(text: str) -> list[list[float]]:
    values = _radians(text)
    if len(values) == 2:
        values = values * 3
    return [values[0:2], values[2:4], values[4:6]]


def _reproduce(rng: random.Random, state_dir: Path) -> list[dict]:
    rest = [{"argv": ["reproduce", "--format", "json"], "check": {}}
            for _ in range(REPRODUCE_REPEATS - 1)]
    rest += [
        {"argv": ["lhv-scan", "--functional", f, "--model", "hybrid", "--format", "json"],
         "check": {"functional": f, "model": "hybrid"}}
        for f in FUNCTIONALS
    ]
    rng.shuffle(rest)
    return [{"argv": ["reproduce", "--format", "json"], "check": {}}] + rest


def _optimize_request(state: str, functional: str, visibility: float | None) -> dict:
    argv = ["optimize", "--state", state, "--functional", functional, "--format", "json"]
    if visibility is not None:
        argv += ["--visibility", repr(visibility)]
    return {
        "argv": argv,
        "check": {"state": state, "functional": functional,
                  "visibility": 1.0 if visibility is None else visibility},
    }


def _optimize(rng: random.Random, state_dir: Path) -> list[dict]:
    requests = []
    for state in OPTIMIZE_STATES:
        for functional in FUNCTIONALS:
            visibility = round(rng.uniform(0.8, 1.0), 6)
            requests.append(_optimize_request(state, functional, None))
            requests.append(_optimize_request(state, functional, min(visibility, 0.999999)))
    first = next(r for r in requests
                 if r["argv"][2:5] == ["ghz-rl", "--functional", "svetlichny"]
                 and "--visibility" in r["argv"])
    requests.remove(first)
    rng.shuffle(requests)
    return [first] + requests


def _sample_request(state_arg: str, amplitudes, visibility: float | None,
                    pairs: str, shots: int, seed: int) -> dict:
    argv = ["sample", "--state", state_arg, "--pairs", pairs, "--shots", str(shots),
            "--seed", str(seed), "--format", "json"]
    if visibility is not None:
        argv += ["--visibility", repr(visibility)]
    return {
        "argv": argv,
        "check": {"amplitudes": amplitudes,
                  "visibility": 1.0 if visibility is None else visibility,
                  "pairs": _pairs(pairs), "shots": shots},
    }


def _sample_1e6(rng: random.Random, state_dir: Path) -> list[dict]:
    return [
        _sample_request("w", NAMED_STATES["w"], None, SAMPLE_1E6_PAIRS, 10**6,
                        rng.randrange(2**31))
        for _ in range(SAMPLE_1E6_REQUESTS)
    ]


def _random_state(rng: random.Random) -> list[list[float]]:
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(8)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[(a / norm).real, (a / norm).imag] for a in amps]


def _scan(rng: random.Random, state_dir: Path) -> list[dict]:
    requests = []
    for point in range(SCAN_POINTS):
        state = rng.choice(SCAN_STATES)
        if state == "random":
            pairs_re_im = _random_state(rng)
            path = state_dir / f"state-{point:03d}.json"
            path.write_text(json.dumps(pairs_re_im) + "\n")
            state_arg = str(path)
            amplitudes = [complex(re, im) for re, im in pairs_re_im]
        else:
            state_arg, amplitudes = state, NAMED_STATES[state]
        visibility = round(rng.uniform(0.5, 1.0), 6)
        pairs = ",".join(f"{rng.uniform(0.0, 360.0):.6f}" for _ in range(6))
        common = ["--state", state_arg, "--visibility", repr(visibility)]
        requests.append({
            "argv": ["correlations", *common, "--pairs", pairs, "--format", "json"],
            "check": {"amplitudes": amplitudes, "visibility": visibility,
                      "pairs": _pairs(pairs)},
        })
        # The unprimed triple alone: outcome distribution plus one correlation.
        angles = ",".join(pairs.split(",")[0::2])
        requests.append({
            "argv": ["correlations", *common, "--angles", angles, "--format", "json"],
            "check": {"amplitudes": amplitudes, "visibility": visibility,
                      "angles": _radians(angles)},
        })
        requests.append(_sample_request(state_arg, amplitudes, visibility, pairs,
                                        SCAN_SHOTS, rng.randrange(2**31)))
    return requests


GENERATORS = {
    "reproduce": _reproduce,
    "optimize": _optimize,
    "sample-1e6": _sample_1e6,
    "scan": _scan,
}


def generate(workload: str, seed: int, state_dir: Path) -> list[dict]:
    """The workload's request list for this seed; state files go to state_dir."""
    state_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), state_dir)
