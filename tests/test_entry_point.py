"""The command line as a user starts it: `python -m tribell` in a fresh interpreter."""

import json
import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tribell(*argv, timeout=60, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "tribell", *argv],
        capture_output=True, text=True, env=env, timeout=timeout, **kwargs,
    )


def _cap_address_space():
    # Under this cap a read that never ends fails in the child, not the machine.
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_reproduce_exits_zero_with_every_row_passed():
    proc = run_tribell("reproduce", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


def test_bad_seed_exits_two_with_a_json_error():
    proc = run_tribell("sample", "--state", "w", "--pairs", "90,0", "--shots", "10",
                       "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--seed" in json.loads(proc.stderr)["error"]


def test_state_path_that_never_ends_exits_two():
    proc = run_tribell("correlations", "--state", "/dev/zero", "--angles", "0",
                       timeout=30, preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "bytes" in json.loads(proc.stderr)["error"]


def test_state_from_stdin_is_read():
    state = json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 7)  # |HHH>
    proc = run_tribell("correlations", "--state", "/dev/stdin", "--angles", "0",
                       "--format", "json", input=state)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["correlation"] == 1.0


def test_the_largest_accepted_optimize_request_ends():
    # 10 008 rows, each stopped by the fixed tolerance long before the sweep cap.
    proc = run_tribell("optimize", "--state", "w", "--functional", "svetlichny",
                       "--restarts", "10000", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["best_value"] - 4.354648) <= 1e-6


def test_optimize_prints_the_same_bytes_in_every_process():
    # Two fresh interpreters per request: a phase row the ascent never writes,
    # or any output that depends on process state, shows as a difference.
    requests = [("optimize", "--state", state, "--functional", functional, "--format", "json")
                for state in ("w", "ghz-rl", "ghz-hv") for functional in ("mermin", "svetlichny")]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda argv: run_tribell(*argv), requests * 2))
    assert all(proc.returncode == 0 for proc in procs), [proc.stderr for proc in procs]
    assert [proc.stdout for proc in procs[:6]] == [proc.stdout for proc in procs[6:]]
