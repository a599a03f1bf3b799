"""The command line as a user starts it: `python -m tribell` in a fresh interpreter."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tribell(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "tribell", *argv],
        capture_output=True, text=True, env=env, timeout=60, **kwargs,
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
                       preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "bytes" in json.loads(proc.stderr)["error"]


def test_state_from_stdin_is_read():
    state = json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 7)  # |HHH>
    proc = run_tribell("correlations", "--state", "/dev/stdin", "--angles", "0",
                       "--format", "json", input=state)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["correlation"] == 1.0
