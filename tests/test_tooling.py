"""Checks on the tooling around the package: the pytest settings in
pyproject.toml report failures rather than abort on them, the benchmark's
span tracer still finds every entry point it wraps and the CLI's requests
reach all but three of them, commands that never sample leave numpy.random
unimported, a reproduce request opens no file, and CI runs no check of its
own."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tribell.cli

ROOT = Path(__file__).resolve().parent.parent

FAILING_TESTS = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(n):
        assert n < 10


    def test_plain_fails():
        assert 1 == 2
    """
)


def test_failing_property_test_is_reported_and_later_tests_run(tmp_path):
    # Warnings are errors, so a warning raised while hypothesis reports its
    # falsifying example would end the session with an INTERNALERROR.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing.py::test_property_fails" in output
    assert "FAILED test_failing.py::test_plain_fails" in output
    assert "Falsifying example" in output


def _traced_object(name: str):
    """The object a bench tracer name such as "qstate.as_density" wraps."""
    module_name, attr = name.split(".")
    original = getattr(importlib.import_module(f"tribell.{module_name}"), attr)
    return original.__dict__["__post_init__"] if isinstance(original, type) else original


#: Traced names that no CLI request calls: library helpers the tests use.
UNSERVED = {"qstate.as_density", "qstate.mix_with_white_noise", "lhv.strategy_tensor"}


def test_bench_tracer_wraps_every_traced_name_and_restores_it(monkeypatch, tmp_path):
    # The tracer wraps entry points by name, so renaming a traced name in the
    # package fails here, not only in a traced benchmark run; and a CLI path
    # that moves to an untraced function drops a span from the set.
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up there
    spec.loader.exec_module(tracer)
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(tribell.as_density(tribell.make_w()).to_jsonable()))
    requests = [["reproduce"], ["optimize", "--functional", "mermin"],
                ["lhv-scan", "--functional", "mermin", "--model", "local"],
                ["sample", "--pairs", "0,90", "--shots", "10"],
                ["correlations", "--pairs", "0,90"],
                ["correlations", "--state", str(rho), "--angles", "0"]]
    originals = {name: _traced_object(name) for name in tracer.TRACED}
    with tracer.Tracer() as spans:
        assert all(_traced_object(name) is not originals[name] for name in tracer.TRACED)
        for request, argv in enumerate(requests):
            spans.request = request
            assert tribell.cli.main(argv) == 0, argv
    assert {name: _traced_object(name) for name in tracer.TRACED} == originals
    assert {span.name for span in spans.spans} == set(tracer.TRACED) - UNSERVED
    by_id = {span.span_id: span for span in spans.spans}
    assert sum(span.request == 0 and span.name == "shots.critical_visibility"
               for span in spans.spans) == 1
    assert not any(span.name == "inequalities.correlation_tensor"
                   and tracer._under(span, "shots.critical_visibility", by_id)
                   for span in spans.spans)


#: Run in a fresh interpreter: whether numpy.random is loaded after importing
#: numpy, importing tribell.cli, building the parser and serving each request.
RANDOM_LOADED = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import numpy
    loaded = ["numpy.random" in sys.modules]
    import tribell.cli
    loaded.append("numpy.random" in sys.modules)
    tribell.cli.build_parser()
    loaded.append("numpy.random" in sys.modules)
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert tribell.cli.main(argv) == 0, argv
        loaded.append("numpy.random" in sys.modules)
    print(json.dumps(loaded))
    """
)


def test_commands_that_never_sample_leave_numpy_random_unimported():
    # Importing numpy.random takes about 10 ms, and only sampling and random
    # restarts draw from it.  The last request samples, so it must load it.
    requests = [["reproduce"], ["correlations", "--pairs", "0,90"],
                ["correlations", "--angles", "0"],
                ["lhv-scan", "--functional", "mermin", "--model", "local"],
                ["optimize", "--functional", "mermin"],
                ["sample", "--pairs", "0,90", "--shots", "10"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RANDOM_LOADED, json.dumps(requests)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if loaded[0]:
        pytest.skip("importing numpy alone loads numpy.random, as numpy 1.x does")
    assert loaded == [False] * 8 + [True]


#: Run in a fresh interpreter: the paths a reproduce request opens, once the
#: package is imported and the parser built.
FILES_OPENED = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import tribell.cli
    tribell.cli.build_parser()
    opened = []
    sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == "open" else None)
    with contextlib.redirect_stdout(io.StringIO()):
        code = tribell.cli.main(["reproduce", "--format", "json"])
    print(json.dumps([code, opened]))
    """
)


def test_reproduce_request_opens_no_file():
    # Every check is computed from constants in the code, so a cold request
    # reads nothing from disk.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FILES_OPENED],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


#: What a CI command may do: install, call the console script, run pytest, or
#: run bench/run.py and read its oracle verdict. Every other check is a test.
CI_COMMAND = re.compile(
    r"python -m pip install [\w .\[\]-]+|tribell [\w -]+|PYTHONPATH=\S+ python -m pytest [\w -]+"
    r"|for \w+ in [\w -]+; do|done|python3 bench/run\.py [\w\"$ -]+ \| tail -n 1"
    r" \| python3 -c '[^']*line\[\"correct\"\] is True[^']*'"
)


def test_ci_runs_only_what_needs_a_runner():
    text = re.sub(r"\\\n\s*", "", (ROOT / ".github" / "workflows" / "tests.yml").read_text())
    commands = []
    for match in re.finditer(r"^( *)(?:- )?run: (.*)\n((?:\1 +.*\n|\n)*)", text, re.MULTILINE):
        block = match[3] if match[2] == "|" else match[2]
        commands += [line.strip() for line in block.splitlines() if line.strip()]
    assert any("pytest" in command for command in commands)
    assert [command for command in commands if not CI_COMMAND.fullmatch(command)] == []
