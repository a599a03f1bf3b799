"""Tests of the benchmark itself: pinned traced counts, tracer restore, seeded inputs.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tribell  # noqa: E402
import tribell.cli  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tribell.cli.main(argv)
    return rc, out.getvalue()


def _traced(argv):
    with tracing.Tracer() as tracer:
        rc, stdout = _run(argv)
    assert rc == 0
    return tracing.summarize(tracer.spans), stdout


def test_traced_reproduce_counts():
    counts, stdout = _traced(["reproduce", "--format", "json"])
    assert json.loads(stdout)["all_passed"] is True
    assert counts["cli.main.calls"] == 1
    assert counts["lhv.lhv_max.calls"] == 4
    assert counts["lhv.strategy_tensor.calls"] == 6272  # 2 * 3072 + 2 * 64
    assert counts["lhv.strategies_per_max"] == 6272 / 4
    assert counts["inequalities.correlation_tensor.calls"] == 24
    assert counts["polarimetry.correlation.calls"] == 192
    assert counts["qstate.DensityMatrix.calls"] == 46
    assert counts["shots.critical_visibility.calls"] == 1
    assert counts["shots.critical_visibility.tensors_per_call"] == 21


def test_traced_sample_counts():
    argv = ["sample", "--state", "w", "--pairs", "35.264,144.736", "--shots", "1000",
            "--seed", "7", "--format", "json"]
    counts, _ = _traced(argv)
    assert counts["polarimetry.outcome_distribution.calls"] == 8
    assert counts["qstate.DensityMatrix.calls"] == 1
    assert counts["shots.sample_counts.calls"] == 1
    assert counts["shots.shots_drawn"] == 8 * 1000
    assert counts["shots.estimate_inequality.calls"] == 2


def _tribell_namespace():
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "tribell" or name.startswith("tribell.")}
    snapshot = {(name, key): value for name, mod in modules.items()
                for key, value in vars(mod).items()}
    snapshot["DensityMatrix.__post_init__"] = tribell.DensityMatrix.__dict__["__post_init__"]
    return snapshot


def test_tracer_rebinds_imported_names_and_restores_them():
    before = _tribell_namespace()
    with tracing.Tracer() as tracer:
        # Names imported into other modules are wrapped, not only the defining one.
        assert tribell.cli.lhv_max is not before[("tribell.lhv", "lhv_max")]
        assert tribell.shots.correlation_tensor is tribell.inequalities.correlation_tensor
        assert tribell.shots.correlation_tensor is not before[
            ("tribell.inequalities", "correlation_tensor")]
        _run(["correlations", "--state", "w", "--pairs", "90,0", "--format", "json"])
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "inequalities.correlation_tensor", "polarimetry.correlation",
            "qstate.DensityMatrix", "inequalities.classify"} <= names
    after = _tribell_namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    count = len(tracer.spans)
    _run(["correlations", "--state", "w", "--pairs", "90,0", "--format", "json"])
    assert len(tracer.spans) == count


def test_span_parents_and_self_time():
    with tracing.Tracer() as tracer:
        tracer.request = 3
        _run(["correlations", "--state", "w", "--angles", "90", "--format", "json"])
    by_id = {span.span_id: span for span in tracer.spans}
    (root,) = [span for span in tracer.spans if span.parent is None]
    assert root.name == "cli.main"
    assert all(span.request == 3 for span in tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    summary = tracing.summarize(tracer.spans)
    total_self = sum(summary[f"{name}.self_ms"] for name in tracing.TRACED)
    assert total_self == pytest.approx(1e3 * root.duration)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_regenerates_identical_inputs(workload, tmp_path):
    first = workloads.generate(workload, 11, tmp_path / "a")
    second = workloads.generate(workload, 11, tmp_path / "b")

    def argvs(requests, directory):
        return [[arg.replace(str(directory), "DIR") for arg in r["argv"]] for r in requests]

    assert argvs(first, tmp_path / "a") == argvs(second, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = workloads.generate(workload, 12, tmp_path / "c")
    if workload != "reproduce":  # reproduce has no inputs beyond request order
        assert argvs(other, tmp_path / "c") != argvs(first, tmp_path / "a")


def test_scan_requests_pass_the_oracle_and_corruption_fails(tmp_path):
    requests = workloads.generate("scan", 5, tmp_path)
    assert any("state-" in " ".join(r["argv"]) for r in requests)
    for request in requests[:20]:
        response = _run(request["argv"])
        assert oracle.check(request, response) is None, request["argv"]
    request = next(r for r in requests if r["argv"][0] == "correlations")
    rc, stdout = _run(request["argv"])
    payload = json.loads(stdout)
    payload["tensor"]["011"] += 1e-6
    assert "E[011]" in oracle.check(request, (rc, json.dumps(payload)))
    assert oracle.check(request, (2, stdout)) == "exit code 2"


def test_optimize_oracle_rejects_a_wrong_optimum():
    request = workloads._optimize_request("ghz-rl", "mermin", 0.9)
    rc, stdout = _run(request["argv"])
    assert oracle.check(request, (rc, stdout)) is None
    payload = json.loads(stdout)
    payload["best_value"] -= 1e-5
    assert "best_value" in oracle.check(request, (rc, json.dumps(payload)))


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
