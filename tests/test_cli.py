"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import random_density
from tribell import (
    CorrelationTensor, Functional, StateTensor, cli, make_ghz, make_w, polarimetry, qstate, shots,
)
from tribell.inequalities import correlation_tensor, functional_value, symmetric_pairs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_passes_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 8
    assert "8/8 checks passed" in out


def test_reproduce_checks_are_pinned_in_report_order():
    # (id, label, expected, tolerance) of each check; the critical visibility
    # expects the bound over the paper's rounded maximum, 4.354.
    checks = [
        ("mermin-w-tested-settings", "S_M(W) at (90.000, 0.000) deg", 3.0, 1e-9),
        ("svetlichny-w-tested-settings", "S_V(W) at (90.000, 0.000) deg", 3.0, 1e-9),
        ("svetlichny-w-optimal-settings", "S_V(W) at (35.264, 144.736) deg", 4.354, 1e-3),
        ("mermin-local-bound", "max |S_M|, local models", 2.0, 0.0),
        ("mermin-hybrid-bound", "max |S_M|, hybrid models", 4.0, 0.0),
        ("svetlichny-local-bound", "max |S_V|, local models", 4.0, 0.0),
        ("svetlichny-hybrid-bound", "max |S_V|, hybrid models", 4.0, 0.0),
        ("critical-visibility-w", "critical visibility, S_V(W)", 0.9186954524575103, 1e-3),
    ]
    rows = cli.run_reproduction()
    assert [(row["id"], row["label"], row["expected"], row["tolerance"])
            for row in rows] == checks


def test_reproduce_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == 8
    assert cli.render_json(payload) == out


def test_reproduce_csv(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "label", "value", "expected", "tolerance", "passed"]
    assert len(rows) == 9
    assert all(row[-1] == "True" for row in rows[1:])


def test_reproduce_writes_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "reproduce", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["all_passed"] is True


def test_optimize_w_svetlichny_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "optimize", "--state", "w", "--functional", "svetlichny",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_value"] == pytest.approx(4.354, abs=1e-3)
    assert payload["report"]["classification"] == "rules_out_hybrid"
    assert len(payload["settings_degrees"]) == 3
    assert cli.render_json(payload) == out


def test_optimize_trace_csv(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys,
        "optimize", "--state", "ghz-rl", "--functional", "svetlichny",
        "--format", "csv", "--output", str(trace_path),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(trace_path.read_text())))
    assert rows[0] == ["iteration", "value"]
    assert len(rows) >= 2


def test_optimize_w_mermin_random_restarts_reach_the_maximum(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--state", "w", "--functional", "mermin",
                           "--restarts", "200", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["best_value"] - 3.045956) <= 1e-6


def test_sample_json_reports(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--state", "w", "--pairs", "90,0", "--shots", "4000",
        "--seed", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_shots_per_setting"] == 4000
    assert set(payload["reports"]) == {"mermin", "svetlichny"}
    assert payload["tensor"]["111"] == -1.0
    assert payload["reports"]["svetlichny"]["value"] == pytest.approx(3.0, abs=0.2)


def test_sample_with_zero_standard_error_prints_strict_json(capsys):
    # With one shot every estimate is +-1, so the standard error is 0 and the
    # z-score infinite: JSON has no Infinity, so the report writes null.
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    argv = ["sample", "--state", "w", "--pairs", "35.264,144.736", "--shots", "1",
            "--seed", "1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    reports = json.loads(out, parse_constant=reject)["reports"]
    assert [rep["std_error"] for rep in reports.values()] == [0.0, 0.0]
    assert [rep["z_score"] for rep in reports.values()] == [None, None]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.count("z = -inf") == 2
    with pytest.raises(ValueError):
        cli.render_json({"z_score": math.inf})


def _stdlib_indent_2(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2.0**63]),
    st.text(),
)
json_payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=30,
)


@given(payload=json_payloads)
@example(payload=[])
@example(payload={"": {}, "a": [[], {}, ()], "b": [[[]]]})
@example(payload={"k\u00e9\n\"": ['q"\\\x00\x1f\u2028\ud800\U0001f600', -0.0, 5e-324, 1e16]})
@example(payload=({"z": 2**70, "a": [True, None, {"x": (False,)}]}, -(2**70), "é"))
@example(payload='q"\\\x00\u2028\ud800\U0001f600é')
@example(payload=-(2**70))
@example(payload=-0.0)
@example(payload=True)
@example(payload=False)
@example(payload=None)
@example(payload={"a": [[]], "s": "é", "i": 2**70, "f": 5e-324, "t": True, "n": None})
@example(payload=[[], "é", -7, 1e16, False, None])
def test_report_writer_prints_the_stdlib_indent_2_layout(payload):
    """Scalars at depth 0 and beside a container take the writer's scalar branch."""
    assert cli.render_json(payload) == _stdlib_indent_2(payload)


@pytest.mark.parametrize(
    "argv",
    [["reproduce"], ["optimize", "--state", "w", "--functional", "mermin"],
     ["lhv-scan", "--functional", "mermin", "--model", "hybrid"],
     ["sample", "--state", "w", "--pairs", "35.264,144.736", "--shots", "1000", "--seed", "1"],
     ["correlations", "--angles", "90,90,0"], ["correlations", "--pairs", "90,0"],
     ["correlations", "--state", "nosuch", "--angles", "0"]],
    ids=" ".join,
)
def test_every_report_is_the_stdlib_indent_2_layout(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == (2 if "nosuch" in argv else 0)
    assert out + err == _stdlib_indent_2(json.loads(out + err))


@pytest.mark.parametrize(
    "payload",
    [math.inf, [1.0, -math.inf], {"a": 1, "b": math.nan}, {"a": [{"b": math.inf}], "c": []},
     -math.inf, math.nan, {"a": [], "b": math.nan}, [[], [[], -math.inf]]],
    ids=["scalar", "flat-list", "flat-dict", "nested", "scalar-minus-inf", "scalar-nan",
         "beside-a-container", "nested-beside-a-container"],
)
def test_report_writer_refuses_a_non_finite_float(payload):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        cli.render_json(payload)


def test_report_writer_builds_each_depth_encoder_once():
    payload = {"a": [{"b": [1, "c"]}, None], "d": 1.5}
    cli.render_json(payload)
    built = cli._flat_encoder.cache_info().misses
    assert cli.render_json(payload) == _stdlib_indent_2(payload)
    assert cli._flat_encoder.cache_info().misses == built


def test_sample_csv_counts(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--state", "w", "--pairs", "90,0", "--shots", "100",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "k", "outcome", "count"]
    assert len(rows) == 65


def test_sample_rejects_zero_shots(capsys):
    code, out, err = run_cli(capsys, "sample", "--state", "w", "--pairs", "90,0", "--shots", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "--shots must lie in [1, 2**63 - 1], got 0"


def test_sample_rejects_shots_beyond_int64(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--state", "w", "--pairs", "90,0", "--shots", str(2**63)
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == f"--shots must lie in [1, 2**63 - 1], got {2**63}"


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize(
    "argv",
    [["optimize", "--functional", "mermin"], ["sample", "--pairs", "90,0", "--shots", "10"]],
)
def test_seed_outside_uint64_exits_2_naming_the_flag(capsys, argv, seed):
    code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == f"--seed must lie in [0, 2**64 - 1], got {seed}"


@pytest.mark.parametrize("command", ["optimize", "sample"])
def test_seed_range_is_in_help(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--seed SEED seed of the" in help_text
    assert "in [0, 2**64 - 1] (default 0)" in help_text


@pytest.fixture
def work(monkeypatch):
    """Counts of DensityMatrix validations and coefficient-tensor computations."""
    counts = {"states": 0, "tensors": 0}
    validate = qstate.DensityMatrix.__post_init__
    expand = polarimetry._izx_expansion

    def counting_validate(self):
        counts["states"] += 1
        validate(self)

    def counting_expand(rho):
        counts["tensors"] += 1
        return expand(rho)

    monkeypatch.setattr(qstate.DensityMatrix, "__post_init__", counting_validate)
    monkeypatch.setattr(polarimetry, "_izx_expansion", counting_expand)
    return counts


@pytest.mark.parametrize(
    "name, make",
    [("w", make_w), ("ghz-hv", lambda: make_ghz("linear_hv")),
     ("ghz-rl", lambda: make_ghz("circular_rl"))],
)
def test_named_states_are_read_only_tensors_of_their_states(name, make):
    named = cli.NAMED_STATES[name]
    assert named.visibility == 1.0
    assert named.values.tobytes() == StateTensor(make()).values.tobytes()
    # A noisy request rescales the named tensor exactly as it would the state.
    assert (StateTensor(named, 0.9).values.tobytes()
            == StateTensor(make(), 0.9).values.tobytes())
    with pytest.raises(ValueError):
        named.values[0, 0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        named.visibility = 0.5
    with pytest.raises(TypeError):
        cli.NAMED_STATES[name] = StateTensor(make(), 0.5)
    # A request reads the named tensor itself, and rescales it only for a --visibility.
    argv = ["correlations", "--state", name.upper(), "--angles", "0"]
    assert cli._request_state(cli.parse_args(argv)) is named
    for visibility in ("1", "0.9"):
        state = cli._request_state(cli.parse_args([*argv, "--visibility", visibility]))
        assert state is not named
        assert (state.values.tobytes()
                == StateTensor(named, float(visibility)).values.tobytes())


# The named states are tensors built when cli is imported: a request that
# names one builds, validates and expands no state.


def test_reproduce_builds_each_state_once(work):
    rows = cli.run_reproduction()
    assert all(row["passed"] for row in rows)
    assert work == {"states": 0, "tensors": 0}


@pytest.mark.parametrize("visibility", [[], ["--visibility", "0.9"]], ids=["pure", "mixed"])
def test_sample_computes_the_tensor_once(capsys, monkeypatch, work, visibility):
    calls = []
    estimate_tensor = shots.estimate_tensor

    def counting_estimate(table):
        calls.append(table)
        return estimate_tensor(table)

    monkeypatch.setattr(shots, "estimate_tensor", counting_estimate)
    code, _, _ = run_cli(capsys, *REQUESTS["sample"], *visibility, "--format", "json")
    assert code == 0
    assert work == {"states": 0, "tensors": 0}
    assert len(calls) == 1


@pytest.mark.parametrize("request_name", ["correlations-angles", "correlations-pairs"])
def test_correlations_build_one_state_and_one_tensor(capsys, work, request_name):
    code, _, _ = run_cli(capsys, *REQUESTS[request_name], "--format", "json")
    assert code == 0
    assert work == {"states": 0, "tensors": 0}


@pytest.mark.parametrize(
    "request_name", ["sample", "correlations-angles", "correlations-pairs", "optimize"]
)
def test_density_matrix_state_file_is_validated_once(capsys, tmp_path, work, request_name):
    amps = make_w().amplitudes
    rho = [[[z.real, z.imag] for z in row] for row in np.outer(amps, amps.conj()).tolist()]
    state_path = tmp_path / "rho.json"
    state_path.write_text(json.dumps(rho))
    argv = [str(state_path) if arg == "w" else arg for arg in REQUESTS[request_name]]
    code, _, _ = run_cli(capsys, *argv, "--visibility", "0.9", "--format", "json")
    assert code == 0
    assert work == {"states": 1, "tensors": 1}


@pytest.mark.parametrize(
    "request_name", ["correlations-angles", "correlations-pairs", "optimize"]
)
def test_visibility_builds_no_second_state_or_tensor(capsys, work, request_name):
    # White noise rescales the tensor: no mixed density matrix, no expansion.
    argv = [*REQUESTS[request_name], "--visibility", "0.9", "--format", "json"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert work == {"states": 0, "tensors": 0}


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def _parse_outcome(parse, argv):
    """What parse(argv) returns, or its exit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _assert_parse_matches_the_full_parser(argv):
    assert _parse_outcome(cli.parse_args, argv) == _parse_outcome(
        cli.build_parser().parse_args, argv
    )


PARSE_CORPUS = [
    [],
    ["-h"],
    ["nosuch"],
    ["--format", "json", "reproduce"],
    ["reproduce", "--", "x"],
    ["reproduce", "reproduce"],
    ["reproduce", "-x"],
    ["reproduce", "extra"],
    ["correlations", "--vis", "0.5", "--angles", "0"],
    ["--vis", "0.5"],
    ["correlations", "--r", "--angles", "0"],
    ["--r"],
    ["sample", "--h"],
    ["--h"],
    ["sample", "--s", "w", "--pairs", "0,90", "--shots", "10"],
    ["correlations", "--angles=-5,1,2"],
    ["correlations", "--angles", "-5"],
    ["sample", "--pairs", "-1,2", "--shots", "10"],
    ["reproduce", "--format", "json", "--format", "csv"],
    ["correlations", "--angles", "0", "--pairs", "0,90"],
    ["sample", "--pairs", "0,90", "--shots", "abc"],
    ["reproduce", "--format", "json"],
    ["optimize", "--state", "ghz-rl", "--functional", "mermin", "--seed", "3"],
    ["lhv-scan", "--functional", "svetlichny", "--model", "hybrid", "--format", "csv"],
    ["sample", "--pairs", "0,90", "--shots", "10", "--functional", "mermin", "--radians"],
    ["correlations", "--state", "w", "--visibility", "0.5", "--pairs", "90,0"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_parse_matches_the_full_parser(argv):
    _assert_parse_matches_the_full_parser(argv)


PARSE_TOKENS = st.one_of(
    st.sampled_from([
        "reproduce", "optimize", "lhv-scan", "sample", "correlations", "nosuch",
        "-h", "--help", "--h", "--", "-", "-x", "--s", "--st", "--f", "--fo", "--v", "--r",
        "--format", "--format=csv", "--output", "--state", "--visibility", "--vis=0.5",
        "--radians", "--angles", "--angles=-5,1,2", "--pairs", "--shots", "--shots=10",
        "--seed", "--restarts", "--functional", "--model",
        "json", "csv", "table", "w", "ghz-hv", "mermin", "both", "hybrid",
        "0", "-5", "0.5", "1.5", "0,90", "-1,2", "nan", "abc", "x",
    ]),
    st.text(max_size=4),
)


PARSE_ARGV = st.one_of(
    st.lists(PARSE_TOKENS, max_size=8),
    st.builds(
        lambda command, rest: [command, *rest],
        st.sampled_from(["reproduce", "optimize", "lhv-scan", "sample", "correlations"]),
        st.lists(PARSE_TOKENS, max_size=7),
    ),
)


@given(argv=PARSE_ARGV)
def test_drawn_argv_parse_matches_the_full_parser(argv):
    _assert_parse_matches_the_full_parser(argv)


def test_usage_error_leaves_no_trace_in_the_next_request(capsys):
    argv = [*REQUESTS["sample"], "--format", "json"]
    cli._parsers.cache_clear()
    fresh = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sample", "--state", "w", "--pairs", "90,0", "--shots", "abc"])
    assert excinfo.value.code == 2
    assert "argument --shots: invalid int value: 'abc'" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == fresh


@pytest.mark.parametrize(
    "first, second",
    [("correlations-angles", "correlations-pairs"), ("correlations-pairs", "correlations-angles")],
)
def test_exclusive_group_forgets_the_previous_request(capsys, first, second):
    for name in (first, second):
        code, out, err = run_cli(capsys, *REQUESTS[name], "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)


def test_help_is_wrapped_to_the_width_at_print_time(capsys, monkeypatch):
    cli.build_parser()
    lines = {}
    for columns in (50, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            cli.main(["sample", "--help"])
        out = capsys.readouterr().out.splitlines()
        lines[columns] = next(line for line in out if line.lstrip().startswith("--output"))
    assert len(lines[50]) <= 48
    assert lines[200].endswith("write the report to this path instead of stdout")


def test_correlations_single_angles(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlations", "--state", "w", "--angles", "90,90,0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["correlation"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert payload["distribution"]["+++"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_correlations_pairs_tensor(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlations", "--state", "w", "--pairs", "90,0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tensor"]["111"] == pytest.approx(-1.0, abs=1e-9)
    assert payload["reports"]["svetlichny"]["value"] == pytest.approx(3.0, abs=1e-9)
    assert payload["reports"]["svetlichny"]["classification"] == "consistent_with_local"


def test_correlations_radians_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlations", "--state", "w", "--pairs",
        f"{math.pi / 2},0", "--radians", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["reports"]["svetlichny"]["value"] == pytest.approx(3.0, abs=1e-9)


def test_optimize_has_no_radians_flag(capsys):
    # optimize takes no angle: its seed grid and stopping rule are fixed.
    # --format csv --output writes the trace.
    for extra in (["--radians"], ["--grid-step", "15"], ["--tolerance", "1e-300"],
                  ["--max-iterations", "5"], ["--trace-csv", "t.csv"]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["optimize", "--state", "w", "--functional", "mermin", *extra])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in err


def test_w_correlation_at_hv_settings_prints_minus_one(capsys):
    # The contraction rounds this correlation to -1.0000000000000002.
    code, out, _ = run_cli(
        capsys, "correlations", "--state", "w", "--angles", "0", "--format", "json"
    )
    assert code == 0
    assert '"correlation": -1.0,' in out
    probabilities = list(json.loads(out)["distribution"].values())  # zeros round to -2.8e-17
    assert min(probabilities) >= 0.0 and abs(sum(probabilities) - 1.0) <= 1e-12
    code, out, _ = run_cli(capsys, "correlations", "--state", "w", "--pairs", "0,90",
                           "--format", "json")
    assert code == 0
    assert all(-1.0 <= entry <= 1.0 for entry in json.loads(out)["tensor"].values())


def test_outcomes_the_born_rule_forbids_are_never_drawn(capsys):
    # W at the H/V settings forbids five outcomes; the contraction rounds "---" to -2.8e-17.
    code, out, _ = run_cli(capsys, "sample", "--state", "w", "--pairs", "0,90", "--shots",
                           "100000", "--seed", "1", "--format", "csv")
    assert code == 0
    counts = {row["outcome"]: row["count"] for row in csv.DictReader(io.StringIO(out))
              if (row["i"], row["j"], row["k"]) == ("0", "0", "0")}
    assert len(counts) == 8
    assert [int(counts[outcome]) for outcome in ("+++", "+--", "-+-", "--+", "---")] == [0] * 5


def test_seeded_sampling_reproduces_its_values(capsys):
    # These values pin the per-setting Philox streams across numpy versions.
    code, out, _ = run_cli(capsys, "sample", "--state", "w", "--pairs", "35.264,144.736",
                           "--shots", "1000000", "--seed", "7", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert (reports["mermin"]["value"], reports["svetlichny"]["value"]) == (2.177056, 4.35636)


def test_correlations_degenerate_pairs_flagged(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlations", "--state", "w", "--pairs", "10,10", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"]["mermin"]["degenerate"] is True


@pytest.mark.parametrize("pairs, degenerate", [("30,30", True), ("35.264,144.736", False)])
def test_sample_reports_flag_degenerate_settings(capsys, pairs, degenerate):
    argv = ["sample", "--state", "w", "--pairs", pairs, "--shots", "1000", "--seed", "5"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    table = shots.sample_counts(cli.NAMED_STATES["w"], cli._parse_pairs(pairs, False), 1000, 5)
    estimated = shots.estimate_tensor(table)
    for functional in Functional:
        report = reports[functional.value]
        assert report["degenerate"] is degenerate
        expected = shots.estimate_inequality(estimated, functional, degenerate=degenerate)
        assert report == expected.to_jsonable()


def test_correlations_visibility(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlations", "--state", "w", "--visibility", "0.5",
        "--pairs", "35.264,144.736", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"]["svetlichny"]["value"] == pytest.approx(
        0.5 * 4.354648431463461, abs=1e-9
    )


def test_density_matrix_state_file_gives_the_tensor_of_its_pure_state(capsys, tmp_path):
    # W's projector as a file takes the DensityMatrix branch of the expansion;
    # --state w takes the PureState branch.
    amplitudes = [0.0, 1 / math.sqrt(3), 1 / math.sqrt(3), 0.0, 1 / math.sqrt(3), 0.0, 0.0, 0.0]
    state_path = tmp_path / "w_projector.json"
    state_path.write_text(json.dumps([[[x * y, 0.0] for y in amplitudes] for x in amplitudes]))
    density, pure = (
        json.loads(run_cli(capsys, "correlations", "--state", state, "--pairs", "35.264,144.736",
                           "--format", "json")[1])["tensor"]
        for state in (str(state_path), "w")
    )
    assert density.keys() == pure.keys()
    assert max(abs(density[key] - pure[key]) for key in pure) <= 1e-12


@pytest.mark.parametrize(
    "request_argv",
    [["sample", "--pairs", "35.264,144.736", "--shots", "1000", "--seed", "3"],
     ["correlations", "--pairs", "35.264,144.736"]],
)
def test_named_state_its_file_and_visibility_one_print_the_same_report(
    capsys, tmp_path, request_argv
):
    # Each branch of the CLI's state step gives the same tensor, so the same bytes.
    state_path = tmp_path / "w.json"
    state_path.write_text(json.dumps(make_w().to_jsonable()))
    named, from_file, at_visibility_one = (
        run_cli(capsys, *request_argv, "--state", *state, "--format", "json")
        for state in (["w"], [str(state_path)], ["w", "--visibility", "1"])
    )
    assert named[0] == 0
    assert from_file == named == at_visibility_one


@pytest.mark.parametrize("visibility", [[], ["--visibility", "0.9"]], ids=["v=1", "v=0.9"])
@pytest.mark.parametrize(
    "seed, degrees",
    [(1, "77.479,230.159,289.82,346.922,54.189,173.596"),
     (3, "196.829,331.714,202.652,267.808,340.971,303.162"),
     (4, "249.802,116.142,271.903,183.83,136.688,266.202")],
)
def test_angles_print_the_pairs_tensor_entry_of_the_same_angles(
    capsys, tmp_path, seed, degrees, visibility
):
    state_path = tmp_path / "rho.json"
    state_path.write_text(json.dumps(random_density(np.random.default_rng(seed)).to_jsonable()))
    common = ["correlations", "--state", str(state_path), *visibility, "--format", "json"]
    angles = ",".join(degrees.split(",")[::2])
    code, out, _ = run_cli(capsys, *common, "--angles", angles)
    assert code == 0
    code, pairs_out, _ = run_cli(capsys, *common, "--pairs", degrees)
    assert code == 0
    assert repr(json.loads(out)["correlation"]) == repr(json.loads(pairs_out)["tensor"]["000"])


def test_unknown_state_is_reported_machine_readably(capsys):
    code, out, err = run_cli(capsys, "correlations", "--state", "nope", "--angles", "0")
    assert code == 2
    assert out == ""
    assert "unknown state" in json.loads(err)["error"]


def test_bad_visibility_rejected(capsys):
    for argv in (
        ["optimize", "--functional", "mermin"],
        ["sample", "--pairs", "0,90", "--shots", "10"],
        ["correlations", "--angles", "0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--state", "w", "--visibility", "1.5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tribell {argv[0]} ")
        assert err.splitlines()[-1] == f"tribell {argv[0]}: error: --visibility must lie in [0, 1]"


@pytest.mark.parametrize(
    "argv, last",
    [(["reproduce", "extra"], "tribell: error: unrecognized arguments: extra"),
     (["sample", "--s", "w"],
      "tribell sample: error: ambiguous option: --s could match --state, --shots, --seed"),
     (["correlations", "--visibility", "1.5", "--angles", "0"],
      "tribell correlations: error: --visibility must lie in [0, 1]")],
    ids=["reproduce", "sample", "correlations"],
)
def test_a_usage_error_is_reported_by_the_parser_that_owns_it(capsys, argv, last):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {last.partition(': error')[0]} [-h]")
    assert err.splitlines()[-1] == last


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_state_file_of_wrong_json_type_exits_two(capsys, tmp_path):
    state_path = tmp_path / "dict.json"
    state_path.write_text(json.dumps({"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}))
    code, out, err = run_cli(
        capsys, "correlations", "--state", str(state_path), "--angles", "0"
    )
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("data", [{"a": 1}, [[1.0, 0.0]] * 7 + [[0.0]]])
def test_state_file_of_wrong_form_names_accepted_forms(capsys, tmp_path, data):
    state_path = tmp_path / "bad.json"
    state_path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "correlations", "--state", str(state_path), "--angles", "0"
    )
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]
    assert "8 [re, im] amplitude pairs" in message
    assert "8x8 matrix" in message


def test_state_file_with_a_boolean_exits_two(capsys, tmp_path):
    # Neither a boolean nor a string or null is a number, though each converts to one.
    state_path = tmp_path / "state.json"
    for first, message in [
        (True, "got a boolean"),
        ("1", "not strings or null; got '1'"),
        (None, "not strings or null; got null"),
    ]:
        state_path.write_text(json.dumps([[first, 0]] + [[0, 0]] * 7))
        code, out, err = run_cli(
            capsys, "correlations", "--state", str(state_path), "--angles", "0"
        )
        assert code == 2
        assert out == ""
        assert message in json.loads(err)["error"]


def test_directory_as_state_exits_two(capsys, tmp_path):
    # "" is the path ".", which exists too.
    for state in (str(tmp_path), ""):
        code, out, err = run_cli(capsys, "correlations", "--state", state, "--angles", "0")
        assert code == 2
        assert out == ""
        assert "unknown state" in json.loads(err)["error"]


def test_output_in_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "lhv-scan", "--functional", "mermin", "--model", "local",
        "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)
    assert not target.exists()


@pytest.mark.parametrize(
    "flag, value", [("--restarts", "1000000000000"), ("--restarts", "10001"), ("--restarts", "-1")]
)
def test_optimize_rejects_unbounded_work(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "optimize", "--state", "w", "--functional", "svetlichny", flag, value
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == f"{flag} must lie in [0, 10000], got {value}"


def test_state_file_beyond_float_range_names_accepted_forms(capsys, tmp_path):
    state_path = tmp_path / "huge.json"
    state_path.write_text("[[" + str(10**400) + ", 0]" + ", [0, 0]" * 7 + "]")
    code, out, err = run_cli(
        capsys, "correlations", "--state", str(state_path), "--angles", "0"
    )
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]
    assert "8 [re, im] amplitude pairs" in message
    assert "8x8 matrix" in message


def _opposite_entries(value: float) -> list:
    rho = [[[0.125 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
    rho[0][1], rho[1][0] = [value, 0.0], [-value, 0.0]
    return rho


@pytest.mark.parametrize(
    "data, message",
    [
        ([[1e155, 1e155]] + [[0, 0]] * 7, "state is not normalized: |amplitudes|^2 = nan"),
        (_opposite_entries(1e308), "density matrix is not Hermitian"),
        ([[[1e308 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)],
         "density matrix trace is (inf+0j), expected 1"),
    ],
)
def test_state_file_near_the_float_limit_exits_two_with_one_error(capsys, tmp_path, data, message):
    # Each overflows in validation; stderr must hold the one error object and
    # no numpy warning (an error under this suite's filterwarnings).
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(data))
    for request in (["optimize", "--functional", "mermin"], ["correlations", "--pairs", "0,90"]):
        code, out, err = run_cli(capsys, *request, "--state", str(state_path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}


@pytest.mark.parametrize("angles", ["nan", "inf", "-inf", "0,inf,nan"])
@pytest.mark.parametrize("radians", [[], ["--radians"]])
def test_correlations_at_a_non_finite_angle_exits_two(capsys, angles, radians):
    code, out, err = run_cli(capsys, "correlations", f"--angles={angles}", *radians)
    assert (code, out) == (2, "")
    first = next(value for value in angles.split(",") if not math.isfinite(float(value)))
    assert json.loads(err) == {"error": f"analyzer phase must be finite, got {float(first)}"}


@pytest.mark.parametrize(
    "argv",
    [["correlations", "--pairs=nan,0"], ["correlations", "--pairs=0,0,0,nan,0,0"],
     ["sample", "--pairs=nan,0", "--shots", "10"], ["correlations", "--angles=nan"]],
    ids=" ".join,
)
def test_every_non_finite_phase_flag_gives_one_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "analyzer phase must be finite, got nan"}


@pytest.mark.parametrize(
    "argv, message",
    [(["correlations", "--pairs", "1,2,3"],
      "--pairs takes 2 values (all parties) or 6 (per party)"),
     (["sample", "--shots", "10", "--pairs", "1,x"],
      "--pairs must be comma-separated numbers, got '1,x'"),
     (["correlations", "--pairs", ""], "--pairs must be comma-separated numbers, got ''"),
     (["correlations", "--angles", "1,2"],
      "--angles takes 1 value (all parties) or 3 (per party)"),
     (["correlations", "--angles", "1,,2"],
      "--angles must be comma-separated numbers, got '1,,2'")],
    ids=["pairs-length", "pairs-number", "pairs-empty", "angles-length", "angles-number"],
)
def test_a_bad_angle_list_exits_two_with_its_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message}


def test_state_file_nested_too_deeply_exits_two(capsys, tmp_path):
    state_path = tmp_path / "deep.json"
    state_path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(
        capsys, "correlations", "--state", str(state_path), "--angles", "0"
    )
    assert code == 2
    assert out == ""
    assert "nested too deeply" in json.loads(err)["error"]


def test_state_file_is_read_up_to_its_byte_budget(capsys, tmp_path):
    text = json.dumps(make_w().to_jsonable())
    state_path = tmp_path / "padded.json"
    argv = ["correlations", "--state", str(state_path), "--angles", "0", "--format", "json"]
    state_path.write_text(text.ljust(cli.MAX_STATE_FILE_BYTES))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["correlation"] == -1.0
    state_path.write_text(text.ljust(cli.MAX_STATE_FILE_BYTES + 1))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"over {cli.MAX_STATE_FILE_BYTES} bytes" in json.loads(err)["error"]


@pytest.mark.parametrize("extra, accepted", [(0, True), (1, False)], ids=["cap", "cap+1"])
def test_state_pipe_is_read_up_to_its_byte_budget(capsys, tmp_path, extra, accepted):
    """A pipe has no size to check: its bytes arrive over many reads."""
    text = json.dumps(make_w().to_jsonable()).ljust(cli.MAX_STATE_FILE_BYTES + extra)
    fifo = tmp_path / "state.pipe"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as pipe:
            pipe.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        code, out, err = run_cli(
            capsys, "correlations", "--state", str(fifo), "--angles", "0", "--format", "json"
        )
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    if accepted:
        assert (code, err) == (0, "")
        assert json.loads(out)["correlation"] == -1.0
    else:
        assert (code, out) == (2, "")
        assert f"over {cli.MAX_STATE_FILE_BYTES} bytes" in json.loads(err)["error"]


def test_reproduce_contracts_each_state_and_settings_pair_once(monkeypatch):
    calls = []

    def counting_tensor(state, pairs):
        calls.append((state, pairs))
        return correlation_tensor(state, pairs)

    monkeypatch.setattr(cli, "correlation_tensor", counting_tensor)
    values = {row["id"]: row["value"] for row in cli.run_reproduction()}
    assert len(calls) == 2
    monkeypatch.undo()
    # Each check that reads a tensor: its state, settings in degrees, functional,
    # and whether it reports the critical visibility rather than the value.
    checks = {
        "mermin-w-tested-settings": ("w", 90.0, 0.0, "mermin", False),
        "svetlichny-w-tested-settings": ("w", 90.0, 0.0, "svetlichny", False),
        "svetlichny-w-optimal-settings": ("w", 35.264, 144.736, "svetlichny", False),
        "critical-visibility-w": ("w", 35.264, 144.736, "svetlichny", True),
    }
    for check_id, (name, phi, phi_prime, functional, critical) in checks.items():
        tensor = correlation_tensor(cli.NAMED_STATES[name],
                                    symmetric_pairs(math.radians(phi), math.radians(phi_prime)))
        if critical:
            expected = shots.critical_visibility(tensor, Functional(functional))
        else:
            expected = functional_value(tensor, Functional(functional))
        assert values[check_id].hex() == expected.hex()


REQUESTS = {
    "reproduce": ["reproduce"],
    "optimize": ["optimize", "--state", "w", "--functional", "svetlichny"],
    "lhv-scan": ["lhv-scan", "--functional", "mermin", "--model", "local"],
    "sample": ["sample", "--state", "w", "--pairs", "90,0", "--shots", "100",
               "--seed", "1"],
    "correlations-angles": ["correlations", "--state", "w", "--angles", "90,90,0"],
    "correlations-pairs": ["correlations", "--state", "w", "--pairs", "90,0"],
}


@pytest.mark.parametrize("request_name", sorted(REQUESTS))
def test_empty_output_path_exits_two_naming_the_flag(capsys, request_name):
    code, out, err = run_cli(capsys, *REQUESTS[request_name], "--output", "")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "--output must be a file path, got ''"


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("request_name", sorted(REQUESTS))
def test_output_file_holds_the_stdout_report(capsys, tmp_path, request_name, fmt):
    argv = REQUESTS[request_name] + ["--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n")
    target = tmp_path / "report"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_lhv_scan_table_and_csv_text(capsys):
    argv = ["lhv-scan", "--functional", "mermin", "--model", "local"]
    _, table, _ = run_cli(capsys, *argv)
    assert table == (
        "max |mermin| over local models: 2\n"
        'witness: {"model": "local", "outputs": {"a": {"unprimed": 1, "primed": 1}, '
        '"b": {"unprimed": 1, "primed": 1}, "c": {"unprimed": 1, "primed": 1}}}\n'
    )
    _, text, _ = run_cli(capsys, *argv, "--format", "csv")
    assert text == "functional,model,max_value\nmermin,local,2.0\n"


def test_correlations_angles_table_and_csv_text(capsys):
    argv = ["correlations", "--state", "w", "--angles", "90,90,0"]
    _, table, _ = run_cli(capsys, *argv)
    assert table == (
        "E = +0.666666667\n"
        "  P(+++) = 0.333333\n"
        "  P(++-) = 0.083333\n"
        "  P(+-+) = 0.000000\n"
        "  P(+--) = 0.083333\n"
        "  P(-++) = 0.000000\n"
        "  P(-+-) = 0.083333\n"
        "  P(--+) = 0.333333\n"
        "  P(---) = 0.083333\n"
    )
    _, text, _ = run_cli(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(text)))
    # Labels and order are exact; the probabilities' last digits follow the
    # floating-point summation order, so they are compared within 1e-12.
    assert rows[0] == ["outcome", "probability"]
    assert [row[0] for row in rows[1:]] == ["+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---"]
    expected = [1 / 3, 1 / 12, 0, 1 / 12, 0, 1 / 12, 1 / 3, 1 / 12]
    assert [float(row[1]) for row in rows[1:]] == pytest.approx(expected, abs=1e-12)


def test_json_request_builds_no_csv_rows(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("CSV rows built for a JSON request")

    monkeypatch.setattr(shots.CountTable, "to_csv_rows", refuse)
    monkeypatch.setattr(CorrelationTensor, "to_csv_rows", refuse)
    for name in ("sample", "correlations-pairs"):
        code, out, _ = run_cli(capsys, *REQUESTS[name], "--format", "json")
        assert code == 0
        assert "tensor" in json.loads(out)
