"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import io
import json
import math

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


def test_reproduce_manifest_is_parsed_once_and_read_only():
    rows = cli.load_reproduce_manifest()
    assert cli.load_reproduce_manifest() is rows
    assert isinstance(rows, tuple) and len(rows) == 8
    with pytest.raises(TypeError):
        rows[0]["expected"] = 0.0
    with pytest.raises(TypeError):
        rows[0]["params"]["state"] = "ghz-hv"
    assert [row["id"] for row in cli.run_reproduction()] == [row["id"] for row in rows]


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


def test_lhv_scan_values(capsys):
    code, out, _ = run_cli(
        capsys, "lhv-scan", "--functional", "mermin", "--model", "local",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_value"] == 2.0
    code, out, _ = run_cli(
        capsys, "lhv-scan", "--functional", "svetlichny", "--model", "hybrid",
        "--format", "json",
    )
    assert json.loads(out)["max_value"] == 4.0
    assert code == 0


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
def test_report_writer_prints_the_stdlib_indent_2_layout(payload):
    assert cli.render_json(payload) == _stdlib_indent_2(payload)


@pytest.mark.parametrize(
    "payload",
    [math.inf, [1.0, -math.inf], {"a": 1, "b": math.nan}, {"a": [{"b": math.inf}], "c": []}],
    ids=["scalar", "flat-list", "flat-dict", "nested"],
)
def test_report_writer_refuses_a_non_finite_float(payload):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        cli.render_json(payload)


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
    assert cli._load_state(name.upper()) is named


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


def test_usage_error_leaves_no_trace_in_the_next_request(capsys):
    argv = [*REQUESTS["sample"], "--format", "json"]
    cli.build_parser.cache_clear()
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


def test_state_file_round_trip(capsys, tmp_path):
    state_path = tmp_path / "w.json"
    state_path.write_text(json.dumps(make_w().to_jsonable()))
    code, out, _ = run_cli(
        capsys,
        "correlations", "--state", str(state_path), "--angles", "0,0,0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["correlation"] == pytest.approx(-1.0, abs=1e-9)


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
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["correlations", "--state", "w", "--visibility", "1.5", "--angles", "0"])
    assert excinfo.value.code == 2


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


def test_reproduce_contracts_each_state_and_settings_pair_once(monkeypatch):
    calls = []

    def counting_tensor(state, pairs):
        calls.append((state, pairs))
        return correlation_tensor(state, pairs)

    monkeypatch.setattr(cli, "correlation_tensor", counting_tensor)
    monkeypatch.setattr(shots, "correlation_tensor", counting_tensor)
    values = {row["id"]: row["value"] for row in cli.run_reproduction()}
    assert len(calls) == 2
    monkeypatch.undo()
    checked = 0
    for row in cli.load_reproduce_manifest():
        params = row["params"]
        if row["kind"] == "lhv_max":
            continue
        state = cli.NAMED_STATES[params["state"]]
        pairs = symmetric_pairs(math.radians(params["phi_deg"]),
                                math.radians(params["phi_prime_deg"]))
        functional = Functional(params["functional"])
        if row["kind"] == "functional_value":
            expected = functional_value(correlation_tensor(state, pairs), functional)
        else:
            expected = shots.critical_visibility(state, pairs, functional)
        assert values[row["id"]].hex() == expected.hex()
        checked += 1
    assert checked == 4


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
