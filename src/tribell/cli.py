"""Command-line front end: reproduce, optimize, lhv-scan, sample, correlations."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

from . import lhv, optimizer, shots
from .inequalities import (
    Functional,
    SettingsPair,
    classify,
    correlation_tensor,
    functional_value,
    symmetric_pairs,
)
from .lhv import ModelClass, lhv_max
from .polarimetry import correlation, outcome_distribution
from .qstate import (
    as_density,
    make_ghz,
    make_w,
    mix_with_white_noise,
    state_from_jsonable,
)

#: CLI state names and the constructors they stand for.
NAMED_STATES = {
    "w": make_w,
    "ghz-hv": lambda: make_ghz("linear_hv"),
    "ghz-rl": lambda: make_ghz("circular_rl"),
}


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(args, payload, csv_rows, table_lines) -> None:
    """Write the report in the requested --format to --output, or to stdout.

    csv_rows and table_lines are zero-argument callables that return the CSV
    rows and the table's lines, so only the requested form is ever built.
    """
    if args.format == "json":
        text = render_json(payload)
    elif args.format == "csv":
        text = render_csv(csv_rows())
    else:
        text = "\n".join(table_lines()) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_state(state_arg: str):
    constructor = NAMED_STATES.get(state_arg.lower())
    if constructor is not None:
        return constructor()
    path = Path(state_arg)
    if not path.exists():
        raise ValueError(
            f"unknown state {state_arg!r}: use one of {tuple(NAMED_STATES)} "
            "or a JSON file path"
        )
    try:
        data = json.loads(path.read_text())
    except RecursionError:
        raise ValueError(f"state file {state_arg!r} is nested too deeply") from None
    return state_from_jsonable(data)


def _prepare_state(args):
    """The request's one validated DensityMatrix, which every later step shares."""
    state = as_density(_load_state(args.state))
    visibility = getattr(args, "visibility", None)
    if visibility is not None:
        state = mix_with_white_noise(state, visibility)
    return state


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated numbers, got {text!r}")


def _to_radians(values, radians_flag: bool) -> list[float]:
    return list(values) if radians_flag else [math.radians(v) for v in values]


def _parse_pairs(text: str, radians_flag: bool) -> tuple[SettingsPair, ...]:
    values = _to_radians(_parse_floats(text, "--pairs"), radians_flag)
    if len(values) == 2:
        return symmetric_pairs(values[0], values[1])
    if len(values) == 6:
        return tuple(SettingsPair(values[2 * p], values[2 * p + 1]) for p in range(3))
    raise ValueError("--pairs takes 2 values (all parties) or 6 (per party)")


def _scenario_degenerate(pairs) -> bool:
    return any(pair.is_degenerate for pair in pairs)


def load_reproduce_manifest() -> list[dict]:
    text = resources.files("tribell").joinpath("data/reproduce_manifest.json").read_text()
    return json.loads(text)["rows"]


def _row_state_and_pairs(params: dict, states: dict):
    """The state (from `states`, keyed by name) and symmetric settings a row names."""
    pairs = symmetric_pairs(
        math.radians(params["phi_deg"]), math.radians(params["phi_prime_deg"])
    )
    return states[params["state"]], pairs


def _evaluate_manifest_row(row: dict, states: dict) -> float:
    kind = row["kind"]
    params = row["params"]
    functional = Functional(params["functional"])
    if kind == "functional_value":
        state, pairs = _row_state_and_pairs(params, states)
        return functional_value(correlation_tensor(state, pairs), functional)
    if kind == "lhv_max":
        return lhv_max(functional, ModelClass(params["model"])).max_value
    if kind == "critical_visibility":
        state, pairs = _row_state_and_pairs(params, states)
        return shots.critical_visibility(state, pairs, functional)
    raise ValueError(f"unknown manifest row kind {kind!r}")


def run_reproduction() -> list[dict]:
    """Evaluate every manifest row; each gets value, expected, and a pass flag.

    Each state the manifest names is built and validated once per call.
    """
    manifest = load_reproduce_manifest()
    names = {row["params"]["state"] for row in manifest if "state" in row["params"]}
    states = {name: _load_state(name) for name in names}
    results = []
    for row in manifest:
        value = _evaluate_manifest_row(row, states)
        passed = abs(value - row["expected"]) <= row["tolerance"]
        results.append(
            {
                "id": row["id"],
                "label": row["label"],
                "value": float(value),
                "expected": float(row["expected"]),
                "tolerance": float(row["tolerance"]),
                "passed": bool(passed),
            }
        )
    return results


def _reproduce_table(rows) -> list[str]:
    width = max(len(r["label"]) for r in rows) + 2
    lines = [f"{'check':<{width}}{'value':>14}{'expected':>12}{'tol':>10}  status"]
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(
            f"{r['label']:<{width}}{r['value']:>14.9f}{r['expected']:>12g}"
            f"{r['tolerance']:>10.0e}  {status}"
        )
    n_pass = sum(r["passed"] for r in rows)
    lines.append(f"{n_pass}/{len(rows)} checks passed")
    return lines


def cmd_reproduce(args) -> int:
    rows = run_reproduction()
    all_passed = all(r["passed"] for r in rows)
    _emit(
        args,
        {"all_passed": all_passed, "rows": rows},
        lambda: [list(rows[0])] + [list(r.values()) for r in rows],
        lambda: _reproduce_table(rows),
    )
    return 0 if all_passed else 1


def cmd_optimize(args) -> int:
    state = _prepare_state(args)
    config = optimizer.OptimizationConfig(
        grid_step=math.radians(args.grid_step),
        refine_tolerance=args.tolerance,
        max_refine_iterations=args.max_iterations,
        seed=args.seed,
        random_restarts=args.restarts,
    )
    functional = Functional(args.functional)
    result = optimizer.optimize(state, functional, config)
    report = classify(result.best_value, functional)
    payload = result.to_jsonable()
    payload.update(
        {"functional": functional.value, "state": args.state,
         "report": report.to_jsonable()}
    )

    def trace_rows():
        return [["iteration", "value"], *payload["trace"]]

    if args.trace_csv:
        Path(args.trace_csv).write_text(render_csv(trace_rows()))
    symbol = "M" if functional is Functional.MERMIN else "V"
    _emit(args, payload, trace_rows, lambda: [
        f"max |S_{symbol}| = {result.best_value:.9f}  ({report.classification.value})",
        *(f"  party {name}: phi = {phi:10.5f} deg, phi' = {phi_prime:10.5f} deg"
          for name, (phi, phi_prime) in zip("abc", payload["settings_degrees"])),
        f"  restarts used: {result.restarts_used}",
    ])
    return 0


def cmd_lhv_scan(args) -> int:
    result = lhv_max(Functional(args.functional), ModelClass(args.model))
    functional, model = result.functional.value, result.model.value
    _emit(
        args,
        result.to_jsonable(),
        lambda: [["functional", "model", "max_value"],
                 [functional, model, result.max_value]],
        lambda: [f"max |{functional}| over {model} models: {result.max_value:g}",
                 f"witness: {json.dumps(result.witness.to_jsonable())}"],
    )
    return 0


def cmd_sample(args) -> int:
    state = _prepare_state(args)
    pairs = _parse_pairs(args.pairs, args.radians)
    table = shots.sample_counts(state, pairs, args.shots, args.seed)
    tensor, std_errors = shots.estimate_tensor(table)
    functionals = (
        list(Functional) if args.functional == "both" else [Functional(args.functional)]
    )
    degenerate = _scenario_degenerate(pairs)
    reports = {
        f.value: dataclasses.replace(shots.estimate_inequality(table, f), degenerate=degenerate)
        for f in functionals
    }
    estimates = tensor.to_jsonable()
    errors = dict(zip(estimates, std_errors.ravel().tolist()))
    payload = {
        "n_shots_per_setting": table.n_shots_per_setting,
        "seed": args.seed,
        "tensor": estimates,
        "std_errors": errors,
        "reports": {name: rep.to_jsonable() for name, rep in reports.items()},
    }
    _emit(args, payload, table.to_csv_rows, lambda: [
        f"n = {table.n_shots_per_setting} shots per setting, seed = {args.seed}",
        *(f"  E[{key}] = {value:+.6f} +- {errors[key]:.6f}"
          for key, value in estimates.items()),
        *(f"{name}: value = {rep.value:+.6f} +- {rep.std_error:.6f}, "
          f"z = {rep.z_score:+.2f}, {rep.classification.value}"
          for name, rep in reports.items()),
    ])
    return 0


def cmd_correlations(args) -> int:
    state = _prepare_state(args)
    if args.pairs:
        pairs = _parse_pairs(args.pairs, args.radians)
        tensor = correlation_tensor(state, pairs)
        degenerate = _scenario_degenerate(pairs)
        reports = {
            f.value: classify(functional_value(tensor, f), f, degenerate=degenerate)
            for f in Functional
        }
        estimates = tensor.to_jsonable()
        payload = {
            "tensor": estimates,
            "reports": {name: rep.to_jsonable() for name, rep in reports.items()},
        }
        _emit(args, payload, tensor.to_csv_rows, lambda: [
            *(f"  E[{key}] = {value:+.6f}" for key, value in estimates.items()),
            *(f"{name}: value = {rep.value:+.6f} (bound {rep.bound:g}), "
              f"{rep.classification.value}" for name, rep in reports.items()),
        ])
        return 0
    values = _to_radians(_parse_floats(args.angles, "--angles"), args.radians)
    if len(values) == 1:
        values = values * 3
    if len(values) != 3:
        raise ValueError("--angles takes 1 value (all parties) or 3 (per party)")
    dist = outcome_distribution(state, values).to_jsonable()
    value = correlation(state, values)
    payload = {
        "angles_radians": values,
        "angles_degrees": [math.degrees(v) for v in values],
        "correlation": value,
        "distribution": dist,
    }
    _emit(
        args,
        payload,
        lambda: [["outcome", "probability"], *dist.items()],
        lambda: [f"E = {value:+.9f}", *(f"  P({key}) = {p:.6f}" for key, p in dist.items())],
    )
    return 0


def _add_common(parser, state: bool = True):
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    if state:
        parser.add_argument(
            "--state", default="w",
            help="w | ghz-hv | ghz-rl | path to a JSON state file (default: w)",
        )
        parser.add_argument(
            "--visibility", type=float, default=None,
            help="mix the state with white noise at this visibility before use",
        )
        parser.add_argument(
            "--radians", action="store_true",
            help="interpret angle arguments as radians instead of degrees",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Parsing leaves it unchanged: each parse_args call fills a fresh Namespace,
    and help and usage text are formatted when printed.
    """
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Mermin/Svetlichny tests for three-qubit polarization states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="recompute every headline number and check it")
    _add_common(p, state=False)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("optimize", help="maximize |S_M| or |S_V| over analyzer phases")
    _add_common(p)
    p.add_argument("--functional", choices=("mermin", "svetlichny"), required=True)
    p.add_argument("--grid-step", type=float, default=15.0,
                   help="step in degrees of the symmetric seed grid, phi and phi' equal "
                        "across parties; must divide 360, at least 0.5 (default 15)")
    p.add_argument("--tolerance", type=float, default=1e-8,
                   help="ascent stops when no phase moves more than this many radians "
                        "in a sweep over parties a, b, c; values this close to the "
                        "maximum tie (default 1e-8)")
    p.add_argument("--max-iterations", type=int, default=2000,
                   help="most ascent iterations per start, each a sweep over parties "
                        "a, b, c plus at most one Newton step, "
                        f"at most {optimizer.MAX_REFINE_ITERATIONS} (default 2000)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random restarts, in [0, 2**64 - 1] (default 0)")
    p.add_argument("--restarts", type=int, default=0,
                   help="extra random ascent starts beyond the grid seeds, "
                        f"at most {optimizer.MAX_RANDOM_RESTARTS} (default 0)")
    p.add_argument("--trace-csv", help="also write the improvement trace to this CSV path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("lhv-scan", help="exact hidden-variable model bounds by enumeration")
    _add_common(p, state=False)
    p.add_argument("--functional", choices=("mermin", "svetlichny"), required=True)
    p.add_argument("--model", choices=("local", "hybrid"), required=True)
    p.set_defaults(func=cmd_lhv_scan)

    p = sub.add_parser("sample", help="simulate a finite-statistics correlation run")
    _add_common(p)
    p.add_argument("--pairs", required=True,
                   help="phi,phi' for all parties, or six per-party values")
    p.add_argument("--shots", type=int, required=True,
                   help="shots per setting choice, "
                        f"at most {shots.MAX_SHOTS_PER_SETTING} (2**63 - 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the per-setting random streams, in [0, 2**64 - 1] "
                        "(default 0)")
    p.add_argument("--functional", choices=("mermin", "svetlichny", "both"),
                   default="both")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("correlations", help="correlation values for explicit settings")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", help="one triple phi_a,phi_b,phi_c (or one shared value)")
    group.add_argument("--pairs", help="phi,phi' for all parties, or six per-party values")
    p.set_defaults(func=cmd_correlations)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sample" and args.shots < 1:
        parser.error("--shots must be at least 1")
    if getattr(args, "visibility", None) is not None and not 0.0 <= args.visibility <= 1.0:
        parser.error("--visibility must lie in [0, 1]")
    try:
        if hasattr(args, "seed"):
            shots.check_seed(args.seed, "--seed")
        return args.func(args)
    # Bad input: ValueError (json.JSONDecodeError among them), a state file of
    # the wrong JSON type (TypeError), or an unreadable or unwritable path.
    except (ValueError, TypeError, OSError) as exc:
        sys.stderr.write(render_json({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
