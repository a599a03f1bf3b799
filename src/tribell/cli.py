"""Command-line front end: reproduce, optimize, lhv-scan, sample, correlations."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType

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
from .polarimetry import StateTensor, correlation, outcome_distribution
from .qstate import make_ghz, make_w, state_from_jsonable

#: CLI state names and their tensors at v = 1, built once per process, read-only.
NAMED_STATES = MappingProxyType({
    "w": StateTensor(make_w()),
    "ghz-hv": StateTensor(make_ghz("linear_hv")),
    "ghz-rl": StateTensor(make_ghz("circular_rl")),
})

#: Largest state file accepted, in bytes: a valid one is a few KB, and a
#: path that never ends, such as /dev/zero, is refused after this many.
MAX_STATE_FILE_BYTES = 2**20

#: Bytes asked of a state file per read.  CPython allocates the whole request
#: before reading, so one read of the full cap costs a small file 1 MiB.
_STATE_READ_CHUNK = 2**16


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """The stdlib's C encoder for a value at this nesting depth of a report.

    It is the encoder json.JSONEncoder(sort_keys=True, allow_nan=False) builds
    afresh for every encode call, built once per depth here.  Its item
    separator holds the newline and indent of the depth's items: json itself
    falls back to its pure-Python encoder whenever indent is set.  Called as
    encoder(value, 0), it returns the text in chunks.
    """
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * (depth + 1), True, False, False,
    )


def _write_json(value, depth: int, parts: list) -> None:
    """Append value's text, at this nesting depth of a report, to parts.

    A scalar or a container of scalars is one call of the depth's C encoder;
    a container that holds a container is walked here.  The keys of a dict
    walked here must be str, as every report's are.
    """
    if not isinstance(value, _CONTAINERS):
        parts.extend(_flat_encoder(depth)(value, 0))
        return
    is_dict = isinstance(value, dict)
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if not any(isinstance(member, _CONTAINERS)
               for member in (value.values() if is_dict else value)):
        text = "".join(_flat_encoder(depth)(value, 0))
        # '[a,<inner>b]' becomes '[<inner>a,<inner>b<outer>]'; '[]' stays.
        parts.append(text[0] + inner + text[1:-1] + outer + text[-1] if value else text)
        return
    separator = ("{" if is_dict else "[") + inner
    for member in sorted(value.items()) if is_dict else value:
        parts.append(separator)
        separator = "," + inner
        if is_dict:
            key, member = member
            parts.append(encode_basestring_ascii(key) + ": ")
        _write_json(member, depth + 1, parts)
    parts.append(outer + ("}" if is_dict else "]"))


def render_json(payload) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n".

    A non-finite float raises ValueError, as there.
    """
    parts: list = []
    _write_json(payload, 0, parts)
    parts.append("\n")
    return "".join(parts)


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
    if args.output is not None:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _request_state(args) -> StateTensor:
    """The request's state tensor at its --visibility, shared by every step.

    A named state with no --visibility is its NAMED_STATES tensor itself; a
    state file is read up to MAX_STATE_FILE_BYTES and validated once; white
    noise only rescales the tensor.
    """
    state = NAMED_STATES.get(args.state.lower())
    if state is None:
        path = Path(args.state)
        if not path.exists() or path.is_dir():
            raise ValueError(
                f"unknown state {args.state!r}: use one of {tuple(NAMED_STATES)} "
                "or a JSON file path"
            )
        chunks, size = [], 0
        with path.open("rb") as file:  # bounded reads: a pipe has no size to check
            while size <= MAX_STATE_FILE_BYTES and (chunk := file.read(_STATE_READ_CHUNK)):
                chunks.append(chunk)
                size += len(chunk)
        if size > MAX_STATE_FILE_BYTES:
            raise ValueError(f"state file {args.state!r} is over {MAX_STATE_FILE_BYTES} bytes")
        try:
            data = json.loads(b"".join(chunks))
        except RecursionError:
            raise ValueError(f"state file {args.state!r} is nested too deeply") from None
        state = state_from_jsonable(data)
    elif args.visibility is None:
        return state
    return StateTensor(state, 1.0 if args.visibility is None else args.visibility)


def _angle_list(text: str, flag: str, shared: int, radians_flag: bool) -> list[float]:
    """The angles of a comma-separated flag value, in radians, 3 * shared of them.

    `shared` values are given once for all three parties, 3 * shared give each
    party its own.  They are degrees unless --radians was given, and are
    returned as given, unwrapped.
    """
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if len(values) == shared:
        values *= 3
    elif len(values) != 3 * shared:
        noun = "value" if shared == 1 else "values"
        raise ValueError(f"{flag} takes {shared} {noun} (all parties) or {3 * shared} (per party)")
    return values if radians_flag else [math.radians(v) for v in values]


def _parse_pairs(text: str, radians_flag: bool) -> tuple[SettingsPair, ...]:
    phases = _angle_list(text, "--pairs", 2, radians_flag)
    return tuple(SettingsPair(phases[p], phases[p + 1]) for p in (0, 2, 4))


def run_reproduction() -> list[dict]:
    """Compute every reproduce check; each row gets value, expected, and a pass flag.

    W's tensor is read from NAMED_STATES and contracted once at each of the
    two settings pairs the checks name, so a call builds no state and
    computes two correlation tensors.
    """
    w = NAMED_STATES["w"]
    tested = correlation_tensor(w, symmetric_pairs(math.radians(90.0), math.radians(0.0)))
    quoted = correlation_tensor(w, symmetric_pairs(math.radians(35.264), math.radians(144.736)))
    mermin, svetlichny = Functional.MERMIN, Functional.SVETLICHNY
    local, hybrid = ModelClass.LOCAL, ModelClass.HYBRID
    checks = (
        ("mermin-w-tested-settings", "S_M(W) at (90.000, 0.000) deg",
         functional_value(tested, mermin), 3.0, 1e-9),
        ("svetlichny-w-tested-settings", "S_V(W) at (90.000, 0.000) deg",
         functional_value(tested, svetlichny), 3.0, 1e-9),
        ("svetlichny-w-optimal-settings", "S_V(W) at (35.264, 144.736) deg",
         functional_value(quoted, svetlichny), 4.354, 1e-3),
        ("mermin-local-bound", "max |S_M|, local models",
         lhv_max(mermin, local).max_value, 2.0, 0.0),
        ("mermin-hybrid-bound", "max |S_M|, hybrid models",
         lhv_max(mermin, hybrid).max_value, 4.0, 0.0),
        ("svetlichny-local-bound", "max |S_V|, local models",
         lhv_max(svetlichny, local).max_value, 4.0, 0.0),
        ("svetlichny-hybrid-bound", "max |S_V|, hybrid models",
         lhv_max(svetlichny, hybrid).max_value, 4.0, 0.0),
        # The bound over the paper's rounded maximum, 4.354.
        ("critical-visibility-w", "critical visibility, S_V(W)",
         shots.critical_visibility(quoted, svetlichny), 4 / 4.354, 1e-3),
    )
    return [
        {"id": check_id, "label": label, "value": value, "expected": expected,
         "tolerance": tolerance, "passed": abs(value - expected) <= tolerance}
        for check_id, label, value, expected, tolerance in checks
    ]


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
    shots.check_integer(args.restarts, "--restarts", 0, optimizer.MAX_RANDOM_RESTARTS)
    state = _request_state(args)
    config = optimizer.OptimizationConfig(seed=args.seed, random_restarts=args.restarts)
    functional = Functional(args.functional)
    result = optimizer.optimize(state, functional, config)
    report = classify(result.best_value, functional)
    payload = result.to_jsonable()
    payload.update(
        {"functional": functional.value, "state": args.state,
         "report": report.to_jsonable()}
    )
    symbol = "M" if functional is Functional.MERMIN else "V"
    _emit(args, payload, lambda: [["iteration", "value"], *payload["trace"]], lambda: [
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
    shots.check_integer(args.shots, "--shots", 1, shots.MAX_SHOTS_PER_SETTING, "2**63 - 1")
    state = _request_state(args)
    pairs = _parse_pairs(args.pairs, args.radians)
    table = shots.sample_counts(state, pairs, args.shots, args.seed)
    estimated = shots.estimate_tensor(table)
    functionals = (
        list(Functional) if args.functional == "both" else [Functional(args.functional)]
    )
    degenerate = any(pair.is_degenerate for pair in pairs)
    reports = {
        f.value: shots.estimate_inequality(estimated, f, degenerate) for f in functionals
    }
    tensor, std_errors = estimated
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
    state = _request_state(args)
    if args.pairs is not None:
        pairs = _parse_pairs(args.pairs, args.radians)
        tensor = correlation_tensor(state, pairs)
        degenerate = any(pair.is_degenerate for pair in pairs)
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
    values = _angle_list(args.angles, "--angles", 1, args.radians)
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


def _add_common(parser, state: bool = True, angles: bool = False):
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
    if angles:
        parser.add_argument(
            "--radians", action="store_true",
            help="interpret angle arguments as radians instead of degrees",
        )


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, MappingProxyType]:
    """The CLI's parser and each subcommand's own parser by name, built once per process.

    Parsing leaves them unchanged: each parse fills a fresh Namespace, and
    help and usage text are formatted when printed.
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
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random restarts, in [0, 2**64 - 1] (default 0)")
    p.add_argument("--restarts", type=int, default=0,
                   help="random ascent starts after the 8 fixed seeds, "
                        f"at most {optimizer.MAX_RANDOM_RESTARTS} (default 0)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("lhv-scan", help="exact hidden-variable model bounds by enumeration")
    _add_common(p, state=False)
    p.add_argument("--functional", choices=("mermin", "svetlichny"), required=True)
    p.add_argument("--model", choices=("local", "hybrid"), required=True)
    p.set_defaults(func=cmd_lhv_scan)

    p = sub.add_parser("sample", help="simulate a finite-statistics correlation run")
    _add_common(p, angles=True)
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
    _add_common(p, angles=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", help="one triple phi_a,phi_b,phi_c (or one shared value)")
    group.add_argument("--pairs", help="phi,phi' for all parties, or six per-party values")
    p.set_defaults(func=cmd_correlations)

    return parser, MappingProxyType(sub.choices)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process with its subcommands' parsers."""
    return _parsers()[0]


def parse_args(argv=None) -> argparse.Namespace:
    """The Namespace build_parser().parse_args(argv) returns, with the same usage errors.

    An argv that starts with a subcommand is parsed once, by that subcommand's
    parser; the top-level parser would hand it every token after the name
    anyway, after first classifying each against its own options.  Tokens
    left over are refused by the top-level parser, as argparse refuses them.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if getattr(args, "visibility", None) is not None and not 0.0 <= args.visibility <= 1.0:
        _parsers()[1][args.command].error("--visibility must lie in [0, 1]")
    try:
        if args.output == "":
            raise ValueError("--output must be a file path, got ''")
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
