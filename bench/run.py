"""Benchmark of the tribell command line, run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 22 --trace 0

One closed-loop client in this process calls tribell.cli.main(argv) for each
request of a seeded workload (bench/workloads.py), with output captured, and
checks every response against an independent reference (bench/oracle.py).
Fresh interpreters, started one at a time, measure set-up and the first
request.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds of the request list and
reports the per-layer metrics (bench/tracer.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the run's details and the machine.
Metric definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path("src")
WORK_DIR = Path(".bench_work")
OUT_DIR = Path(".bench_out")

#: Share of an untraced run's --seconds spent in fresh interpreters (probes);
#: the rest serves rounds.  setup_s is the probes' median set-up time,
#: first_request_ms the mean of their first requests.
PROBE_SHARE = 0.4
#: Fewest probes in an untraced run, however short --seconds is.
MIN_PROBES = 11
PROBE_TIMEOUT_S = 120
#: Untraced requests needed before latency_p90_ms is reported (ten beyond it).
P90_MIN_REQUESTS = 100
MAX_REPORTED_FAILURES = 5
#: CPUs this process may use.  Requests and probes take them in turn, so that
#: every run samples each CPU alike (their speeds drift independently).
CPUS = sorted(os.sched_getaffinity(0))


def move_to_cpu(turn: int) -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def machine_facts() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def load_cli():
    """tribell.cli from ./src, never from an installed copy."""
    sys.path.insert(0, str(SRC.resolve()))
    import tribell.cli

    if Path(tribell.cli.__file__).resolve().parent != (SRC / "tribell").resolve():
        raise ImportError(f"tribell imported from {tribell.cli.__file__}, not {SRC}")
    return tribell.cli


class Client:
    """Closed loop: the next request starts only after the previous one returns."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.request_id = 0
        self.busy_s = 0.0
        self.turn = 0

    def call(self, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = self.request_id
        self.request_id += 1
        move_to_cpu(self.turn)
        self.turn += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed request, not a failed benchmark
                rc = traceback.format_exc(limit=4)
            elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        return (rc, out.getvalue(), err.getvalue()), elapsed

    def judge(self, request, response):
        rc, stdout, stderr = response
        self.attempted += 1
        reason = oracle.check(request, (rc, stdout))
        if reason is not None:
            self.failures.append(f"{' '.join(request['argv'])}: {reason} {stderr.strip()}")

    def run_round(self, requests, tracer=None, before_each=None) -> list[float]:
        """Serve the request list once; returns the per-request latencies."""
        responses, latencies = [], []
        for request in requests:
            if before_each is not None:
                before_each()
            response, elapsed = self.call(request["argv"], tracer)
            responses.append(response)
            latencies.append(elapsed)
        if len(requests) % len(CPUS) == 0:
            self.turn += 1  # otherwise each request would keep to one CPU in every round
        for request, response in zip(requests, responses):
            self.judge(request, response)
        return latencies


def probe(client: Client, request, turn: int) -> tuple[float, float, float]:
    """Set-up seconds, first-request seconds and total seconds of one fresh
    interpreter, started on the CPU for this turn."""
    move_to_cpu(turn)
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), json.dumps(request["argv"])]
    spawned = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    ended = time.monotonic()
    if done.returncode != 0:
        raise RuntimeError(f"probe exited {done.returncode}: {done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    client.judge(request, (report["rc"], report["stdout"], report["stderr"]))
    return report["ready"] - spawned, report["first_s"], ended - spawned


def _rounds(seconds: float, serve_round) -> list[float]:
    """Round wall times: at least one round, then more while the next would end
    less than half a round past `seconds`."""
    walls = []
    while not walls or sum(walls) + statistics.median(walls) / 2 <= seconds:
        walls.append(serve_round())
    return walls


def measure_end_to_end(client: Client, requests, seconds: float) -> tuple[dict, dict]:
    """Rounds of the request list, with fresh-interpreter probes interleaved
    between requests so that probes take PROBE_SHARE of the time all along
    the run, and both see the machine in the same states (its speed drifts).
    Probe time is not part of any round."""
    warm, _ = client.call(requests[0]["argv"])
    client.judge(requests[0], warm)
    probes, start = [], client.busy_s
    probe_share = PROBE_SHARE / (1.0 - PROBE_SHARE)

    def probe_while_behind():
        while sum(p[2] for p in probes) < probe_share * (client.busy_s - start):
            probes.append(probe(client, requests[0], len(probes)))

    def serve_round():
        round_latencies.append(client.run_round(requests, before_each=probe_while_behind))
        return sum(round_latencies[-1])

    round_latencies = []
    walls = _rounds(seconds * (1.0 - PROBE_SHARE), serve_round)
    probe_while_behind()
    while len(probes) < MIN_PROBES:
        probes.append(probe(client, requests[0], len(probes)))
    # The machine's speed switches between a fast and a slow state for seconds
    # at a time.  A median over a whole run jumps between the two as their
    # shares cross a half; means over rounds and probes move smoothly.
    latencies = [x for r in round_latencies for x in r]
    metrics = {
        "setup_s": (statistics.median(p[0] for p in probes), "s"),
        "first_request_ms": (1e3 * statistics.fmean(p[1] for p in probes), "ms"),
        "wall_s": (statistics.fmean(walls), "s"),
        "latency_p50_ms": (1e3 * statistics.fmean(map(statistics.median, round_latencies)),
                           "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"rounds": len(walls), "requests_timed": len(latencies), "probes": len(probes),
               "pooled_latency_p50_ms": 1e3 * statistics.median(latencies)}
    if len(latencies) >= P90_MIN_REQUESTS:
        details["latency_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
    return metrics, details


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ns_per_shot"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    return "count"


def measure_layers(client: Client, requests, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    warm, _ = client.call(requests[0]["argv"])
    client.judge(requests[0], warm)
    tracer = tracing.Tracer()
    plain, traced, rounds, kept = [], [], [], None

    def serve_pair():
        plain.append(sum(client.run_round(requests)))
        with tracer:
            traced.append(sum(client.run_round(requests, tracer)))
        rounds.append(tracing.summarize(tracer.spans))
        nonlocal kept
        # Rounds repeat the same requests, so the first one's spans stand for all.
        kept = kept or tracer.spans
        tracer.spans = []
        return plain[-1] + traced[-1]

    _rounds(seconds, serve_pair)
    metrics = {}
    for name in rounds[0]:
        values = [summary[name] for summary in rounds]
        if name.endswith(".calls") or name.endswith("_drawn"):
            if len(set(values)) > 1:
                client.failures.append(f"{name} differs between identical rounds: {values}")
            metrics[name] = (values[0], _unit(name))
        else:
            metrics[name] = (statistics.median(values), _unit(name))
    metrics["trace.overhead_s"] = (statistics.fmean(traced) - statistics.fmean(plain), "s")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as handle:
        for span in kept:
            handle.write(json.dumps([span.span_id, span.parent, span.name, span.request,
                                     span.start, span.end, span.note]) + "\n")
    details = {"rounds": len(rounds), "untraced_wall_s": statistics.fmean(plain),
               "traced_wall_s": statistics.fmean(traced), "spans_per_round": len(kept),
               "spans_file": str(spans_path)}
    return metrics, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tribell" / "cli.py").is_file():
        sys.stderr.write(f"no tribell sources under ./{SRC}: run from the repository root\n")
        return 2
    state_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        requests = workloads.generate(args.workload, args.seed, state_dir)
        client = Client(load_cli())
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, details = measure_layers(client, requests, args.seconds, spans_path)
        else:
            metrics, details = measure_end_to_end(client, requests, args.seconds)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    for failure in client.failures[:MAX_REPORTED_FAILURES]:
        sys.stderr.write(f"FAILED {failure}\n")
    failed = len(client.failures)
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests_per_round": len(requests),
        "failed_ratio": failed / client.attempted, "machine": machine_facts(),
    })
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
