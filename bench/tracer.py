"""Span tracer around tribell's public entry points, installed from outside.

install() replaces each traced function by a wrapper in its defining module
and in every loaded tribell module that imported it by name (for example
cli's `lhv_max` or shots' `correlation_tensor`), so cross-module calls pass
through the spans too.  A traced class records a span per construction by
wrapping its __post_init__.  uninstall() puts every original object back, so
untraced runs execute unpatched code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


def _shots_drawn(args, kwargs, result) -> int:
    # sample_counts(state, pairs, n_shots, seed): n_shots per each of 8 settings.
    n_shots = kwargs["n_shots"] if "n_shots" in kwargs else args[2]
    return 8 * int(n_shots)


def _restarts_used(args, kwargs, result) -> int:
    return int(result.restarts_used)


#: Traced entry points as "module.attribute" under the tribell package, with an
#: optional note taken from each call's arguments and result.
TRACED = {
    "cli.main": None,
    "qstate.DensityMatrix": None,
    "qstate.as_density": None,
    "qstate.mix_with_white_noise": None,
    "qstate.state_from_jsonable": None,
    "polarimetry.correlation": None,
    "polarimetry.outcome_distribution": None,
    "inequalities.correlation_tensor": None,
    "inequalities.classify": None,
    "lhv.lhv_max": None,
    "lhv.strategy_tensor": None,
    "optimizer.optimize": _restarts_used,
    "shots.sample_counts": _shots_drawn,
    "shots.estimate_inequality": None,
    "shots.critical_visibility": None,
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    request: int | None
    start: float
    end: float
    note: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one Span per traced call while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                value = note(args, kwargs, result) if note and result is not None else None
                self.spans.append(Span(span_id, parent, name, self.request, start, end, value))

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "tribell" or key.startswith("tribell.")]
        for name, note in TRACED.items():
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"tribell.{module_name}"), attr)
            if isinstance(original, type):
                init = original.__dict__["__post_init__"]
                self._patch(original, "__post_init__", init, self._wrap(name, init, note))
                continue
            wrapper = self._wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _under(span: Span, ancestor_name: str, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == ancestor_name:
            return True
        parent = by_id[parent].parent
    return False


def summarize(spans) -> dict:
    """Per-layer counts and self times (ms) for one set of spans.

    Self time is a span's duration minus the durations of its direct
    children.  Keys follow TRACED: '<layer>.calls' and '<layer>.self_ms', plus
    the derived ratios documented in bench/README.md.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    calls = Counter(span.name for span in spans)
    self_s = defaultdict(float)
    for span in spans:
        self_s[span.name] += span.duration - child_time[span.span_id]
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = 1e3 * self_s[name]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scored = sum(1 for s in spans
                 if s.name == "lhv.strategy_tensor" and _under(s, "lhv.lhv_max", by_id))
    out["lhv.strategies_per_max"] = ratio(scored, calls["lhv.lhv_max"])
    tensors = sum(1 for s in spans if s.name == "inequalities.correlation_tensor"
                  and _under(s, "shots.critical_visibility", by_id))
    out["shots.critical_visibility.tensors_per_call"] = ratio(
        tensors, calls["shots.critical_visibility"])
    restarts = [s.note for s in spans if s.name == "optimizer.optimize" and s.note is not None]
    out["optimizer.restarts_used"] = statistics.fmean(restarts) if restarts else 0.0
    sampling = [s for s in spans if s.name == "shots.sample_counts" and s.note is not None]
    shots = sum(s.note for s in sampling)
    out["shots.shots_drawn"] = shots
    out["shots.sample_counts.ns_per_shot"] = ratio(
        1e9 * sum(s.duration for s in sampling), shots)
    return out
