"""Outside-in tracing: spans around calls into symineq's layers.

The tracer patches the library only for the duration of one traced pass and
puts every original back afterwards.  Functions that other modules bind with
``from ... import`` are rebound in each module that holds them, since that is
where the caller looks them up; classes are traced by wrapping their methods.
Checkers are traced by swapping entries of the shared ``CHECKERS`` dict, plus
the two sweeps ``suite`` binds itself.

A span records its name, start, end and the span that was open when it began.
Nested calls (``maximal_average`` calling ``prefix_integral``, say) are
attributed through that parent link, never counted twice.  Bookkeeping done
after a call returns (content fingerprints) is charged to the parent as
``overhead`` and excluded from its self time.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from symineq import gradient, inequalities, isoperimetry, measure, rearrangement, suite

# The 11 inequality ids of DEFAULT_INEQUALITIES; each gets calls, s and self_s.
SUITE_IDS = (
    "s_phi_p",
    "oscillation_p",
    "derivative_p",
    "chain_rule",
    "nash_classical",
    "sobolev_weak",
    "sobolev_strong",
    "sobolev_exp",
    "polya_szego",
    "binomial_bounds",
    "oneil",
)

EVAL_SPANS = frozenset(
    {
        "rearrangement.value",
        "rearrangement.prefix_integral",
        "rearrangement.maximal_average",
        "rearrangement.powered_profile",
    }
)

PER_LAYER_UNITS = {
    "corpus.generate_s": "s",
    "corpus.functions": "count",
    "corpus.cells": "count",
    "measure.mass_builds": "count",
    "measure.mass_s": "s",
    "measure.cells_sorted": "count",
    "measure.atoms_kept": "count",
    "measure.distinct_build_ratio": "ratio",
    "measure.lp_norm_calls": "count",
    "gradient.modulus_calls": "count",
    "gradient.modulus_s": "s",
    "gradient.distinct_modulus_ratio": "ratio",
    "gradient.polya_szego_s": "s",
    "rearrangement.profile_builds": "count",
    "rearrangement.profile_init_s": "s",
    "rearrangement.eval_calls": "count",
    "rearrangement.eval_points": "count",
    "rearrangement.eval_s": "s",
    "isoperimetry.phi_calls": "count",
    "isoperimetry.phi_s": "s",
    **{
        f"inequalities.{name}.{key}": unit
        for name in SUITE_IDS
        for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
    },
    "suite.run_s": "s",
    "suite.self_s": "s",
    "suite.emit_s": "s",
    "suite.emit_bytes": "B",
    "suite.rows": "count",
    "trace.overhead_s": "s",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    overhead: float = 0.0
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fingerprint(*parts) -> bytes:
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.data)
        else:
            h.update(repr(part).encode())
    return h.digest()


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# info callbacks: (args, kwargs, result) -> what the span records about the call


def _mass_info(args, kwargs, result):
    values = np.asarray(_arg(args, kwargs, 1, "values"), dtype=float)
    masses = np.asarray(_arg(args, kwargs, 2, "masses"), dtype=float)
    mass_fn = args[0]
    return values.size, len(mass_fn), _fingerprint(values, masses)


def _modulus_info(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    mode = _arg(args, kwargs, 1, "mode", "metric_max")
    return _fingerprint(f.values, f.spacing, mode)


def _points(args, kwargs, result):
    # t is the second argument of maximal_average(s, t) and of s.value(t)
    return int(np.size(_arg(args, kwargs, 1, "t")))


def _powered_points(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "s").levels.size)


# (module, name, span name, info) for module-level functions
_FUNCTIONS = (
    (measure, "grid_to_mass", "measure.grid_to_mass", None),
    (measure, "lp_norm", "measure.lp_norm", None),
    (measure, "support_measure", "measure.support_measure", None),
    (gradient, "metric_gradient_modulus", "gradient.metric_gradient_modulus", _modulus_info),
    (gradient, "polya_szego_compare", "gradient.polya_szego_compare", None),
    (gradient, "polya_szego_lhs", "gradient.polya_szego_lhs", None),
    (gradient, "has_profile_jump", "gradient.has_profile_jump", None),
    (rearrangement, "decreasing_rearrangement", "rearrangement.decreasing_rearrangement", None),
    (rearrangement, "maximal_average", "rearrangement.maximal_average", _points),
    (rearrangement, "powered_profile", "rearrangement.powered_profile", _powered_points),
    (rearrangement, "power_segment_integral", "rearrangement.power_segment_integral", None),
    (rearrangement, "geometric_tgrid", "rearrangement.geometric_tgrid", None),
    (isoperimetry, "euclidean_profile", "isoperimetry.euclidean_profile", None),
    (isoperimetry, "phi_from_profile", "isoperimetry.phi_from_profile", None),
)

# (class, method, span name, info)
_METHODS = (
    (measure.MassFunction, "__init__", "measure.MassFunction", _mass_info),
    (measure.GridFunction, "__init__", "measure.GridFunction", None),
    (rearrangement.StepProfile, "__init__", "rearrangement.StepProfile", None),
    (rearrangement.StepProfile, "value", "rearrangement.value", _points),
    (rearrangement.StepProfile, "prefix_integral", "rearrangement.prefix_integral", _points),
    (isoperimetry.ProfileHandle, "__call__", "isoperimetry.phi", None),
)


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, info=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if info is not None:
            span.info = info(args, kwargs or {}, result)
            if parent >= 0:
                self.spans[parent].overhead += perf_counter() - span.end
        return result

    def _wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace every layer boundary inside the block; restore on exit."""
        undo = []
        checkers = dict(inequalities.CHECKERS)
        modules = [m for key, m in sys.modules.items() if key == "symineq" or key.startswith("symineq.")]
        try:
            for home, attr, name, info in _FUNCTIONS:
                original = getattr(home, attr)
                traced = self._wrap(name, original, info)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
            for cls, attr, name, info in _METHODS:
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, info))
            for attr in ("check_oneil", "check_binomial_bounds"):
                original = getattr(suite, attr)
                undo.append((suite, attr, original))
                setattr(suite, attr, self._wrap(f"inequalities.{attr[len('check_'):]}", original))
            for key, runner in checkers.items():
                inequalities.CHECKERS[key] = self._wrap(f"inequalities.{key}", runner)
            yield self
        finally:
            inequalities.CHECKERS.update(checkers)
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_csv(self, path, pass_index: int, append: bool) -> None:
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            if not append:
                fh.write("pass,span,name,start_s,end_s,parent,workload\n")
            origin = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{pass_index},{i},{s.name},{s.start - origin:.9f},"
                    f"{s.end - origin:.9f},{s.parent},{self.workload}\n"
                )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (corpus and trace.* excluded)."""
    child_time = [0.0] * len(spans)
    in_eval = [False] * len(spans)  # has an eval span among its ancestors
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
        if s.parent >= 0:
            child_time[s.parent] += s.duration
            in_eval[i] = in_eval[s.parent] or spans[s.parent].name in EVAL_SPANS

    def self_time(i):
        s = spans[i]
        return s.duration - child_time[i] - s.overhead

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    mass = [spans[i] for i in by_name["measure.MassFunction"]]
    modulus = [spans[i] for i in by_name["gradient.metric_gradient_modulus"]]
    profiles = by_name["rearrangement.StepProfile"]
    outer_eval = [s for i, s in enumerate(spans) if s.name in EVAL_SPANS and not in_eval[i]]
    init_in_eval = sum(spans[i].duration for i in profiles if in_eval[i])

    out = {
        "measure.mass_builds": len(mass),
        "measure.mass_s": total("measure.MassFunction"),
        "measure.cells_sorted": sum(s.info[0] for s in mass),
        "measure.atoms_kept": sum(s.info[1] for s in mass),
        "measure.distinct_build_ratio": _ratio(len({s.info[2] for s in mass}), len(mass)),
        "measure.lp_norm_calls": len(by_name["measure.lp_norm"]),
        "gradient.modulus_calls": len(modulus),
        "gradient.modulus_s": total("gradient.metric_gradient_modulus"),
        "gradient.distinct_modulus_ratio": _ratio(len({s.info for s in modulus}), len(modulus)),
        "gradient.polya_szego_s": total("gradient.polya_szego_compare"),
        "rearrangement.profile_builds": len(profiles),
        "rearrangement.profile_init_s": total("rearrangement.StepProfile"),
        "rearrangement.eval_calls": len(outer_eval),
        "rearrangement.eval_points": sum(s.info for s in outer_eval),
        "rearrangement.eval_s": sum(s.duration for s in outer_eval) - init_in_eval,
        "isoperimetry.phi_calls": len(by_name["isoperimetry.phi"]),
        "isoperimetry.phi_s": total("isoperimetry.phi"),
        "suite.run_s": total("suite.run_suite"),
        "suite.self_s": sum(self_time(i) for i in by_name["suite.run_suite"]),
        "suite.emit_s": total("suite.emit_report"),
        "suite.emit_bytes": sum(spans[i].info for i in by_name["suite.emit_report"]),
    }
    for name in SUITE_IDS:
        ids = by_name[f"inequalities.{name}"]
        out[f"inequalities.{name}.calls"] = len(ids)
        out[f"inequalities.{name}.s"] = total(f"inequalities.{name}")
        out[f"inequalities.{name}.self_s"] = sum(self_time(i) for i in ids)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def _ratio(useful: int, attempts: int) -> float:
    return useful / attempts if attempts else 0.0

