"""Span tracer for the benchmark's traced runs.

The tracer replaces public functions of cqf at the module attribute through
which the pipeline calls them, records one span (name, start, end, parent)
per call in memory, and derives the per-layer metrics from the spans when
the round ends.  A layer's self time is its span time minus the time its
child spans cover.

RHS evaluations are counted by handing ``integrate`` and ``steady_state`` a
counting wrapper around the derivative they were given, with the layout
passed explicitly so that trajectories keep their symbol columns.

A hook whose target no longer exists is reported as missing: every metric
that depends on it is ``None``, never zero.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, span name, kind).  "class.attr" patches a method.
#   span   - record a span
#   count  - count calls only (recursive and frequent: a span each would
#            cost more than the call)
#   rhs    - record a span and hand the callee a counting RHS wrapper
HOOKS = (
    ("cqf.cli.dsl", "parse_model", "cli.parse", "span"),
    ("cqf.cli.observables", "evaluate_observables", "cli.observables", "span"),
    ("cqf.meanfield", "meanfield_derive", "meanfield.derive", "span"),
    ("cqf.meanfield", "derive_equation", "meanfield.derive_equation", "span"),
    ("cqf.completion", "derive_equation", "meanfield.derive_equation", "span"),
    ("cqf.meanfield", "qle_rhs", "meanfield.qle_rhs", "span"),
    ("cqf.correlation", "qle_rhs", "meanfield.qle_rhs", "span"),
    ("cqf.meanfield", "expand_scalar", "cumulant.expand", "span"),
    ("cqf.correlation", "expand_scalar", "cumulant.expand", "span"),
    ("cqf.cli.observables", "expand_scalar", "cumulant.expand", "span"),
    ("cqf.cumulant", "expand_average", "cumulant.expand_average", "count"),
    ("cqf.completion", "complete", "completion.complete", "span"),
    ("cqf.numerics.lowering", "lower", "lowering.lower", "span"),
    ("cqf.correlation", "lower", "lowering.lower", "span"),
    ("cqf.numerics.lowering", "RHSProgram.bind", "lowering.bind", "span"),
    ("cqf.numerics.steppers", "integrate", "steppers.integrate", "rhs"),
    ("cqf.correlation", "integrate", "steppers.integrate", "rhs"),
    ("cqf.numerics.steppers", "steady_state", "steppers.steady_state", "rhs"),
    ("cqf.correlation", "build_correlation_system", "correlation.build", "span"),
    ("cqf.correlation", "linearize_steady", "correlation.linearize", "span"),
    ("cqf.correlation", "spectrum_laplace", "correlation.laplace", "span"),
    ("cqf.correlation", "correlation_trajectory", "correlation.trajectory",
     "span"),
    ("cqf.correlation", "spectrum_fourier", "correlation.fourier", "span"),
    ("cqf.oracle", "me_spectrum", "oracle.spectrum", "span"),
    ("cqf.oracle", "steady_state", "oracle.steady_state", "rhs"),
    ("cqf.oracle", "integrate", "oracle.integrate", "rhs"),
)

# Size of the result (or input) a call produced, summed per span name.
SIZES = {
    "completion.complete": lambda args, out: len(out),
    "lowering.lower": lambda args, out: len(out.terms),
    "correlation.build": lambda args, out: len(out),
    "oracle.spectrum": lambda args, out: math.prod(args[1].dims(args[0].space)),
}

# metric -> (unit, how it is measured, span names it needs).  Seconds are
# summed over the outermost spans of a name; "self" subtracts child spans;
# "evals" counts RHS calls made under the outermost spans.
LAYERS = {
    "cli.parse_s": ("s", "seconds", "cli.parse"),
    "cli.observables_s": ("s", "seconds", "cli.observables"),
    "meanfield.qle_rhs_s": ("s", "self", "meanfield.qle_rhs"),
    "meanfield.qle_rhs_calls": ("count", "calls", "meanfield.qle_rhs"),
    "cumulant.expand_s": ("s", "self", "cumulant.expand"),
    "cumulant.expand_average_calls": ("count", "calls", "cumulant.expand_average"),
    "completion.complete_s": ("s", "seconds", "completion.complete"),
    "completion.equations": ("count", "size", "completion.complete"),
    "lowering.lower_s": ("s", "seconds", "lowering.lower"),
    "lowering.bind_s": ("s", "seconds", "lowering.bind"),
    "lowering.terms": ("count", "size", "lowering.lower"),
    "lowering.rhs_us": ("us", "main_rhs_us"),
    "steppers.integrate_s": ("s", "trajectory_s", "steppers.integrate"),
    "steppers.rhs_evals": ("count", "trajectory_evals", "steppers.integrate"),
    "steppers.overhead_us": ("us", "overhead_us", "steppers.integrate"),
    "steppers.steady_state_s": ("s", "seconds", "steppers.steady_state"),
    "steppers.steady_rhs_evals": ("count", "evals", "steppers.steady_state"),
    "correlation.build_s": ("s", "seconds", "correlation.build"),
    "correlation.size": ("count", "size", "correlation.build"),
    "correlation.linearize_s": ("s", "seconds", "correlation.linearize"),
    "correlation.laplace_s": ("s", "seconds", "correlation.laplace"),
    "correlation.trajectory_s": ("s", "seconds", "correlation.trajectory"),
    "correlation.fourier_s": ("s", "seconds", "correlation.fourier"),
    "oracle.spectrum_s": ("s", "seconds", "oracle.spectrum"),
    "oracle.hilbert_dim": ("count", "size", "oracle.spectrum"),
    "oracle.rhs_evals": ("count", "evals", "oracle.steady_state", "oracle.integrate"),
}

# Spans below which an integration belongs to a steady-state search or to
# the oracle rather than to a trajectory.
_NOT_TRAJECTORY = ("steppers.steady_state", "oracle.spectrum")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    evals: int = 0
    probe: tuple | None = None         # (RHS, t, final state) of an integration
    detail: str = ""


def time_rhs(f, t, y, repeats: int = 5, budget: float = 0.01) -> float:
    """Median µs per call of ``f(t, y)``, over ``repeats`` timed batches."""
    t0 = time.perf_counter()
    f(t, y)
    one = max(time.perf_counter() - t0, 1e-7)
    batch = max(1, int(budget / one))
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            f(t, y)
        per_call.append((time.perf_counter() - t0) / batch)
    return statistics.median(per_call) * 1e6


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    missing_spans: set = field(default_factory=set)
    main_rhs_us: float | None = None
    _undo: list = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def open(self, name: str, detail: str = "") -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, time.perf_counter(), parent, detail=detail)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self.stack.pop()

    def _ancestors(self, span: Span):
        k = span.parent
        while k >= 0:
            yield self.spans[k]
            k = self.spans[k].parent

    def probe_main_rhs(self, f, t, y):
        """Time the workload's own bound RHS at its final state."""
        self.main_rhs_us = time_rhs(f, t, y)

    # -- hooks -------------------------------------------------------------

    def install(self, hooks=HOOKS):
        for module_name, attr, name, kind in hooks:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                self.missing_spans.add(name)
                continue
            setattr(owner, leaf, self._wrap(original, name, kind))
            self._undo.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def _wrap(self, original, name, kind):
        tracer = self
        size_of = SIZES.get(name)

        if kind == "count":
            def counted(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            span = tracer.open(name)
            if kind == "rhs":
                args, kwargs, rhs = tracer._count_rhs(span, name, args, kwargs)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if size_of is not None:
                tracer.sizes[name] = tracer.sizes.get(name, 0) + size_of(args, out)
            if name == "steppers.integrate":
                # timed after the round, so the probe stays out of every span
                span.probe = (rhs, out.times[-1], out.final_state)
            return out

        return traced

    def _count_rhs(self, span, name, args, kwargs):
        f = args[0]

        def counting(t, y):
            span.evals += 1
            return f(t, y)

        if name.endswith("integrate") and kwargs.get("layout") is None \
                and len(args) < 6:
            program = getattr(f, "program", None)
            if program is not None:
                kwargs = dict(kwargs, layout=program.layout)
        return (counting,) + tuple(args[1:]), kwargs, f

    def _is_trajectory(self, span) -> bool:
        return not any(a.name in _NOT_TRAJECTORY for a in self._ancestors(span))

    # -- metrics -----------------------------------------------------------

    def _outermost(self, name):
        return [s for s in self.spans if s.name == name
                and not any(a.name == name for a in self._ancestors(s))]

    def _seconds(self, name):
        return sum((s.end - s.start for s in self._outermost(name)), 0.0)

    def self_times(self) -> dict:
        """name -> [calls, inclusive seconds of outermost spans, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        table: dict = {}
        for k, s in enumerate(self.spans):
            row = table.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += (s.end - s.start) - child_time[k]
        for name, row in table.items():
            row[1] = self._seconds(name)
        return table

    def layer_metrics(self) -> dict:
        trajectories = [s for s in self.spans if s.probe is not None
                        and self._is_trajectory(s)]
        traj_s = sum((s.end - s.start for s in trajectories), 0.0)
        traj_evals = sum(s.evals for s in trajectories)
        busy = sum(s.evals * time_rhs(*s.probe) * 1e-6 for s in trajectories)
        derived = {
            "trajectory_s": traj_s,
            "trajectory_evals": traj_evals,
            "overhead_us": (traj_s - busy) / traj_evals * 1e6 if traj_evals else 0.0,
            "main_rhs_us": self.main_rhs_us,
        }
        self_time = self.self_times()

        def measure(how, names):
            if how in derived:
                return derived[how]
            if how == "seconds":
                return sum(self._seconds(n) for n in names)
            if how == "self":
                return sum(self_time.get(n, (0, 0.0, 0.0))[2] for n in names)
            if how == "calls":
                return sum(self.calls.get(n, 0) for n in names)
            if how == "size":
                return sum(self.sizes.get(n, 0) for n in names)
            return sum(s.evals for n in names for s in self._outermost(n))

        return {metric: (None if any(n in self.missing_spans for n in names)
                         else measure(how, names))
                for metric, (_, how, *names) in LAYERS.items()}

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.evals, s.detail]
                for s in self.spans]
