"""Per-layer tracing of the ``pssf`` modules, installed from outside.

:class:`Tracer` replaces the public functions each layer exports with timing
wrappers, at every ``pssf`` module attribute that holds them, because that is
where callers look them up (``simulate`` finds ``step_rk4`` in
``pssf.dynamics``, ``simulate_artifacts`` finds ``simulate`` in
``pssf.scenario``). Methods are wrapped on their class. The f/g evaluators
are closures made by ``segway_true``, so that factory is wrapped to return
systems whose ``drift`` and ``actuation`` are traced.

A span's self time is its duration minus the time of the spans it called.
Spans are aggregated per name as they close (calls, self seconds, f/g
evaluations inside), so a 10k-step rollout costs no per-call memory.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time

import numpy as np

FG = "dynamics.fg"

# (span, defining module, attribute): module-level functions.
FUNCTION_SPANS = [
    ("dynamics.simulate", "pssf.dynamics", "simulate"),
    ("dynamics.step_rk4", "pssf.dynamics", "step_rk4"),
    ("barrier.safety_filter", "pssf.barrier", "safety_filter"),
    ("certify.closed_loop_delta_trace", "pssf.certify", "closed_loop_delta_trace"),
    ("certify.verify_certificate", "pssf.certify", "verify_certificate"),
    ("learning.collect_episode", "pssf.learning", "collect_episode"),
    ("learning.fit_residual", "pssf.learning", "fit_residual"),
    ("scenario.build_scenario", "pssf.scenario", "build_scenario"),
    ("scenario.model_error_drift_sup", "pssf.scenario", "model_error_drift_sup"),
    ("ioutil.write_csv", "pssf.ioutil", "write_csv"),
    ("ioutil.write_json", "pssf.ioutil", "write_json"),
]

# (span, defining module, class, method).
METHOD_SPANS = [
    ("barrier.controller", "pssf.barrier", "FilteredController", "filter_result"),
    ("learning.residual_terms", "pssf.learning", "ResidualModel", "terms"),
]

# Per-layer metrics a traced operation reports, with units. The setup-layer
# timings and trace.overhead_s are added by the runner.
LAYER_UNITS = {
    "dynamics.steps": "count",
    "dynamics.fg_evals": "count",
    "dynamics.fg_evals_per_step": "evals/step",
    "dynamics.fg.self_s": "s",
    "dynamics.step_rk4.self_s": "s",
    "dynamics.simulate.self_s": "s",
    "barrier.safety_filter.calls": "count",
    "barrier.safety_filter.self_s": "s",
    "barrier.controller.self_s": "s",
    "barrier.filter_active_frac": "frac",
    "barrier.infeasible": "count",
    "barrier.clamped": "count",
    "learning.residual_terms.calls": "count",
    "learning.residual_terms.self_s": "s",
    "certify.closed_loop_delta_trace.self_s": "s",
    "certify.delta_samples": "count",
    "certify.verify_certificate.self_s": "s",
    "learning.collect_episode.self_s": "s",
    "learning.fit_residual.calls": "count",
    "learning.fit_residual.self_s": "s",
    "learning.fit_residual.rows": "count",
    "ioutil.write_csv.self_s": "s",
    "ioutil.write_json.self_s": "s",
    "ioutil.bytes_written": "bytes",
    "trace.unattributed_s": "s",
}

COUNTERS = ("barrier.modified", "barrier.infeasible", "barrier.clamped",
            "certify.delta_samples", "learning.fit_residual.rows", "ioutil.bytes_written")


def _count_filter_outcome(tracer, args, result):
    tracer.counts["barrier.modified"] += result.modified
    tracer.counts["barrier.infeasible"] += result.infeasible


def _count_clamp(tracer, args, result):
    # FilteredController.__call__ clips the filtered input to u_limit.
    u_limit = args[0].u_limit
    if u_limit is not None and np.max(np.abs(result.u)) > u_limit:
        tracer.counts["barrier.clamped"] += 1


def _count_delta_samples(tracer, args, result):
    tracer.counts["certify.delta_samples"] += len(result.delta)


def _count_fit_rows(tracer, args, result):
    tracer.counts["learning.fit_residual.rows"] += len(args[0])


def _count_bytes(tracer, args, result):
    tracer.counts["ioutil.bytes_written"] += os.path.getsize(args[0])


AFTER = {
    "barrier.safety_filter": _count_filter_outcome,
    "barrier.controller": _count_clamp,
    "certify.closed_loop_delta_trace": _count_delta_samples,
    "learning.fit_residual": _count_fit_rows,
    "ioutil.write_csv": _count_bytes,
    "ioutil.write_json": _count_bytes,
}


class Tracer:
    """Span aggregates and counters for the pssf layers of one process."""

    def __init__(self):
        # name -> [calls, self seconds, f/g evaluations inside the span]
        self.spans = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self._stack = []
        self._fg = self._stats(FG)
        self._patches = []

    def _stats(self, name):
        return self.spans.setdefault(name, [0, 0.0, 0])

    def wrap(self, name, fn):
        """Return fn wrapped in a span that aggregates under ``name``."""
        stats = self._stats(name)
        after = AFTER.get(name)
        fg = self._fg
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, fg[0]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += fg[0] - frame[1]
            if after is not None:
                after(self, args, result)
                if stack:  # hook time is tracing overhead, not the caller's work
                    stack[-1][0] += clock() - end
            return result

        return traced

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pssf" or mod_name.startswith("pssf.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _traced_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            system = factory(*args, **kwargs)
            return dataclasses.replace(system, drift=self.wrap(FG, system.drift),
                                       actuation=self.wrap(FG, system.actuation))
        return make

    def install(self) -> None:
        """Wrap the layer functions; a name the program lacks is listed in ``missing``."""
        import pssf.scenario  # noqa: F401  (imports every layer module)

        for name, mod_name, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._replace_everywhere(original, self.wrap(name, original))
        for name, mod_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        factory = getattr(sys.modules["pssf.dynamics"], "segway_true", None)
        if factory is None:
            self.missing.append("pssf.dynamics.segway_true")
        else:
            self._replace_everywhere(factory, self._traced_factory(factory))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer values of everything recorded since the last reset."""
        span = {name: self._stats(name) for name, *_ in FUNCTION_SPANS + METHOD_SPANS}
        fg_evals = self._fg[0]
        steps = span["dynamics.step_rk4"][0]
        # model_error_drift_sup samples states off the closed loop.
        loop_fg = fg_evals - span["scenario.model_error_drift_sup"][2]
        filter_calls = span["barrier.safety_filter"][0]
        attributed = self._fg[1] + sum(stats[1] for stats in span.values())
        return {
            "dynamics.steps": steps,
            "dynamics.fg_evals": fg_evals,
            "dynamics.fg_evals_per_step": loop_fg / steps if steps else 0.0,
            "dynamics.fg.self_s": self._fg[1],
            "dynamics.step_rk4.self_s": span["dynamics.step_rk4"][1],
            "dynamics.simulate.self_s": span["dynamics.simulate"][1],
            "barrier.safety_filter.calls": filter_calls,
            "barrier.safety_filter.self_s": span["barrier.safety_filter"][1],
            "barrier.controller.self_s": span["barrier.controller"][1],
            "barrier.filter_active_frac": (self.counts["barrier.modified"] / filter_calls
                                           if filter_calls else 0.0),
            "barrier.infeasible": self.counts["barrier.infeasible"],
            "barrier.clamped": self.counts["barrier.clamped"],
            "learning.residual_terms.calls": span["learning.residual_terms"][0],
            "learning.residual_terms.self_s": span["learning.residual_terms"][1],
            "certify.closed_loop_delta_trace.self_s": span["certify.closed_loop_delta_trace"][1],
            "certify.delta_samples": self.counts["certify.delta_samples"],
            "certify.verify_certificate.self_s": span["certify.verify_certificate"][1],
            "learning.collect_episode.self_s": span["learning.collect_episode"][1],
            "learning.fit_residual.calls": span["learning.fit_residual"][0],
            "learning.fit_residual.self_s": span["learning.fit_residual"][1],
            "learning.fit_residual.rows": self.counts["learning.fit_residual.rows"],
            "ioutil.write_csv.self_s": span["ioutil.write_csv"][1],
            "ioutil.write_json.self_s": span["ioutil.write_json"][1],
            "ioutil.bytes_written": self.counts["ioutil.bytes_written"],
            "trace.unattributed_s": wall_s - attributed,
        }
