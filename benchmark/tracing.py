"""Spans around the package's layer functions, recorded from outside the package.

The package imports functions by name (``ghz_steering.steering`` holds its
own ``schur_complement``, ``ghz_steering.tomography`` its own
``steering_report``, ...), so every module attribute bound to a traced
function gets the same wrapper.  Spans are kept in memory as
``[name, start, end, parent, op_id]`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

# Layer module -> the functions traced in it.
TRACED = {
    "network": ("build_state", "build_ghz", "lossy_channel"),
    "symplectic": ("schur_complement", "symplectic_eigenvalues", "is_physical"),
    "steering": ("steering_report", "gaussian_steering", "parse_direction", "find_threshold"),
    "tomography": ("sample_quadratures", "measure_set", "covariance_from_measurements",
                   "reconstruct_trials"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
OP = "op"  # the harness's root span around one op


# Functions whose peak allocation a byte-measuring tracer records:
# `<name>.bytes` sums, over calls, the tracemalloc peak while the call runs.
# numpy reports its array buffers to tracemalloc, so this is what the call
# really allocates, its temporaries included.  tracemalloc slows these calls
# by about a third, so bytes come from a separate, untimed pass.
MEASURED_BYTES = ("tomography.sample_quadratures", "tomography.measure_set")


def _trial_counts(tracer, args, kwargs, result):
    tracer.counts["tomography.trials_attempted"] += result.n_trials
    tracer.counts["tomography.trials_accepted"] += len(result.accepted)


# Counters taken from a traced call's arguments and result.
AFTER_CALL = {
    "tomography.reconstruct_trials": _trial_counts,
}


class Tracer:
    """In-memory span recorder; spans open only while an op is running."""

    def __init__(self, measure_bytes: bool = False):
        self.measure_bytes = measure_bytes
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; its self time is the harness remainder."""
        self.op_id = op_id
        span = self.begin(OP)
        try:
            return fn(*args)
        finally:
            self.end(span)
            self.op_id = None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        after = AFTER_CALL.get(name)
        failed = f"{name}.failed"
        measured = f"{name}.bytes" if self.measure_bytes and name in MEASURED_BYTES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            if measured:
                tracemalloc.start()
            # cli.main spans are named by subcommand: cli.main.sweep, ...
            span = tracer.begin(f"{name}.{args[0][0]}" if name == "cli.main" else name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[failed] += 1
                raise
            finally:
                tracer.end(span)
                if measured:
                    tracer.counts[measured] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, pkg) -> list[str]:
        """Wrap every traced function at every package attribute naming it."""
        modules = {"ghz_steering": pkg}
        modules.update({f"ghz_steering.{m}": sys.modules[f"ghz_steering.{m}"] for m in LAYERS})
        sites = []
        for layer, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[f"ghz_steering.{layer}"], fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod_name, mod in modules.items():
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        self._patched.append((mod, fn_name, original))
                        sites.append(f"{mod_name}.{fn_name}")
        return sites

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    # -- summary -----------------------------------------------------------
    def summary(self) -> dict:
        """Calls and self time per span name, plus the op wall time they add up to.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so the self times of all spans
        (including the root op spans) sum to the op wall time.
        """
        child_s = [0.0] * len(self.spans)
        under_threshold = [False] * len(self.spans)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_s[parent] += t1 - t0
                under_threshold[i] = under_threshold[parent]
            if name == "steering.find_threshold":
                under_threshold[i] = True
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        evals = 0
        wall_ms = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child_s[i]) * 1e3
            if name == OP:
                wall_ms += (t1 - t0) * 1e3
            elif name == "steering.gaussian_steering" and under_threshold[parent]:
                evals += 1
        return {"calls": dict(calls), "self_ms": dict(self_ms), "wall_ms": wall_ms,
                "find_threshold_evals": evals, "counts": dict(self.counts)}
