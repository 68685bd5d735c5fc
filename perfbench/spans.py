"""In-memory span recorder that times library calls from outside the library.

`Tracer.instrument(lib)` replaces the public functions of each stwdiff module
with wrappers that record one span per call: name, start, end, parent span
and op id.  Spans live in flat integer arrays until the run ends; `restore`
puts every original function back.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (module, attributes, span name).  harness imported some names from its
# siblings, so those bindings are wrapped too and its internal calls are seen.
# harness looks up `stw.solve_sigma` on the differentiator module per call,
# so wrapping the module attribute covers the simulation loop.
LIBRARY_SPANS = (
    (
        "params",
        (
            "validate_condition",
            "lambda1_range",
            "lambda2_min",
            "error_upper_bound",
            "error_lower_bound",
            "tightness_factor",
            "convergence_time_bound",
        ),
        "params",
    ),
    ("signals", ("parse_pair", "WorstCaseSpec", "worst_case_pair"), "signals.build"),
    ("differentiator", ("step_explicit", "step_implicit"), "differentiator.step"),
    ("differentiator", ("solve_sigma",), "differentiator.solve_sigma"),
    ("harness", ("simulate", "simulate_error_system"), "harness.simulate"),
    ("harness", ("error_summary", "omega_invariance_check"), "harness.analysis"),
    ("harness", ("write_trajectory_csv",), "harness.csv_write"),
    ("harness", ("read_trajectory_csv",), "harness.csv_read"),
    ("harness", ("evaluate_grid",), "lyapunov.evaluate_grid"),
    ("harness", ("error_upper_bound", "error_lower_bound"), "params"),
    ("lyapunov", ("verify_decrease",), "lyapunov.verify"),
    ("lyapunov", ("decay_rate_gamma",), "lyapunov.gamma"),
    ("lyapunov", ("evaluate_grid",), "lyapunov.evaluate_grid"),
)

PAIR_FUNCTIONS = ("f", "fdot", "fddot", "eta")
_MISSING = object()


class Tracer:
    """Records spans around wrapped callables; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.deadzone = array("q")  # solve_sigma spans that returned sigma == 0
        self.op = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped so each call records a span called `name`."""
        nid = self._intern(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    def instrument_pair(self, pair) -> None:
        """Wrap a SignalPair's evaluators (and its `u` method) as `signals.eval`."""
        for attr in PAIR_FUNCTIONS:
            fn = getattr(pair, attr)
            if fn is not None:
                self._replace(pair, attr, self.wrap("signals.eval", fn))
        self._replace(pair, "u", self.wrap("signals.eval", pair.u))

    def instrument(self, lib) -> None:
        """Wrap every function listed in LIBRARY_SPANS on the loaded library."""
        for module, attrs, name in LIBRARY_SPANS:
            owner = getattr(lib, module)
            for attr in attrs:
                hook = None
                if attr in ("parse_pair", "worst_case_pair"):
                    hook = lambda idx, pair: self.instrument_pair(pair)
                elif attr == "solve_sigma":
                    hook = self._mark_deadzone
                self.patch(owner, attr, name, hook)

    def _mark_deadzone(self, idx: int, result) -> None:
        if result[0] == 0.0:
            self.deadzone.append(idx)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """Closed spans as arrays, with `self_ns` = duration minus child spans."""
        name = np.frombuffer(self.span_name, dtype=np.int64).copy()
        start = np.frombuffer(self.span_start, dtype=np.int64).copy()
        end = np.frombuffer(self.span_end, dtype=np.int64).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int64).copy()
        op = np.frombuffer(self.span_op, dtype=np.int64).copy()
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "op": op,
            "self_ns": dur - child,
            "deadzone": np.frombuffer(self.deadzone, dtype=np.int64).copy(),
        }

    def dump(self, path) -> None:
        """Write every span to an .npz file (names table included)."""
        data = self.spans()
        np.savez(path, names=np.array(self.names), **data)
