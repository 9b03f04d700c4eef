"""Spans around the public functions of each costparity module.

`Tracer.install` replaces every public function of the layers below with
a wrapper that records a span, in each namespace where callers look the
function up: the module itself, the package, the other modules that
imported it by name, and module-level tables such as the CLI's command
map.  `Tracer.remove` puts the originals back.  A handful of private
functions that mark a named phase (the Streett certificate builders) are
wrapped too, and `Tracker.update` / `StreettTracker.update` get plain
counters instead of spans, since they run hundreds of thousands of times
per operation.

A span's self time is its duration minus the durations of the spans it
directly caused.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "generators", "core", "reduction", "solver", "semantics",
          "streett")

# private functions that mark a phase the per-layer metrics name
PHASE_FUNCTIONS = {
    "streett": ("_compose_p0_certificate", "_extract_p1_certificate"),
}

# metric -> spans whose self time it sums
SELF_TIME_METRICS = {
    "solver.decide_cal": ("solver.decide_bounded_cost",),
    "solver.extract_cal": ("solver.extract_player0_strategy",
                           "solver.extract_player1_strategy"),
    "core.tabulate_cal": ("core.strategy_from_product",
                          "core.strategy_from_functions"),
    "core.format_cal": ("core.format_strat", "core.format_cpg"),
    "core.parse_cal": ("core.parse_strat", "core.parse_cpg"),
    "core.validate_cal": ("core.validate_strategy", "core.validate_game",
                          "core.require_valid"),
    "semantics.verify_cal": ("semantics.strategy_cost", "semantics.spoiler_cost",
                             "semantics.strategy_product"),
    "streett.reduction_cal": ("streett.build_streett_reduction",),
    "streett.solve_cal": ("streett.solve_streett",),
    "streett.cert_cal": ("streett._compose_p0_certificate",
                         "streett._extract_p1_certificate"),
    "streett.verify_cal": ("streett.streett_strategy_cost",
                           "streett.streett_spoiler_cost"),
}

# metric -> spans whose calls it counts
CALL_METRICS = {
    "solver.decide_calls": ("solver.decide_bounded_cost",),
    "streett.decide_calls": ("streett.decide_bounded_cost_streett",),
}

CERTIFICATE_SPANS = ("solver.extract_player0_strategy",
                     "solver.extract_player1_strategy",
                     "streett._compose_p0_certificate",
                     "streett._extract_p1_certificate")

# counters filled from results, with their units; listed so that every
# run reports all of them
COUNT_METRICS = {
    "solver.product_states": "count", "solver.bisection_probes": "count",
    "core.cert_states": "count", "core.cert_update_entries": "count",
    "core.strat_bytes": "bytes", "reduction.tracker_updates": "count",
    "semantics.product_states": "count", "semantics.bisection_probes": "count",
    "streett.reduction_states": "count", "streett.tracker_updates": "count",
}

MAX_KEPT_SPANS = 500_000


def _count_result(tracer: "Tracer", name: str, parent: str | None, result) -> None:
    counts = tracer.op_counts
    if name == "solver.decide_bounded_cost":
        counts["solver.product_states"] += result.product_states
        if parent == "solver.optimal_cost":
            counts["solver.bisection_probes"] += 1
        elif parent is not None and parent.startswith("semantics."):
            counts["semantics.bisection_probes"] += 1
    elif name in CERTIFICATE_SPANS:
        counts["core.cert_states"] += result.size
        counts["core.cert_update_entries"] += len(result.update)
    elif name == "core.format_strat":
        counts["core.strat_bytes"] += len(result)
    elif name == "semantics.strategy_product":
        counts["semantics.product_states"] += result[0].n
    elif name == "streett.build_streett_reduction":
        counts["streett.reduction_states"] += result.size


_COUNTED = {"solver.decide_bounded_cost", "core.format_strat",
            "semantics.strategy_product", "streett.build_streett_reduction",
            *CERTIFICATE_SPANS}


class Tracer:
    """Spans and counters for the costparity modules of one process."""

    def __init__(self, package, clock):
        self.clock = clock
        self.modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self._patched: list[tuple[object, object, object]] = []
        self._stack: list[list] = []
        self._clock0 = clock()
        self._next_id = 0
        self.op_index = -1
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        # per operation, reset by begin_op
        self.op_self: dict[str, float] = defaultdict(float)
        self.op_calls: Counter = Counter()
        self.op_counts: Counter = Counter()
        self._update_calls: dict[str, list[int]] = {}
        self._methods = []  # (class, counting update method)
        for cls, metric in ((package.reduction.Tracker, "reduction.tracker_updates"),
                            (package.streett.StreettTracker, "streett.tracker_updates")):
            self._update_calls[metric] = cell = [0]
            self._methods.append((cls, _counted_method(cls.update, cell)))
        self._wrappers: dict = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            extra = PHASE_FUNCTIONS.get(layer, ())
            for attr, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        wrappers = self._wrappers
        for module in self.modules:
            ns = vars(module)
            for attr, value in list(ns.items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((ns, attr, value))
                    ns[attr] = wrappers[value]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._patched.append((value, key, item))
                            value[key] = wrappers[item]
        for cls, counted in self._methods:
            self._patched.append((cls, "update", cls.update))
            cls.update = counted

    def remove(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = self.clock
        counted = name in _COUNTED

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, parent, start, end)
            if counted:
                _count_result(self, name, parent[0] if parent else None, result)
            return result

        return functools.update_wrapper(span, fn)

    def _close(self, frame: list, parent: list | None, start: float, end: float) -> None:
        name, child_time, span_id = frame
        duration = end - start
        self.op_self[name] += duration - child_time
        self.op_calls[name] += 1
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent[2] if parent else None, self.op_index,
                               name, start - self._clock0, end - self._clock0))
        else:
            self.dropped_spans += 1

    # -- per operation -----------------------------------------------------------

    def begin_op(self) -> None:
        self.op_index += 1
        self.op_self.clear()
        self.op_calls.clear()
        self.op_counts.clear()
        for cell in self._update_calls.values():
            cell[0] = 0

    def op_counters(self) -> Counter:
        """Counts of the operation just run, including the update counters."""
        counts = Counter(self.op_counts)
        for metric, cell in self._update_calls.items():
            counts[metric] += cell[0]
        return counts


def _counted_method(original, cell: list):
    def update(self, *args):
        cell[0] += 1
        return original(self, *args)

    return functools.update_wrapper(update, original)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
