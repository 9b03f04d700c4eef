"""The benchmark's span tracer still fits the library.

``perfbench/tracing.py`` looks functions up by name and wraps them; a
rename or a moved helper would silently drop a span from the traced
benchmark.  This test installs the tracer on the package, checks that
every span a per-layer metric names is a wrapped function, and runs one
optimal-cost search, Streett decisions and their certificates under it.
"""

import importlib.util
import sys
import time
from pathlib import Path

import costparity
import costparity.cli  # the tracer wraps the CLI layer too
from conftest import delay_game

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def _lookup(span: str):
    layer, attr = span.split(".", 1)
    return getattr(getattr(costparity, layer), attr)


def test_tracer_wraps_every_named_span_and_counts_probes():
    tracing = _load_tracing()
    spans = {s for names in tracing.SELF_TIME_METRICS.values() for s in names}
    spans |= set(tracing.CERTIFICATE_SPANS)
    spans |= {s for names in tracing.CALL_METRICS.values() for s in names}
    originals = {s: _lookup(s) for s in spans}
    tracer = tracing.Tracer(costparity, time.perf_counter)
    tracer.install()
    try:
        for span, original in originals.items():
            wrapped = _lookup(span)
            assert wrapped is not original, span
            assert wrapped.__wrapped__ is original, span
        tracer.begin_op()
        res = costparity.solver.optimal_cost(delay_game(True))
        counts = tracer.op_counters()
        tracer.begin_op()
        counter = costparity.generators.streett_counter_family(1).game
        streett_res = costparity.streett.decide_bounded_cost_streett(counter, 5)
        streett_counts = tracer.op_counters()
        tracer.begin_op()
        counter2 = costparity.generators.streett_counter_family(2).game
        decision = costparity.streett.decide_bounded_cost_streett(counter2, 11)
        decision_calls = dict(tracer.op_calls)
        decision_counts = tracer.op_counters()
        spoiler = costparity.streett.decide_bounded_cost_streett(counter2, 10)
        tracer.begin_op()
        certificates = (spoiler.certificate, decision.certificate)
        certificate_calls = dict(tracer.op_calls)
        certificate_counts = tracer.op_counters()
    finally:
        tracer.remove()
    assert res.value == 2
    assert counts["solver.bisection_probes"] > 0
    assert counts["reduction.tracker_updates"] > 0
    assert streett_res.achievable
    assert streett_counts["streett.tracker_updates"] > 0
    # a pure decision is layered: it solves levels, and builds the flat
    # reduction only when a certificate is asked for
    assert decision.achievable
    assert decision_calls.get("streett.solve_streett", 0) > 0
    assert "streett.build_streett_reduction" not in decision_calls
    assert decision_counts["streett.tracker_updates"] > 0
    assert decision_counts["streett.reduction_states"] == 0
    # both certificates read classical solves of the level games, and
    # neither builds the flat reduction
    assert [c.player for c in certificates] == [1, 0]
    assert certificate_calls.get("streett.solve_streett", 0) > 0
    assert certificate_calls["streett._extract_p1_certificate"] == 1
    assert certificate_calls["streett._compose_p0_certificate"] == 1
    assert "streett.build_streett_reduction" not in certificate_calls
    assert certificate_counts["streett.reduction_states"] == 0
    assert {s: _lookup(s) for s in spans} == originals
