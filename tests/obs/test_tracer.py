"""Tracer contracts: nesting, attribution, batching, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.gpusim.context import GpuContext
from repro.obs import Tracer, span


def test_span_is_noop_without_tracer():
    with span("before"):
        pass
    tracer = Tracer()
    with tracer.activate():
        with span("recorded"):
            pass
    with span("after"):
        pass
    assert [e.name for e in tracer.events] == ["recorded"]


def test_span_records_host_times_and_nesting():
    tracer = Tracer(session="t")
    with tracer.activate():
        with span("outer"):
            with span("inner"):
                pass
            with span("inner"):
                pass
    names = [e.name for e in tracer.events]
    # Children close (and append) before their parent.
    assert names == ["inner", "inner", "outer"]
    outer = tracer.events[-1]
    inner_first = tracer.events[0]
    assert outer.depth == 0 and outer.parent is None
    assert inner_first.depth == 1 and inner_first.parent == outer.span_id
    assert outer.duration >= inner_first.duration >= 0.0
    # Same-name spans accumulate in the phase dict.
    assert tracer.phase_seconds["inner"] == pytest.approx(
        tracer.events[0].duration + tracer.events[1].duration
    )


def test_ledger_attribution_covers_charged_work():
    ctx = GpuContext()
    tracer = Tracer(ledger=ctx.ledger, session="t")
    with tracer.activate():
        with span("work"):
            with ctx.ledger.section("s"), ctx.ledger.kernel("k"):
                ctx.ledger.charge_instructions(640)
                ctx.ledger.charge_transactions(32)
    spans = [e for e in tracer.events if e.kind == "span"]
    kernels = [e for e in tracer.events if e.kind == "kernel"]
    assert len(spans) == 1 and len(kernels) == 1
    work = spans[0]
    assert work.warp_instructions == 640
    assert work.transactions == 32
    assert work.kernel_launches == 1
    assert work.device_seconds > 0
    model = ctx.ledger.model
    assert work.device_cycles == pytest.approx(
        work.device_seconds * model.device.clock_ghz * 1e9
    )
    k = kernels[0]
    assert k.name == "k" and k.section == "s" and k.count == 1
    assert k.parent == work.span_id


def test_kernel_launches_aggregate_per_name_under_innermost_span():
    ctx = GpuContext()
    tracer = Tracer(ledger=ctx.ledger)
    with tracer.activate():
        with span("phase"):
            for _ in range(5):
                with ctx.ledger.section("s"), ctx.ledger.kernel("again"):
                    ctx.ledger.charge_instructions(32)
    kernels = [e for e in tracer.events if e.kind == "kernel"]
    assert len(kernels) == 1
    assert kernels[0].count == 5
    assert kernels[0].kernel_launches == 5
    assert kernels[0].warp_instructions == 5 * 32


def test_batch_correlation_propagates_and_restores():
    tracer = Tracer()
    with tracer.activate():
        with span("window", batch=42):
            with span("child"):
                pass
        with span("after"):
            pass
    by_name = {e.name: e for e in tracer.events}
    assert by_name["window"].batch == 42
    assert by_name["child"].batch == 42
    assert by_name["after"].batch is None


def test_nested_tracer_wins_and_outer_restored():
    outer = Tracer()
    inner = Tracer()
    with outer.activate():
        with span("outer-only"):
            pass
        with inner.activate():
            with span("inner-only"):
                pass
        with span("outer-again"):
            pass
    assert [e.name for e in outer.events] == ["outer-only", "outer-again"]
    assert [e.name for e in inner.events] == ["inner-only"]


def test_cross_thread_activation_raises():
    outer = Tracer()
    errors: list[BaseException] = []

    def other_thread():
        try:
            with Tracer().activate():
                pass
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    with outer.activate():
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
    assert len(errors) == 1
    assert isinstance(errors[0], RuntimeError)
    # After the contested activation, the owning thread still works.
    with Tracer().activate() as t:
        with span("ok"):
            pass
    assert [e.name for e in t.events] == ["ok"]


def test_exception_inside_span_still_closes_it():
    tracer = Tracer()
    with tracer.activate():
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
    with span("after"):
        pass
    assert [e.name for e in tracer.events] == ["doomed"]


def test_exception_in_span_still_records_and_unwinds():
    tracer = Tracer()
    with tracer.activate():
        with pytest.raises(ValueError):
            with span("outer"):
                with span("doomed"):
                    raise ValueError("boom")
        # The tracer survives the exception and keeps recording, with the
        # raising spans popped off its stack.
        with span("next"):
            pass
    assert [e.name for e in tracer.events] == ["doomed", "outer", "next"]
    assert tracer.events[-1].depth == 0 and tracer.events[-1].parent is None


def test_exception_exits_activation_cleanly():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.activate():
            raise ValueError("boom")
    # The tracer is uninstalled again: spans are no-ops.
    with span("untraced"):
        pass
    assert tracer.events == []
