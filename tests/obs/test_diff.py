"""Trace diffing and the ``repro-obs`` CLI."""

from __future__ import annotations

import json

from repro.obs import (
    TraceEvent,
    aggregate,
    diff_traces,
    event_key,
    format_diff,
    format_summary,
    summarize,
    write_trace_records,
)
from repro.obs.cli import main as obs_main
from repro.obs.tracer import TRACE_SCHEMA


def _span(name, span_id, cycles=0.0, host=0.0, instr=0, **kw):
    return TraceEvent(
        kind="span",
        name=name,
        span_id=span_id,
        parent=kw.pop("parent", None),
        depth=kw.pop("depth", 0),
        duration=host,
        device_cycles=cycles,
        warp_instructions=instr,
        **kw,
    )


def _kernel(name, span_id, parent, section="s", count=1, cycles=0.0):
    return TraceEvent(
        kind="kernel",
        name=name,
        span_id=span_id,
        parent=parent,
        depth=1,
        section=section,
        count=count,
        device_cycles=cycles,
    )


def test_event_key_distinguishes_kernels_by_section():
    s = _span("phase", 0)
    k1 = _kernel("scan", 1, 0, section="a")
    k2 = _kernel("scan", 2, 0, section="b")
    assert event_key(s) == "phase"
    assert event_key(k1) == "kernel:scan@a"
    assert event_key(k1) != event_key(k2)


def test_aggregate_sums_same_key_and_counts_kernel_launches():
    events = [
        _span("phase", 0, cycles=10.0, host=0.5),
        _span("phase", 1, cycles=5.0, host=0.25),
        _kernel("scan", 2, 0, count=7, cycles=3.0),
    ]
    totals = aggregate(events)
    assert totals["phase"].count == 2
    assert totals["phase"].device_cycles == 15.0
    assert totals["phase"].host_seconds == 0.75
    # Kernel rows contribute their launch count, not 1.
    assert totals["kernel:scan@s"].count == 7


def test_diff_detects_device_regression_and_ranks_it_first():
    before = [_span("a", 0, cycles=100.0), _span("b", 1, cycles=50.0)]
    after = [_span("a", 0, cycles=100.0), _span("b", 1, cycles=90.0)]
    diff = diff_traces(before, after)
    assert diff.deltas[0].key == "b"
    regressions = diff.device_regressions()
    assert [d.key for d in regressions] == ["b"]
    assert not diff.has_structural_change
    assert "b" in format_diff(diff)


def test_diff_flags_structural_change():
    before = [_span("a", 0)]
    after = [_span("a", 0), _span("new-phase", 1)]
    diff = diff_traces(before, after)
    assert diff.only_after == ["new-phase"]
    assert diff.has_structural_change
    assert "new-phase" in format_diff(diff)


def test_host_regression_needs_tolerance_and_floor():
    before = [_span("a", 0, host=1.0)]
    after = [_span("a", 0, host=1.3)]
    delta = diff_traces(before, after).deltas[0]
    # 30% over with 20% tolerance + 0.05s floor: 1.3 > 1.25 regresses.
    assert delta.is_host_regression(tolerance=0.20, floor=0.05)
    assert not delta.is_host_regression(tolerance=0.30, floor=0.05)
    # Sub-floor jitter never regresses, whatever the percentage.
    small_b = [_span("a", 0, host=0.001)]
    small_a = [_span("a", 0, host=0.010)]
    assert not diff_traces(small_b, small_a).deltas[0].is_host_regression()


def test_summarize_spans_only_by_default():
    events = [
        _span("phase", 0, cycles=10.0),
        _kernel("scan", 1, 0, cycles=99.0),
    ]
    assert [key for key, _ in summarize(events)] == ["phase"]
    keys = [key for key, _ in summarize(events, spans_only=False)]
    assert set(keys) == {"phase", "kernel:scan@s"}
    assert "phase" in format_summary(events)


def _write(tmp_path, name, events):
    header = {"schema": TRACE_SCHEMA, "session": "t", "has_ledger": True}
    return write_trace_records(header, events, tmp_path / name)


def test_cli_diff_zero_delta_exits_zero(tmp_path, capsys):
    events = [_span("a", 0, cycles=10.0, host=0.01)]
    before = _write(tmp_path, "before.jsonl", events)
    after = _write(tmp_path, "after.jsonl", events)
    out_json = tmp_path / "diff.json"
    code = obs_main(
        ["diff", str(before), str(after), "--json", str(out_json)]
    )
    assert code == 0
    assert "0 device-cycle regressions" in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    assert payload["deltas"][0]["device_cycles_delta"] == 0.0


def test_cli_diff_device_regression_exits_one(tmp_path):
    before = _write(tmp_path, "b.jsonl", [_span("a", 0, cycles=10.0)])
    after = _write(tmp_path, "a.jsonl", [_span("a", 0, cycles=20.0)])
    assert obs_main(["diff", str(before), str(after)]) == 1


def test_cli_diff_host_only_fails_only_with_flag(tmp_path):
    before = _write(tmp_path, "b.jsonl", [_span("a", 0, host=1.0)])
    after = _write(tmp_path, "a.jsonl", [_span("a", 0, host=5.0)])
    assert obs_main(["diff", str(before), str(after)]) == 0
    assert (
        obs_main(["diff", str(before), str(after), "--fail-on-host"]) == 1
    )


def test_cli_summary_and_chrome(tmp_path, capsys):
    trace = _write(
        tmp_path,
        "t.jsonl",
        [_span("phase", 0, cycles=10.0, host=0.01)],
    )
    assert obs_main(["summary", str(trace)]) == 0
    assert "phase" in capsys.readouterr().out
    out = tmp_path / "t.chrome.json"
    assert obs_main(["chrome", str(trace), "-o", str(out)]) == 0
    rendered = json.loads(out.read_text())
    assert rendered["traceEvents"][0]["name"] == "phase"


def test_cli_rejects_invalid_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "nope"}\n')
    try:
        obs_main(["summary", str(bad)])
    except SystemExit as exc:
        assert exc.code == 1
    else:  # pragma: no cover - the call must raise
        raise AssertionError("invalid trace was accepted")
    assert "schema" in capsys.readouterr().err
