"""``tools/perf_gate.py`` comparison rules on synthetic bench records."""

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_gate.py"


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record():
    return {
        "ledger": {"warp_instructions": 640, "transactions": 32},
        "final_cut": 76,
        "partition_sha256": "e40f",
        "checkpoint_sha256": "e40f",
        "device_seconds": {"modification": 1e-3, "partitioning": 2e-3},
        "host_seconds": {
            "full-partition": 0.2,
            "cut-size": 0.001,
            "sweep_total": 0.5,
            "checkpoint-save": 0.002,
            "checkpoint-load": 0.003,
        },
    }


def test_missing_cut_size_phase_fails(perf_gate):
    """A renamed or lost ``cut-size`` span must not pass the cut-read
    check vacuously."""
    fresh = _record()
    del fresh["host_seconds"]["cut-size"]
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert "cut-size" in failures[0]


def test_slow_cut_read_fails(perf_gate):
    fresh = _record()
    fresh["host_seconds"]["cut-size"] = 0.3
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert "no longer incremental" in failures[0]


def test_slow_full_partition_fails(perf_gate):
    """The initial full partition is gated like the sweep: the same
    tolerance and absolute floor over its baseline."""
    fresh = _record()
    fresh["host_seconds"]["full-partition"] = 0.2 * 1.2 + 0.06
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert "full-partition regressed" in failures[0]


def test_missing_full_partition_phase_fails(perf_gate):
    fresh = _record()
    del fresh["host_seconds"]["full-partition"]
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert "full-partition" in failures[0]


def test_complete_record_passes(perf_gate):
    assert perf_gate.compare(_record(), _record()) == []


@pytest.mark.parametrize("phase", ["checkpoint-save", "checkpoint-load"])
def test_slow_checkpoint_phase_fails(perf_gate, phase):
    """A checkpoint phase is gated with the sweep's tolerance but its
    own few-ms floor, not the sweep's 50 ms."""
    base = _record()["host_seconds"][phase]
    fresh = _record()
    fresh["host_seconds"][phase] = base * 1.2 + 0.004
    assert perf_gate.compare(_record(), fresh) == []
    fresh["host_seconds"][phase] = base * 1.2 + 0.006
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert f"{phase} regressed" in failures[0]


@pytest.mark.parametrize("phase", ["checkpoint-save", "checkpoint-load"])
def test_missing_checkpoint_phase_fails(perf_gate, phase):
    fresh = _record()
    del fresh["host_seconds"][phase]
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert phase in failures[0]


def test_checkpoint_round_trip_digest_mismatch_fails(perf_gate):
    fresh = _record()
    fresh["checkpoint_sha256"] = "0bad"
    failures = perf_gate.compare(_record(), fresh)
    assert len(failures) == 1
    assert "round trip changed the partition" in failures[0]
