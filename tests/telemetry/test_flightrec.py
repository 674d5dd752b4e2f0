"""Flight-recorder primitives: rings, bundles, the torn-tail log."""

import json

import pytest

from repro.telemetry.flightrec import (
    RECORDER_METRICS,
    STREAMS,
    BundleLog,
    FlightRecorderConfig,
    ForensicBundle,
    RingBuffer,
    canonical_json,
)


# ------------------------------------------------------------ RingBuffer


def test_ring_rejects_zero_capacity():
    with pytest.raises(ValueError):
        RingBuffer("x", 0)


def test_ring_eviction_keeps_exact_ledger():
    ring = RingBuffer("spans", capacity=3)
    for i in range(10):
        ring.append(float(i), {"event": "e", "i": i})
    assert ring.captured == 10
    assert ring.retained == 3
    assert ring.evicted == 7
    assert ring.reconciles()
    # FIFO: the oldest records went first.
    assert [r["i"] for _, r in ring.all()] == [7, 8, 9]


def test_ring_reconciles_at_every_instant():
    ring = RingBuffer("alerts", capacity=2)
    for i in range(5):
        ring.append(float(i), {"i": i})
        assert ring.reconciles()
        assert ring.captured == ring.retained + ring.evicted


def test_ring_window_is_inclusive_both_ends():
    ring = RingBuffer("faults", capacity=16)
    for t in (0.0, 1.0, 2.0, 3.0):
        ring.append(t, {"t_copy": t})
    got = [t for t, _ in ring.window(1.0, 2.0)]
    assert got == [1.0, 2.0]
    assert ring.window(10.0, 20.0) == []


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        FlightRecorderConfig(tick_period_s=0.0)
    with pytest.raises(ValueError):
        FlightRecorderConfig(pre_window_s=-1.0)
    with pytest.raises(ValueError):
        FlightRecorderConfig(max_bundles=0)


def test_config_per_stream_capacity_override():
    cfg = FlightRecorderConfig(capacity=100, capacities={"spans": 7})
    assert cfg.stream_capacity("spans") == 7
    assert cfg.stream_capacity("alerts") == 100


def test_stream_and_metric_registries_shape():
    names = [name for name, _ in STREAMS]
    assert len(names) == len(set(names)) == 8
    metric_names = [s.name for s in RECORDER_METRICS]
    assert all(name.startswith("flightrec_") for name in metric_names)
    assert len(metric_names) == len(set(metric_names))


# --------------------------------------------------------------- bundles


def _bundle(bundle_id="fb-0", t=1.5):
    streams = {
        "alerts": {
            "records": [{"t": t, "event": "firing", "rule": "store_stall"}],
            "captured": 1, "evicted": 0, "retained": 1,
        },
        "faults": {
            "records": [], "captured": 0, "evicted": 0, "retained": 0,
        },
    }
    return ForensicBundle(
        bundle_id=bundle_id, trigger_kind="alert_firing",
        trigger_detail="store_stall", rule="store_stall",
        t_trigger=t, window=(t - 1.0, t + 0.25), streams=streams,
        evidence={"rules": ["store_stall"], "signals": [], "incidents": [],
                  "trace_ids": [], "trace_id_count": 0, "store_seq": []},
    )


def test_canonical_json_is_sorted_and_stable():
    blob = canonical_json({"b": 1.5, "a": {"z": None, "y": [1, 2]}})
    assert blob == '{"a":{"y":[1,2],"z":null},"b":1.5}'
    assert blob == canonical_json(json.loads(blob))


def test_bundle_round_trip_byte_identical():
    bundle = _bundle()
    blob = bundle.to_canonical_json()
    back = ForensicBundle.from_dict(json.loads(blob))
    assert back.to_canonical_json() == blob
    assert back.window == bundle.window
    assert back.records("alerts") == bundle.records("alerts")
    assert bundle.n_records() == 1


# -------------------------------------------------------------- BundleLog


def test_bundle_log_append_and_load_round_trip():
    log = BundleLog()
    for i in range(3):
        n = log.append(_bundle(f"fb-{i}", t=float(i)))
        assert n > 0
    assert len(log) == 3
    bundles, truncated = BundleLog.load(log.to_bytes())
    assert truncated == 0
    assert [b.bundle_id for b in bundles] == ["fb-0", "fb-1", "fb-2"]


def test_bundle_log_torn_tail_truncates_not_trusts():
    log = BundleLog()
    log.append(_bundle("fb-0", t=0.0))
    clean_len = len(log.to_bytes())
    log.append(_bundle("fb-1", t=1.0))
    log.tear_tail(drop_bytes=9)  # the second record lost its tail

    bundles, truncated = log.recover()
    assert [b.bundle_id for b in bundles] == ["fb-0"]
    assert truncated > 0
    # Physical truncation: the buffer is back to the clean prefix and a
    # second recovery finds nothing left to drop.
    assert len(log.to_bytes()) == clean_len
    assert log.recover() == (bundles, 0)


def test_bundle_log_corrupt_byte_stops_at_clean_prefix():
    log = BundleLog()
    log.append(_bundle("fb-0", t=0.0))
    log.append(_bundle("fb-1", t=1.0))
    data = bytearray(log.to_bytes())
    data[len(data) // 2] ^= 0xFF  # flip one byte inside a record
    bundles, truncated = BundleLog.load(bytes(data))
    assert len(bundles) < 2
    assert truncated > 0


def test_bundle_log_tear_requires_positive_drop():
    with pytest.raises(ValueError):
        BundleLog().tear_tail(0)
