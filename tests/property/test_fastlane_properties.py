"""The fast lane's load-bearing guarantee: speed without divergence.

Every host-side optimization in the pipeline (column-wise template
serialization with the parsed sidecar, coalesced publish, callback
forwarding with fused transfers, batched DSOS ingest) claims to be
invisible to the simulation.  These tests hold that line two ways:

* property tests over random events — the fast serializer's joined
  payload is byte-identical to the reference walk, its memoized numeric
  count matches a fresh count, and its parsed sidecar equals
  ``json.loads(payload)``;
* a deterministic end-to-end campaign run twice from the same seed,
  fast lane on and off — every payload crossing the final aggregator is
  byte-identical in the identical order, the connector's stats are
  equal, and the DSOS query results are equal row for row.  The final
  aggregator's subscriber de-arms the express spine, so this pins the
  fast lane's per-message path; ``test_columnar_properties`` pins the
  armed spine.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.apps import Hmmer
from repro.core import ConnectorConfig, MessageBuilder
from repro.core.json_format import ColumnarFormatted
from repro.darshan.runtime import IOEvent
from repro.experiments import World, WorldConfig, run_job
from repro.experiments.world import STREAM_TAG
from repro.fs.posix import IOContext


# --------------------------------------------------------- random events

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _events(draw):
    module = draw(st.sampled_from(["POSIX", "MPIIO", "STDIO", "H5F", "H5D"]))
    op = draw(st.sampled_from(["open", "close", "read", "write", "flush"]))
    hdf5 = None
    if module == "H5D":
        hdf5 = {
            "data_set": draw(st.text(
                st.characters(codec="ascii", exclude_characters='"\\',
                              exclude_categories=("Cc",)),
                max_size=12)),
            "ndims": draw(st.integers(-1, 8)),
            "npoints": draw(st.integers(-1, 2**31)),
            "pt_sel": draw(st.integers(-1, 1)),
            "reg_hslab": draw(st.integers(-1, 4)),
            "irreg_hslab": draw(st.integers(-1, 4)),
        }
    start = draw(st.floats(0.0, 2e9))
    ctx = IOContext(
        job_id=draw(st.integers(0, 2**31)),
        uid=draw(st.integers(0, 2**16)),
        rank=draw(st.integers(0, 4096)),
        node_name=f"nid{draw(st.integers(0, 99999)):05d}",
        exe="/apps/bench",
        app="bench",
    )
    return IOEvent(
        module=module,
        op=op,
        path=draw(st.sampled_from(["/scratch/a.dat", "/nfs/x/y.h5", "/f"])),
        record_id=draw(st.integers(0, 2**63 - 1)),
        context=ctx,
        offset=draw(st.integers(0, 2**40)),
        nbytes=draw(st.integers(0, 2**30)),
        start=start,
        end=start + draw(st.floats(0.0, 1e3)),
        cnt=draw(st.integers(0, 2**20)),
        switches=draw(st.integers(0, 2**16)),
        flushes=draw(st.integers(-1, 2**16)),
        max_byte=draw(st.integers(-1, 2**40)),
        hdf5=hdf5,
    )


@given(events=st.lists(_events(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_fast_serializer_is_byte_identical(events):
    builder = MessageBuilder()
    for event in events:
        fm_fast = builder.format_columnar(event)
        fm_slow = builder.format(event)
        if type(fm_fast) is ColumnarFormatted:
            payload = fm_fast.shape.payload(fm_fast.vstrs)
            assert fm_fast.payload_chars == len(payload)
            assert fm_fast.shape.parsed(fm_fast.values) == json.loads(payload)
        else:  # shape self-check fell back to the reference walk
            payload = fm_fast.payload
        assert payload == fm_slow.payload
        assert fm_fast.numeric_conversions == fm_slow.numeric_conversions
        assert fm_fast.format_cost_s == fm_slow.format_cost_s


# ------------------------------------------------- end-to-end determinism


def _campaign(fast: bool):
    """One small HMMER campaign; returns (payload stream at L2, stats,
    stored rows, world)."""
    world = World(WorldConfig(
        seed=1337, quiet=True, n_compute_nodes=2, fast_lane=fast,
    ))
    seen = []
    world.fabric.l2.streams.subscribe(
        STREAM_TAG, lambda m: seen.append((m.payload, m.src_node, m.publish_time))
    )
    app = Hmmer(ranks_per_node=4, n_families=40)
    result = run_job(
        world, app, "nfs", connector_config=ConnectorConfig(fast_lane=fast)
    )
    rows = [dict(obj) for obj in world.query_job(result.job_id)]
    return seen, dataclasses.asdict(result.connector.stats), rows, world


def test_fast_lane_campaign_is_bit_identical():
    seen_slow, stats_slow, rows_slow, world_slow = _campaign(fast=False)
    seen_fast, stats_fast, rows_fast, world = _campaign(fast=True)
    # The subscriber de-armed the spine before the run: every event took
    # the per-message path (lazy ColumnarMessage) end to end.
    assert world.spine.stats.dearms == 1
    assert world.spine.stats.rows == 0

    assert stats_fast == stats_slow          # every counter and second
    assert len(seen_fast) == len(seen_slow)  # nothing dropped or dup'd
    # Byte-identical payloads, identical provenance, identical publish
    # instants, in the identical order — transport coalescing changed
    # how messages move, not what or when.
    assert seen_fast == seen_slow
    assert rows_fast == rows_slow            # the database agrees
    assert len(rows_fast) > 0                # and it is non-trivial
    assert world.env.now == world_slow.env.now
