"""Pipeline lane benchmark: host throughput, tracked over time.

Not a paper figure — this one measures the *reproduction itself*: the
host-side cost of driving one simulated event through Darshan runtime →
connector → aggregation fabric → DSOS ingest, once per lane:

* ``slow`` — the per-message reference path;
* ``fast`` — column-wise template formatting, coalesced publish,
  batched forward delivery and batched ingest; with the express spine
  armed (this campaign's world is inert), publish→forward→ingest is
  virtualized so engine events scale with application I/O.

Shape claims: the fast lane is strictly a host optimization —
simulated results are identical across lanes (asserted inside
``pipeline_benchmark`` and, adversarially, by
``tests/property/test_fastlane_properties.py`` and
``tests/property/test_columnar_properties.py``) — and it is
substantially faster than the reference path.  The speedup floors here are
deliberately below the measured ratios so CI machine noise cannot flake
them; ``repro bench --check`` does the tighter regression tracking
against ``benchmarks/BENCH_pipeline.json``.
"""

from repro.experiments.bench import LANES, pipeline_benchmark


def test_pipeline_lanes(benchmark, save_results):
    result = benchmark.pedantic(
        lambda: pipeline_benchmark(quick=True), rounds=1, iterations=1
    )
    print("\n=== Pipeline lanes (quick) ===")
    for lane in LANES:
        r = result[lane]
        print(f"  {lane:<8} wall={r['wall_s']:>6.2f}s "
              f"events/s={r['events_per_sec']:>8.1f} "
              f"engine_events={r['engine_events']}")
    print(f"  fast/slow:     {result['speedup_events_per_sec']:.2f}x")
    save_results("perf_pipeline", result)

    slow, fast = result["slow"], result["fast"]
    # Fidelity was asserted inside pipeline_benchmark (identical
    # simulated stats, rows, runtime across both lanes); here we hold
    # the performance shape.  Engine-event counts are deterministic —
    # immune to machine noise.  The express spine virtualizes the
    # monitoring pipeline outright: engine events collapse to the
    # application-I/O scale (0.12 = 0.6 × 0.2: the batched-forwarding
    # floor times the spine's).
    assert fast["engine_events"] < slow["engine_events"] * 0.12
    # And the lane is faster in wall-clock terms.  Generous floor
    # (1.5 = 1.15 × 1.3, composed the same way): anything under it
    # means the lane stopped paying.
    assert result["speedup_events_per_sec"] > 1.5
    # The spine stayed armed and carried every published message.
    spine = fast["spine"]
    assert spine["armed"] and spine["dearms"] == 0
    assert spine["rows"] == result["simulated"]["messages_published"]
    # Every lane processed the same non-trivial campaign.
    sim = result["simulated"]
    assert sim["events_seen"] > 5_000
    assert sim["objects_stored"] > 5_000
