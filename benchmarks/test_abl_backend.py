"""ABL-BACKEND — Section 3.5 ablation: one metadata file vs N shards.

Gallery's hybrid storage uses a relational database for metadata because
it needs indexed, flexible queries.  Metadata always lives in SQLite (the
MySQL stand-in); the operational choice is its layout.  This ablation
compares one database file against the hash-partitioned 4-shard store on
ingest throughput and indexed query latency, and verifies that both return
identical query results — layout is an operational decision, not a
semantic one.
"""

from __future__ import annotations

import time

from conftest import report

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory

N_INSTANCES = 2_000
N_CITIES = 50
N_SHARDS = 4


def populate(data_dir, shard_count: int | None):
    data_dir.mkdir()
    gallery = build_gallery(
        metadata_backend="sqlite",
        data_dir=data_dir,
        shard_count=shard_count,
        clock=ManualClock(),
        id_factory=SeededIdFactory(13),
    )
    gallery.create_model("marketplace", "demand_forecast")
    started = time.perf_counter()
    for index in range(N_INSTANCES):
        instance = gallery.upload_model(
            "marketplace",
            "demand_forecast",
            blob=b"m" * 32,
            metadata={
                "model_name": "linear_regression",
                "city": f"city-{index % N_CITIES:03d}",
            },
        )
        gallery.insert_metric(instance.instance_id, "mape", (index % 20) / 100)
    ingest_seconds = time.perf_counter() - started
    return gallery, ingest_seconds


def city_query(gallery):
    return gallery.model_query(
        [
            {"field": "city", "operator": "equal", "value": "city-007"},
            {"field": "metricName", "operator": "equal", "value": "mape"},
            {"field": "metricValue", "operator": "smaller_than", "value": 0.15},
        ]
    )


def test_backend_ablation(benchmark, tmp_path):
    file_gallery, file_ingest = populate(tmp_path / "file", None)
    sharded_gallery, sharded_ingest = populate(tmp_path / "shards", N_SHARDS)

    file_hits = city_query(file_gallery)
    sharded_hits = city_query(sharded_gallery)
    assert [h.instance_id for h in file_hits] == [
        h.instance_id for h in sharded_hits
    ], "layouts must agree on query results"
    assert len(file_hits) > 0

    def timed(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    file_query_s = timed(lambda: city_query(file_gallery))
    sharded_query_s = timed(lambda: city_query(sharded_gallery))

    benchmark(lambda: city_query(sharded_gallery))

    report(
        "ABL-BACKEND_metadata_store",
        [
            f"population: {N_INSTANCES} instances + metrics, {N_CITIES} cities",
            "",
            f"{'backend':<10}{'ingest inst/s':>15}{'indexed query ms':>18}",
            f"{'1 file':<10}{N_INSTANCES / file_ingest:>15.0f}{file_query_s * 1e3:>18.3f}",
            f"{f'{N_SHARDS} shards':<10}{N_INSTANCES / sharded_ingest:>15.0f}"
            f"{sharded_query_s * 1e3:>18.3f}",
            "",
            f"query results identical across layouts ({len(file_hits)} hits).",
            "sharding spreads writes over N files; a keyless indexed query visits",
            "every shard, so it pays N statements for the same result.",
        ],
    )
