"""EXP-SCALE — Section 4: "Gallery is managing more than 1 million model
instances".

Sweeps the registry from 100 to 10,000 instances (with metrics) and
measures save throughput, indexed search latency, full-scan search
latency, and champion-selection latency.  The reproduction target is the
*shape* that makes 1M instances tenable: indexed lookups stay ~flat while
scans grow linearly with instance count, and registering an instance costs
about the same at 10,000 instances as at 1,000.

The benchmark times an indexed city query at the largest population.
"""

from __future__ import annotations

import time

from conftest import report

from repro import build_gallery
from repro.core import Gallery, ManualClock, SeededIdFactory

SIZES = (100, 1_000, 10_000)
INSTANCES_PER_CITY = 20  # per-city instance count stays fixed; cities grow


def populate(n_instances: int) -> Gallery:
    """Populate mirroring Uber's sharding: more cities, ~constant instances
    per city, so an indexed city query returns a bounded result set."""
    gallery = build_gallery(clock=ManualClock(), id_factory=SeededIdFactory(50))
    gallery.create_model("marketplace", "demand_forecast", owner="forecasting")
    n_cities = max(5, n_instances // INSTANCES_PER_CITY)
    for index in range(n_instances):
        instance = gallery.upload_model(
            "marketplace",
            "demand_forecast",
            blob=b"m" * 64,
            metadata={
                "model_name": "linear_regression",
                "model_domain": "UberX",
                "city": f"city-{index % n_cities:04d}",
            },
        )
        gallery.insert_metric(instance.instance_id, "mape", 0.05 + (index % 10) / 100)
    return gallery


def timed(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_registry_scaling(benchmark):
    rows = []
    measurements = {}
    save_rates = {}
    for size in SIZES:
        start = time.perf_counter()
        gallery = populate(size)
        save_seconds = time.perf_counter() - start

        indexed = timed(
            lambda g=gallery: g.model_query(
                [{"field": "city", "operator": "equal", "value": "city-0003"}]
            )
        )
        scan = timed(
            lambda g=gallery: g.model_query(
                [{"field": "created_time", "operator": "greater_than", "value": 0}]
            ),
            repeats=3,
        )
        fetch = timed(
            lambda g=gallery: g.load_instance_blob(
                g.latest_instance("demand_forecast").instance_id
            )
        )
        measurements[size] = (indexed, scan)
        save_rates[size] = size / save_seconds
        rows.append(
            f"{size:>8}{save_rates[size]:>14.0f}{indexed * 1e3:>14.3f}"
            f"{scan * 1e3:>14.3f}{fetch * 1e3:>12.3f}"
        )

    # shape assertions: scans grow ~linearly, indexed queries stay far cheaper
    small_indexed, small_scan = measurements[SIZES[0]]
    large_indexed, large_scan = measurements[SIZES[-1]]
    scale = SIZES[-1] / SIZES[0]
    assert large_scan > small_scan * 3, "full scans must grow with instance count"
    indexed_growth = large_indexed / max(small_indexed, 1e-9)
    assert indexed_growth < scale / 3, "indexed lookups must grow sub-linearly"
    assert large_indexed < large_scan / 5, "index beats scan at scale"
    # registration touches one coordinate, one lineage chain and the
    # downstream models, so its rate holds as the population grows
    assert save_rates[SIZES[-1]] >= save_rates[SIZES[1]] / 1.5, (
        "saves/s must stay within 1.5x from 1k to 10k instances"
    )

    gallery = populate(SIZES[-1])
    benchmark(
        lambda: gallery.model_query(
            [{"field": "city", "operator": "equal", "value": "city-0003"}]
        )
    )

    report(
        "EXP-SCALE_registry",
        [
            f"{'instances':>8}{'saves/s':>14}{'indexed ms':>14}{'scan ms':>14}{'fetch ms':>12}",
            *rows,
            "",
            f"scan grew {large_scan / small_scan:.1f}x over a {scale:.0f}x population; "
            f"indexed grew {indexed_growth:.1f}x; saves/s held"
            f" {save_rates[SIZES[-1]] / save_rates[SIZES[1]]:.2f}x"
            f" from {SIZES[1]:,} to {SIZES[-1]:,}.",
            "shape: indexed metadata search stays ~flat -> the access pattern that",
            "makes >1M managed instances tenable (paper Section 4).",
        ],
    )
