"""ABL-CACHE — Section 3.5 ablation: the blob read cache.

The paper's read path updates an LRU cache with every requested blob.
This ablation serves a Zipf-distributed blob workload (serving traffic
concentrates on champion instances) with and without the cache and
reports hit rate, physical blob-store reads, and the backing-store latency
those reads would cost at a modeled round trip per physical get.  The
benchmark times a cached hot read.
"""

from __future__ import annotations

import numpy as np
from conftest import report

from repro.core.records import ModelInstance
from repro.store.blob import InMemoryBlobStore
from repro.store.cache import LRUBlobCache
from repro.store.dal import DataAccessLayer
from repro.store.metadata_store import SQLiteMetadataStore

N_INSTANCES = 200
N_READS = 5_000
BLOB_SIZE = 4_096
GET_LATENCY_S = 0.004  # modeled S3/HDFS round trip per physical get


def build_dal(cache_bytes: int | None):
    blobs = InMemoryBlobStore()
    cache = LRUBlobCache(cache_bytes) if cache_bytes else None
    dal = DataAccessLayer(SQLiteMetadataStore(":memory:"), blobs, cache)
    for index in range(N_INSTANCES):
        dal.save_instance(
            ModelInstance(
                instance_id=f"i{index:04d}",
                model_id="m",
                base_version_id="demand",
                created_time=float(index),
            ),
            bytes([index % 256]) * BLOB_SIZE,
        )
    return dal, blobs


def zipf_reads(seed: int = 3):
    rng = np.random.default_rng(seed)
    ranks = np.minimum(rng.zipf(a=1.3, size=N_READS) - 1, N_INSTANCES - 1)
    return [f"i{rank:04d}" for rank in ranks]


def run_workload(cache_bytes: int | None):
    dal, blobs = build_dal(cache_bytes)
    reads_before = blobs.stats.gets
    for instance_id in zipf_reads():
        dal.load_blob(instance_id)
    physical = blobs.stats.gets - reads_before
    latency = physical * GET_LATENCY_S
    hit_rate = dal.cache.stats.hit_rate if dal.cache else 0.0
    return dal, physical, latency, hit_rate


def test_cache_ablation(benchmark):
    cached_dal, cached_physical, cached_latency, hit_rate = run_workload(
        cache_bytes=64 * BLOB_SIZE
    )
    _, uncached_physical, uncached_latency, _ = run_workload(cache_bytes=None)

    assert uncached_physical == N_READS, "no cache -> every read is physical"
    assert cached_physical < N_READS * 0.5, "cache must absorb most of the Zipf head"
    assert hit_rate > 0.5
    assert cached_latency < uncached_latency * 0.5

    benchmark(lambda: cached_dal.load_blob("i0000"))  # hot champion read

    report(
        "ABL-CACHE_blob_read_cache",
        [
            f"workload: {N_READS} Zipf(1.3) reads over {N_INSTANCES} instances, "
            f"{BLOB_SIZE}B blobs, {GET_LATENCY_S * 1e3:.0f}ms modeled store RTT",
            "",
            f"{'config':<12}{'physical reads':>16}{'hit rate':>10}{'store latency s':>17}",
            f"{'no cache':<12}{uncached_physical:>16}{0.0:>10.2f}{uncached_latency:>17.1f}",
            f"{'LRU cache':<12}{cached_physical:>16}{hit_rate:>10.2f}{cached_latency:>17.1f}",
            "",
            f"cache absorbed {1 - cached_physical / uncached_physical:.1%} of physical reads"
            f" and {1 - cached_latency / uncached_latency:.1%} of backing-store latency.",
        ],
    )
