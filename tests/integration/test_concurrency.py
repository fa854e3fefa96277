"""Concurrency: the registry under parallel writers (threaded TCP service).

The TCP server handles each connection on its own thread, so the registry's
mutating paths must tolerate concurrent callers.  These tests hammer shared
state from multiple threads and assert nothing is lost or duplicated.
"""

import sys
import threading

import pytest

from repro import build_gallery
from repro.core import ManualClock

N_THREADS = 6
PER_THREAD = 25


@pytest.fixture
def gallery():
    # real UUIDs (thread-safe entropy); ManualClock guarantees unique stamps
    return build_gallery(clock=ManualClock())


def run_threads(worker):
    errors: list[Exception] = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == [], errors


class TestConcurrentWrites:
    def test_parallel_uploads_same_lineage(self, gallery):
        gallery.create_model("p", "demand")

        def worker(index):
            for i in range(PER_THREAD):
                gallery.upload_model("p", "demand", blob=f"{index}-{i}".encode())

        run_threads(worker)
        total = N_THREADS * PER_THREAD
        chain = gallery.instances_of("demand", include_deprecated=True)
        assert len(chain) == total, "no lineage entries lost"
        assert len({e.instance_id for e in chain}) == total
        # display versions are unique and the final minor equals the count
        versions = [
            i.instance_version for i in gallery.instances_of("demand")
        ]
        assert len(set(versions)) == total
        assert gallery.dal.audit_consistency().consistent

    def test_parallel_uploads_through_two_replicas_get_unique_versions(
        self, tmp_path
    ):
        """Each replica serializes only its own threads; the version bump
        in the insert's transaction is what keeps two replicas apart."""
        replicas = [
            build_gallery("sqlite", "fs", data_dir=tmp_path, clock=ManualClock())
            for _ in range(2)
        ]
        replicas[0].create_model("p", "demand")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(
                lambda index: [
                    replicas[index % 2].upload_model(
                        "p", "demand", blob=f"{index}-{i}".encode()
                    )
                    for i in range(PER_THREAD)
                ]
            )
        finally:
            sys.setswitchinterval(interval)
        total = N_THREADS * PER_THREAD
        versions = sorted(
            int(i.instance_version.split(".")[1])
            for i in replicas[1].instances_of("demand")
        )
        assert versions == list(range(1, total + 1))
        for replica in replicas:
            replica.dal.metadata.close()

    def test_parallel_metrics_same_instance(self, gallery):
        gallery.create_model("p", "demand")
        instance = gallery.upload_model("p", "demand", blob=b"m")

        def worker(index):
            for i in range(PER_THREAD):
                gallery.insert_metric(
                    instance.instance_id, f"metric-{index}", float(i)
                )

        run_threads(worker)
        records = gallery.metrics_of(instance.instance_id)
        assert len(records) == N_THREADS * PER_THREAD

    def test_parallel_model_creation_distinct_bases(self, gallery):
        def worker(index):
            for i in range(PER_THREAD):
                gallery.create_model("p", f"base-{index}-{i}")

        run_threads(worker)
        assert len(gallery.models()) == N_THREADS * PER_THREAD

    def test_parallel_deprecation_idempotent(self, gallery):
        gallery.create_model("p", "demand")
        instances = [
            gallery.upload_model("p", "demand", blob=f"{i}".encode())
            for i in range(N_THREADS * 2)
        ]

        def worker(index):
            # threads race to deprecate overlapping instances
            for instance in instances[index: index + N_THREADS]:
                gallery.deprecate_instance(instance.instance_id)

        run_threads(worker)
        assert gallery.dal.audit_consistency().consistent
        deprecated = [
            i for i in gallery.instances_of("demand", include_deprecated=True)
            if i.deprecated
        ]
        assert len(deprecated) >= N_THREADS  # every targeted one is flagged
