"""Tests for replicas over shared storage: a fresh front-end sees it all.

Section 4: Gallery is a *stateless* microservice — any number of service
instances can be pointed at the same storage.  These tests build state
through one Gallery object, then open a second one over the same SQLite +
filesystem backends and check that it answers exactly as the first would,
including for writes the first makes after the second opened.
"""

import pytest

from repro import build_gallery
from repro.core import LifecycleStage, ManualClock, SeededIdFactory
from repro.monitoring.deprecation import DeprecationPolicy, DeprecationSweeper
from repro.rules.events import EventKind
from repro.service.client import connect_in_process
from repro.service.server import GalleryService


def open_gallery(tmp_path, seed=1, start=1_000_000.0):
    return build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=tmp_path,
        clock=ManualClock(start=start),
        id_factory=SeededIdFactory(seed),
    )


class TestRehydration:
    def test_coordinate_lookup_restored(self, tmp_path):
        first = open_gallery(tmp_path)
        model = first.create_model("p", "demand", owner="alice")
        second = open_gallery(tmp_path, seed=2)
        assert second.find_model("p", "demand").model_id == model.model_id

    def test_duplicate_detection_across_sessions(self, tmp_path):
        from repro.errors import ValidationError

        open_gallery(tmp_path).create_model("p", "demand")
        second = open_gallery(tmp_path, seed=2)
        with pytest.raises(ValidationError):
            second.create_model("p", "demand")

    def test_lineage_restored_with_parents(self, tmp_path):
        first = open_gallery(tmp_path)
        first.create_model("p", "demand")
        a = first.upload_model("p", "demand", blob=b"a")
        b = first.upload_model(
            "p", "demand", blob=b"b", parent_instance_id=a.instance_id
        )
        second = open_gallery(tmp_path, seed=2)
        chain = second.instances_of("demand", include_deprecated=True)
        assert [e.instance_id for e in chain] == [a.instance_id, b.instance_id]
        assert second.ancestors(b.instance_id) == [a.instance_id]

    def test_instance_versions_continue(self, tmp_path):
        first = open_gallery(tmp_path)
        first.create_model("p", "demand")
        first.upload_model("p", "demand", blob=b"a")  # 1.1
        first.upload_model("p", "demand", blob=b"b")  # 1.2
        second = open_gallery(tmp_path, seed=2, start=2_000_000.0)
        fresh = second.upload_model("p", "demand", blob=b"c")
        assert fresh.instance_version == "1.3"

    def test_lifecycle_stage_restored(self, tmp_path):
        first = open_gallery(tmp_path)
        first.create_model("p", "demand")
        live = first.upload_model("p", "demand", blob=b"a")
        dead = first.upload_model("p", "demand", blob=b"b")
        first.deprecate_instance(dead.instance_id)
        second = open_gallery(tmp_path, seed=2)
        assert second.stage_of(live.instance_id) is LifecycleStage.EVALUATION
        assert second.stage_of(dead.instance_id) is LifecycleStage.DEPRECATED

    def test_dependency_edges_restored(self, tmp_path):
        first = open_gallery(tmp_path)
        b = first.create_model("p", "b")
        a = first.create_model("p", "a", upstream_model_ids=[b.model_id])
        second = open_gallery(tmp_path, seed=2, start=2_000_000.0)
        assert second.upstream(a.model_id) == {b.model_id}
        # propagation still works through the rebuilt graph
        second.upload_model("p", "b", blob=b"x")
        assert second.latest_version(a.model_id).minor >= 1

    def test_evolution_chain_resolves_to_successor(self, tmp_path):
        first = open_gallery(tmp_path)
        old = first.create_model("p", "demand")
        new = first.evolve_model(old.model_id, description="rewrite")
        second = open_gallery(tmp_path, seed=2)
        assert second.find_model("p", "demand").model_id == new.model_id

    def test_blobs_served_after_reopen(self, tmp_path):
        first = open_gallery(tmp_path)
        first.create_model("p", "demand")
        instance = first.upload_model("p", "demand", blob=b"durable-bytes")
        second = open_gallery(tmp_path, seed=2)
        assert second.load_instance_blob(instance.instance_id) == b"durable-bytes"

    def test_metrics_survive_reopen(self, tmp_path):
        first = open_gallery(tmp_path)
        first.create_model("p", "demand")
        instance = first.upload_model("p", "demand", blob=b"a")
        first.insert_metric(instance.instance_id, "mape", 0.07, scope="Production")
        second = open_gallery(tmp_path, seed=2)
        assert second.latest_metric(instance.instance_id, "mape") == 0.07

    def test_empty_store_rehydrates_to_empty(self, tmp_path):
        gallery = open_gallery(tmp_path)
        assert gallery.models() == []
        assert list(gallery.dal.metadata.iter_instances()) == []


class TestReplicasShareOneTruth:
    """Every answer a replica gives comes from the store, so a peer's write
    is visible on the next call and a restart changes nothing."""

    def test_uploads_through_alternating_replicas_get_distinct_versions(
        self, tmp_path
    ):
        a = open_gallery(tmp_path)
        a.create_model("p", "demand")
        b = open_gallery(tmp_path, seed=2)
        versions = [
            replica.upload_model("p", "demand", blob=bytes([n])).instance_version
            for n, replica in enumerate((a, b, a))
        ]
        assert versions == ["1.1", "1.2", "1.3"]

    def test_versions_do_not_depend_on_restarts(self, tmp_path):
        def next_down_version(data_dir, restart):
            gallery = open_gallery(data_dir)
            up = gallery.create_model("p", "up")
            gallery.create_model("p", "down", upstream_model_ids=[up.model_id])
            gallery.upload_model("p", "down", blob=b"d1")  # down 1.1
            gallery.upload_model("p", "up", blob=b"u1")  # propagates: down 1.2
            if restart:
                gallery = open_gallery(data_dir, seed=2, start=2_000_000.0)
            return gallery.upload_model("p", "down", blob=b"d2").instance_version

        (tmp_path / "kept").mkdir()
        (tmp_path / "restarted").mkdir()
        assert next_down_version(tmp_path / "kept", restart=False) == "1.3"
        assert next_down_version(tmp_path / "restarted", restart=True) == "1.3"

    def test_query_result_satisfies_its_constraints_after_a_peer_disables(
        self, tmp_path
    ):
        a = open_gallery(tmp_path)
        a.create_model("p", "demand")
        instance = a.upload_model("p", "demand", blob=b"x")
        b = open_gallery(tmp_path, seed=2)
        query = [
            {"field": "baseVersionId", "operator": "equal", "value": "demand"},
            {"field": "enabled", "operator": "equal", "value": True},
        ]
        assert [i.instance_id for i in b.model_query(query)] == [instance.instance_id]
        a.disable_instance(instance.instance_id)
        assert b.model_query(query) == []

    def test_upload_after_a_peer_evolves_lands_under_the_successor(self, tmp_path):
        a = open_gallery(tmp_path)
        old = a.create_model("p", "demand")
        b = open_gallery(tmp_path, seed=2)
        assert b.upload_model("p", "demand", blob=b"v1").model_id == old.model_id
        new = a.evolve_model(old.model_id, description="rewrite")
        after = b.upload_model("p", "demand", blob=b"v2")
        assert after.model_id == new.model_id
        assert after.instance_version == "2.1"

    def test_lineage_of_a_base_a_peer_populated(self, tmp_path):
        a = open_gallery(tmp_path)
        a.create_model("p", "demand")
        b = open_gallery(tmp_path, seed=2)
        first = a.upload_model("p", "demand", blob=b"v1")
        second = a.upload_model(
            "p", "demand", blob=b"v2", parent_instance_id=first.instance_id
        )
        service = GalleryService(b)
        try:
            chain = connect_in_process(service).lineage_of("demand")
        finally:
            service.read_batcher.close()
        assert [entry["instance_id"] for entry in chain] == [
            first.instance_id,
            second.instance_id,
        ]
        assert b.ancestors(second.instance_id) == [first.instance_id]

    def test_mark_deployed_survives_a_restart(self, tmp_path):
        first = open_gallery(tmp_path)
        first.create_model("p", "demand")
        instance = first.upload_model("p", "demand", blob=b"a")
        first.mark_deployed(instance.instance_id, reason="launch")
        second = open_gallery(tmp_path, seed=2, start=2_000_000.0)
        assert second.stage_of(instance.instance_id) is LifecycleStage.DEPLOYED
        history = second.stage_history(instance.instance_id)
        assert [(c.from_stage, c.to_stage, c.reason) for c in history] == [
            (None, LifecycleStage.EVALUATION, "registered"),
            (LifecycleStage.EVALUATION, LifecycleStage.DEPLOYED, "launch"),
        ]

    def test_deprecation_sweep_on_a_replica_that_served_no_uploads(self, tmp_path):
        a = open_gallery(tmp_path)
        a.create_model("p", "demand")
        b = open_gallery(tmp_path, seed=2)
        instances = []
        for value in (0.5, 0.1, 0.12):
            instance = a.upload_model("p", "demand", blob=repr(value).encode())
            a.insert_metric(instance.instance_id, "mape", value, scope="Production")
            instances.append(instance)
        outcome = DeprecationSweeper(b, DeprecationPolicy(patience=1)).sweep()
        assert outcome.deprecated == (instances[0].instance_id,)
        assert a.get_instance(instances[0].instance_id).deprecated
        assert a.stage_of(instances[0].instance_id) is LifecycleStage.DEPRECATED


class TestServingSwitchAcrossReplicas:
    """Whether an assignment switched is decided inside the store's write
    transaction, so a peer replica's switch landing just before it can
    neither swallow this replica's event nor fake one for a no-op."""

    @staticmethod
    def _replicas(tmp_path, monkeypatch, peer_switch_to):
        """Two replicas serving ``x`` in scope ``s``; replica A's next store
        write is preceded by replica B's switch to *peer_switch_to*."""
        a = open_gallery(tmp_path)
        a.create_model("p", "demand")
        x = a.upload_model("p", "demand", blob=b"x")
        y = a.upload_model("p", "demand", blob=b"y")
        a.assign_serving("s", x.instance_id)
        b = open_gallery(tmp_path, seed=2)
        store_write = a.dal.assign_serving

        def raced(*args, **kwargs):
            b.assign_serving("s", {"x": x, "y": y}[peer_switch_to].instance_id)
            return store_write(*args, **kwargs)

        monkeypatch.setattr(a.dal, "assign_serving", raced)
        return a, x, y

    @staticmethod
    def _switches(gallery):
        return [
            e.payload
            for e in gallery.bus.history()
            if e.kind is EventKind.SERVING_SWITCHED
        ]

    def test_switch_back_after_a_peer_switch_publishes(self, tmp_path, monkeypatch):
        a, x, y = self._replicas(tmp_path, monkeypatch, peer_switch_to="y")
        before = len(self._switches(a))
        row = a.assign_serving("s", x.instance_id)
        assert (row.previous_instance_id, row.switch_count) == (y.instance_id, 3)
        published = self._switches(a)[before:]
        assert [(p["previous_instance_id"], p["switch_count"]) for p in published] == [
            (y.instance_id, 3)
        ]

    def test_switch_a_peer_already_made_publishes_nothing(
        self, tmp_path, monkeypatch
    ):
        a, _, y = self._replicas(tmp_path, monkeypatch, peer_switch_to="y")
        before = len(self._switches(a))
        row = a.assign_serving("s", y.instance_id)
        assert row.switch_count == 2  # the peer's switch; this call is a no-op
        assert self._switches(a)[before:] == []
