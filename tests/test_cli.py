"""Tests for the command-line interface (durable on-disk Gallery)."""

import json
from pathlib import Path

import pytest

from repro import build_gallery
from repro.cli import main
from repro.reliability import DeadLetterQueue
from repro.rules.actions import ActionContext, ActionRegistry


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    output = capsys.readouterr().out
    return code, json.loads(output)


@pytest.fixture
def data_dir(tmp_path):
    return tmp_path / "gallery"


@pytest.fixture
def blob_file(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"serialized-model-bytes")
    return path


class TestWorkflow:
    def test_create_upload_query_fetch(self, capsys, data_dir, blob_file, tmp_path):
        code, model = run(
            capsys, "--data-dir", data_dir,
            "create-model", "example-project", "supply_rejection",
            "--owner", "cli-user",
        )
        assert code == 0 and model["owner"] == "cli-user"

        code, instance = run(
            capsys, "--data-dir", data_dir,
            "upload", "example-project", "supply_rejection", blob_file,
            "--meta", 'model_name="Random Forest"',
            "--meta", "random_seed=7",
        )
        assert code == 0
        assert instance["metadata"]["model_name"] == "Random Forest"
        assert instance["metadata"]["random_seed"] == 7  # JSON-parsed

        code, metric = run(
            capsys, "--data-dir", data_dir,
            "metric", instance["instance_id"], "bias", "0.05",
        )
        assert code == 0 and metric["value"] == 0.05

        code, hits = run(
            capsys, "--data-dir", data_dir,
            "query",
            'modelName:equal:"Random Forest"',
            "metricName:equal:bias",
            "metricValue:smaller_than:0.25",
        )
        assert code == 0
        assert [h["instance_id"] for h in hits] == [instance["instance_id"]]

        out_file = tmp_path / "restored.bin"
        code, fetched = run(
            capsys, "--data-dir", data_dir,
            "fetch", instance["instance_id"], out_file,
        )
        assert code == 0
        assert out_file.read_bytes() == b"serialized-model-bytes"

    def test_state_persists_across_invocations(self, capsys, data_dir, blob_file):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        run(capsys, "--data-dir", data_dir, "upload", "p", "demand", blob_file)
        # a brand-new process (fresh main() call) sees the same registry
        code, models = run(capsys, "--data-dir", data_dir, "models")
        assert code == 0 and len(models) == 1
        code, lineage = run(capsys, "--data-dir", data_dir, "lineage", "demand")
        assert code == 0 and len(lineage) == 1

    def test_lineage_and_metrics_listing(self, capsys, data_dir, blob_file):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        _, first = run(capsys, "--data-dir", data_dir, "upload", "p", "demand", blob_file)
        _, second = run(
            capsys, "--data-dir", data_dir,
            "upload", "p", "demand", blob_file, "--parent", first["instance_id"],
        )
        code, chain = run(capsys, "--data-dir", data_dir, "lineage", "demand")
        assert [e["instance_id"] for e in chain] == [
            first["instance_id"], second["instance_id"],
        ]
        assert chain[1]["parent_instance_id"] == first["instance_id"]
        run(capsys, "--data-dir", data_dir, "metric", first["instance_id"], "mape", "0.1")
        code, metrics = run(
            capsys, "--data-dir", data_dir, "metrics", first["instance_id"]
        )
        assert code == 0 and metrics[0]["name"] == "mape"

    def test_health_and_deprecate(self, capsys, data_dir, blob_file):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        _, instance = run(capsys, "--data-dir", data_dir, "upload", "p", "demand", blob_file)
        code, health = run(
            capsys, "--data-dir", data_dir, "health", instance["instance_id"]
        )
        assert code == 0 and health["healthy"] is False
        code, flagged = run(
            capsys, "--data-dir", data_dir, "deprecate", instance["instance_id"]
        )
        assert code == 0 and flagged["deprecated"] is True
        code, hits = run(capsys, "--data-dir", data_dir, "query")
        assert hits == []
        code, hits = run(
            capsys, "--data-dir", data_dir, "query", "--include-deprecated"
        )
        assert len(hits) == 1

    def test_audit_and_gc(self, capsys, data_dir, blob_file):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        run(capsys, "--data-dir", data_dir, "upload", "p", "demand", blob_file)
        code, audit = run(capsys, "--data-dir", data_dir, "audit")
        assert code == 0 and audit["consistent"] is True
        assert audit["summary"]["instances"] == 1
        code, gc = run(capsys, "--data-dir", data_dir, "gc")
        assert code == 0 and gc["removed_orphan_blobs"] == []


class TestErrorPaths:
    def test_gallery_errors_exit_nonzero_with_json(self, capsys, data_dir):
        code, error = run(capsys, "--data-dir", data_dir, "get-instance", "ghost")
        assert code == 1
        assert error["error"] == "NotFoundError"

    def test_missing_blob_file(self, capsys, data_dir):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        code, error = run(
            capsys, "--data-dir", data_dir, "upload", "p", "demand", "/no/such/file"
        )
        assert code == 1 and error["error"] == "FileNotFoundError"

    def test_bad_constraint_shape(self, capsys, data_dir):
        with pytest.raises(SystemExit):
            main(["--data-dir", str(data_dir), "query", "malformed-constraint"])

    def test_bad_meta_shape(self, capsys, data_dir, tmp_path):
        blob = tmp_path / "b.bin"
        blob.write_bytes(b"x")
        main(["--data-dir", str(data_dir), "create-model", "p", "demand"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(
                ["--data-dir", str(data_dir), "upload", "p", "demand", str(blob),
                 "--meta", "no-equals-sign"]
            )

    def test_duplicate_model_error(self, capsys, data_dir):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        code, error = run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        assert code == 1 and error["error"] == "ValidationError"


def park_failed_action(data_dir, action="alert", rule="r-1", instance="i-1"):
    """Seed the on-disk dead-letter table the way the rule engine would:
    execute a failing action and park the result in the durable queue."""
    gallery = build_gallery(
        metadata_backend="sqlite", blob_backend="fs", data_dir=Path(data_dir)
    )
    broken = ActionRegistry(include_defaults=True)
    broken.register(
        action, lambda ctx: (_ for _ in ()).throw(ConnectionError("down")),
        replace=True,
    )
    context = ActionContext(
        rule_uuid=rule,
        action=action,
        params={},
        instance_id=instance,
        document={"instance_id": instance},
        timestamp=100.0,
    )
    letter = DeadLetterQueue(gallery.dal).append(broken.execute(context))
    gallery.dal.metadata.close()
    return letter


class TestDlq:
    def test_list_shows_parked_letters(self, capsys, data_dir):
        data_dir.mkdir(parents=True)
        parked = park_failed_action(data_dir, rule="r-1", instance="i-7")
        code, letters = run(capsys, "--data-dir", data_dir, "dlq", "list")
        assert code == 0 and len(letters) == 1
        assert letters[0]["letter_id"] == parked.letter_id
        assert letters[0]["error_type"] == "ConnectionError"
        assert letters[0]["context"]["instance_id"] == "i-7"

    def test_list_filters(self, capsys, data_dir):
        data_dir.mkdir(parents=True)
        park_failed_action(data_dir, action="alert", rule="r-a")
        park_failed_action(data_dir, action="deploy", rule="r-b")
        code, letters = run(
            capsys, "--data-dir", data_dir, "dlq", "list", "--rule", "r-a"
        )
        assert code == 0
        assert [x["context"]["action"] for x in letters] == ["alert"]
        code, letters = run(
            capsys, "--data-dir", data_dir, "dlq", "list", "--action", "deploy"
        )
        assert [x["context"]["rule_uuid"] for x in letters] == ["r-b"]
        code, letters = run(
            capsys, "--data-dir", data_dir,
            "dlq", "list", "--error-type", "TimeoutError",
        )
        assert letters == []

    def test_redrive_drains_recoverable_letters(self, capsys, data_dir):
        data_dir.mkdir(parents=True)
        # "alert" is a default registry action, so the CLI's redrive (which
        # builds a fresh default registry) succeeds once the fault is gone.
        park_failed_action(data_dir, action="alert")
        code, outcome = run(capsys, "--data-dir", data_dir, "dlq", "redrive")
        assert code == 0
        assert outcome == {"attempted": 1, "succeeded": 1, "remaining": 0}
        code, letters = run(capsys, "--data-dir", data_dir, "dlq", "list")
        assert letters == []

    def test_redrive_subset_by_id(self, capsys, data_dir):
        data_dir.mkdir(parents=True)
        first = park_failed_action(data_dir, action="alert", instance="i-1")
        park_failed_action(data_dir, action="alert", instance="i-2")
        code, outcome = run(
            capsys, "--data-dir", data_dir, "dlq", "redrive", first.letter_id
        )
        assert code == 0
        assert outcome == {"attempted": 1, "succeeded": 1, "remaining": 1}

    def test_purge(self, capsys, data_dir):
        data_dir.mkdir(parents=True)
        first = park_failed_action(data_dir, instance="i-1")
        park_failed_action(data_dir, instance="i-2")
        code, outcome = run(
            capsys, "--data-dir", data_dir, "dlq", "purge", first.letter_id
        )
        assert code == 0 and outcome == {"purged": 1}
        code, outcome = run(capsys, "--data-dir", data_dir, "dlq", "purge")
        assert code == 0 and outcome == {"purged": 1}
        code, letters = run(capsys, "--data-dir", data_dir, "dlq", "list")
        assert letters == []


class TestGcRetention:
    def test_gc_expires_aged_dedup_and_dead_letters(self, capsys, data_dir):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        park_failed_action(data_dir)
        gallery = build_gallery(
            metadata_backend="sqlite", blob_backend="fs", data_dir=Path(data_dir)
        )
        gallery.dal.dedup_claim("cli-client", 7)
        gallery.dal.dedup_complete("cli-client", 7, b"resp")
        # A generous horizon keeps everything.
        code, kept = run(
            capsys, "--data-dir", data_dir, "gc",
            "--dedup-max-age", 10**9, "--dlq-max-age", 10**9,
        )
        assert code == 0
        assert kept["expired_dedup_entries"] == 0
        assert kept["expired_dead_letters"] == 0
        # A zero-second horizon expires both tables.
        code, swept = run(
            capsys, "--data-dir", data_dir, "gc",
            "--dedup-max-age", 0, "--dlq-max-age", 0,
        )
        assert code == 0
        assert swept["expired_dedup_entries"] == 1
        assert swept["expired_dead_letters"] == 1

    def test_plain_gc_leaves_retention_alone(self, capsys, data_dir):
        run(capsys, "--data-dir", data_dir, "create-model", "p", "demand")
        code, report = run(capsys, "--data-dir", data_dir, "gc")
        assert code == 0
        assert "expired_dedup_entries" not in report
        assert "expired_dead_letters" not in report
