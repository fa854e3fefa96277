"""Command-line interface for a durable, on-disk Gallery.

The paper's users reach Gallery through Thrift clients from "their own
modeling environment and language of their choice"; for an open-source
release the lowest-friction environment is the shell.  The CLI operates a
SQLite + filesystem-backed Gallery rooted at ``--data-dir``:

.. code-block:: console

    $ gallery --data-dir ./g create-model example-project supply_rejection --owner you
    $ gallery --data-dir ./g upload example-project supply_rejection model.bin \
          --meta model_name="Random Forest" --meta city="New York City"
    $ gallery --data-dir ./g metric <instance-id> bias 0.05 --scope Validation
    $ gallery --data-dir ./g query modelName:equal:"Random Forest" \
          metricName:equal:bias metricValue:smaller_than:0.25
    $ gallery --data-dir ./g fetch <instance-id> restored.bin
    $ gallery --data-dir ./g lineage supply_rejection
    $ gallery --data-dir ./g audit

All output is JSON (one document per invocation) so the CLI composes with
``jq``-style tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from repro import build_gallery
from repro.core.registry import Gallery
from repro.errors import GalleryError, NotFoundError
from repro.reliability.deadletter import DeadLetterQueue
from repro.rules.actions import ActionRegistry
from repro.store.sharding import (
    init_sharded_layout,
    open_sharded_store,
    split_shard,
    verify_layout,
)


def _open_gallery(data_dir: str) -> Gallery:
    path = Path(data_dir)
    path.mkdir(parents=True, exist_ok=True)
    return build_gallery(
        metadata_backend="sqlite", blob_backend="fs", data_dir=path
    )


def _parse_meta(pairs: Sequence[str]) -> dict[str, Any]:
    """Parse repeated ``--meta key=value`` flags; values parse as JSON when
    possible (so ``--meta random_seed=7`` stores an int) else as strings."""
    metadata: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--meta expects key=value, got {pair!r}")
        try:
            metadata[key] = json.loads(raw)
        except json.JSONDecodeError:
            metadata[key] = raw
    return metadata


def _parse_constraint(text: str) -> dict[str, Any]:
    """Parse ``field:operator:value``; value parses as JSON when possible."""
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise SystemExit(f"constraint must be field:operator:value, got {text!r}")
    field, operator, raw = parts
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return {"field": field, "operator": operator, "value": value}


def _emit(document: Any) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True, default=str)
    sys.stdout.write("\n")


# -- subcommand implementations ------------------------------------------------


def _cmd_create_model(gallery: Gallery, args: argparse.Namespace) -> Any:
    model = gallery.create_model(
        project=args.project,
        base_version_id=args.base_version_id,
        owner=args.owner,
        description=args.description,
        metadata=_parse_meta(args.meta),
        family=args.family,
    )
    return model.to_dict()


def _cmd_upload(gallery: Gallery, args: argparse.Namespace) -> Any:
    blob = Path(args.blob_file).read_bytes()
    instance = gallery.upload_model(
        project=args.project,
        base_version_id=args.base_version_id,
        blob=blob,
        metadata=_parse_meta(args.meta),
        parent_instance_id=args.parent,
        family=args.family,
        enabled=not args.disabled,
    )
    return instance.to_dict()


def _cmd_metric(gallery: Gallery, args: argparse.Namespace) -> Any:
    record = gallery.insert_metric(
        args.instance_id, args.name, args.value, scope=args.scope
    )
    return record.to_dict()


def _cmd_query(gallery: Gallery, args: argparse.Namespace) -> Any:
    constraints = [_parse_constraint(c) for c in args.constraints]
    hits = gallery.model_query(constraints, include_deprecated=args.include_deprecated)
    return [hit.to_dict() for hit in hits]


def _cmd_models(gallery: Gallery, args: argparse.Namespace) -> Any:
    return [model.to_dict() for model in gallery.models(args.include_deprecated)]


def _cmd_get_instance(gallery: Gallery, args: argparse.Namespace) -> Any:
    return gallery.get_instance(args.instance_id).to_dict()


def _cmd_fetch(gallery: Gallery, args: argparse.Namespace) -> Any:
    blob = gallery.load_instance_blob(args.instance_id)
    Path(args.out_file).write_bytes(blob)
    return {"instance_id": args.instance_id, "bytes": len(blob), "path": args.out_file}


def _cmd_lineage(gallery: Gallery, args: argparse.Namespace) -> Any:
    entries = gallery.instances_of(args.base_version_id, include_deprecated=True)
    if not entries:
        raise NotFoundError(f"unknown base version id: {args.base_version_id!r}")
    return [
        {
            "instance_id": entry.instance_id,
            "created_time": entry.created_time,
            "parent_instance_id": entry.parent_instance_id,
        }
        for entry in entries
    ]


def _cmd_metrics(gallery: Gallery, args: argparse.Namespace) -> Any:
    return [record.to_dict() for record in gallery.metrics_of(args.instance_id)]


def _cmd_health(gallery: Gallery, args: argparse.Namespace) -> Any:
    report = gallery.instance_health(args.instance_id)
    return {
        "instance_id": report.instance_id,
        "healthy": report.healthy,
        "completeness_score": report.completeness.score,
        "missing": list(report.completeness.missing),
        "scopes_reporting": list(report.scopes_reporting),
        "issues": list(report.issues),
    }


def _cmd_deprecate(gallery: Gallery, args: argparse.Namespace) -> Any:
    if args.model:
        return gallery.deprecate_model(args.target).to_dict()
    return gallery.deprecate_instance(args.target).to_dict()


def _cmd_audit(gallery: Gallery, args: argparse.Namespace) -> Any:
    report = gallery.dal.audit_consistency()
    return {
        "consistent": report.consistent,
        "orphan_blobs": list(report.orphan_blobs),
        "dangling_instances": list(report.dangling_instances),
        "summary": gallery.dal.storage_summary(),
    }


def _cmd_gc(gallery: Gallery, args: argparse.Namespace) -> Any:
    # Control-table row counts before and after, not only the trimmed deltas.
    store = gallery.dal.metadata
    report: dict[str, Any] = {
        "dedup_entries_before": store.dedup_count(),
        "dead_letters_before": store.dead_letters_count(),
        "removed_orphan_blobs": gallery.dal.collect_orphan_blobs(),
    }
    if args.dedup_max_age is not None:
        report["expired_dedup_entries"] = store.dedup_trim_age(args.dedup_max_age)
    if args.dlq_max_age is not None:
        report["expired_dead_letters"] = store.dead_letters_trim_age(
            args.dlq_max_age
        )
    report["dedup_entries_after"] = store.dedup_count()
    report["dead_letters_after"] = store.dead_letters_count()
    if args.replica:
        # Pointed at a live replica, gc also surfaces that replica's
        # batcher counters so operators can read the coalesce ratio
        # without a bench run.
        client = _fleet_client(args.replica)
        try:
            stats = client.server_stats()
        finally:
            client.close()
        report["replica"] = {
            "address": args.replica,
            "batching": stats.get("batching", {}),
            "request_dedup": stats.get("request_dedup", {}),
        }
    return report


def _cmd_dlq_list(gallery: Gallery, args: argparse.Namespace) -> Any:
    queue = DeadLetterQueue(gallery.dal.metadata)
    letters = queue.entries(
        rule_uuid=args.rule, action=args.action, error_type=args.error_type
    )
    return [letter.to_dict() for letter in letters]


def _cmd_dlq_redrive(gallery: Gallery, args: argparse.Namespace) -> Any:
    queue = DeadLetterQueue(gallery.dal.metadata)
    letter_ids = set(args.letter_ids) or None
    results = queue.redrive(ActionRegistry(), letter_ids=letter_ids)
    return {
        "attempted": len(results),
        "succeeded": sum(1 for result in results if result.ok),
        "remaining": len(queue),
    }


def _cmd_dlq_purge(gallery: Gallery, args: argparse.Namespace) -> Any:
    queue = DeadLetterQueue(gallery.dal.metadata)
    letter_ids = set(args.letter_ids) or None
    return {"purged": queue.purge(letter_ids)}


# -- families & serving assignments ---------------------------------------------


def _cmd_family_list(gallery: Gallery, args: argparse.Namespace) -> Any:
    if args.models:
        records = gallery.models_in_family(
            args.family, include_deprecated=args.include_deprecated
        )
    else:
        records = gallery.instances_in_family(
            args.family,
            include_disabled=args.include_disabled,
            include_deprecated=args.include_deprecated,
        )
    return [record.to_dict() for record in records]


def _cmd_family_enable(gallery: Gallery, args: argparse.Namespace) -> Any:
    return gallery.enable_instance(args.instance_id).to_dict()


def _cmd_family_disable(gallery: Gallery, args: argparse.Namespace) -> Any:
    return gallery.disable_instance(args.instance_id).to_dict()


def _cmd_family_serving(gallery: Gallery, args: argparse.Namespace) -> Any:
    if args.scope is not None:
        return gallery.serving_for(args.scope).to_dict()
    return [assignment.to_dict() for assignment in gallery.serving_assignments()]


def _cmd_family_assign(gallery: Gallery, args: argparse.Namespace) -> Any:
    return gallery.assign_serving(
        args.scope, args.instance_id, reason=args.reason
    ).to_dict()


def _cmd_family_switch(gallery: Gallery, args: argparse.Namespace) -> Any:
    return gallery.switch_family(
        args.scope,
        args.family,
        metric=args.metric,
        mode=args.mode,
        reason=args.reason,
    ).to_dict()


# -- shard administration (offline: operates on closed shard files) ------------


def _shards_dir(data_dir: str) -> str:
    return str(Path(data_dir) / "shards")


def _cmd_shard_init(gallery: None, args: argparse.Namespace) -> Any:
    legacy = Path(args.data_dir) / "gallery.sqlite"
    report = init_sharded_layout(
        _shards_dir(args.data_dir),
        args.count,
        legacy_db=str(legacy) if legacy.exists() else None,
    )
    if legacy.exists() and report["adopted"]:
        # The rows now live in the shard files; park the legacy database so
        # nothing mistakes it for the live store.
        legacy.rename(legacy.with_suffix(".sqlite.adopted"))
        report["legacy_db"] = str(legacy.with_suffix(".sqlite.adopted"))
    return report


def _cmd_shard_split(gallery: None, args: argparse.Namespace) -> Any:
    return split_shard(_shards_dir(args.data_dir), args.shard)


def _cmd_shard_status(gallery: None, args: argparse.Namespace) -> Any:
    # Open-only: a status probe against a legacy (unsharded) data dir must
    # fail loudly, not plant an empty shards/ layout that would shadow the
    # existing gallery.sqlite on every subsequent open.
    store = open_sharded_store(_shards_dir(args.data_dir), create=False)
    try:
        return store.shard_topology()
    finally:
        store.close()


def _cmd_shard_verify(gallery: None, args: argparse.Namespace) -> Any:
    return verify_layout(_shards_dir(args.data_dir), repair=args.repair)


# -- fleet administration (online: talks to serving replicas) ------------------


def _fleet_client(address: str):
    """A single-replica client for targeted admin verbs."""
    from repro.service import connect

    return connect(f"gallery://{address}", client_id="gallery-cli")


def _cmd_fleet_status(gallery: None, args: argparse.Namespace) -> Any:
    from repro.service.membership import fleet_endpoints

    replicas = []
    for address in fleet_endpoints(args.url):
        entry: dict[str, Any] = {"address": address}
        try:
            client = _fleet_client(address)
            try:
                entry.update(client.fleet_status())
            finally:
                client.close()
        except GalleryError as exc:
            entry["status"] = "unreachable"
            entry["error"] = str(exc)
        replicas.append(entry)
    serving = sum(1 for r in replicas if r.get("status") == "serving")
    return {"fleet": replicas, "size": len(replicas), "serving": serving}


def _cmd_fleet_drain(gallery: None, args: argparse.Namespace) -> Any:
    import time as _time

    client = _fleet_client(args.address)
    try:
        status = client.fleet_drain()
        if args.wait is not None:
            deadline = _time.monotonic() + args.wait
            while status.get("in_flight", 0) > 0:
                if _time.monotonic() >= deadline:
                    status["drained"] = False
                    status["address"] = args.address
                    return status
                _time.sleep(0.05)
                status = client.fleet_status()
            status["drained"] = True
        status["address"] = args.address
        return status
    finally:
        client.close()


def _cmd_fleet_undrain(gallery: None, args: argparse.Namespace) -> Any:
    client = _fleet_client(args.address)
    try:
        status = client.fleet_undrain()
        status["address"] = args.address
        return status
    finally:
        client.close()


def _cmd_server_stats(gallery: None, args: argparse.Namespace) -> Any:
    client = _fleet_client(args.address)
    try:
        stats = client.server_stats()
        stats["address"] = args.address
        return stats
    finally:
        client.close()


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallery",
        description="Operate an on-disk Gallery model registry.",
    )
    parser.add_argument(
        "--data-dir",
        default=".gallery",
        help="directory holding the SQLite metadata store and blob tree",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    create = commands.add_parser("create-model", help="register a model")
    create.add_argument("project")
    create.add_argument("base_version_id")
    create.add_argument("--owner", default="")
    create.add_argument("--description", default="")
    create.add_argument("--meta", action="append", default=[])
    create.add_argument(
        "--family",
        default="",
        help="family grouping; instances inherit it unless overridden",
    )
    create.set_defaults(handler=_cmd_create_model)

    upload = commands.add_parser("upload", help="upload a trained instance blob")
    upload.add_argument("project")
    upload.add_argument("base_version_id")
    upload.add_argument("blob_file")
    upload.add_argument("--meta", action="append", default=[])
    upload.add_argument("--parent", default=None)
    upload.add_argument(
        "--family",
        default=None,
        help="override the owning model's family for this instance",
    )
    upload.add_argument(
        "--disabled",
        action="store_true",
        help="register behind the review gate (cannot win serving assignments"
        " until enabled)",
    )
    upload.set_defaults(handler=_cmd_upload)

    metric = commands.add_parser("metric", help="record a performance metric")
    metric.add_argument("instance_id")
    metric.add_argument("name")
    metric.add_argument("value", type=float)
    metric.add_argument("--scope", default="Validation")
    metric.set_defaults(handler=_cmd_metric)

    query = commands.add_parser("query", help="constraint search (Listing 5)")
    query.add_argument("constraints", nargs="*", metavar="field:op:value")
    query.add_argument("--include-deprecated", action="store_true")
    query.set_defaults(handler=_cmd_query)

    models = commands.add_parser("models", help="list registered models")
    models.add_argument("--include-deprecated", action="store_true")
    models.set_defaults(handler=_cmd_models)

    get_instance = commands.add_parser("get-instance", help="show one instance")
    get_instance.add_argument("instance_id")
    get_instance.set_defaults(handler=_cmd_get_instance)

    fetch = commands.add_parser("fetch", help="download an instance blob")
    fetch.add_argument("instance_id")
    fetch.add_argument("out_file")
    fetch.set_defaults(handler=_cmd_fetch)

    lineage = commands.add_parser("lineage", help="instances of a base version id")
    lineage.add_argument("base_version_id")
    lineage.set_defaults(handler=_cmd_lineage)

    metrics = commands.add_parser("metrics", help="metrics of an instance")
    metrics.add_argument("instance_id")
    metrics.set_defaults(handler=_cmd_metrics)

    health = commands.add_parser("health", help="model-health report")
    health.add_argument("instance_id")
    health.set_defaults(handler=_cmd_health)

    deprecate = commands.add_parser("deprecate", help="flag an instance or model")
    deprecate.add_argument("target")
    deprecate.add_argument("--model", action="store_true", help="target is a model id")
    deprecate.set_defaults(handler=_cmd_deprecate)

    audit = commands.add_parser("audit", help="storage consistency audit")
    audit.set_defaults(handler=_cmd_audit)

    gc = commands.add_parser(
        "gc",
        help="collect orphan blobs and expire aged dedup/dead-letter rows",
    )
    gc.add_argument(
        "--dedup-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also delete completed request-dedup entries older than this",
    )
    gc.add_argument(
        "--dlq-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also delete dead letters older than this",
    )
    gc.add_argument(
        "--replica",
        default=None,
        metavar="HOST:PORT",
        help="also fetch live batcher counters from this serving replica",
    )
    gc.set_defaults(handler=_cmd_gc)

    dlq = commands.add_parser(
        "dlq", help="inspect or redrive the durable dead-letter queue"
    )
    dlq_commands = dlq.add_subparsers(dest="dlq_command", required=True)

    dlq_list = dlq_commands.add_parser("list", help="show parked action failures")
    dlq_list.add_argument("--rule", default=None, help="filter by rule uuid")
    dlq_list.add_argument("--action", default=None, help="filter by action name")
    dlq_list.add_argument(
        "--error-type", default=None, help="filter by error class name"
    )
    dlq_list.set_defaults(handler=_cmd_dlq_list)

    dlq_redrive = dlq_commands.add_parser(
        "redrive", help="re-execute parked actions (all, or the given ids)"
    )
    dlq_redrive.add_argument("letter_ids", nargs="*", type=int, metavar="letter_id")
    dlq_redrive.set_defaults(handler=_cmd_dlq_redrive)

    dlq_purge = dlq_commands.add_parser(
        "purge", help="drop parked letters (all, or the given ids)"
    )
    dlq_purge.add_argument("letter_ids", nargs="*", type=int, metavar="letter_id")
    dlq_purge.set_defaults(handler=_cmd_dlq_purge)

    family = commands.add_parser(
        "family", help="model families and serving assignments"
    )
    family_commands = family.add_subparsers(dest="family_command", required=True)

    family_list = family_commands.add_parser(
        "list", help="members of a family (servable instances by default)"
    )
    family_list.add_argument("family")
    family_list.add_argument(
        "--models", action="store_true", help="list models instead of instances"
    )
    family_list.add_argument("--include-disabled", action="store_true")
    family_list.add_argument("--include-deprecated", action="store_true")
    family_list.set_defaults(handler=_cmd_family_list)

    family_enable = family_commands.add_parser(
        "enable", help="pass an instance through the review gate"
    )
    family_enable.add_argument("instance_id")
    family_enable.set_defaults(handler=_cmd_family_enable)

    family_disable = family_commands.add_parser(
        "disable", help="pull an instance back behind the review gate"
    )
    family_disable.add_argument("instance_id")
    family_disable.set_defaults(handler=_cmd_family_disable)

    family_serving = family_commands.add_parser(
        "serving", help="current serving assignment(s)"
    )
    family_serving.add_argument(
        "scope", nargs="?", default=None, help="one scope, or omit to list all"
    )
    family_serving.set_defaults(handler=_cmd_family_serving)

    family_assign = family_commands.add_parser(
        "assign", help="re-point a scope at an enabled instance"
    )
    family_assign.add_argument("scope")
    family_assign.add_argument("instance_id")
    family_assign.add_argument("--reason", default="")
    family_assign.set_defaults(handler=_cmd_family_assign)

    family_switch = family_commands.add_parser(
        "switch", help="re-point a scope at the best enabled instance of a family"
    )
    family_switch.add_argument("scope")
    family_switch.add_argument("family")
    family_switch.add_argument(
        "--metric", default=None, help="rank candidates by this metric"
    )
    family_switch.add_argument(
        "--mode", default="min", choices=("min", "max"),
        help="lower-is-better (min) or higher-is-better (max)",
    )
    family_switch.add_argument("--reason", default="")
    family_switch.set_defaults(handler=_cmd_family_switch)

    shard = commands.add_parser(
        "shard", help="manage the hash-partitioned metadata plane"
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)

    shard_init = shard_commands.add_parser(
        "init",
        help="create a sharded layout (adopting any legacy single-file db)",
    )
    shard_init.add_argument("count", type=int, help="number of shards")
    shard_init.set_defaults(handler=_cmd_shard_init, offline=True)

    shard_split = shard_commands.add_parser(
        "split",
        help="offline rebalance: halve one shard's hash range into a new shard",
    )
    shard_split.add_argument("shard", type=int, help="shard index to split")
    shard_split.set_defaults(handler=_cmd_shard_split, offline=True)

    shard_status = shard_commands.add_parser(
        "status", help="shard map epoch, ranges, and per-shard row counts"
    )
    shard_status.set_defaults(handler=_cmd_shard_status, offline=True)

    shard_verify = shard_commands.add_parser(
        "verify", help="check every row routes to its resident shard"
    )
    shard_verify.add_argument(
        "--repair",
        action="store_true",
        help="delete misplaced rows (stale copies from an interrupted split)",
    )
    shard_verify.set_defaults(handler=_cmd_shard_verify, offline=True)

    fleet = commands.add_parser(
        "fleet", help="observe and drain serving replicas over the wire"
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_status = fleet_commands.add_parser(
        "status", help="serving/draining state of every replica in a fleet"
    )
    fleet_status.add_argument(
        "url",
        help="fleet URL: gallery://h:p,... or a gallery+file:///registry "
        "/ gallery+http://host/path registry source",
    )
    fleet_status.set_defaults(handler=_cmd_fleet_status, offline=True)

    fleet_drain = fleet_commands.add_parser(
        "drain",
        help="gracefully drain one replica (finish in-flight, refuse new work)",
    )
    fleet_drain.add_argument("address", help="replica host:port")
    fleet_drain.add_argument(
        "--wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help="block until the replica reports zero in-flight requests",
    )
    fleet_drain.set_defaults(handler=_cmd_fleet_drain, offline=True)

    fleet_undrain = fleet_commands.add_parser(
        "undrain", help="return a drained replica to service"
    )
    fleet_undrain.add_argument("address", help="replica host:port")
    fleet_undrain.set_defaults(handler=_cmd_fleet_undrain, offline=True)

    server = commands.add_parser(
        "server", help="observe one serving replica over the wire"
    )
    server_commands = server.add_subparsers(dest="server_command", required=True)

    server_stats = server_commands.add_parser(
        "stats",
        help="live micro-batcher and request-dedup counters",
    )
    server_stats.add_argument("address", help="replica host:port")
    server_stats.set_defaults(handler=_cmd_server_stats, offline=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Shard administration runs offline — the split/verify tools require
    # that no store is open over the shard files.
    gallery = None if getattr(args, "offline", False) else _open_gallery(args.data_dir)
    try:
        result = args.handler(gallery, args)
    except GalleryError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except FileNotFoundError as exc:
        _emit({"error": "FileNotFoundError", "message": str(exc)})
        return 1
    _emit(result)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
