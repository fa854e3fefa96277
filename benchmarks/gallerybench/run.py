"""The one-command runner.

    python3 -m benchmarks.gallerybench --workload W --seed N --seconds S --trace 0|1
    python3 -m benchmarks.gallerybench all [--seed N] [--seconds S] [--trace] [--quick] [--sets K] [--out DIR]
    python3 -m benchmarks.gallerybench compare A.json B.json

The first form is what ``BENCHMARK.json`` names: it runs one workload and
prints, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Above that line it prints the same numbers by
name with unit and sample count, and the environment they were taken in.
Scratch data lives under ``scratch_root()`` and is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import corpus as corpora
from . import loadgen, spans, spec
from ._paths import ROOT, require_repro

LOOPBACK = "127.0.0.1"


# -- the server subprocess ---------------------------------------------------------


class Server:
    """``server_main`` in a subprocess, stopped by closing its stdin."""

    def __init__(self, data_dir: Path, spans_out: Path | None = None) -> None:
        command = [
            sys.executable, "-m", "benchmarks.gallerybench.server_main",
            "--data-dir", str(data_dir),
        ]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        self._proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready = self._proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            self.stop()
            raise RuntimeError(f"server did not start (said {ready!r})")
        self.port = int(ready[1])

    @property
    def url(self) -> str:
        return f"gallery://{LOOPBACK}:{self.port}"

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self._proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Clean stop; raises if the server did not exit 0 by itself."""
        proc = self._proc
        if proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with {proc.returncode}")


# -- workloads -----------------------------------------------------------------------


def build_corpus(name: str, data_dir: Path, seed: int, scale: int) -> Any:
    """Build *name*'s corpus under *data_dir*; returns its oracle."""
    data_dir.mkdir(parents=True)
    if name in ("serve_hot", "publish_mixed"):
        return corpora.build_hot(str(data_dir), seed, scale)
    if name == "query_cold":
        return corpora.build_cold(str(data_dir), seed, scale)
    return corpora.build_blob(str(data_dir), seed, scale)


def make_drivers(name: str, corpus: Any, seed: int) -> tuple[list[Any], loadgen.PublishLog | None]:
    """One driver per client thread, each on its own seeded stream; the first
    is the workload's primary op.  Also the publish log, where there is one."""
    rngs = [random.Random(f"{name}:{seed}:{n}") for n in range(spec.CLIENT_THREADS)]
    if name == "serve_hot":
        return [loadgen.ServeHot(corpus, rng) for rng in rngs], None
    if name == "query_cold":
        return [loadgen.QueryCold(corpus, rngs[0])], None
    if name == "publish_mixed":
        log = loadgen.PublishLog()
        return [
            loadgen.Publisher(corpus, log, rngs[0]),
            loadgen.Reader(corpus, log, rngs[1]),
        ], log
    return [loadgen.BlobFetch(corpus, rng) for rng in rngs], None


@contextmanager
def serving(data_dir: Path, label: str, count: int, spans_out=None, factory_for=None):
    """A server on *data_dir* and *count* clients of it; both gone on exit.

    *factory_for(client_id)* returns the ``transport_factory`` for that client
    (the traced phase's timing proxy); the default is ``connect()``'s own.
    """
    from repro.service import connect

    server = Server(data_dir, spans_out)
    clients = []
    try:
        for n in range(count):
            client_id = f"gallerybench-{label}-{n}"
            clients.append(
                connect(
                    server.url, client_id=client_id,
                    transport_factory=factory_for(client_id) if factory_for else None,
                )
            )
        yield server, clients
    finally:
        for client in clients:
            client.close()
        server.stop()


def verify_durable(data_dir: Path, log: loadgen.PublishLog) -> tuple[int, int]:
    """Restart on *data_dir*; every acknowledged publish must still be there.

    Returns ``(checks made, checks failed)``: per publish its record, metrics
    and blob; per scope its last assignment; and one ``auditStorage``.
    """
    checks = failed = 0
    with serving(data_dir, "verify", 1) as (_server, (client,)):
        last = {}
        for start in range(0, len(log.acked), 64):
            batch = log.acked[start : start + 64]
            with client.pipeline() as pipe:
                handles = [
                    (
                        pipe.get_model_instance(instance_id),
                        pipe.metrics_of(instance_id),
                        pipe.load_model_blob(instance_id),
                    )
                    for instance_id, _city, _digest, _metrics in batch
                ]
            for (instance_id, city, digest, metrics), (rec, met, blob) in zip(batch, handles):
                last[city] = instance_id
                checks += 1
                try:
                    stored = {m["name"]: m["value"] for m in met.result()}
                    ok = (
                        rec.result()["instance_id"] == instance_id
                        and stored == metrics
                        and hashlib.sha256(blob.result()).digest() == digest
                    )
                except Exception:  # noqa: BLE001 - unreadable counts as lost
                    ok = False
                failed += not ok
        for city, instance_id in last.items():
            checks += 1
            failed += client.serving_for(city)["instance_id"] != instance_id
        audit = client.audit_storage()
        checks += 1
        failed += not (audit["consistent"] and not audit["orphan_blobs"])
    return checks, failed


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- one workload, end to end ----------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    #: metric -> (value, unit, samples behind it or None)
    metrics: dict[str, tuple[float, str, int | None]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    environment: dict[str, Any] = field(default_factory=dict)

    def report(self, metrics, values: dict[str, tuple[float | None, int]]) -> None:
        """Take from *values* what *metrics* say this workload reports.

        A metric measured where it is not expected is dropped; one expected
        and not measured is a defect of the benchmark and fails the run.
        """
        for metric in metrics:
            if self.workload not in metric.on:
                continue
            value, samples = values[metric.name]
            if value is None:
                raise RuntimeError(f"{metric.name} was not measured on {self.workload}")
            self.metrics[metric.name] = (float(value), metric.unit, samples)

    def count(self, phase: loadgen.Phase) -> None:
        self.attempted += phase.attempted
        self.failed += phase.failed
        if phase.first_error:
            self.notes.append(phase.first_error.strip().splitlines()[-1])


def warmup_seconds(seconds: float) -> float:
    return max(1.0, seconds / 4)


def run_end_to_end(name: str, seed: int, seconds: float, scale: int, work: Path) -> Result:
    result = Result(name, seed)
    data_dir = work / "data"
    started = time.perf_counter()
    corpus = build_corpus(name, data_dir, seed, scale)
    drivers, log = make_drivers(name, corpus, seed)
    with serving(data_dir, name, len(drivers)) as (server, clients):
        result.count(loadgen.run_phase(drivers, clients, warmup_seconds(seconds)))
        setup_s = time.perf_counter() - started
        if name == "blob_fetch":
            verified = -sum(d.verified_bytes for d in drivers)
        timed = loadgen.run_phase(drivers, clients, seconds)
        result.count(timed)
        rss = server.peak_rss_mb()
    stored = tree_bytes(data_dir)
    user_bytes = corpus.user_bytes + (log.user_bytes if log else 0)
    if log is not None:
        checks, lost = verify_durable(data_dir, log)
        result.attempted += checks
        result.failed += lost
        if lost:
            result.notes.append(f"{lost} of {checks} durability checks failed")
    values = loadgen.segment_stats(timed, drivers[0].kind)
    values["setup_s"] = (setup_s, 1)
    values["server_peak_rss_mb"] = (rss, 1)
    values["stored_bytes_per_user_byte"] = (stored / user_bytes, 1)
    if name == "publish_mixed":  # the reader beside the publisher
        reader = loadgen.segment_stats(timed, drivers[1].kind)
        values["lookup_p50_ms"] = reader["op_p50_ms"]
        values["lookup_p95_ms"] = reader["op_p95_ms"]
    if name == "blob_fetch":
        verified += sum(d.verified_bytes for d in drivers)
        values["fetch_mb_per_s"] = (
            verified / corpora.MIB / seconds, values["ops_per_s"][1]
        )
    result.report(spec.END_TO_END, values)
    result.environment = environment(data_dir, seed, seconds, scale, len(drivers))
    return result


# -- one workload, traced ------------------------------------------------------------------


def _counters(client) -> dict[str, float]:
    stats = client.server_stats()
    audit = client.audit_storage()["summary"]
    batching, documents = stats["batching"], audit["document_cache"]
    return {
        "batches": batching["batches"],
        "batched": batching["batched_requests"],
        "coalesced": batching["coalesced"],
        "refusals": batching["refusals"],
        "dedup_hits": stats["request_dedup"]["hits"],
        "doc_hits": documents["hits"],
        "doc_misses": documents["misses"],
        "doc_invalidations": documents["invalidations"],
    }


def _replay_codec(pairs: list[tuple[bytes, bytes]]) -> dict[str, float]:
    """Drive the codec directly with frames captured from the workload."""
    from repro.service import wire

    def best_of_3(fn, arg) -> float:
        best = None
        for _ in range(3):
            t0 = time.perf_counter_ns()
            fn(arg)
            elapsed = time.perf_counter_ns() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best / 1e3

    def encode_request(request):
        return wire.encode_request(request, wire.DIALECT_BINARY)

    def encode_response(response):
        return wire.encode_response(response, wire.DIALECT_BINARY)

    timings: dict[str, list[float]] = {
        "encode_request": [], "decode_request": [],
        "encode_response": [], "decode_response": [],
    }
    for request_frame, response_frame in pairs:
        timings["decode_request"].append(best_of_3(wire.decode_request, request_frame))
        timings["decode_response"].append(best_of_3(wire.decode_response, response_frame))
        timings["encode_request"].append(
            best_of_3(encode_request, wire.decode_request(request_frame))
        )
        timings["encode_response"].append(
            best_of_3(encode_response, wire.decode_response(response_frame))
        )
    return {
        f"service.wire.{name}_us": statistics.fmean(values)
        for name, values in timings.items()
    }


def run_traced(name: str, seed: int, seconds: float, scale: int, work: Path) -> Result:
    from repro.service import wire
    from repro.service.tcp import PipelinedTcpTransport

    result = Result(name, seed)
    phase_seconds = seconds / 2
    data_dir, traced_dir = work / "data", work / "data_traced"
    corpus = build_corpus(name, data_dir, seed, scale)
    shutil.copytree(data_dir, traced_dir)

    # Reference phase: tracing off, same seed, same topology.
    drivers, _log = make_drivers(name, corpus, seed)
    primary = drivers[0].kind
    with serving(data_dir, f"{name}-ref", len(drivers)) as (_server, clients):
        floor = []
        for _ in range(300):
            t0 = time.perf_counter_ns()
            clients[0].fleet_status()
            floor.append((time.perf_counter_ns() - t0) / 1e3)
        result.count(loadgen.run_phase(drivers, clients, warmup_seconds(seconds)))
        reference = loadgen.run_phase(drivers, clients, phase_seconds)
        result.count(reference)
    reference_stats = loadgen.segment_stats(reference, primary)

    # Traced phase.
    recorder = spans.SpanRecorder()
    transports: list[spans.TimedTransport] = []

    def factory_for(client_id: str):
        def factory(endpoint):
            transport = spans.TimedTransport(
                PipelinedTcpTransport(endpoint.host, endpoint.port, timeout=10.0),
                client_id, recorder, wire.peek_request_id,
            )
            transports.append(transport)
            return transport

        return factory

    spans_path = work / "server_spans.json"
    drivers, _log = make_drivers(name, corpus, seed)  # same seed: the same op stream again
    with serving(
        traced_dir, f"{name}-traced", len(drivers), spans_path, factory_for
    ) as (_server, clients):
        result.count(loadgen.run_phase(drivers, clients, warmup_seconds(seconds)))
        before = _counters(clients[0])
        for transport in transports:
            transport.capture_from_ns = time.perf_counter_ns()
            transport.responses = transport.response_bytes = 0
        traced = loadgen.run_phase(drivers, clients, phase_seconds)
        result.count(traced)
        after = _counters(clients[0])
    traced_stats = loadgen.segment_stats(traced, primary)
    delta = {key: after[key] - before[key] for key in before}
    with open(spans_path) as handle:
        server_rows = json.load(handle)
    exchanges = [s for s in recorder.spans if s[2] == "service.tcp.exchange"]
    ops = [
        (ident, t0, t1, kind)
        for ident, samples in zip(traced.idents, traced.samples)
        for t0, t1, kind, _n in samples
    ]
    layer = spans.analyse(
        server_rows, exchanges, ops, (traced.start_ns, traced.end_ns), primary
    )

    untraced_rate = reference_stats["ops_per_s"][0]
    p50_us = reference_stats["op_p50_ms"][0] * 1e3
    budget = layer.pop("budget_us")
    n_ops = layer.pop("ops")
    ratio = spans.ratio
    values = dict(layer)
    values.update(_replay_codec([pair for t in transports for pair in t.captured]))
    values.update({
        "service.client.retries": sum(
            t.frames_sent - len(t.request_ids) for t in transports
        ),
        "service.wire.response_bytes": ratio(
            sum(t.response_bytes for t in transports),
            sum(t.responses for t in transports),
        ),
        "service.tcp.rtt_floor_us": statistics.median(floor),
        "service.batching.mean_batch": ratio(delta["batched"], delta["batches"]),
        "service.batching.coalesce_ratio": ratio(delta["coalesced"], delta["batched"]),
        "service.batching.refusals": delta["refusals"],
        "service.server.dedup_hits": delta["dedup_hits"],
        "store.cache.doc_hit_rate": ratio(
            delta["doc_hits"], delta["doc_hits"] + delta["doc_misses"]
        ),
        "store.cache.doc_invalidations": delta["doc_invalidations"],
        "trace.overhead_share": 1 - traced_stats["ops_per_s"][0] / untraced_rate,
        "trace.budget_gap_share": abs(sum(budget.values()) - p50_us) / p50_us,
    })
    result.report(spec.PER_LAYER, {k: (v, n_ops) for k, v in values.items()})
    result.notes.append(
        "budget per op (median us): "
        + ", ".join(f"{k}={v:.1f}" for k, v in budget.items())
        + f"; sum={sum(budget.values()):.1f} vs untraced op p50={p50_us:.1f}"
    )
    result.environment = environment(data_dir, seed, seconds, scale, len(drivers))
    return result


# -- environment, printing ------------------------------------------------------------------


def _filesystem_of(path: Path) -> str:
    path = path.resolve()
    best, fstype = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        _dev, mount, kind = line.split()[:3]
        if (path == Path(mount) or Path(mount) in path.parents) and len(mount) > len(best):
            best, fstype = mount, kind
    return fstype


def environment(data_dir: Path, seed: int, seconds: float, scale: int, clients: int) -> dict[str, Any]:
    from repro.service.tcp import sendfile_available

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "sendfile_available": sendfile_available(),
        "data_dir_filesystem": _filesystem_of(data_dir),
        "network": f"loopback ({LOOPBACK}), client and server on one host",
        "client_threads": clients,
        "warmup_s": warmup_seconds(seconds),
        "segment_s": seconds / spec.SEGMENTS,
        "segments": spec.SEGMENTS,
        "corpus_scale": f"1/{scale}",
    }


def print_result(result: Result) -> None:
    print(f"== {result.workload} (seed {result.seed}) ==")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"  {name:<38} {value:>14.4f} {unit:<6} n={samples}")
    print(
        f"  {'failed_share':<38} {result.failed / result.attempted:>14.4f} {'ratio':<6}"
        f" failed={result.failed} attempted={result.attempted}"
    )
    for note in result.notes:
        print(f"  note: {note}")
    print("  environment: " + json.dumps(result.environment, sort_keys=True))


def result_json(result: Result, only: tuple[spec.Metric, ...] | None = None) -> dict[str, Any]:
    """*result* in the contract's shape; *only* keeps just those metrics."""
    keep = result.metrics if only is None else [m.name for m in only]
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
            for name in keep
        },
    }


# -- commands --------------------------------------------------------------------------------


CHECKOUT_SCRATCH = ROOT / ".gallerybench_tmp"


def scratch_root() -> Path:
    """Where corpora, span dumps and default results go: ``TMPDIR`` when the
    caller set one, else ``.gallerybench_tmp/`` in the checkout.  Never the
    system's ``/tmp`` by default: the driver that runs ``BENCHMARK.json``
    allows no write outside the checkout."""
    root = Path(os.environ.get("TMPDIR") or CHECKOUT_SCRATCH)
    root.mkdir(parents=True, exist_ok=True)
    return root


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: int) -> Result:
    if name not in spec.WORKLOAD_NAMES:
        raise SystemExit(f"unknown workload {name!r}; one of {spec.WORKLOAD_NAMES}")
    work = Path(tempfile.mkdtemp(prefix=f"gallerybench-{name}-", dir=scratch_root()))
    try:
        runner = run_traced if trace else run_end_to_end
        return runner(name, seed, seconds, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            CHECKOUT_SCRATCH.rmdir()  # leave no empty directory in the checkout
        except OSError:
            pass


def _size(args: argparse.Namespace) -> tuple[float, int]:
    """(seconds, corpus divisor): ``--quick`` is corpora / 8 and 3 s runs."""
    seconds = args.seconds or (3 if args.quick else spec.RUN_SECONDS)
    return seconds, 8 if args.quick else 1


def cmd_run(args: argparse.Namespace) -> int:
    seconds, scale = _size(args)
    result = run_one(args.workload, args.seed, seconds, bool(args.trace), scale)
    print_result(result)
    listed = spec.everywhere(spec.PER_LAYER if args.trace else spec.END_TO_END)
    print(json.dumps(result_json(result, listed)))
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    seconds, scale = _size(args)
    if args.out is None:
        out = Path(tempfile.mkdtemp(prefix="gallerybench-results-", dir=scratch_root()))
    else:
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
    files = []
    for n in range(args.sets):
        seed = args.seed + n
        document: dict[str, Any] = {"seed": seed, "workloads": {}}
        for name in spec.WORKLOAD_NAMES:
            entry = {}
            for traced in (False, True) if args.trace else (False,):
                result = run_one(name, seed, seconds, traced, scale)
                print_result(result)
                entry["per_layer" if traced else "end_to_end"] = result_json(result)
                document["environment"] = result.environment
            document["workloads"][name] = entry
        path = out / f"set{n + 1}-seed{seed}.json"
        path.write_text(json.dumps(document, indent=1))
        print(f"wrote {path}")
        files.append(path)
    if len(files) >= 2:
        return compare(files[0], files[1])
    return 0


def compare(a_path: Path, b_path: Path) -> int:
    """Both values, their relative difference and the bound, per metric x workload."""
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    outside = 0
    print(f"A = {a_path} (seed {a_doc.get('seed')})\nB = {b_path} (seed {b_doc.get('seed')})")
    print(f"{'workload':<14} {'metric':<28} {'A':>12} {'B':>12} {'B vs A':>9} {'bound':>6}")
    for name in spec.WORKLOAD_NAMES:
        a_run = a_doc["workloads"][name]["end_to_end"]
        b_run = b_doc["workloads"][name]["end_to_end"]
        a, b = (run["failed"] / run["attempted"] for run in (a_run, b_run))
        verdict = "  OUTSIDE" if a or b else ""
        outside += bool(verdict)
        print(f"{name:<14} {'failed_share':<28} {a:>12.4f} {b:>12.4f} {'':>9} {'=0':>6}{verdict}")
        for metric in spec.END_TO_END:
            if name not in metric.on:
                continue
            a = a_run["metrics"][metric.name]["value"]
            b = b_run["metrics"][metric.name]["value"]
            worse = (b - a) / a if metric.better == "lower" else (a - b) / a
            verdict = ""
            if abs(worse) > metric.bound:
                outside += 1
                verdict = "  OUTSIDE"
            print(
                f"{name:<14} {metric.name:<28} {a:>12.4f} {b:>12.4f}"
                f" {worse:>+8.1%}w {metric.bound:>6.2f}{verdict}"
            )
    print(
        "'B vs A' is signed so that + means B is worse; "
        f"{outside} pair(s) outside their bound"
    )
    return 1 if outside else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.gallerybench")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="corpora / 8 and, by default, 3 s runs: a schema check, not a measurement")
    if argv[:1] == ["compare"]:
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    if argv[:1] == ["spec"]:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    require_repro()
    if argv[:1] == ["all"]:
        parser.add_argument("--trace", action="store_true")
        parser.add_argument("--sets", type=int, default=1)
        parser.add_argument("--out", type=Path, default=None)
        return cmd_all(parser.parse_args(argv[1:]))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_run(parser.parse_args(argv))
