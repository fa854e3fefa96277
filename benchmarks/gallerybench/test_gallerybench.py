"""Schema check of gallerybench: runs ``--quick`` and reads what it printed.

Lives outside ``testpaths``; run it by name::

    python3 -m pytest benchmarks/gallerybench/test_gallerybench.py -q

It asserts names, units and ``failed == 0`` — not speed: the quick corpora are
an eighth of the real ones and the runs three seconds long.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.gallerybench import spec  # noqa: E402

COMMAND = [sys.executable, "-m", "benchmarks.gallerybench"]
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
IGNORED = {"__pycache__", ".git", ".pytest_cache", ".hypothesis"}


def tree_state(root: Path) -> dict[str, tuple[int, int]]:
    state = {}
    for path in root.rglob("*"):
        if path.is_file() and not IGNORED & set(path.relative_to(root).parts):
            stat = path.stat()
            state[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return state


def test_benchmark_json_is_what_spec_renders():
    tracked = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tracked == spec.benchmark_json()
    assert tracked["paths"] == ["benchmarks/gallerybench"]
    assert [w["name"] for w in tracked["workloads"]] == [
        "serve_hot", "query_cold", "publish_mixed", "blob_fetch",
    ]
    end_to_end = {m["name"]: m for m in tracked["end_to_end"]}
    assert end_to_end["setup_s"] == {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
    }
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end.values())


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gallerybench")
    (tmp / "work").mkdir()
    before = tree_state(ROOT)
    done = subprocess.run(
        [*COMMAND, "all", "--quick", "--trace", "--seed", "7", "--out", str(tmp / "out")],
        cwd=ROOT, env={**ENV, "TMPDIR": str(tmp / "work")},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done, tmp, before


def test_quick_run_reports_each_metric_where_it_applies_and_nowhere_else(quick_run):
    done, tmp, _before = quick_run
    (path,) = (tmp / "out").glob("set1-seed7.json")
    document = json.loads(path.read_text())
    assert set(document["workloads"]) == set(spec.WORKLOAD_NAMES)
    for name in spec.WORKLOAD_NAMES:
        for section, metrics in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
            run = document["workloads"][name][section]
            assert set(run) == {"correct", "attempted", "failed", "metrics"}
            assert run["correct"] is True and run["failed"] == 0, (name, section)
            assert run["attempted"] >= 1
            here = [m for m in metrics if name in m.on]
            assert set(run["metrics"]) == {m.name for m in here}, (name, section)
            for metric in here:
                got = run["metrics"][metric.name]
                assert got["unit"] == metric.unit
                assert isinstance(got["value"], (int, float))
        for metric in spec.END_TO_END:  # end-to-end metrics are never 0
            if name in metric.on:
                assert document["workloads"][name]["end_to_end"]["metrics"][metric.name]["value"] > 0
    for metric in (*spec.END_TO_END, *spec.PER_LAYER):  # printed by name
        assert done.stdout.count(f"  {metric.name} ") == len(metric.on), metric.name
    assert done.stdout.count("  failed_share ") == 2 * len(spec.WORKLOAD_NAMES)


def test_quick_run_states_its_environment(quick_run):
    _done, tmp, _before = quick_run
    (path,) = (tmp / "out").glob("set1-seed7.json")
    environment = json.loads(path.read_text())["environment"]
    assert {
        "commit", "seed", "nproc", "python", "sqlite", "sendfile_available",
        "data_dir_filesystem", "network", "client_threads", "warmup_s",
        "segment_s", "segments",
    } <= set(environment)
    assert "loopback" in environment["network"]
    assert environment["seed"] == 7 and environment["segments"] == spec.SEGMENTS


def test_quick_run_wrote_only_where_it_was_told(quick_run):
    _done, tmp, before = quick_run
    assert tree_state(ROOT) == before
    assert list((tmp / "work").iterdir()) == []  # per-run scratch is removed


def test_compare_flags_a_pair_outside_its_bound(quick_run, tmp_path):
    _done, tmp, _before = quick_run
    (path,) = (tmp / "out").glob("set1-seed7.json")
    same = subprocess.run(
        [*COMMAND, "compare", str(path), str(path)],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    assert same.returncode == 0, same.stdout
    document = json.loads(path.read_text())
    metrics = document["workloads"]["query_cold"]["end_to_end"]["metrics"]
    metrics["op_p50_ms"]["value"] *= 1.5
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(document))
    differ = subprocess.run(
        [*COMMAND, "compare", str(path), str(worse)],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    assert differ.returncode == 1
    assert "OUTSIDE" in differ.stdout and "query_cold" in differ.stdout


def test_contract_form_ends_with_one_json_object(tmp_path):
    done = subprocess.run(
        [*COMMAND, "--workload", "blob_fetch", "--seed", "3", "--seconds", "2",
         "--trace", "0", "--quick"],
        cwd=ROOT, env={**ENV, "TMPDIR": str(tmp_path)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    assert "  fetch_mb_per_s " in done.stdout  # this workload's own metric
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    # the last line holds what BENCHMARK.json lists, no more and no less
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in listed}
    assert list(tmp_path.iterdir()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(
        ROOT / "benchmarks" / "gallerybench", bare / "benchmarks" / "gallerybench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [*COMMAND, "--workload", "serve_hot", "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=bare, env=ENV, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_traced_server_is_build_gallerys_topology_behind_proxies(tmp_path):
    from benchmarks.gallerybench._paths import require_repro
    from benchmarks.gallerybench.corpus import open_gallery
    from benchmarks.gallerybench.server_main import _traced_gallery
    from benchmarks.gallerybench.spans import SpanRecorder

    require_repro()
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = open_gallery(str(tmp_path / "plain"))
    traced = _traced_gallery(str(tmp_path / "traced"), SpanRecorder())
    try:
        for layer in ("metadata", "blobs"):
            inner = getattr(traced.dal, layer)._target
            assert type(inner) is type(getattr(plain.dal, layer))
        assert type(traced._target) is type(plain)
        assert type(traced.dal._target) is type(plain.dal)
        assert traced.dal.cache.capacity_bytes == plain.dal.cache.capacity_bytes
        assert len(traced.dal.metadata.shard_counts()) == len(plain.dal.metadata.shard_counts())
    finally:
        plain.dal.metadata.close()
        traced.dal.metadata.close()
