"""Seeded corpora, built through the public ``Gallery`` API, and their oracles.

A corpus object is what the load generator knows about the store it built:
every id it registered and what every lookup must return.  The builders run
in the bench process *before* the server subprocess opens the same
``data_dir`` — the program sees only generated inputs, and ``--seed`` decides
every id, value and blob byte that this side chooses (the server still draws
its own random metric ids).
"""

from __future__ import annotations

import json
import random
import uuid
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

PROJECT = "forecast"
SHARDS = 4

#: what all lookup-corpus instances carry for a blob: the lookup workloads
#: never read it, and identical payloads share one content-addressed file, so
#: the build pays one fsync instead of thousands.
_SHARED_BLOB = b"gallerybench: lookup corpus placeholder artifact\n"

KIB = 1024
MIB = 1024 * 1024


def open_gallery(data_dir: str):
    """The topology every workload serves from (all defaults left alone)."""
    from repro import build_gallery

    return build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=data_dir,
        shard_count=SHARDS,
    )


def json_len(value: Any) -> int:
    return len(json.dumps(value, separators=(",", ":")))


def _new_id(rng: random.Random) -> str:
    return str(uuid.UUID(int=rng.getrandbits(128), version=4))


def zipf_cum_weights(n: int, s: float = 1.1) -> list[float]:
    return list(accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


@dataclass
class HotCorpus:
    """200 city scopes x base/event family x 5 instances, one assignment each."""

    cities: list[str]  # in popularity order: cities[0] is the Zipf head
    cum_weights: list[float]
    serving: dict[str, str] = field(default_factory=dict)
    instances: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: city -> ids modelQuery(city=, metricName=mape, metricValue<0.2) returns
    low_mape: dict[str, list[str]] = field(default_factory=dict)
    user_bytes: int = 0


def build_hot(data_dir: str, seed: int, scale: int = 1) -> HotCorpus:
    rng = random.Random(f"hot:{seed}")
    n_cities = 200 // scale
    cities = [f"city{n:03d}" for n in range(n_cities)]
    rng.shuffle(cities)
    corpus = HotCorpus(cities=cities, cum_weights=zipf_cum_weights(n_cities))
    gallery = open_gallery(data_dir)
    try:
        for city in sorted(cities):
            matches = []
            servable = []
            # Exactly half of a city's ten instances pass the mape < 0.2 query,
            # whatever the seed: which half is seeded, how much work is not.
            low = set(rng.sample(range(10), 5))
            for f, family in enumerate(("base", "event")):
                base_version_id = f"{city}.{family}"
                gallery.create_model(
                    PROJECT, base_version_id, owner="gallerybench",
                    family=f"{city}:{family}", model_id=_new_id(rng),
                )
                corpus.user_bytes += json_len([PROJECT, base_version_id, city, family])
                for k in range(5):
                    metadata = {
                        "city": city,
                        "model_name": "gbt" if family == "base" else "gbt-event",
                        "model_type": "forecast",
                        "train_window_days": 7 * (k + 1),
                    }
                    mape = (0.05, 0.19) if f * 5 + k in low else (0.21, 0.35)
                    metrics = {
                        "mape": round(rng.uniform(*mape), 6),
                        "bias": round(rng.uniform(-0.05, 0.05), 6),
                        "rmse": round(rng.uniform(1.0, 9.0), 6),
                        "coverage": round(rng.uniform(0.7, 1.0), 6),
                    }
                    instance = gallery.upload_model(
                        PROJECT, base_version_id, blob=_SHARED_BLOB,
                        metadata=metadata, instance_id=_new_id(rng),
                    )
                    gallery.insert_metrics(instance.instance_id, metrics)
                    corpus.instances[instance.instance_id] = instance.to_dict()
                    corpus.user_bytes += (
                        len(_SHARED_BLOB) + json_len(metadata) + json_len(metrics)
                    )
                    if metrics["mape"] < 0.2:
                        matches.append(instance)
                    if family == "base":
                        servable.append(instance.instance_id)
            matches.sort(key=lambda i: (i.created_time, i.instance_id))
            corpus.low_mape[city] = [i.instance_id for i in matches]
            corpus.serving[city] = rng.choice(servable)
            gallery.assign_serving(city, corpus.serving[city], reason="corpus")
    finally:
        gallery.dal.metadata.close()
    return corpus


@dataclass
class ColdCorpus:
    """12,288 instances: 128 segments (models) x 8 cities x 12 instances.

    ``city`` is an indexed standard field, so ``city == X`` scatters to every
    shard; ``zone`` carries the same value under a key nobody indexes, so
    ``base_version_id == S and zone == X`` narrows by base version — one
    shard, the segment's 96 rows — and then filters to the same 12.
    """

    segments: list[str]
    cities_of: dict[str, list[str]] = field(default_factory=dict)
    ids_of: dict[str, list[str]] = field(default_factory=dict)  # city -> ordered
    user_bytes: int = 0


def build_cold(data_dir: str, seed: int, scale: int = 1) -> ColdCorpus:
    rng = random.Random(f"cold:{seed}")
    n_segments = 128 // scale
    corpus = ColdCorpus(segments=[f"seg{n:03d}" for n in range(n_segments)])
    gallery = open_gallery(data_dir)
    try:
        for s, segment in enumerate(corpus.segments):
            gallery.create_model(
                PROJECT, segment, owner="gallerybench", model_id=_new_id(rng)
            )
            corpus.user_bytes += json_len([PROJECT, segment])
            cities = [f"town{s * 8 + c:04d}" for c in range(8)]
            corpus.cities_of[segment] = cities
            for city in cities:
                metadata = {"city": city, "zone": city, "model_name": "gbt"}
                created = []
                for _ in range(12):
                    created.append(
                        gallery.upload_model(
                            PROJECT, segment, blob=_SHARED_BLOB,
                            metadata=metadata, instance_id=_new_id(rng),
                        )
                    )
                    corpus.user_bytes += len(_SHARED_BLOB) + json_len(metadata)
                created.sort(key=lambda i: (i.created_time, i.instance_id))
                corpus.ids_of[city] = [i.instance_id for i in created]
    finally:
        gallery.dal.metadata.close()
    return corpus


#: (class, nominal blob size, how many) — 81.5 MiB in all, against a 64 MiB blob
#: cache.  A blob is up to 4 KiB short of nominal (seeded): real artifacts are
#: not powers of two, and odd tails exercise the chunk and region edges.
BLOB_CLASSES = (("small", 64 * KIB, 24), ("medium", MIB, 16), ("large", 8 * MIB, 8))
RANGE_BYTES = 256 * KIB


@dataclass
class BlobCorpus:
    """One scope per blob, so a fetch starts the way a serving host does:
    ask what serves the scope, then pull it."""

    scopes_of: dict[str, list[str]] = field(default_factory=dict)  # class -> scopes
    instance_of: dict[str, str] = field(default_factory=dict)  # scope -> id
    payload_of: dict[str, bytes] = field(default_factory=dict)  # scope -> bytes
    user_bytes: int = 0


def build_blob(data_dir: str, seed: int, scale: int = 1) -> BlobCorpus:
    rng = random.Random(f"blob:{seed}")
    corpus = BlobCorpus()
    gallery = open_gallery(data_dir)
    try:
        for name, size, count in BLOB_CLASSES:
            gallery.create_model(
                PROJECT, f"artifact.{name}", owner="gallerybench",
                model_id=_new_id(rng),
            )
            scopes = []
            for n in range(max(1, count // scale)):
                scope = f"{name}-{n:02d}"
                payload = rng.randbytes(size - rng.randrange(4 * KIB))
                metadata = {"model_name": f"artifact-{name}", "slot": scope}
                instance = gallery.upload_model(
                    PROJECT, f"artifact.{name}", blob=payload,
                    metadata=metadata, instance_id=_new_id(rng),
                )
                gallery.assign_serving(scope, instance.instance_id, reason="corpus")
                scopes.append(scope)
                corpus.instance_of[scope] = instance.instance_id
                corpus.payload_of[scope] = payload
                corpus.user_bytes += len(payload) + json_len(metadata)
            corpus.scopes_of[name] = scopes
    finally:
        gallery.dal.metadata.close()
    return corpus
