"""Hypothesis property suite for :class:`ShardMap` (PR 6 satellite).

The properties the sharded metadata plane leans on:

* every coordinate maps to exactly one shard (the ranges partition the
  hash space — no gaps, no overlaps);
* routing is stable across process restarts (the hash is seedless and the
  persisted map round-trips losslessly);
* a split preserves the placement of every coordinate outside the split
  shard, and coordinates inside it only ever move to the new shard.
"""

import json
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.store.sharding import (
    HASH_SPACE,
    ShardMap,
    coordinate_hash,
)

keys = st.text(min_size=1, max_size=40)
shard_counts = st.integers(min_value=1, max_value=32)


@st.composite
def split_maps(draw):
    """A map built by a random sequence of splits from a uniform base —
    the only two constructors production code uses."""
    shard_map = ShardMap.uniform(draw(shard_counts))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        target = draw(
            st.integers(min_value=0, max_value=shard_map.num_shards - 1)
        )
        if shard_map.range_of(target).hi - shard_map.range_of(target).lo >= 2:
            shard_map = shard_map.split(target)
    return shard_map


@given(split_maps(), keys)
def test_every_coordinate_maps_to_exactly_one_shard(shard_map, key):
    value = coordinate_hash(key)
    owners = [r.shard for r in shard_map.ranges if value in r]
    assert len(owners) == 1
    assert shard_map.shard_for(key) == owners[0]


@given(split_maps())
def test_ranges_partition_the_hash_space(shard_map):
    ordered = sorted(shard_map.ranges, key=lambda r: r.lo)
    assert ordered[0].lo == 0
    assert ordered[-1].hi == HASH_SPACE
    for prev, cur in zip(ordered, ordered[1:]):
        assert prev.hi == cur.lo
    assert sorted(r.shard for r in ordered) == list(range(len(ordered)))


@given(split_maps(), st.lists(keys, max_size=20))
def test_routing_survives_persistence_round_trip(shard_map, sample):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.json")
        shard_map.save(path)
        revived = ShardMap.load(path)
    assert revived.epoch == shard_map.epoch
    assert revived.to_dict() == shard_map.to_dict()
    for key in sample:
        assert revived.shard_for(key) == shard_map.shard_for(key)
    # and via the wire-shaped dict (what auditStorage's summary.shards carries)
    rewired = ShardMap.from_dict(json.loads(json.dumps(shard_map.to_dict())))
    for key in sample:
        assert rewired.shard_for(key) == shard_map.shard_for(key)


def test_routing_is_stable_across_processes():
    # Golden values pin the seedless hash: if these move, every persisted
    # layout on disk silently misroutes after an upgrade.
    assert coordinate_hash("demand") == 0x18393578
    assert coordinate_hash("supply_rejection") == 0xEB9DCECF
    assert coordinate_hash("") == 0x1271CF25
    m = ShardMap.uniform(16)
    assert m.shard_for("demand") == 1
    assert m.shard_for("supply_rejection") == 14


@settings(max_examples=60)
@given(split_maps(), st.data(), st.lists(keys, min_size=1, max_size=30))
def test_split_preserves_untouched_placement(shard_map, data, sample):
    target = data.draw(
        st.integers(min_value=0, max_value=shard_map.num_shards - 1)
    )
    source = shard_map.range_of(target)
    if source.hi - source.lo < 2:
        return
    after = shard_map.split(target)
    assert after.epoch == shard_map.epoch + 1
    assert after.num_shards == shard_map.num_shards + 1
    new_shard = shard_map.num_shards
    for key in sample:
        before_owner = shard_map.shard_for(key)
        after_owner = after.shard_for(key)
        if before_owner != target:
            # untouched ranges: placement is identical
            assert after_owner == before_owner
        else:
            # split range: stays put or moves to the appended shard only
            assert after_owner in (target, new_shard)
