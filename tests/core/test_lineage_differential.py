"""Store-backed lineage against the in-memory reference (Figure 4).

A replica answers lineage questions from the metadata store alone:
``instances_of(base, include_deprecated=True)`` is the base version's
chain, and ``ancestors`` walks stored parent pointers.  These properties
replay random uploads (parents in the same or another base, some
instances deprecated, the replica reopened midway) and compare both
answers with :class:`LineageTracker`, on one file and on four shards.
"""

from __future__ import annotations

import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory
from repro.core.versioning import LineageTracker

BASES = ("demand", "supply", "eta")

#: (base index, parent pick or None, deprecate afterwards)
steps_strategy = st.lists(
    st.tuples(
        st.integers(0, len(BASES) - 1),
        st.none() | st.integers(0, 63),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def _open(data_dir: str, clock: ManualClock, seed: int, shards: int | None):
    return build_gallery(
        "sqlite",
        "fs",
        data_dir=data_dir,
        clock=clock,
        id_factory=SeededIdFactory(seed),
        shard_count=shards,
    )


@pytest.mark.parametrize("shards", [None, 4], ids=["single-file", "4-shard"])
@given(steps=steps_strategy, reopen_at=st.integers(0, 12))
@settings(max_examples=25, deadline=None)
def test_store_lineage_matches_the_reference(shards, steps, reopen_at):
    with tempfile.TemporaryDirectory() as data_dir:
        clock = ManualClock()
        gallery = _open(data_dir, clock, seed=1, shards=shards)
        for base in BASES:
            gallery.create_model("p", base)
        reference = LineageTracker()
        uploaded: list[str] = []
        try:
            for index, (base_index, pick, deprecate) in enumerate(steps):
                if index == reopen_at:
                    gallery.dal.metadata.close()
                    gallery = _open(data_dir, clock, seed=index + 2, shards=shards)
                base = BASES[base_index]
                parent = (
                    uploaded[pick % len(uploaded)]
                    if pick is not None and uploaded
                    else None
                )
                instance = gallery.upload_model(
                    "p", base, blob=f"{index}".encode(), parent_instance_id=parent
                )
                reference.record(
                    base, instance.instance_id, instance.created_time, parent
                )
                uploaded.append(instance.instance_id)
                if deprecate:
                    gallery.deprecate_instance(instance.instance_id)
            for base in BASES:
                expected = (
                    [entry.instance_id for entry in reference.lineage(base)]
                    if base in reference.base_version_ids()
                    else []
                )
                chain = gallery.instances_of(base, include_deprecated=True)
                assert [instance.instance_id for instance in chain] == expected
            for instance_id in uploaded:
                assert gallery.ancestors(instance_id) == reference.ancestors(
                    instance_id
                )
        finally:
            gallery.dal.metadata.close()
