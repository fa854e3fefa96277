"""EXP-F4 — Figure 4: UUID versioning with base version ids.

Reproduces the figure's structure: two base version ids
("demand_conversion", "supply_cancellation"), the latter with four
iterations identified by UUIDs, time-sorted and linked to their base.
The benchmark times uploading + lineage traversal for a 4-iteration chain.
"""

from __future__ import annotations

from conftest import report

from repro import build_gallery
from repro.core import ManualClock, SeededIdFactory, is_uuid


def build_figure4(gallery):
    gallery.create_model("marketplace", "demand_conversion", owner="forecasting")
    gallery.create_model("marketplace", "supply_cancellation", owner="forecasting")
    gallery.upload_model("marketplace", "demand_conversion", blob=b"dc-v1")
    previous = None
    for iteration in range(4):
        instance = gallery.upload_model(
            "marketplace",
            "supply_cancellation",
            blob=f"sc-v{iteration}".encode(),
            parent_instance_id=previous,
        )
        previous = instance.instance_id
    return gallery


def test_figure4_uuid_versioning(benchmark):
    def run():
        gallery = build_gallery(
            clock=ManualClock(), id_factory=SeededIdFactory(4)
        )
        build_figure4(gallery)
        return gallery

    gallery = benchmark(run)
    chain = gallery.instances_of("supply_cancellation", include_deprecated=True)
    assert len(chain) == 4, "supply_cancellation evolved over four iterations"
    assert all(is_uuid(entry.instance_id) for entry in chain)
    times = [entry.created_time for entry in chain]
    assert times == sorted(times), "instances sorted by time"
    for entry in chain:
        assert gallery.get_instance(entry.instance_id).base_version_id == "supply_cancellation"
    # parent pointers walk the whole chain back to the root
    ancestors = gallery.ancestors(chain[-1].instance_id)
    assert len(ancestors) == 3

    lines = ["base_version_id       iteration  instance uuid"]
    for base in sorted({model.base_version_id for model in gallery.models()}):
        for index, entry in enumerate(gallery.instances_of(base, include_deprecated=True)):
            lines.append(f"{base:<22}{index:<11}{entry.instance_id}")
    lines.append("")
    lines.append("shape vs Figure 4: 2 base ids; supply_cancellation has 4")
    lines.append("UUID-identified, time-sorted instances linked to their base. OK")
    report("EXP-F4_figure4_versioning", lines)
