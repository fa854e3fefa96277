"""Stateful property test: registry invariants under random operations.

Drives a Gallery through random sequences of the public API (create,
upload, metric, deprecate, query) while checking system invariants:

* immutability — a stored blob and created_time never change;
* lineage — instances_of is time-ordered and matches uploads;
* search — every live instance is findable by its city; deprecated ones
  only with include_deprecated;
* storage — the DAL audit stays consistent at every step;
* versioning — instance display versions strictly increase per model.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import build_gallery
from repro.core import InstanceVersion, ManualClock, SeededIdFactory

CITIES = ["sf", "nyc", "la"]
BASES = ["demand", "supply"]


class GalleryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.gallery = build_gallery(
            clock=ManualClock(), id_factory=SeededIdFactory(99)
        )
        self.models: set[str] = set()
        #: instance_id -> (base, blob, city, created_time, deprecated)
        self.shadow: dict[str, dict] = {}
        self.counter = 0

    # -- operations ------------------------------------------------------------

    @rule(base=st.sampled_from(BASES))
    def create_model(self, base):
        if base in self.models:
            return
        self.gallery.create_model("prop", base)
        self.models.add(base)

    @precondition(lambda self: self.models)
    @rule(base=st.sampled_from(BASES), city=st.sampled_from(CITIES))
    def upload(self, base, city):
        if base not in self.models:
            return
        self.counter += 1
        blob = f"blob-{self.counter}".encode()
        instance = self.gallery.upload_model(
            "prop", base, blob=blob, metadata={"city": city}
        )
        self.shadow[instance.instance_id] = {
            "base": base,
            "blob": blob,
            "city": city,
            "created_time": instance.created_time,
            "deprecated": False,
            "version": instance.instance_version,
        }

    @precondition(lambda self: self.shadow)
    @rule(data=st.data())
    def record_metric(self, data):
        instance_id = data.draw(st.sampled_from(sorted(self.shadow)))
        value = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        self.gallery.insert_metric(instance_id, "mape", value)

    @precondition(lambda self: any(not s["deprecated"] for s in self.shadow.values()))
    @rule(data=st.data())
    def deprecate(self, data):
        live = sorted(k for k, s in self.shadow.items() if not s["deprecated"])
        instance_id = data.draw(st.sampled_from(live))
        self.gallery.deprecate_instance(instance_id)
        self.shadow[instance_id]["deprecated"] = True

    # -- invariants ----------------------------------------------------------

    @invariant()
    def blobs_immutable(self):
        for instance_id, expected in self.shadow.items():
            assert self.gallery.load_instance_blob(instance_id) == expected["blob"]

    @invariant()
    def created_times_immutable(self):
        for instance_id, expected in self.shadow.items():
            record = self.gallery.get_instance(instance_id)
            assert record.created_time == expected["created_time"]

    @invariant()
    def lineage_matches_uploads(self):
        for base in self.models:
            expected = sorted(
                (s["created_time"], iid)
                for iid, s in self.shadow.items()
                if s["base"] == base
            )
            chain = self.gallery.instances_of(base, include_deprecated=True) if expected else []
            assert [e.instance_id for e in chain] == [iid for _, iid in expected]

    @invariant()
    def search_respects_deprecation(self):
        for city in CITIES:
            live_expected = {
                iid
                for iid, s in self.shadow.items()
                if s["city"] == city and not s["deprecated"]
            }
            hits = self.gallery.model_query(
                [{"field": "city", "operator": "equal", "value": city}]
            )
            assert {h.instance_id for h in hits} == live_expected

    @invariant()
    def storage_always_consistent(self):
        assert self.gallery.dal.audit_consistency().consistent

    @invariant()
    def versions_strictly_increase_per_model(self):
        for base in self.models:
            versions = [
                InstanceVersion.parse(s["version"])
                for s in self.shadow.values()
                if s["base"] == base
            ]
            assert len(set(versions)) == len(versions)


GalleryMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestGalleryMachine = GalleryMachine.TestCase
