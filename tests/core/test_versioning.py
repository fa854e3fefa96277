"""Tests for versioning: semver baseline, instance versions, lineage."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.versioning import (
    InstanceVersion,
    LineageTracker,
    SemanticVersion,
    chain_is_time_ordered,
)
from repro.errors import NotFoundError, ValidationError


class TestSemanticVersion:
    def test_parse_and_str_round_trip(self):
        assert str(SemanticVersion.parse("1.3.10")) == "1.3.10"

    def test_parse_rejects_bad_forms(self):
        for bad in ("1.3", "a.b.c", "1.3.10.2", "-1.0.0", ""):
            with pytest.raises(ValidationError):
                SemanticVersion.parse(bad)

    def test_bump_rules_match_paper(self):
        v = SemanticVersion(1, 3, 10)
        assert str(v.bump_major()) == "2.0.0"   # architecture change
        assert str(v.bump_minor()) == "1.4.0"   # feature change
        assert str(v.bump_patch()) == "1.3.11"  # retrain

    def test_ordering(self):
        assert SemanticVersion.parse("1.3.10") < SemanticVersion.parse("1.4.0")
        assert SemanticVersion.parse("2.0.0") > SemanticVersion.parse("1.99.99")
        assert SemanticVersion(1, 0, 0) == SemanticVersion(1, 0, 0)

    def test_negative_components_rejected(self):
        with pytest.raises(ValidationError):
            SemanticVersion(-1, 0, 0)


class TestInstanceVersion:
    def test_parse_round_trip(self):
        assert str(InstanceVersion.parse("4.1")) == "4.1"

    def test_minor_bump_for_instance_updates(self):
        # Figure 6: B 2.0 -> 2.1 on retrain
        assert str(InstanceVersion.parse("2.0").bump_minor()) == "2.1"

    def test_major_bump_for_model_changes(self):
        assert str(InstanceVersion.parse("2.3").bump_major()) == "3.0"

    def test_ordering(self):
        assert InstanceVersion(4, 1) > InstanceVersion(4, 0)
        assert InstanceVersion(5, 0) > InstanceVersion(4, 9)

    def test_parse_rejects_semver_forms(self):
        with pytest.raises(ValidationError):
            InstanceVersion.parse("1.2.3")


class TestLineageTracker:
    def test_figure4_lineage_shape(self):
        """Figure 4: two base versions; one has four time-sorted instances."""
        tracker = LineageTracker()
        tracker.record("demand_conversion", "uuid-d1", created_time=1.0)
        for i, t in enumerate([2.0, 3.0, 4.0, 5.0], start=1):
            tracker.record("supply_cancellation", f"uuid-s{i}", created_time=t)
        assert tracker.base_version_ids() == [
            "demand_conversion",
            "supply_cancellation",
        ]
        chain = tracker.lineage("supply_cancellation")
        assert [e.instance_id for e in chain] == [
            "uuid-s1",
            "uuid-s2",
            "uuid-s3",
            "uuid-s4",
        ]
        assert chain_is_time_ordered(chain)
        assert tracker.latest("supply_cancellation").instance_id == "uuid-s4"

    def test_out_of_order_recording_still_sorted(self):
        tracker = LineageTracker()
        tracker.record("b", "late", created_time=10.0)
        tracker.record("b", "early", created_time=1.0)
        assert [e.instance_id for e in tracker.lineage("b")] == ["early", "late"]

    @given(st.lists(st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0]), max_size=40))
    @settings(max_examples=200)
    def test_insert_order_equals_append_then_stable_sort(self, times):
        """Shuffled and tied times land exactly where append + a stable
        sort by time would put them: ties keep their recording order."""
        tracker = LineageTracker()
        expected = []
        for index, created in enumerate(times):
            tracker.record("b", f"i{index}", created_time=created)
            expected.append((f"i{index}", created))
        expected.sort(key=lambda pair: pair[1])
        chain = tracker.lineage("b") if times else ()
        assert [(e.instance_id, e.created_time) for e in chain] == expected

    def test_duplicate_instance_rejected(self):
        tracker = LineageTracker()
        tracker.record("b", "i1", created_time=1.0)
        with pytest.raises(ValidationError):
            tracker.record("b", "i1", created_time=2.0)

    def test_base_of_reverse_lookup(self):
        tracker = LineageTracker()
        tracker.record("demand", "i1", created_time=1.0)
        assert tracker.base_of("i1") == "demand"
        with pytest.raises(NotFoundError):
            tracker.base_of("ghost")

    def test_parent_must_exist(self):
        tracker = LineageTracker()
        with pytest.raises(NotFoundError):
            tracker.record("b", "i1", created_time=1.0, parent_instance_id="ghost")

    def test_ancestors_walks_parents(self):
        tracker = LineageTracker()
        tracker.record("b", "i1", created_time=1.0)
        tracker.record("b", "i2", created_time=2.0, parent_instance_id="i1")
        tracker.record("b", "i3", created_time=3.0, parent_instance_id="i2")
        assert tracker.ancestors("i3") == ["i2", "i1"]
        assert tracker.ancestors("i1") == []

    def test_unknown_base_raises(self):
        with pytest.raises(NotFoundError):
            LineageTracker().lineage("ghost")

    def test_len_and_contains(self):
        tracker = LineageTracker()
        tracker.record("b", "i1", created_time=1.0)
        assert len(tracker) == 1
        assert "i1" in tracker
        assert "i2" not in tracker
