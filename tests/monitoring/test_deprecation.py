"""Tests for the automated deprecation sweeper (Section 3.7)."""

import pytest

from repro.core.records import MetricScope
from repro.monitoring import DeprecationPolicy, DeprecationSweeper


def setup_lineage(gallery, values):
    """Upload one instance per value and record it as production mape."""
    gallery.create_model("p", "demand")
    instances = []
    for index, value in enumerate(values):
        instance = gallery.upload_model("p", "demand", blob=f"v{index}".encode())
        gallery.insert_metric(
            instance.instance_id, "mape", value, scope=MetricScope.PRODUCTION
        )
        instances.append(instance)
    return instances


def make_sweeper(gallery, patience=2, margin=0.1):
    return DeprecationSweeper(
        gallery, DeprecationPolicy(metric="mape", patience=patience, margin=margin)
    )


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeprecationPolicy(margin=-0.1)
        with pytest.raises(ValueError):
            DeprecationPolicy(patience=0)


class TestSweeping:
    def test_consistent_loser_deprecated_after_patience(self, gallery):
        bad, good, newest = setup_lineage(gallery, [0.5, 0.1, 0.12])
        sweeper = make_sweeper(gallery, patience=2)
        first = sweeper.sweep()
        assert bad.instance_id in first.losing
        assert first.deprecated == ()
        assert sweeper.strikes(bad.instance_id) == 1
        second = sweeper.sweep()
        assert bad.instance_id in second.deprecated
        assert gallery.get_instance(bad.instance_id).deprecated

    def test_recovery_resets_strikes(self, gallery):
        bad, good, newest = setup_lineage(gallery, [0.5, 0.1, 0.12])
        sweeper = make_sweeper(gallery, patience=3)
        sweeper.sweep()
        assert sweeper.strikes(bad.instance_id) == 1
        # the instance improves: fresh production metric within the margin
        gallery.insert_metric(
            bad.instance_id, "mape", 0.1, scope=MetricScope.PRODUCTION
        )
        sweeper.sweep()
        assert sweeper.strikes(bad.instance_id) == 0

    def test_newest_instance_protected(self, gallery):
        # the newest instance is the worst, but never deprecated
        old, mid, newest = setup_lineage(gallery, [0.1, 0.12, 0.9])
        sweeper = make_sweeper(gallery, patience=1)
        outcome = sweeper.sweep()
        assert newest.instance_id not in outcome.deprecated
        assert not gallery.get_instance(newest.instance_id).deprecated

    def test_single_instance_lineage_untouched(self, gallery):
        (only,) = setup_lineage(gallery, [0.9])
        sweeper = make_sweeper(gallery, patience=1)
        outcome = sweeper.sweep()
        assert outcome.evaluated == 0
        assert not gallery.get_instance(only.instance_id).deprecated

    def test_margin_tolerates_near_ties(self, gallery):
        a, b, newest = setup_lineage(gallery, [0.105, 0.1, 0.1])
        sweeper = make_sweeper(gallery, patience=1, margin=0.10)
        outcome = sweeper.sweep()
        assert outcome.deprecated == ()  # 5% worse is inside the 10% margin

    def test_instances_without_metrics_ignored(self, gallery):
        gallery.create_model("p", "demand")
        silent = gallery.upload_model("p", "demand", blob=b"a")
        scored = gallery.upload_model("p", "demand", blob=b"b")
        gallery.insert_metric(
            scored.instance_id, "mape", 0.1, scope=MetricScope.PRODUCTION
        )
        outcome = make_sweeper(gallery).sweep()
        assert outcome.evaluated == 0  # fewer than two scored instances

    def test_deprecated_are_flagged_not_deleted(self, gallery):
        bad, good, newest = setup_lineage(gallery, [0.9, 0.1, 0.11])
        sweeper = make_sweeper(gallery, patience=1)
        outcome = sweeper.sweep()
        assert bad.instance_id in outcome.deprecated
        # still fetchable by id for consumers mid-migration
        assert gallery.load_instance_blob(bad.instance_id) == b"v0"

    def test_deprecated_losers_leave_the_pool(self, gallery):
        bad, good, newest = setup_lineage(gallery, [0.9, 0.1, 0.11])
        sweeper = make_sweeper(gallery, patience=1)
        sweeper.sweep()
        second = sweeper.sweep()
        assert bad.instance_id not in second.losing
