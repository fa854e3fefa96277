"""Two replicas over one store: every registry write is decided by the store.

Each test opens two ``Gallery`` replicas over one data dir (one SQLite file,
or the 4-shard layout) and interleaves them deterministically, with no
threads and no sleeps: replica B's whole call runs right before replica A's
first store write to the contested record, that is, after every read A
decides that write on has returned and before A holds any write
transaction.  A write that A decided in Python on a stale read would
overwrite B's change; a write the store decides inside its transaction
sees it.
"""

from __future__ import annotations

import pytest

from repro import build_gallery
from repro.core.lifecycle import LifecycleStage
from repro.errors import DeprecatedModelError, LifecycleError, ValidationError

#: Store calls that write one record, addressed by their first argument
#: (a serving assignment by its scope).
#: A name the store does not have is skipped.
_WRITES = (
    "insert_model",
    "insert_instance",
    "update_record",
    "assign_serving",
    "replace_model",
    "replace_instance",
    "append_stage_change",
)


def _target(record) -> str:
    if isinstance(record, str):
        return record
    return getattr(record, "instance_id", None) or record.model_id


def beside(replica, target: str, peer_call) -> None:
    """Run *peer_call* once, right before *replica*'s first store write to
    the record *target* (a model or instance id)."""
    store = replica.dal.metadata
    pending = [peer_call]

    def hook(write):
        def hooked(record, *args, **kwargs):
            if pending and _target(record) == target:
                pending.pop()()
            return write(record, *args, **kwargs)

        return hooked

    for name in _WRITES:
        if hasattr(store, name):
            setattr(store, name, hook(getattr(store, name)))


@pytest.fixture(params=[None, 4], ids=["one-file", "4-shards"])
def replicas(request, tmp_path):
    pair = [
        build_gallery("sqlite", "fs", data_dir=tmp_path, shard_count=request.param)
        for _ in range(2)
    ]
    yield pair
    for replica in pair:
        replica.dal.metadata.close()


def test_create_model_twice_on_one_coordinate(replicas):
    a, b = replicas
    beside(a, "ma", lambda: b.create_model("p", "demand", model_id="mb"))
    with pytest.raises(ValidationError, match="already has base version"):
        a.create_model("p", "demand", model_id="ma")
    assert [m.model_id for m in a.dal.metadata.models_at("p", "demand")] == ["mb"]


def test_evolve_model_twice(replicas):
    a, b = replicas
    a.create_model("p", "demand", model_id="m0")
    beside(a, "ma", lambda: b.evolve_model("m0", model_id="mb"))
    with pytest.raises(ValidationError, match="already has a successor"):
        a.evolve_model("m0", model_id="ma")
    chain = a.dal.metadata.models_at("p", "demand")
    assert [m.model_id for m in chain] == ["m0", "mb"]
    assert [m.model_id for m in chain if m.next_model_id is None] == ["mb"]
    assert a.find_model("p", "demand").model_id == "mb"


def _three_models(replica):
    for model_id in ("u", "d1", "d2"):
        replica.create_model("p", model_id, model_id=model_id)


def test_add_dependency_twice_onto_one_upstream(replicas):
    a, b = replicas
    _three_models(a)
    beside(a, "u", lambda: b.add_dependency("d2", "u"))
    a.add_dependency("d1", "u")
    assert a.downstream("u") == {"d1", "d2"}
    assert {str(a.latest_version(m)) for m in ("d1", "d2")} == {"1.1"}
    # Figures 5-7: an upload to the upstream bumps both downstream models.
    a.upload_model("p", "u", blob=b"retrained")
    assert [str(a.latest_version(m)) for m in ("d1", "d2")] == ["1.2", "1.2"]


def test_add_dependency_beside_deprecate_model(replicas):
    a, b = replicas
    _three_models(a)
    beside(a, "u", lambda: b.deprecate_model("u"))
    a.add_dependency("d1", "u")
    upstream = a.get_model("u")
    assert upstream.deprecated  # Section 3.7: a deprecation is never undone
    assert upstream.downstream_model_ids == ("d1",)


def _instance(replica):
    replica.create_model("p", "demand")
    return replica.upload_model("p", "demand", blob=b"m").instance_id


def test_disable_instance_beside_deprecate_instance(replicas):
    a, b = replicas
    instance_id = _instance(a)
    beside(a, instance_id, lambda: b.deprecate_instance(instance_id))
    a.disable_instance(instance_id)
    stored = a.get_instance(instance_id)
    assert stored.deprecated and not stored.enabled
    assert a.stage_of(instance_id) is LifecycleStage.DEPRECATED


def test_mark_deployed_beside_deprecate_instance(replicas):
    a, b = replicas
    instance_id = _instance(a)
    beside(a, instance_id, lambda: b.deprecate_instance(instance_id))
    with pytest.raises(LifecycleError, match="deprecated -> deployed"):
        a.mark_deployed(instance_id)
    assert a.stage_of(instance_id) is LifecycleStage.DEPRECATED
    moves = [(c.from_stage, c.to_stage) for c in a.stage_history(instance_id)]
    assert moves == [
        (None, LifecycleStage.EVALUATION),
        (LifecycleStage.EVALUATION, LifecycleStage.DEPRECATED),
    ]


def test_assign_serving_beside_disable_instance(replicas):
    # On 4 shards "la" is not the instance's shard: the gate is read on one
    # file and the scope re-pointed on another.  ("sf" below shares it.)
    a, b = replicas
    instance_id = _instance(a)
    beside(a, "la", lambda: b.disable_instance(instance_id))
    with pytest.raises(ValidationError, match="review gate"):
        a.assign_serving("la", instance_id)
    assert a.serving_assignments() == []


def test_assign_serving_beside_deprecate_instance(replicas):
    a, b = replicas
    instance_id = _instance(a)
    a.assign_serving("sf", instance_id)
    rival = a.upload_model("p", "demand", blob=b"rival").instance_id
    beside(a, "sf", lambda: b.deprecate_instance(rival))
    with pytest.raises(ValidationError, match="deprecated"):
        a.assign_serving("sf", rival)
    assert a.serving_for("sf").instance_id == instance_id


def test_upload_model_beside_deprecate_model(replicas):
    a, b = replicas
    model_id = a.create_model("p", "demand").model_id
    beside(a, "ia", lambda: b.deprecate_model(model_id))
    with pytest.raises(DeprecatedModelError):
        a.upload_model("p", "demand", blob=b"m", instance_id="ia")
    assert a.instances_of(model_id) == []


def test_upload_model_beside_evolve_model(replicas):
    a, b = replicas
    model_id = a.create_model("p", "demand").model_id
    beside(a, "ia", lambda: b.evolve_model(model_id, model_id="m2"))
    with pytest.raises(ValidationError, match="takes its uploads"):
        a.upload_model("p", "demand", blob=b"m", instance_id="ia")
    assert a.instances_of(model_id) == []
    assert a.upload_model("p", "demand", blob=b"m").model_id == "m2"
