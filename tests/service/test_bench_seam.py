"""Pins the names ``benchmarks/gallerybench`` imports from ``repro``.

That suite lives outside ``testpaths`` and may not be edited alongside the
code it measures, so a rename or a changed call shape here would break the
benchmark silently.  One live round-trip through every seam it uses.
"""

import pytest

from repro import build_gallery
from repro.core.registry import Gallery
from repro.errors import WireFormatError
from repro.service import connect, wire
from repro.service.server import GalleryService
from repro.service.tcp import (
    GalleryTcpServer,
    PipelinedTcpTransport,
    sendfile_available,
)
from repro.store.dal import DataAccessLayer


class RecordingTransport:
    """Delegating proxy shaped like gallerybench's ``TimedTransport``."""

    def __init__(self, inner):
        self._inner = inner
        self.request_ids = []

    def __call__(self, frame):
        self.request_ids.append(wire.peek_request_id(frame))
        return self._inner(frame)

    def submit_many(self, frames):
        self.request_ids.extend(wire.peek_request_id(frame) for frame in frames)
        return self._inner.submit_many(frames)

    def close(self):
        self._inner.close()


def test_gallerybench_seam(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    built = build_gallery(
        metadata_backend="sqlite",
        blob_backend="fs",
        data_dir=str(data_dir),
        shard_count=2,
    ).dal
    # server_main rebuilds the topology from the DAL's public properties.
    gallery = Gallery(DataAccessLayer(built.metadata, built.blobs, built.cache))
    service = GalleryService(gallery)
    seen = {"stream": 0, "dispatch": 0, "offer": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Instance attributes, looked up per call by the server and the batcher.
    service.handle_frame_stream = counting("stream", service.handle_frame_stream)
    service.dispatch = counting("dispatch", service.dispatch)
    service.read_batcher.offer = counting("offer", service.read_batcher.offer)

    transports = []

    def factory(endpoint):
        transport = RecordingTransport(
            PipelinedTcpTransport(endpoint.host, endpoint.port, timeout=10.0)
        )
        transports.append(transport)
        return transport

    assert isinstance(sendfile_available(), bool)
    server = GalleryTcpServer(service).start()
    try:
        client = connect(
            f"gallery://127.0.0.1:{server.address[1]}",
            client_id="seam-probe",
            transport_factory=factory,
        )
        client.create_gallery_model("p", "demand")
        instance = client.upload_model("p", "demand", b"artifact")
        assert client.fleet_status()["status"] == "serving"
        with client.pipeline() as pipe:
            record = pipe.get_model_instance(instance["instance_id"])
            metrics = pipe.metrics_of(instance["instance_id"])
            blob = pipe.load_model_blob(instance["instance_id"])
        assert record.result()["instance_id"] == instance["instance_id"]
        assert metrics.result() == []
        assert blob.result() == b"artifact"
        stats = client.server_stats()
        assert {"batches", "batched_requests", "coalesced", "refusals"} <= set(
            stats["batching"]
        )
        assert "hits" in stats["request_dedup"]
        documents = client.audit_storage()["summary"]["document_cache"]
        assert {"hits", "misses", "invalidations"} <= set(documents)
        client.close()
    finally:
        clean = server.stop()
        service.read_batcher.close()
        gallery.dal.metadata.close()
    assert clean is True
    assert len(transports) == 1 and len(transports[0].request_ids) >= 7
    assert seen["stream"] and seen["dispatch"] and seen["offer"]


def test_gallerybench_codec_seam():
    """The exact calls ``run.py::_replay_codec``, ``spans.py`` and
    ``server_main.py`` make on captured frames."""
    request = wire.Request(
        method="getModel", params={"model_id": "m"}, request_id=7, client_id="b"
    )
    response = wire.Response(ok=True, result={"model_id": "m"}, request_id=7)
    request_frame = wire.encode_request(request, wire.DIALECT_BINARY)
    response_frame = wire.encode_response(response, wire.DIALECT_BINARY)
    assert wire.decode_request(request_frame) == request
    assert wire.decode_response(response_frame) == response
    assert wire.peek_request_id(request_frame) == 7
    # DIALECT_BINARY is a vestige kept for those call sites: the parameter
    # selects nothing, and anything else is refused.
    assert request_frame == wire.encode_request(request)
    assert response_frame == wire.encode_response(response)
    with pytest.raises(WireFormatError, match="unknown wire dialect"):
        wire.encode_request(request, "json")
    with pytest.raises(WireFormatError, match="unknown wire dialect"):
        wire.encode_response(response, "json")
