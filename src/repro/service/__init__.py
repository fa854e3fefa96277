"""Service layer: wire protocol, stateless server, client, and failover.

:func:`connect` is the front door — it turns a ``gallery://host:port,...``
URL into a ready :class:`GalleryClient` over a breaker-aware
:class:`FailoverTransport`.  There is one serving stack::

    connect -> FailoverTransport -> PipelinedTcpTransport
            -> GalleryTcpServer -> GalleryService
"""

from repro.service.batching import (
    BATCHABLE_METHODS,
    BatchConfig,
    ReadBatcher,
)
from repro.service.client import (
    ClientPipeline,
    GalleryClient,
    InProcessTransport,
    MethodRetryPolicies,
    PipelineHandle,
    connect_in_process,
)
from repro.service.endpoints import (
    Endpoint,
    EndpointSet,
    FailoverTransport,
    connect,
)
from repro.service.membership import (
    FileRegistrySource,
    FleetRegistry,
    HttpRegistrySource,
    StaticRegistrySource,
    fleet_from_url,
    parse_registry,
)
from repro.service.server import GalleryService
from repro.service.wire import (
    LANE_BULK,
    LANE_INTERACTIVE,
    Request,
    Response,
    decode_blob,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
)

__all__ = [
    "BATCHABLE_METHODS",
    "BatchConfig",
    "ClientPipeline",
    "Endpoint",
    "EndpointSet",
    "FailoverTransport",
    "FileRegistrySource",
    "FleetRegistry",
    "GalleryClient",
    "GalleryService",
    "HttpRegistrySource",
    "InProcessTransport",
    "LANE_BULK",
    "LANE_INTERACTIVE",
    "MethodRetryPolicies",
    "PipelineHandle",
    "ReadBatcher",
    "Request",
    "Response",
    "StaticRegistrySource",
    "connect",
    "connect_in_process",
    "fleet_from_url",
    "parse_registry",
    "decode_blob",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "error_response",
]
