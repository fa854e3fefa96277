"""The server subprocess: one ``GalleryTcpServer`` over an existing ``data_dir``.

    python3 -m benchmarks.gallerybench.server_main --data-dir D [--spans-out F]

Prints ``READY <port>`` once it is serving and runs until its standard input
reaches end of file — so it cannot outlive the benchmark that started it —
then stops the server, closes the store (checkpointing the WAL) and exits 0.

Without ``--spans-out`` this is exactly ``GalleryTcpServer(GalleryService(
build_gallery(sqlite, fs, shard_count=4)))`` with every default left alone.
With it, the objects ``build_gallery`` made are re-composed with a
span-recording proxy at each layer boundary; the spans are written to F at
shutdown.
"""

from __future__ import annotations

import argparse
import sys

from ._paths import require_repro
from .corpus import open_gallery


def _traced_gallery(data_dir: str, recorder):
    """``open_gallery(data_dir)`` with a span-recording proxy per layer.

    The stores and the blob cache are the ones ``build_gallery`` made — taken
    off its ``DataAccessLayer``'s public properties — so a change to its
    defaults or wiring reaches the traced topology too; only the two
    constructors its last two lines call are repeated here.
    """
    from repro.core.registry import Gallery
    from repro.store.dal import DataAccessLayer

    from .spans import Traced

    built = open_gallery(data_dir).dal
    dal = DataAccessLayer(
        Traced(built.metadata, "store.sharding", recorder),
        Traced(built.blobs, "store.blob", recorder),
        built.cache,
    )
    gallery = Gallery(Traced(dal, "store.dal", recorder))
    return Traced(gallery, "core.registry", recorder)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gallerybench.server_main")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    require_repro()

    from repro.service import wire
    from repro.service.server import GalleryService
    from repro.service.tcp import GalleryTcpServer

    recorder = None
    if args.spans_out is None:
        gallery = open_gallery(args.data_dir)
        service = GalleryService(gallery)
    else:
        from .spans import SpanRecorder, dump_server_spans, trace_batcher

        recorder = SpanRecorder()
        gallery = _traced_gallery(args.data_dir, recorder)
        service = GalleryService(gallery)
        service.handle_frame_stream = recorder.wrap(
            "service.server.handle_frame_stream", service.handle_frame_stream,
            tag_of=lambda data, *rest: data,
        )
        service.dispatch = recorder.wrap(
            "service.server.dispatch", service.dispatch,
            tag_of=lambda request: request,
        )
        trace_batcher(service.read_batcher, recorder)

    server = GalleryTcpServer(service).start()
    print(f"READY {server.address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        clean = server.stop()
        service.read_batcher.close()
        gallery.dal.metadata.close()
        if recorder is not None:
            dump_server_spans(recorder, args.spans_out, wire.decode_request)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
