"""Blob storage for model-instance binaries (Section 3.5).

Gallery treats every model instance as an uninterpreted binary blob and
stores it in a large-object store (S3 or HDFS at Uber); only the *location*
string is kept in the relational metadata store.  This module provides that
contract:

* :class:`BlobStore` — the abstract put/get/exists/delete interface, plus
  the optional zero-copy hooks :meth:`BlobStore.open_region` (an open file
  region the server can hand to ``os.sendfile``) and
  :meth:`BlobStore.get_range` (a digest-carrying sub-range read).
* :class:`InMemoryBlobStore` — dict-backed, for tests and benchmarks.
* :class:`FilesystemBlobStore` — the S3/HDFS stand-in: content-addressed
  (SHA-256) files under a sharded directory tree, so identical blobs dedupe
  and locations are tamper-evident.  Regions served from it are integrity
  checked through a bounded verified-digest cache: the full file is hashed
  on first serve and the (mtime_ns, size) signature is remembered, so the
  fast path skips the per-read hash without ever serving a file that
  changed since verification.

Failure injection (errors, torn writes, rotten reads) wraps any of these in
:class:`repro.reliability.faults.FaultyBlobStore`.

All stores guard their counters with a lock: the concurrent benchmarks and
the multi-worker servers call ``put``/``get`` from many threads at once.
"""

from __future__ import annotations

import hashlib
import os
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    BlobCorruptionError,
    BlobStoreError,
    NotFoundError,
    ValidationError,
)

#: Read granularity for incremental hashing / verification.
_HASH_CHUNK = 1 << 20

#: Bound on the (digest -> (mtime_ns, size)) verified cache.
_VERIFIED_CACHE_SIZE = 4096

#: Bound on the ((digest, offset, length) -> sub-range digest) cache.
_RANGE_DIGEST_CACHE_SIZE = 8192


@dataclass
class BlobStoreStats:
    """Operation counters (physical puts/gets, bytes, digest checks)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    digest_verifications: int = 0


def _clamp_range(size: int, offset: int, length: int | None) -> tuple[int, int]:
    """Validate and clamp a requested (offset, length) against *size*.

    Returns the effective ``(start, count)``.  Requests beyond EOF clamp
    rather than error (``offset == size`` yields an empty range, a length
    past EOF is truncated) so callers can read "up to N bytes from O"
    without knowing the blob size first.
    """
    if not isinstance(offset, int) or isinstance(offset, bool):
        raise ValidationError(f"range offset must be an int, got {type(offset).__name__}")
    if length is not None and (not isinstance(length, int) or isinstance(length, bool)):
        raise ValidationError(f"range length must be an int, got {type(length).__name__}")
    if offset < 0:
        raise ValidationError(f"range offset must be >= 0, got {offset}")
    if length is not None and length < 0:
        raise ValidationError(f"range length must be >= 0, got {length}")
    start = min(offset, size)
    count = size - start if length is None else min(length, size - start)
    return start, count


class BlobRegion:
    """An open, integrity-verified window into a file-backed blob.

    Holds the open file object so the descriptor stays valid for the whole
    serve; ``offset``/``length`` are absolute within the file.  The wire
    layer recognises regions via the ``is_file_region`` marker and either
    hands ``(fileno, offset, length)`` to ``os.sendfile`` or materializes
    the bytes through :meth:`pread` on fallback paths.  Reads are stateless
    (``os.pread``) so a region can be re-read after a partial send without
    seek bookkeeping.
    """

    is_file_region = True

    __slots__ = ("_file", "offset", "length", "blob_size")

    def __init__(self, file, offset: int, length: int, blob_size: int) -> None:
        self._file = file
        self.offset = offset
        self.length = length
        self.blob_size = blob_size

    def __len__(self) -> int:
        return self.length

    def fileno(self) -> int:
        return self._file.fileno()

    def pread(self, rel_offset: int, count: int) -> bytes:
        """Read *count* bytes at *rel_offset* within the region."""
        pieces = []
        pos = self.offset + rel_offset
        remaining = count
        while remaining > 0:
            chunk = os.pread(self._file.fileno(), remaining, pos)
            if not chunk:
                raise BlobStoreError(
                    "blob file truncated mid-read: expected "
                    f"{count} bytes at offset {self.offset + rel_offset}"
                )
            pieces.append(chunk)
            pos += len(chunk)
            remaining -= len(chunk)
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def read(self) -> bytes:
        """Materialize the whole region (fallback/copy paths)."""
        if self.length == 0:
            return b""
        return self.pread(0, self.length)

    def close(self) -> None:
        self._file.close()

    @property
    def closed(self) -> bool:
        return self._file.closed

    def __enter__(self) -> BlobRegion:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class BlobRange:
    """A sub-range read: payload plus the metadata a client needs to verify.

    ``payload`` is either ``bytes`` or an open :class:`BlobRegion` (the
    zero-copy case — the consumer owns closing it).  ``digest`` is the
    SHA-256 hex digest of exactly the ``length`` payload bytes, letting
    clients verify ranges end-to-end even though a sub-range cannot be
    checked against the whole-blob content address.
    """

    payload: bytes | BlobRegion
    offset: int
    length: int
    blob_size: int
    digest: str


class BlobStore(ABC):
    """Abstract blob store: opaque bytes in, location string out."""

    def __init__(self) -> None:
        self.stats = BlobStoreStats()
        self._stats_lock = threading.Lock()

    @abstractmethod
    def put(self, data: bytes, hint: str = "") -> str:
        """Store *data* and return its location.

        *hint* is a human-readable tag (e.g. the instance id) that backends
        may embed in the location for debuggability; it carries no semantics.
        """

    @abstractmethod
    def get(self, location: str) -> bytes:
        """Fetch the blob at *location*; raises :class:`NotFoundError`."""

    @abstractmethod
    def exists(self, location: str) -> bool:
        """True when a blob is present at *location*."""

    @abstractmethod
    def delete(self, location: str) -> None:
        """Remove the blob at *location* (used only by orphan GC)."""

    @abstractmethod
    def locations(self) -> list[str]:
        """Every stored location (for consistency audits)."""

    def open_region(
        self, location: str, offset: int = 0, length: int | None = None
    ) -> BlobRegion | None:
        """Open a verified file region for zero-copy serving, or ``None``.

        ``None`` means this backend cannot expose a file descriptor (it is
        not file-backed, or chooses not to) and the caller must fall back
        to :meth:`get`.  Backends that return a region guarantee its bytes
        matched the content address when opened.
        """
        return None

    def get_range(self, location: str, offset: int, length: int | None) -> BlobRange:
        """Read a sub-range of the blob with its own SHA-256 digest.

        The base implementation fetches the whole blob via :meth:`get`
        (which performs the backend's integrity check) and slices; file-backed
        stores override this with a region read.
        """
        data = self.get(location)
        return range_of_bytes(data, offset, length)


def content_address(data: bytes) -> str:
    """SHA-256 content address used by the filesystem backend."""
    return hashlib.sha256(data).hexdigest()


def range_of_bytes(data: bytes, offset: int, length: int | None) -> BlobRange:
    """Build a digest-carrying :class:`BlobRange` from in-memory bytes."""
    start, count = _clamp_range(len(data), offset, length)
    chunk = data[start : start + count]
    return BlobRange(
        payload=chunk,
        offset=start,
        length=count,
        blob_size=len(data),
        digest=hashlib.sha256(chunk).hexdigest(),
    )


class InMemoryBlobStore(BlobStore):
    """Dict-backed blob store for tests and benchmarks."""

    def __init__(self) -> None:
        super().__init__()
        self._blobs: dict[str, bytes] = {}
        self._counter = 0

    def put(self, data: bytes, hint: str = "") -> str:
        if not isinstance(data, bytes):
            raise BlobStoreError(f"blob data must be bytes, got {type(data).__name__}")
        suffix = f"-{hint}" if hint else ""
        with self._stats_lock:
            self._counter += 1
            location = f"mem://blobs/{self._counter:08d}{suffix}"
            self._blobs[location] = data
            self.stats.puts += 1
            self.stats.bytes_written += len(data)
        return location

    def get(self, location: str) -> bytes:
        try:
            data = self._blobs[location]
        except KeyError:
            raise NotFoundError(f"no blob at {location!r}") from None
        with self._stats_lock:
            self.stats.gets += 1
            self.stats.bytes_read += len(data)
        return data

    def exists(self, location: str) -> bool:
        return location in self._blobs

    def delete(self, location: str) -> None:
        with self._stats_lock:
            if location not in self._blobs:
                raise NotFoundError(f"no blob at {location!r}")
            del self._blobs[location]
            self.stats.deletes += 1

    def locations(self) -> list[str]:
        return sorted(self._blobs)


class FilesystemBlobStore(BlobStore):
    """Content-addressed filesystem store standing in for S3/HDFS.

    Blobs live at ``root/<aa>/<bb>/<sha256>`` where ``aa``/``bb`` are the
    first two byte pairs of the digest, keeping directories small at scale.
    Identical payloads share one file (write-once semantics make this safe),
    and reads verify the digest so corruption is detected rather than served.

    Region serves (:meth:`open_region`) amortize that verification through
    a bounded cache keyed ``digest -> (mtime_ns, size)``: the file is hashed
    in full the first time it is served (or whenever its stat signature
    changes) and subsequent serves skip straight to ``sendfile``.  A tamper
    that rewrites the file bumps ``mtime_ns`` and forces re-verification;
    an in-place overwrite that forges both mtime and size is outside the
    threat model (matching S3's ETag semantics).
    """

    SCHEME = "fs://"

    def __init__(self, root: str | os.PathLike[str]) -> None:
        super().__init__()
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        # digest -> (mtime_ns, size) of the file content last verified.
        self._verified: OrderedDict[str, tuple[int, int]] = OrderedDict()
        # (digest, start, count) -> sub-range SHA-256 hex digest.
        self._range_digests: OrderedDict[tuple[str, int, int], str] = OrderedDict()

    def _path_for(self, digest: str) -> Path:
        return self._root / digest[:2] / digest[2:4] / digest

    def put(self, data: bytes, hint: str = "") -> str:
        """Durably store *data* via write-to-temp + fsync + atomic rename.

        A crash or torn write at any point leaves either nothing at the
        final path or the complete, fsync'd payload — readers can never
        observe a half-written blob.  The temp name embeds pid + thread id
        so concurrent writers of the same content cannot collide, and ends
        in ``.tmp`` so :meth:`locations` never reports debris.
        """
        if not isinstance(data, bytes):
            raise BlobStoreError(f"blob data must be bytes, got {type(data).__name__}")
        digest = content_address(data)
        path = self._path_for(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(
                f"{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)  # atomic publish
                self._fsync_dir(path.parent)
            except OSError as exc:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
                raise BlobStoreError(f"failed to write blob: {exc}") from exc
        with self._stats_lock:
            self.stats.puts += 1
            self.stats.bytes_written += len(data)
        return f"{self.SCHEME}{digest}"

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Persist the rename itself (directory entry), best-effort."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; rename is still atomic
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _digest_of(self, location: str) -> str:
        if not location.startswith(self.SCHEME):
            raise BlobStoreError(f"not a filesystem blob location: {location!r}")
        return location[len(self.SCHEME):]

    def _mark_verified(self, digest: str, signature: tuple[int, int]) -> None:
        with self._stats_lock:
            self._verified[digest] = signature
            self._verified.move_to_end(digest)
            while len(self._verified) > _VERIFIED_CACHE_SIZE:
                self._verified.popitem(last=False)

    def _is_verified(self, digest: str, signature: tuple[int, int]) -> bool:
        with self._stats_lock:
            cached = self._verified.get(digest)
            if cached == signature:
                self._verified.move_to_end(digest)
                return True
        return False

    def _verify_fd(self, fd: int, digest: str, location: str) -> None:
        """Incrementally SHA-256 the whole file behind *fd* (stateless reads)."""
        hasher = hashlib.sha256()
        pos = 0
        while True:
            chunk = os.pread(fd, _HASH_CHUNK, pos)
            if not chunk:
                break
            hasher.update(chunk)
            pos += len(chunk)
        with self._stats_lock:
            self.stats.digest_verifications += 1
        if hasher.hexdigest() != digest:
            raise BlobCorruptionError(
                f"blob at {location!r} failed its SHA-256 integrity check: "
                "stored bytes no longer match the content address"
            )

    def get(self, location: str) -> bytes:
        digest = self._digest_of(location)
        path = self._path_for(digest)
        hasher = hashlib.sha256()
        pieces = []
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                while True:
                    chunk = handle.read(_HASH_CHUNK)
                    if not chunk:
                        break
                    hasher.update(chunk)
                    pieces.append(chunk)
        except FileNotFoundError:
            raise NotFoundError(f"no blob at {location!r}") from None
        except OSError as exc:
            raise BlobStoreError(f"failed to read blob: {exc}") from exc
        with self._stats_lock:
            self.stats.digest_verifications += 1
        if hasher.hexdigest() != digest:
            raise BlobCorruptionError(
                f"blob at {location!r} failed its SHA-256 integrity check: "
                "stored bytes no longer match the content address"
            )
        self._mark_verified(digest, (stat.st_mtime_ns, stat.st_size))
        with self._stats_lock:
            self.stats.gets += 1
            self.stats.bytes_read += stat.st_size
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def open_region(
        self, location: str, offset: int = 0, length: int | None = None
    ) -> BlobRegion | None:
        """Open a digest-verified region of the blob for zero-copy serving.

        The requested window is clamped to the file (see
        :func:`_clamp_range`); integrity is enforced via the verified-digest
        cache described in the class docstring.
        """
        digest = self._digest_of(location)
        path = self._path_for(digest)
        try:
            file = open(path, "rb")
        except FileNotFoundError:
            raise NotFoundError(f"no blob at {location!r}") from None
        except OSError as exc:
            raise BlobStoreError(f"failed to open blob: {exc}") from exc
        try:
            stat = os.fstat(file.fileno())
            signature = (stat.st_mtime_ns, stat.st_size)
            if not self._is_verified(digest, signature):
                self._verify_fd(file.fileno(), digest, location)
                self._mark_verified(digest, signature)
            start, count = _clamp_range(stat.st_size, offset, length)
        except BaseException:
            file.close()
            raise
        with self._stats_lock:
            self.stats.gets += 1
            self.stats.bytes_read += count
        return BlobRegion(file, start, count, stat.st_size)

    def get_range(self, location: str, offset: int, length: int | None) -> BlobRange:
        """Zero-copy sub-range read with a cached sub-range digest.

        The region is opened (verified) first; the sub-range digest is then
        served from a bounded cache keyed on ``(digest, start, count)`` —
        safe because the content address pins the bytes — or computed with
        one extra pass on first request.  The caller owns closing the
        returned region.
        """
        digest = self._digest_of(location)
        region = self.open_region(location, offset, length)
        try:
            key = (digest, region.offset, region.length)
            with self._stats_lock:
                sub_digest = self._range_digests.get(key)
                if sub_digest is not None:
                    self._range_digests.move_to_end(key)
            if sub_digest is None:
                hasher = hashlib.sha256()
                pos = 0
                while pos < region.length:
                    chunk = region.pread(pos, min(_HASH_CHUNK, region.length - pos))
                    hasher.update(chunk)
                    pos += len(chunk)
                sub_digest = hasher.hexdigest()
                with self._stats_lock:
                    self._range_digests[key] = sub_digest
                    self._range_digests.move_to_end(key)
                    while len(self._range_digests) > _RANGE_DIGEST_CACHE_SIZE:
                        self._range_digests.popitem(last=False)
        except BaseException:
            region.close()
            raise
        return BlobRange(
            payload=region,
            offset=region.offset,
            length=region.length,
            blob_size=region.blob_size,
            digest=sub_digest,
        )

    def exists(self, location: str) -> bool:
        try:
            return self._path_for(self._digest_of(location)).exists()
        except BlobStoreError:
            return False

    def delete(self, location: str) -> None:
        digest = self._digest_of(location)
        path = self._path_for(digest)
        if not path.exists():
            raise NotFoundError(f"no blob at {location!r}")
        path.unlink()
        with self._stats_lock:
            self._verified.pop(digest, None)
            self.stats.deletes += 1

    def locations(self) -> list[str]:
        out = []
        for path in self._root.glob("*/*/*"):
            if path.is_file() and not path.suffix:
                out.append(f"{self.SCHEME}{path.name}")
        return sorted(out)
