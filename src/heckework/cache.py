"""Persistent on-disk cache for memoized tables.

One file per (table kind, system content hash), holding length-prefixed
binary records under a magic header with a schema version; bumping the
version invalidates old files.  Keys are write-once: appending a duplicate
is harmless (loads keep the last record, and values for a key are required
to be deterministic).  A file appears with its header already in place: the
header is written to a fresh temporary file that is then hard-linked to the
table's name, so of two racing writers exactly one creates it.  Each store
holds one O_APPEND descriptor per table and makes one os.write per batch of
whole records, so the batches of concurrent writers do not interleave.
Readers simply re-scan the file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

MAGIC = b"HWBC"
SCHEMA_VERSION = 1

pack_len = struct.Struct("<I").pack  # the length prefix of a record's key or value


class CacheStore:
    def __init__(self, root):
        self._fds = {}
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, kind, syshash):
        return self.root / ("%s-%s.hwc" % (kind, syshash))

    def load_table(self, kind, syshash):
        """All records of one table as a dict of key bytes -> value bytes."""
        path = self._path(kind, syshash)
        out = {}
        if not path.exists():
            return out
        blob = path.read_bytes()
        if len(blob) < 8 or blob[:4] != MAGIC:
            return out
        (version,) = struct.unpack("<I", blob[4:8])
        if version != SCHEMA_VERSION:
            return out
        pos = 8
        n = len(blob)
        while pos + 4 <= n:
            (klen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if pos + klen + 4 > n:
                break  # truncated trailing record: ignore
            key = blob[pos : pos + klen]
            pos += klen
            (vlen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if pos + vlen > n:
                break
            out[key] = blob[pos : pos + vlen]
            pos += vlen
        return out

    def _open(self, kind, syshash):
        path = self._path(kind, syshash)
        if not path.exists():
            tmp = self.root / (".%s.%d-%d" % (path.name, os.getpid(), id(self)))
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                os.write(fd, MAGIC + struct.pack("<I", SCHEMA_VERSION))
                os.link(tmp, path)
            except FileExistsError:
                pass  # another writer created the table first
            finally:
                os.close(fd)
                os.unlink(tmp)
        return os.open(path, os.O_WRONLY | os.O_APPEND)

    def extend(self, kind, syshash, framed):
        """Append whole records with one os.write: framed is a list of byte
        chunks that join to records, each key and value behind `pack_len`."""
        if not framed:
            return
        fd = self._fds.get((kind, syshash))
        if fd is None:
            fd = self._fds[(kind, syshash)] = self._open(kind, syshash)
        os.write(fd, b"".join(framed))

    def append(self, kind, syshash, key, value):
        self.extend(kind, syshash, [pack_len(len(key)), key, pack_len(len(value)), value])

    def close(self):
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()

    def __del__(self):
        self.close()
