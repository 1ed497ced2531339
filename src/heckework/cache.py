"""The on-disk KL cache of `kl --cache-dir`: written, never read for values.

One file per (table kind, system content hash), holding length-prefixed
binary records under a magic header with a schema version; bumping the
version invalidates old files.  A file appears with its header already in
place: the header is written to a fresh temporary file that is then
hard-linked to the table's name, so of two racing writers exactly one
creates it.  Each store holds one O_APPEND descriptor per table and makes
one os.write per batch of whole records, so the batches of concurrent
writers do not interleave.  A load keeps the last record of each key and
stops at the first torn record; the store's next batch to that table first
cuts the torn tail off, unless the file has grown since the load.

A KL record (`write_kl`) is keyed by json.dumps([y word, w word]) and holds
the canonical {"v": ...} JSON of P_{y,w} in u-units.  `kl` computes its
whole table before it writes anything, and then appends only the records
the file lacks or holds with other bytes; no record, well formed or not,
ever changes what `kl` prints.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

MAGIC = b"HWBC"
SCHEMA_VERSION = 1

_LEN = struct.Struct("<I")  # the length prefix of a record's key or value
pack_len = _LEN.pack


class CacheStore:
    def __init__(self, root):
        self._fds = {}
        self._torn = {}  # (kind, syshash) -> (end of the last whole record, size) at load
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
        pos, n, unpack = 8, len(blob), _LEN.unpack_from
        vals = {}  # each distinct value once, which keeps a KL table small in memory
        while pos + 4 <= n:
            kend = pos + 4 + unpack(blob, pos)[0]
            if kend + 4 > n:
                break
            end = kend + 4 + unpack(blob, kend)[0]
            if end > n:
                break
            val = blob[kend + 4 : end]
            out[blob[pos + 4 : kend]] = vals.setdefault(val, val)
            pos = end
        if pos < n:  # a torn record: no load reads past it
            self._torn[kind, syshash] = (pos, n)
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
        torn = self._torn.pop((kind, syshash), None)
        if torn is not None and os.fstat(fd).st_size == torn[1]:
            os.ftruncate(fd, torn[0])  # back to the last whole record
        os.write(fd, b"".join(framed))

    def append(self, kind, syshash, key, value):
        self.extend(kind, syshash, [pack_len(len(key)), key, pack_len(len(value)), value])

    def close(self):
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()

    def __del__(self):
        self.close()


def write_kl(store, table):
    """Append to `store` the record of every pair y < w in the columns that
    the KLTable `table` has filled, unless the store's table already holds
    those bytes: one load, then one batch per column, in fill order.  Each
    distinct value is encoded once."""
    syshash = table.system.content_hash()
    held = store.load_table("kl", syshash)
    # id -> b'[' + json of its word + b', ': the key of (y, w) is y's head
    # and the tail json of w's word + b']'
    heads = [b"[" + json.dumps(list(x.word)).encode() + b", " for x in table.system._elts]
    vals = {}  # handle -> (value bytes, framed value)
    for w, col in table.filled():
        tail, framed = heads[w][1:-2] + b"]", []
        for y, h in col.items():
            if y == w:
                continue  # P_{w,w} = 1 is never a record
            key = heads[y] + tail
            val = vals.get(h)
            if val is None:
                v = json.dumps(table.value(h).to_json(), sort_keys=True).encode()
                val = vals[h] = (v, pack_len(len(v)) + v)
            if held.get(key) != val[0]:
                framed += (pack_len(len(key)), key, val[1])
        store.extend("kl", syshash, framed)
